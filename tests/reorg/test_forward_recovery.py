"""Forward recovery: crash-interrupted reorganizations finish their work.

The paper's claim (section 5.1): "The reorganization unit will be able to
finish the work instead of rolling back and wasting the work that has
already been done. ... Not only does it not do undo, it also goes forward
to finish the unfinished work."

These tests crash a reorganization at *every* log-append boundary of its
first few units (exhaustive window sweep), recover, forward-recover, and
verify the tree is intact and the unit completed exactly once.
"""

import pytest

from repro.config import FreeSpacePolicy, ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint
from repro.reorg.protocols import ReorgProtocol
from repro.reorg.reorganizer import Reorganizer
from repro.reorg.shrink import TreeShrinker
from repro.locks.resources import current_lock_name
from repro.sim.crash import (
    LogCrashInjector,
    count_completed_units,
    crash_recover,
    run_reorg_with_crash,
)
from repro.storage.page import PageKind, Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import (
    FreeRecord,
    ReorgBeginRecord,
    ReorgDoneRecord,
    TreeSwitchRecord,
)
from tests.reorg.pass3_hooks import kinds_read_during


def sparse_db(n=240, keep_every=4, careful=True):
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=256,
            internal_extent_pages=256,
            careful_writing=careful,
            buffer_pool_pages=64,
        )
    )
    tree = db.bulk_load_tree(
        [Record(k, f"v{k}") for k in range(n)], leaf_fill=1.0, internal_fill=0.5
    )
    for k in range(n):
        if k % keep_every != 0:
            tree.delete(k)
    db.flush()
    db.checkpoint()
    return db


def expected_keys(n=240, keep_every=4):
    return [k for k in range(n) if k % keep_every == 0]


class TestUnitForwardRecovery:
    @pytest.mark.parametrize("crash_after", list(range(2, 26, 3)))
    def test_crash_windows_through_first_units(self, crash_after):
        """Crash at many points inside the first compaction units; the tree
        must come back complete and the interrupted unit must finish."""
        db = sparse_db()
        base_appends = db.log.last_lsn
        result = run_reorg_with_crash(
            db, "primary", ReorgConfig(), crash_after_records=crash_after
        )
        assert result.crashed
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == expected_keys()
        # Work is never lost: units completed only grows.
        assert result.units_completed_after >= result.units_completed_before
        del base_appends

    def test_pending_unit_reported_and_finished(self):
        db = sparse_db()
        tree = db.tree()
        reorg = Reorganizer(db, tree, ReorgConfig())
        # Crash right after the first unit's BEGIN + first MOVE pair.
        with pytest.raises(CrashPoint):
            with LogCrashInjector(db.log, after_records=4):
                reorg.run_pass1()
        recovery = crash_recover(db)
        assert recovery.pending_unit is not None
        pending = recovery.pending_unit
        assert pending.records, "unit chain must be reconstructed"
        assert isinstance(pending.records[0], ReorgBeginRecord)
        fresh = Reorganizer(db, db.tree(), ReorgConfig())
        report = fresh.forward_recover(recovery)
        assert report.forward_recovered_unit is not None
        assert report.forward_recovered_unit.unit_id == pending.unit_id
        assert not db.progress.unit_in_flight
        db.tree().validate()
        assert [r.key for r in db.tree().items()] == expected_keys()

    def test_no_pending_unit_when_crash_lands_between_units(self):
        db = sparse_db()
        tree = db.tree()
        reorg = Reorganizer(db, tree, ReorgConfig())
        reorg.run_pass1()  # run to completion, no crash
        db.log.flush()
        recovery = crash_recover(db)
        assert recovery.pending_unit is None
        db.tree().validate()

    def test_forward_recovery_preserves_compaction_progress(self):
        """Units finished before the crash are not redone: LK advances
        monotonically and their END records survive."""
        db = sparse_db()
        result = run_reorg_with_crash(
            db, "primary", ReorgConfig(), crash_after_records=40
        )
        assert result.crashed
        assert result.units_completed_before >= 1
        assert result.units_completed_after > result.units_completed_before

    def test_without_careful_writing_also_recovers(self):
        db = sparse_db(careful=False)
        result = run_reorg_with_crash(
            db, "primary", ReorgConfig(), crash_after_records=7
        )
        assert result.crashed
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == expected_keys()

    @pytest.mark.parametrize("crash_after", [3, 9, 15])
    def test_crash_during_swap_pass(self, crash_after):
        db = sparse_db()
        tree = db.tree()
        # In-place-only compaction leaves the leaves out of disk order, so
        # pass 2 has real swapping to crash in (the paper heuristic would
        # otherwise leave pass 2 with nothing to do).
        engine_reorg = Reorganizer(
            db, tree, ReorgConfig(free_space_policy=FreeSpacePolicy.NONE)
        )
        engine_reorg.run_pass1()
        db.log.flush()
        crashed = False
        try:
            with LogCrashInjector(db.log, after_records=crash_after):
                engine_reorg.run_pass2()
        except CrashPoint:
            crashed = True
        assert crashed
        recovery = crash_recover(db)
        fresh = Reorganizer(db, db.tree(), ReorgConfig())
        fresh.forward_recover(recovery)
        fresh.run_pass2()
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == expected_keys()
        chain = tree.leaf_ids_in_key_order()
        assert chain == sorted(chain)

    def test_double_crash_during_forward_recovery(self):
        """Forward recovery itself can crash; the next recovery still
        completes the unit exactly once."""
        db = sparse_db()
        tree = db.tree()
        reorg = Reorganizer(db, tree, ReorgConfig())
        with pytest.raises(CrashPoint):
            with LogCrashInjector(db.log, after_records=4):
                reorg.run_pass1()
        recovery = crash_recover(db)
        assert recovery.pending_unit is not None
        # Crash again while forward recovery is finishing the unit.
        second = Reorganizer(db, db.tree(), ReorgConfig())
        try:
            with LogCrashInjector(db.log, after_records=2):
                second.forward_recover(recovery)
            crashed_again = False
        except CrashPoint:
            crashed_again = True
        recovery2 = crash_recover(db)
        third = Reorganizer(db, db.tree(), ReorgConfig())
        third.forward_recover(recovery2)
        assert not db.progress.unit_in_flight
        db.tree().validate()
        assert [r.key for r in db.tree().items()] == expected_keys()
        del crashed_again


def big_sparse_db():
    """Large enough that pass 3 reads dozens of base pages."""
    return sparse_db(n=1200, keep_every=2)


class TestPass3Recovery:
    def run_until_pass3_crash(self, db, crash_after, config=None):
        config = config or ReorgConfig(stable_point_interval=2)
        tree = db.tree()
        reorg = Reorganizer(db, tree, config)
        reorg.run_pass1()
        reorg.run_pass2()
        db.log.flush()
        crashed = False
        try:
            with LogCrashInjector(db.log, after_records=crash_after):
                reorg.run_pass3()
        except CrashPoint:
            crashed = True
        return reorg, crashed

    @pytest.mark.parametrize("crash_after", [2, 6, 12, 20, 35])
    def test_crash_during_scan_resumes_from_stable_point(self, crash_after):
        db = big_sparse_db()
        config = ReorgConfig(stable_point_interval=2)
        _, crashed = self.run_until_pass3_crash(db, crash_after, config)
        assert crashed
        recovery = crash_recover(db)
        assert recovery.pass3["primary"].reorg_bit
        fresh = Reorganizer(db, db.tree(), config)
        report = fresh.forward_recover(recovery)
        assert report.switch is not None
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == expected_keys(1200, 2)
        assert not db.pass3_state().reorg_bit

    def test_crash_after_switch_record_finishes_switch(self):
        """Crash inside the switch window: recovery finishes the switch
        forward instead of rebuilding."""
        db = sparse_db()
        config = ReorgConfig(stable_point_interval=3)
        tree = db.tree()
        reorg = Reorganizer(db, tree, config)
        reorg.run_pass1()
        reorg.run_pass2()
        db.log.flush()
        # Deterministic approach: run pass 3 fully on a structurally
        # identical rehearsal database, find how many appends precede the
        # TreeSwitchRecord, then crash the real run right after it.
        rehearsal = sparse_db()
        r_reorg = Reorganizer(rehearsal, rehearsal.tree(), config)
        r_reorg.run_pass1()
        r_reorg.run_pass2()
        mark = rehearsal.log.last_lsn
        r_reorg.run_pass3()
        from repro.wal.records import TreeSwitchRecord

        switch_offset = None
        for i, record in enumerate(rehearsal.log.records_from(mark + 1)):
            if isinstance(record, TreeSwitchRecord):
                switch_offset = i + 1
                break
        assert switch_offset is not None
        crashed = False
        try:
            with LogCrashInjector(db.log, after_records=switch_offset):
                reorg.run_pass3()
        except CrashPoint:
            crashed = True
        assert crashed
        recovery = crash_recover(db)
        pending = recovery.pass3["primary"].switch_pending
        assert pending is not None
        fresh = Reorganizer(db, db.tree(), config)
        report = fresh.forward_recover(recovery)
        assert report.switch is not None
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == expected_keys()
        assert tree.root_id == pending[1]

    def test_crash_after_every_log_record_of_a_des_pass3(self):
        """The DES protocol logs through the same step bodies as the
        synchronous pass 3, so forward recovery finishes it from *any*
        record boundary — scan, upper levels, catch-up, and every point
        of the switch window (switch record, flip, each freed page)."""
        config = ReorgConfig(stable_point_interval=2)

        def post_pass2_db():
            db = sparse_db(n=600, keep_every=2)
            reorg = Reorganizer(db, db.tree(), config)
            reorg.run_pass1()
            reorg.run_pass2()
            db.log.flush()
            return db

        def des_pass3(db):
            sched = Scheduler(db.locks, store=db.store, log=db.log)
            protocol = ReorgProtocol(db, "primary", config)
            sched.spawn(protocol.pass3(), name="reorg", is_reorganizer=True)
            sched.run()

        rehearsal = post_pass2_db()
        mark = rehearsal.log.last_lsn
        des_pass3(rehearsal)
        logged = [type(r) for r in rehearsal.log.records_from(mark + 1)]
        assert logged[-1] is ReorgDoneRecord
        switch_at = logged.index(TreeSwitchRecord)
        assert FreeRecord in logged[switch_at:]  # the window has an inside
        for crash_after in range(1, len(logged) + 1):
            db = post_pass2_db()
            with pytest.raises(CrashPoint):
                with LogCrashInjector(db.log, after_records=crash_after):
                    des_pass3(db)
            recovery = crash_recover(db)
            state = recovery.pass3.get("primary")
            assert (state is not None and state.switch_pending is not None) == (
                switch_at < crash_after < len(logged)
            ), crash_after
            Reorganizer(db, db.tree(), config).forward_recover(recovery)
            tree = db.tree()
            tree.validate()
            assert [r.key for r in tree.items()] == expected_keys(600, 2), crash_after
            assert not db.pass3_state().reorg_bit
            assert tree.base_change_listener is None
            # Flipped exactly once, whichever side of the crash did it.
            assert current_lock_name(db, "primary") == "primary@1", crash_after

    def test_orphaned_new_pages_deallocated_on_restart(self):
        db = big_sparse_db()
        config = ReorgConfig(stable_point_interval=2)
        _, crashed = self.run_until_pass3_crash(db, 25, config)
        assert crashed
        recovery = crash_recover(db)
        fresh = Reorganizer(db, db.tree(), config)
        report = fresh.forward_recover(recovery)
        assert report.pass3 is not None
        # After the full recovery the allocation map must be exactly the
        # reachable pages (validate checks reachable => allocated; check
        # the reverse for internals).
        tree = db.tree()
        tree.validate()
        reachable = set()
        stack = [tree.root_id]
        while stack:
            page = db.store.get(stack.pop())
            if page.kind is PageKind.INTERNAL:
                reachable.add(page.page_id)
                stack.extend(page.children())
        allocated = set(db.store.free_map.allocated_page_ids("internal"))
        assert allocated == reachable

    def test_restart_reads_no_leaf(self, monkeypatch):
        """Rolling pass 3 back to its stable point tells old-tree pages from
        orphans by the old internal pages alone; no leaf is fetched."""
        db = big_sparse_db()
        _, crashed = self.run_until_pass3_crash(db, 25)
        assert crashed
        recovery = crash_recover(db)
        kinds = kinds_read_during(monkeypatch, db, TreeShrinker, "restart_after_crash")
        report = Reorganizer(db, db.tree(), ReorgConfig(stable_point_interval=2)).forward_recover(recovery)
        assert report.pass3.orphans_freed > 0
        assert kinds and PageKind.LEAF not in kinds
        db.tree().validate()

    def test_side_file_residue_dropped_beyond_stable_key(self):
        db = sparse_db()
        # Seed a side file with entries straddling a stable key.
        db.pass3_state().side_file_entries.extend(
            [(10, 3, "insert"), (500, 4, "insert")]
        )
        shrinker = TreeShrinker(db, db.tree(), ReorgConfig())
        db.pass3_state().stable_key = 100
        shrinker.restart_after_crash()
        assert db.pass3_state().side_file_entries == [(10, 3, "insert")]
