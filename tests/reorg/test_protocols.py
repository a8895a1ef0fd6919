"""Tests for the reorganizer's DES protocols running under contention."""

import pytest

from repro.btree.protocols import reader_search, updater_insert
from repro.btree.stats import collect_stats
from repro.config import FreeSpacePolicy, ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import ReorgError
from repro.reorg.compact import LeafCompactor
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.reorg.shrink import MAX_CATCHUP_ROUNDS, TreeShrinker
from repro.sim.crash import crash_recover
from repro.sim.workload import build_sparse_tree
from repro.storage.page import PageKind, Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import ReorgDoneRecord, StableKeyRecord


def make_db(n=600, fill_after=0.3):
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=512,
            internal_extent_pages=256,
            buffer_pool_pages=128,
        )
    )
    build_sparse_tree(db, n_records=n, fill_after=fill_after)
    return db


def make_scheduler(db):
    return Scheduler(db.locks, store=db.store, log=db.log, io_time=0.05, hit_time=0.005)


class TestReorgProtocolAlone:
    def test_pass1_protocol_compacts(self):
        db = make_db()
        before = collect_stats(db.tree())
        sched = make_scheduler(db)
        protocol = ReorgProtocol(db, "primary", ReorgConfig())
        sched.spawn(protocol.pass1(), name="reorg", is_reorganizer=True)
        sched.run()
        stats = sched.completed[0][1]
        assert stats["units"] > 0
        after = collect_stats(db.tree())
        assert after.leaf_fill > before.leaf_fill
        db.tree().validate()

    def test_full_protocol_matches_synchronous_result(self):
        db = make_db()
        keys_before = [r.key for r in db.tree().items()]
        sched = make_scheduler(db)
        protocol = ReorgProtocol(db, "primary", ReorgConfig())
        sched.spawn(
            full_reorganization(protocol), name="reorg", is_reorganizer=True
        )
        sched.run()
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == keys_before
        stats = collect_stats(tree)
        assert stats.disk_order_fraction == 1.0
        assert not db.pass3_state().reorg_bit

    def test_pass2_protocol_orders_leaves(self):
        db = make_db()
        sched = make_scheduler(db)
        protocol = ReorgProtocol(
            db, "primary", ReorgConfig(free_space_policy=FreeSpacePolicy.NONE)
        )

        def both_passes():
            yield from protocol.pass1()
            result = yield from protocol.pass2()
            return result

        sched.spawn(both_passes(), name="reorg", is_reorganizer=True)
        sched.run()
        stats = sched.completed[0][1]
        assert stats["swaps"] + stats["moves"] > 0
        chain = db.tree().leaf_ids_in_key_order()
        assert chain == sorted(chain)
        db.tree().validate()


class TestReorgUnderContention:
    def test_readers_survive_full_reorganization(self):
        db = make_db()
        live_keys = [r.key for r in db.tree().items()]
        sched = make_scheduler(db)
        protocol = ReorgProtocol(
            db, "primary", ReorgConfig(), unit_pause=0.05, op_duration=0.2
        )
        sched.spawn(
            full_reorganization(protocol), name="reorg", is_reorganizer=True
        )
        for i, key in enumerate(live_keys[:60]):
            sched.spawn(reader_search(db, "primary", key), at=0.1 * i)
        sched.run()
        results = [r for t, r in sched.completed if t.name.startswith("txn")]
        assert sched.failed == []
        found = [
            r for _, r in sched.completed
            if isinstance(r, Record)
        ]
        assert len(found) == 60  # every reader saw its record
        db.tree().validate()

    def test_updaters_and_reorganizer_interleave(self):
        db = make_db()
        sched = make_scheduler(db)
        protocol = ReorgProtocol(
            db, "primary", ReorgConfig(), unit_pause=0.05, op_duration=0.2
        )
        sched.spawn(
            full_reorganization(protocol), name="reorg", is_reorganizer=True
        )
        new_keys = list(range(10_000, 10_040))
        for i, key in enumerate(new_keys):
            sched.spawn(
                updater_insert(db, "primary", Record(key, "hot")),
                at=0.2 * i,
            )
        sched.run()
        assert sched.failed == []
        tree = db.tree()
        tree.validate()
        for key in new_keys:
            assert tree.search(key) is not None, key

    def test_inserts_behind_pass3_scan_reach_new_tree(self):
        db = make_db()
        sched = make_scheduler(db)
        protocol = ReorgProtocol(
            db, "primary", ReorgConfig(), scan_pause=0.3, op_duration=0.05
        )
        sched.spawn(
            full_reorganization(protocol), name="reorg", is_reorganizer=True
        )
        # A stream of inserts at low keys, arriving throughout the run so
        # some land behind the pass-3 scan and travel via the side file.
        keys = [1 + 2 * i for i in range(50)]
        for i, key in enumerate(keys):
            sched.spawn(
                updater_insert(db, "primary", Record(key, "sf")), at=0.5 * i
            )
        sched.run()
        assert sched.failed == []
        tree = db.tree()
        tree.validate()
        inserted = [k for k in keys if tree.search(k) is not None]
        assert len(inserted) >= 45  # duplicates of survivors may fail
        assert not db.pass3_state().reorg_bit

    def test_reorganizer_yields_at_deadlock(self):
        """A long-running reader that collides with the reorganizer's RX
        acquisition must never be chosen as the victim."""
        db = make_db()
        sched = make_scheduler(db)
        protocol = ReorgProtocol(
            db, "primary", ReorgConfig(), op_duration=0.5
        )
        sched.spawn(protocol.pass1(), name="reorg", is_reorganizer=True)
        live_keys = [r.key for r in db.tree().items()]
        for i, key in enumerate(live_keys[:30]):
            sched.spawn(
                reader_search(db, "primary", key, think=1.0), at=0.05 * i
            )
        sched.run()
        # No user transaction may die with a DeadlockError.
        from repro.errors import DeadlockError

        user_deadlocks = [
            exc for txn, exc in sched.failed
            if not txn.is_reorganizer and isinstance(exc, DeadlockError)
        ]
        assert user_deadlocks == []
        db.tree().validate()


def test_planned_ahead_unit_probes_its_first_leaf_once(monkeypatch):
    """The S-coupling key of a pass-1 unit costs one leaf fetch, the
    "lost leaf" checks included."""
    db = make_db()
    protocol = ReorgProtocol(db, "primary", ReorgConfig())
    compactor = LeafCompactor(db, protocol.tree, protocol.config)
    target = compactor._target_records_per_page()
    base = compactor._base_page_ids_in_key_order()[0]
    group = next(g for g in compactor._plan_groups(base, target) if len(g) > 1)
    unit = protocol._compaction(compactor, group, target, stats={})()
    assert unit.planned_ahead
    fetched = []
    get_leaf = db.store.get_leaf
    monkeypatch.setattr(
        db.store, "get_leaf", lambda pid: fetched.append(pid) or get_leaf(pid)
    )
    assert protocol._probe_key(unit) == get_leaf(group[0]).min_key()
    assert fetched == [group[0]]


def post_pass2_db(n=1500):
    """A sparse tree after synchronous passes 1-2: what pass 3 starts on."""
    db = make_db(n=n)
    reorg = Reorganizer(db, db.tree(), ReorgConfig())
    reorg.run_pass1()
    reorg.run_pass2()
    db.log.flush()
    return db


def lone_des_pass3(db):
    """Run only ``ReorgProtocol.pass3()`` on a scheduler; its result dict."""
    sched = make_scheduler(db)
    protocol = ReorgProtocol(db, "primary", ReorgConfig())
    txn = sched.spawn(protocol.pass3(), name="reorg", is_reorganizer=True)
    sched.run()
    assert sched.failed == []
    assert db.locks.owned_resources(txn) == []
    return sched.completed[0][1]


class TestPass3StatedOnce:
    """Section 7 has one body per step and one ordering of them: the DES
    schedules it, the synchronous reorganizer drives it alone."""

    def test_synchronous_and_des_pass3_log_and_read_the_same(self):
        sync_db, des_db = post_pass2_db(), post_pass2_db()
        mark = sync_db.log.last_lsn
        assert des_db.log.last_lsn == mark
        pass3, switch = Reorganizer(sync_db, sync_db.tree(), ReorgConfig()).run_pass3()
        result = lone_des_pass3(des_db)

        sync_log = list(sync_db.log.records_from(mark + 1))
        assert isinstance(sync_log[0], StableKeyRecord)
        assert isinstance(sync_log[-1], ReorgDoneRecord)
        assert sync_log == list(des_db.log.records_from(mark + 1))
        assert sync_db.store.disk.stats == des_db.store.disk.stats
        for db in (sync_db, des_db):
            db.tree().validate()
            assert not db.pass3_state().reorg_bit
        assert [r.key for r in sync_db.tree().items()] == [
            r.key for r in des_db.tree().items()
        ]
        # One set of counters, under the same names in both worlds.
        assert pass3.base_pages_read > 1 and pass3.new_internal_pages > 1
        for name in (
            "base_pages_read", "entries_scanned", "new_base_pages",
            "new_internal_pages", "stable_points", "catchup_rounds",
        ):
            assert result[name] == getattr(pass3, name), name
        assert result["old_internal_freed"] == switch.old_internal_freed > 0
        assert result["base_pages"] == pass3.base_pages_read
        assert result["aborted_stragglers"] == 0

    def test_a_side_file_that_never_drains_fails_both_loops_alike(self, monkeypatch):
        """Catch-up has one rule: MAX_CATCHUP_ROUNDS rounds that leave the
        side file non-empty fail pass 3, on the DES as synchronously —
        rather than switch with a change left behind."""
        rounds = []

        def never_drains(shrinker):
            rounds.append(1)
            shrinker.db.pass3_state().side_file_entries[:] = [(0, 0, "insert")]
            return 0

        monkeypatch.setattr(TreeShrinker, "apply_side_file_once", never_drains)
        message = f"side file did not converge in {MAX_CATCHUP_ROUNDS} rounds"
        for des in (False, True):
            rounds.clear()
            db = post_pass2_db()
            with pytest.raises(ReorgError, match=message):
                if des:
                    lone_des_pass3(db)
                else:
                    Reorganizer(db, db.tree(), ReorgConfig()).run_pass3()
            assert len(rounds) == MAX_CATCHUP_ROUNDS

    def test_full_reorganization_reports_the_pass3_counters(self):
        db = make_db()
        sched = make_scheduler(db)
        protocol = ReorgProtocol(db, "primary", ReorgConfig())
        sched.spawn(full_reorganization(protocol), name="reorg", is_reorganizer=True)
        sched.run()
        pass3 = sched.completed[0][1]["pass3"]
        assert isinstance(pass3, dict)
        assert pass3["base_pages_read"] > 0
        assert pass3["new_internal_pages"] > 0
        assert pass3["stable_points"] > 0
        assert pass3["sidefile_appended"] == pass3["sidefile_applied"] == 0
        for key in ("old_internal_freed", "catchup_rounds", "base_pages",
                    "aborted_stragglers"):
            assert key in pass3

    def test_pass3_on_a_leaf_root_attaches_nothing(self):
        """The root check precedes the listener: a lone pass 3 on a
        single-leaf tree must not leave the reorganization bit set (the
        daemon would defer that shard forever and the next checkpoint
        would make recovery run a pass 3 nobody asked for)."""
        db = Database(
            TreeConfig(
                leaf_capacity=8, internal_capacity=6,
                leaf_extent_pages=64, internal_extent_pages=32,
            )
        )
        tree = db.bulk_load_tree([Record(k, "v") for k in range(3)])
        lone_des_pass3(db)
        assert not db.pass3_state().reorg_bit
        assert tree.base_change_listener is None
        for key in range(3, 40):
            tree.insert(Record(key, "v"))
        assert db.store.get(tree.root_id).kind is PageKind.INTERNAL
        db.flush()
        db.checkpoint()
        recovery = crash_recover(db)
        assert "primary" not in recovery.pass3
        db.tree().validate()
