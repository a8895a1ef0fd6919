"""Tests for the Tandem-style baseline ([Smi90])."""

import pytest

from repro.baseline.smith90 import Smith90Protocol, Smith90Reorganizer
from repro.btree.stats import collect_stats
from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint, ReorgError
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.sim.workload import build_sparse_tree
from repro.storage.page import PageKind, Record
from repro.storage.store import LEAF_EXTENT
from repro.txn.scheduler import Scheduler


def make_db(n=400, fill_after=0.3):
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
    db.flush()
    db.checkpoint()
    return db


class TestSynchronousEngine:
    def test_compaction_raises_fill(self):
        db = make_db()
        before = collect_stats(db.tree())
        smith = Smith90Reorganizer(db, db.tree(), ReorgConfig(target_fill=0.9))
        merges = smith.run_compaction()
        after = collect_stats(db.tree())
        assert merges > 0
        assert after.leaf_fill > before.leaf_fill
        db.tree().validate()

    def test_no_records_lost(self):
        db = make_db()
        before = [(r.key, r.payload) for r in db.tree().items()]
        smith = Smith90Reorganizer(db, db.tree(), ReorgConfig())
        smith.run()
        assert [(r.key, r.payload) for r in db.tree().items()] == before
        db.tree().validate()

    def test_ordering_places_leaves_contiguously(self):
        db = make_db()
        smith = Smith90Reorganizer(db, db.tree(), ReorgConfig())
        smith.run()
        chain = db.tree().leaf_ids_in_key_order()
        assert chain == sorted(chain)
        assert collect_stats(db.tree()).disk_order_fraction == 1.0

    def test_every_operation_is_one_transaction_one_file_lock(self):
        db = make_db()
        smith = Smith90Reorganizer(db, db.tree(), ReorgConfig())
        stats = smith.run()
        assert stats.transactions == stats.operations
        assert stats.file_locks == stats.operations

    def test_two_blocks_per_operation(self):
        """Each [Smi90] transaction deals with exactly two blocks, so the
        baseline needs more units than the paper's d-page compaction."""
        from repro.reorg.reorganizer import Reorganizer

        db_smith = make_db()
        smith = Smith90Reorganizer(db_smith, db_smith.tree(), ReorgConfig())
        smith.run_compaction()

        db_paper = make_db()
        paper_stats = Reorganizer(
            db_paper, db_paper.tree(), ReorgConfig()
        ).run_pass1()
        assert smith.stats.merges > paper_stats.units

    def test_merge_only_touches_same_parent_pairs(self):
        db = make_db()
        smith = Smith90Reorganizer(db, db.tree(), ReorgConfig())
        pair = smith.next_merge()
        assert pair is not None
        base, left, right = pair
        parent = db.store.get_internal(base)
        children = parent.children()
        assert children.index(right) == children.index(left) + 1


def scattered_db(seed=3):
    """Leaves scattered over the extent by shuffled inserts: ordering then
    both swaps and moves."""
    import random

    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=512,
            internal_extent_pages=256,
            buffer_pool_pages=128,
        )
    )
    tree = db.create_tree()
    rng = random.Random(seed)
    keys = list(range(400))
    rng.shuffle(keys)
    for key in keys:
        tree.insert(Record(key, "v"))
    for key in rng.sample(range(400), 280):
        tree.delete(key)
    return db


def walk_every_step_placement(db):
    """The planner the key-order cursor replaced: a fresh walk per op."""
    tree = db.tree()
    if db.store.get(tree.root_id).kind is PageKind.LEAF:
        return None
    start = db.store.disk.extent(LEAF_EXTENT).start
    chain = tree.leaf_ids_in_key_order()
    for index, leaf in enumerate(chain):
        target = start + index
        if leaf == target:
            continue
        occupied = not db.store.free_map.is_free(target)
        if occupied and target not in chain[index + 1 :]:
            continue
        return leaf, target, occupied
    return None


class TestOrderingPlanner:
    """The ordering phase plans with pass 2's key-order cursor."""

    def test_plans_as_a_walk_every_step(self, monkeypatch):
        from repro.reorg.swap import KeyOrderCursor

        db = scattered_db()
        smith = Smith90Reorganizer(db, db.tree(), ReorgConfig())
        smith.run_compaction()
        plans = []
        planned = KeyOrderCursor.next_misplaced

        def checked(cursor):
            plan = planned(cursor)
            assert plan == walk_every_step_placement(db), f"op {len(plans)}"
            plans.append(plan)
            return plan

        monkeypatch.setattr(KeyOrderCursor, "next_misplaced", checked)
        assert smith.run_ordering() == len(plans) - 1
        assert smith.stats.swaps >= 3 and smith.stats.moves >= 3
        chain = db.tree().leaf_ids_in_key_order()
        assert chain == sorted(chain)
        db.tree().validate()

    def test_ordering_walks_the_leaf_level_once(self, walks):
        db = scattered_db()
        smith = Smith90Reorganizer(db, db.tree(), ReorgConfig())
        smith.run_compaction()
        walks.clear()
        assert smith.run_ordering() > 10
        assert len(walks) == 1


class TestRollbackRecovery:
    def test_interrupted_operation_is_rolled_back(self):
        db = make_db()
        keys_before = [r.key for r in db.tree().items()]
        smith = Smith90Reorganizer(db, db.tree(), ReorgConfig())
        crashed = False
        try:
            with LogCrashInjector(db.log, after_records=3):
                smith.run_compaction()
        except CrashPoint:
            crashed = True
        assert crashed
        recovery = crash_recover(db)
        assert recovery.pending_unit is not None
        fresh = Smith90Reorganizer(db, db.tree(), ReorgConfig())
        rolled_back = fresh.recover_interrupted(recovery.pending_unit)
        assert rolled_back
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == keys_before
        assert not db.progress.unit_in_flight

    def test_rollback_loses_in_flight_work_forward_recovery_keeps_it(self):
        """The E3 effect in miniature: after the same crash, rollback
        reverts the unit while forward recovery completes it."""
        from repro.reorg.unit import UnitEngine

        def crash_one_unit(db):
            smith = Smith90Reorganizer(db, db.tree(), ReorgConfig())
            try:
                with LogCrashInjector(db.log, after_records=3):
                    smith.run_compaction()
            except CrashPoint:
                pass
            return crash_recover(db)

        db_rb = make_db()
        recovery_rb = crash_one_unit(db_rb)
        pending = recovery_rb.pending_unit
        leaves_touched = pending.leaf_pages
        Smith90Reorganizer(db_rb, db_rb.tree(), ReorgConfig()).recover_interrupted(
            pending
        )
        # Rolled back: the sources still exist separately.
        live_rb = [
            p for p in leaves_touched if not db_rb.store.free_map.is_free(p)
        ]
        assert len(live_rb) == len(leaves_touched)

        db_fw = make_db()
        recovery_fw = crash_one_unit(db_fw)
        UnitEngine(db_fw, db_fw.tree()).finish_unit(recovery_fw.pending_unit)
        # Forward recovered: the compacted-away source was freed.
        freed_fw = [
            p
            for p in recovery_fw.pending_unit.leaf_pages
            if db_fw.store.free_map.is_free(p)
        ]
        assert freed_fw
        db_rb.tree().validate()
        db_fw.tree().validate()


class TestProtocol:
    def test_protocol_blocks_everything_while_operating(self):
        from repro.btree.protocols import reader_search

        db = make_db()
        live = [r.key for r in db.tree().items()]
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.05)
        protocol = Smith90Protocol(
            db, "primary", ReorgConfig(), op_duration=0.5
        )
        sched.spawn(protocol.run(), name="smith", is_reorganizer=True)
        readers = [
            sched.spawn(reader_search(db, "primary", key), at=0.1 * i)
            for i, key in enumerate(live[:20])
        ]
        sched.run()
        assert sched.failed == []
        blocked = [r for r in readers if r.metrics.wait_time > 0]
        # The whole-file X lock stalls nearly every reader.
        assert len(blocked) >= len(readers) // 2
        db.tree().validate()


    def test_ordering_that_cannot_converge_fails_loudly(self, monkeypatch):
        """The one ordering generator keeps its 4 x leaves + 8 step cap
        when the DES paces it, as when it is driven alone."""
        db = scattered_db()
        placed = []

        def placing_nothing(self, leaf, target):
            placed.append((leaf, target))

        monkeypatch.setattr(Smith90Reorganizer, "block_move", placing_nothing)
        monkeypatch.setattr(Smith90Reorganizer, "block_swap", placing_nothing)
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.05)
        protocol = Smith90Protocol(db, "primary", ReorgConfig(), op_duration=0.1)
        sched.spawn(protocol.run(), name="smith", is_reorganizer=True)
        with pytest.raises(ReorgError, match="ordering did not converge"):
            sched.run(max_events=100_000)
        assert len(placed) == 4 * len(db.tree().leaf_ids_in_key_order()) + 8
        assert len(set(placed)) == 1


class TestSwapRollback:
    def test_interrupted_swap_is_rolled_back(self):
        """A crash mid-swap under the rollback policy re-swaps the pages
        (a swap is its own inverse) and fixes the base entries back."""
        from repro.sim.workload import build_sparse_tree
        from repro.config import FreeSpacePolicy

        db = Database(
            TreeConfig(
                leaf_capacity=8,
                internal_capacity=6,
                leaf_extent_pages=512,
                internal_extent_pages=256,
                buffer_pool_pages=128,
            )
        )
        # Scattered layout so the ordering phase genuinely swaps.
        import random

        tree = db.create_tree()
        rng = random.Random(3)
        keys = list(range(400))
        rng.shuffle(keys)
        for key in keys:
            tree.insert(Record(key, "v"))
        for key in rng.sample(range(400), 280):
            tree.delete(key)
        db.flush()
        db.checkpoint()
        keys_before = sorted(r.key for r in tree.items())

        smith = Smith90Reorganizer(db, tree, ReorgConfig())
        smith.run_compaction()
        db.log.flush()
        crashed = False
        try:
            with LogCrashInjector(db.log, after_records=2):
                smith.run_ordering()
        except CrashPoint:
            crashed = True
        assert crashed
        recovery = crash_recover(db)
        if recovery.pending_unit is None:
            pytest.skip("the crash fell between operations")
        rolled = Smith90Reorganizer(
            db, db.tree(), ReorgConfig()
        ).recover_interrupted(recovery.pending_unit)
        tree = db.tree()
        tree.validate()
        assert sorted(r.key for r in tree.items()) == keys_before
        del rolled
