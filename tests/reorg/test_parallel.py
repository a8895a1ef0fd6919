"""Tests for the parallel-compaction extension (paper's future work, §9)."""

import pytest

from repro.btree.stats import collect_stats
from repro.config import FreeSpacePolicy, ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint
from repro.locks.modes import LockMode
from repro.locks.resources import page_lock
from repro.reorg.parallel import build_parallel_pass1, partition_base_pages
from repro.reorg.reorganizer import Reorganizer
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.sim.workload import build_sparse_tree
from repro.txn.ops import Acquire, Release, Think
from repro.txn.scheduler import Scheduler
from repro.wal.records import FreeRecord, ReorgBeginRecord


def make_db(n=1200):
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=8,
            leaf_extent_pages=1024,
            internal_extent_pages=512,
            buffer_pool_pages=256,
        )
    )
    build_sparse_tree(db, n_records=n, fill_after=0.3)
    db.flush()
    db.checkpoint()
    return db


def starting_at(time, generator):
    yield Think(time)
    return (yield from generator)


def run_parallel_pass1(
    db, n_workers, *, config=None, unit_pause=0.01, op_duration=0.05,
    stagger=0.0, users=(),
):
    """Run the workers (worker i starting at ``stagger * i``) beside the
    ``users`` generators."""
    sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
    protocols = build_parallel_pass1(
        db, "primary", config or ReorgConfig(), n_workers,
        unit_pause=unit_pause, op_duration=op_duration,
    )
    txns = [
        sched.spawn(
            starting_at(stagger * i, p.pass1()) if stagger * i else p.pass1(),
            name=f"worker-{i}", is_reorganizer=True,
        )
        for i, p in enumerate(protocols)
    ]
    for i, user in enumerate(users):
        sched.spawn(user, name=f"user-{i}")
    sched.run()
    assert sched.failed == []
    return sched, txns


class TestPartitioning:
    def test_partitions_are_disjoint_and_cover_everything(self):
        db = make_db()
        partitions = partition_base_pages(db, "primary", 4)
        flat = [pid for part in partitions for pid in part]
        assert len(flat) == len(set(flat))
        single = partition_base_pages(db, "primary", 1)
        assert sorted(flat) == sorted(single[0])

    def test_worker_count_clamped_to_base_pages(self):
        db = make_db(n=100)
        partitions = partition_base_pages(db, "primary", 64)
        assert all(part for part in partitions)


class TestParallelCompaction:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_result_equivalent_to_sequential(self, workers):
        db = make_db()
        expected = sorted(r.key for r in db.tree().items())
        run_parallel_pass1(db, workers)
        tree = db.tree()
        tree.validate()
        assert sorted(r.key for r in tree.items()) == expected
        assert collect_stats(tree).leaf_fill > 0.55

    def test_parallelism_shortens_the_compaction(self):
        """With per-unit work time, K workers finish ~K times faster."""
        db1 = make_db()
        sched1, _ = run_parallel_pass1(db1, 1, op_duration=0.2)
        db4 = make_db()
        sched4, _ = run_parallel_pass1(db4, 4, op_duration=0.2)
        assert sched4.now < sched1.now * 0.55
        db1.tree().validate()
        db4.tree().validate()

    def test_unit_ids_are_globally_monotonic(self):
        from repro.wal.records import ReorgBeginRecord

        db = make_db()
        run_parallel_pass1(db, 3)
        begins = [
            r.unit_id
            for r in db.log.records_from(1)
            if isinstance(r, ReorgBeginRecord)
        ]
        assert begins == sorted(begins) or len(set(begins)) == len(begins)
        assert len(set(begins)) == len(begins)

    def test_workers_never_share_a_destination_page(self):
        from repro.wal.records import ReorgBeginRecord

        db = make_db()
        run_parallel_pass1(db, 4)
        dests = [
            r.dest_page
            for r in db.log.records_from(1)
            if isinstance(r, ReorgBeginRecord)
            and r.dest_page not in r.leaf_pages  # new-place units only
        ]
        assert len(dests) == len(set(dests))


def units_building_into_a_live_leaf(db):
    """(unit id, page) for every new-place destination that some earlier
    unit had built and nobody had freed since — read off the log."""
    built, shared = set(), []
    for record in db.log.records_from(1):
        if isinstance(record, ReorgBeginRecord):
            for dest in record.dest_pages or (record.dest_page,):
                if dest in record.leaf_pages:
                    continue
                if dest in built:
                    shared.append((record.unit_id, dest))
                built.add(dest)
        elif isinstance(record, FreeRecord):
            built.discard(record.page_id)
    return shared


@pytest.mark.parametrize(
    "policy", [FreeSpacePolicy.PAPER, FreeSpacePolicy.FIRST_FIT]
)
@pytest.mark.parametrize("workers", [2, 4])
class TestParallelMultiOutputUnits:
    """Units that build several pages reserve all of them across workers."""

    def config(self, policy):
        return ReorgConfig(max_unit_output_pages=3, free_space_policy=policy)

    def check(self, db, expected):
        tree = db.tree()
        tree.validate()
        assert [(r.key, r.payload) for r in tree.items()] == expected
        assert any(
            len(r.dest_pages) > 1
            for r in db.log.records_from(1)
            if isinstance(r, ReorgBeginRecord)
        ), "the cell must exercise multi-output units"
        assert units_building_into_a_live_leaf(db) == []

    def test_same_records_as_the_sequential_pass(self, workers, policy):
        sequential = make_db()
        Reorganizer(
            sequential, sequential.tree(), self.config(policy)
        ).run_pass1()
        expected = [(r.key, r.payload) for r in sequential.tree().items()]
        db = make_db()
        run_parallel_pass1(db, workers, config=self.config(policy))
        self.check(db, expected)

    def test_a_wait_between_picking_and_begin_loses_no_page(self, workers, policy):
        """A user holds X on a leaf of worker 0's second base page, so that
        worker picks its destinations and then waits for its RX locks
        while the others, starting a little later, go on picking."""
        db = make_db()
        expected = [(r.key, r.payload) for r in db.tree().items()]
        second_base = partition_base_pages(db, "primary", workers)[0][1]
        leaf = page_lock(db.store.get_internal(second_base).children()[0])

        def user():
            yield Acquire(leaf, LockMode.X)
            yield Think(20.0)
            yield Release(leaf, LockMode.X)

        run_parallel_pass1(
            db, workers, config=self.config(policy), stagger=0.5, users=[user()]
        )
        self.check(db, expected)


class TestParallelRecovery:
    def test_crash_with_multiple_inflight_units_recovers_all(self):
        """The generalized progress table: several pending units after one
        crash, each forward-recovered."""
        db = make_db()
        expected = sorted(r.key for r in db.tree().items())
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        protocols = build_parallel_pass1(
            db, "primary", ReorgConfig(), 4, op_duration=0.3
        )
        for i, p in enumerate(protocols):
            sched.spawn(p.pass1(), name=f"worker-{i}", is_reorganizer=True)
        crashed = False
        try:
            # Fire while several units are mid-move (op_duration staggers
            # them across simulated time; the injector counts appends).
            with LogCrashInjector(db.log, after_records=30):
                sched.run()
        except CrashPoint:
            crashed = True
        assert crashed
        recovery = crash_recover(db)
        assert len(recovery.pending_units) >= 1
        reorg = Reorganizer(db, db.tree(), ReorgConfig())
        reorg.forward_recover(recovery)
        assert not db.progress.unit_in_flight
        tree = db.tree()
        tree.validate()
        assert sorted(r.key for r in tree.items()) == expected

    def test_checkpoint_mid_parallel_run_carries_all_units(self):
        db = make_db()
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        protocols = build_parallel_pass1(
            db, "primary", ReorgConfig(), 3, op_duration=0.5
        )
        for i, p in enumerate(protocols):
            sched.spawn(p.pass1(), name=f"w{i}", is_reorganizer=True)
        # Run a slice, checkpoint with units in flight, crash, recover.
        sched.run(until=1.0)
        in_flight = db.progress.units_in_flight
        db.checkpoint()
        db.log.flush()
        db.crash()
        recovery = db.recover()
        assert {u.unit_id for u in recovery.pending_units} >= set(in_flight)
        reorg = Reorganizer(db, db.tree(), ReorgConfig())
        reorg.forward_recover(recovery)
        db.tree().validate()
