"""Section 4.3 audit: every side-pointer edit lands on a locked page.

"We will let the reorganizer acquire all the necessary locks before it
starts moving records.  This includes locks that are necessary for
updating the side-pointers."  The audit wraps ``log.append`` and checks,
at the instant each :class:`SidePointerRecord` is logged, that some
transaction holds a lock on the page it edits — for every kind of
reorganization unit and for parallel workers.
"""

import pytest

from repro.btree.protocols import reader_search
from repro.config import FreeSpacePolicy, ReorgConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.locks.resources import page_lock
from repro.reorg.parallel import build_parallel_pass1
from repro.reorg.protocols import ReorgProtocol
from repro.reorg.reorganizer import Reorganizer
from repro.sim.workload import build_sparse_tree
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import SidePointerRecord

KINDS = [SidePointerKind.ONE_WAY, SidePointerKind.TWO_WAY]


def make_db(kind, **overrides):
    shape = dict(
        leaf_capacity=8,
        internal_capacity=8,
        leaf_extent_pages=1024,
        internal_extent_pages=512,
        buffer_pool_pages=256,
    )
    shape.update(overrides)
    return Database(TreeConfig(side_pointers=kind, **shape))


def sparse_db(kind):
    db = make_db(kind)
    build_sparse_tree(db, n_records=1200, fill_after=0.3)
    return db


class SidePointerAudit:
    """Records every side-pointer edit and whether its page was locked."""

    def __init__(self, db):
        self.edits: list[int] = []
        self.unlocked: list[int] = []
        append = db.log.append

        def audited_append(record):
            if isinstance(record, SidePointerRecord):
                self.edits.append(record.page_id)
                if not db.locks.holders_of(page_lock(record.page_id)):
                    self.unlocked.append(record.page_id)
            return append(record)

        db.log.append = audited_append


def run_audited(db, generators):
    """Run the reorganizer generators alone on a scheduler, audited."""
    audit = SidePointerAudit(db)
    sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
    for i, gen in enumerate(generators):
        sched.spawn(gen, name=f"reorg-{i}", is_reorganizer=True)
    sched.run()
    assert sched.failed == []
    assert audit.edits, "the run must actually edit side pointers"
    assert audit.unlocked == [], (
        f"{len(audit.unlocked)} of {len(audit.edits)} side-pointer edits hit "
        f"a page nobody had locked: {audit.unlocked[:10]}"
    )
    db.tree().validate()
    return [stats for _txn, stats in sched.completed]


@pytest.mark.parametrize("kind", KINDS)
class TestEverySidePointerEditIsLocked:
    """The neighbours a unit X-locks and the pointers it then writes are
    both the leaf cursor's steps from the unit's base pages: pass 1 never
    walks the tree, and pass 2 walks it once, to count the leaves it
    plans slots for, not per unit."""

    def test_single_output_units(self, kind, walks):
        db = sparse_db(kind)
        protocol = ReorgProtocol(db, "primary", ReorgConfig(), op_duration=0.05)
        walks.clear()
        (stats,) = run_audited(db, [protocol.pass1()])
        assert stats["units"] > 20
        assert len(walks) == 0

    def test_multi_output_units(self, kind):
        db = sparse_db(kind)
        config = ReorgConfig(max_unit_output_pages=3)
        protocol = ReorgProtocol(db, "primary", config, op_duration=0.05)
        multi_begins = []
        begin = protocol.engine.begin_compact

        def spy(base, sources, dests, *args):
            if len(dests) > 1:
                multi_begins.append(dests)
            return begin(base, sources, dests, *args)

        protocol.engine.begin_compact = spy
        run_audited(db, [protocol.pass1()])
        assert multi_begins, "the cell must exercise multi-output units"

    def test_pass2_moves(self, kind, walks):
        db = sparse_db(kind)
        Reorganizer(db, db.tree(), ReorgConfig()).run_pass1()
        protocol = ReorgProtocol(db, "primary", ReorgConfig(), op_duration=0.05)
        walks.clear()
        (stats,) = run_audited(db, [protocol.pass2()])
        assert stats["moves"] > 20
        assert len(walks) == 1

    def test_pass2_swaps(self, kind, walks):
        db = sparse_db(kind)
        # First-fit compaction scatters the new leaves: mostly swaps.
        config = ReorgConfig(free_space_policy=FreeSpacePolicy.FIRST_FIT)
        Reorganizer(db, db.tree(), config).run_pass1()
        protocol = ReorgProtocol(db, "primary", config, op_duration=0.05)
        walks.clear()
        (stats,) = run_audited(db, [protocol.pass2()])
        assert stats["swaps"] > 20
        assert len(walks) == 1

    def test_four_parallel_workers(self, kind, walks):
        db = sparse_db(kind)
        workers = build_parallel_pass1(
            db, "primary", ReorgConfig(), 4, unit_pause=0.01, op_duration=0.05
        )
        assert len(workers) == 4
        walks.clear()
        results = run_audited(db, [w.pass1() for w in workers])
        assert sum(stats["units"] for stats in results) > 20
        # No walk: each worker's units step from their own base pages.
        assert len(walks) == 0

    def test_workers_deadlocked_over_boundary_neighbours(self, kind):
        """Two one-unit partitions whose units are chain neighbours: each
        worker RX-locks its own leaves and wants X on the other's edge
        leaf.  The give-up-and-retry arm must resolve the deadlock."""
        db = make_db(kind, internal_capacity=3)
        # 2 records per leaf, 3 leaves per base page, 2 base pages: each
        # base page is exactly one compaction group.
        db.bulk_load_tree([Record(k, "x") for k in range(12)], leaf_fill=0.25)
        workers = build_parallel_pass1(
            db, "primary", ReorgConfig(), 2, op_duration=0.05
        )
        assert [len(w.base_partition) for w in workers] == [1, 1]
        audit = SidePointerAudit(db)
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        # A slow reader on the first partition's last leaf (keys 4, 5)
        # stalls worker 0 halfway through its RX locks, so worker 1 gets
        # its own RX locks and queues for X on that same leaf; once the
        # reader leaves, worker 0 asks for X on worker 1's first leaf.
        sched.spawn(reader_search(db, "primary", 5, think=1.0), name="reader")
        for i, worker in enumerate(workers):
            sched.spawn(
                worker.pass1(), name=f"worker-{i}", is_reorganizer=True,
                at=0.1 * (i + 1),
            )
        sched.run()
        assert sched.failed == []
        assert db.locks.stats.deadlocks >= 1
        results = [stats for txn, stats in sched.completed if txn.is_reorganizer]
        assert [stats["units"] for stats in results] == [1, 1]
        assert sum(stats["retries"] for stats in results) >= 1
        assert audit.edits and audit.unlocked == []
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == list(range(12))
