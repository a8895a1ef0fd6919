"""Multi-output units (ReorgConfig.max_unit_output_pages > 1).

Section 6: "We choose to construct one new leaf page at a time for the
leaf page reorganization.  While we could construct more than one page, it
would require the reorganization unit to hold locks longer, thus it will
block more user transactions."  The knob builds several pages per unit so
that trade-off can be measured (ablation A3).
"""

import pytest

from repro.btree.stats import collect_stats
from repro.config import FreeSpacePolicy, ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint, ReorgError
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.reorg.unit import UnitEngine
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import (
    ReorgBeginRecord,
    ReorgEndRecord,
    ReorgModifyRecord,
    ReorgMoveInRecord,
    ReorgMoveOutRecord,
)


def sparse_db(n=400, keep_every=4, internal_capacity=32):
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=internal_capacity,
            leaf_extent_pages=512,
            internal_extent_pages=128,
            buffer_pool_pages=128,
        )
    )
    tree = db.bulk_load_tree(
        [Record(k, f"v{k}") for k in range(n)], leaf_fill=1.0
    )
    for k in range(n):
        if k % keep_every != 0:
            tree.delete(k)
    db.flush()
    db.checkpoint()
    return db, tree


TARGET = 7


def first_leaves(db, tree, n):
    base = tree.base_page_for(0)
    free = db.store.free_map.free_page_ids("leaf")
    return base.page_id, base.children()[:n], free


def in_place(engine, db, tree):
    base, group, _free = first_leaves(db, tree, 3)
    return engine.compact_unit(base, group, [group[0]])


def new_place(engine, db, tree):
    base, group, free = first_leaves(db, tree, 3)
    return engine.compact_unit(base, group, free[:1])


def move(engine, db, tree):
    base, group, free = first_leaves(db, tree, 1)
    return engine.move_unit(base, group[0], free[0])


def three_outputs(engine, db, tree):
    base, group, free = first_leaves(db, tree, 8)
    return engine.compact_unit(base, group, free[:3], target_per_page=TARGET)


#: The four kinds of unit the one compaction path executes.
UNITS = {f.__name__: f for f in (in_place, new_place, move, three_outputs)}


def shape(record):
    """One log record of a unit as a line: type, pages, keys."""
    r = record
    if isinstance(r, ReorgBeginRecord):
        return (
            f"BEGIN {r.unit_type.name} base {r.base_pages} leaves "
            f"{r.leaf_pages} dest {r.dest_page} dests {r.dest_pages}"
        )
    if isinstance(r, (ReorgMoveOutRecord, ReorgMoveInRecord)):
        half = "OUT" if isinstance(r, ReorgMoveOutRecord) else "IN"
        return f"{half} {r.org_page} -> {r.dest_page} keys {r.keys}"
    if isinstance(r, ReorgModifyRecord):
        return (
            f"MODIFY {r.base_page}: {(r.org_key, r.org_child)} -> "
            f"{(r.new_key, r.new_child)}"
        )
    if isinstance(r, ReorgEndRecord):
        return f"END largest {r.largest_key}"
    return f"{type(r).__name__} {r.page_id}"


#: BEGIN ... END of each kind on the ``sparse_db()`` fixture, recorded with
#: the parent's two engines (single- and multi-output): a unit logs the same
#: records in the same order whichever way its destinations are counted.
RECORDED = {
    "in_place": """
        BEGIN COMPACT base (512,) leaves (0, 1, 2) dest 0 dests ()
        OUT 1 -> 0 keys (8, 12)
        IN 1 -> 0 keys (8, 12)
        OUT 2 -> 0 keys (16, 20)
        IN 2 -> 0 keys (16, 20)
        MODIFY 512: (8, 1) -> (0, -1)
        MODIFY 512: (16, 2) -> (0, -1)
        FreeRecord 1
        FreeRecord 2
        END largest 20
    """,
    "new_place": """
        BEGIN COMPACT base (512,) leaves (0, 1, 2) dest 50 dests ()
        AllocRecord 50
        LeafFormatRecord 50
        OUT 0 -> 50 keys (0, 4)
        IN 0 -> 50 keys (0, 4)
        OUT 1 -> 50 keys (8, 12)
        IN 1 -> 50 keys (8, 12)
        OUT 2 -> 50 keys (16, 20)
        IN 2 -> 50 keys (16, 20)
        MODIFY 512: (0, 0) -> (0, -1)
        MODIFY 512: (8, 1) -> (0, -1)
        MODIFY 512: (16, 2) -> (0, -1)
        MODIFY 512: (0, -1) -> (0, 50)
        FreeRecord 0
        FreeRecord 1
        FreeRecord 2
        END largest 20
    """,
    "move": """
        BEGIN MOVE base (512,) leaves (0,) dest 50 dests ()
        AllocRecord 50
        LeafFormatRecord 50
        OUT 0 -> 50 keys (0, 4)
        IN 0 -> 50 keys (0, 4)
        MODIFY 512: (0, 0) -> (0, -1)
        MODIFY 512: (0, -1) -> (0, 50)
        FreeRecord 0
        END largest 4
    """,
    "three_outputs": """
        BEGIN COMPACT base (512,) leaves (0, 1, 2, 3, 4, 5, 6, 7) dest 50 dests (50, 51, 52)
        AllocRecord 50
        LeafFormatRecord 50
        AllocRecord 51
        LeafFormatRecord 51
        AllocRecord 52
        LeafFormatRecord 52
        OUT 0 -> 50 keys (0, 4)
        IN 0 -> 50 keys (0, 4)
        OUT 1 -> 50 keys (8, 12)
        IN 1 -> 50 keys (8, 12)
        OUT 2 -> 50 keys (16, 20)
        IN 2 -> 50 keys (16, 20)
        OUT 3 -> 50 keys (24,)
        IN 3 -> 50 keys (24,)
        OUT 3 -> 51 keys (28,)
        IN 3 -> 51 keys (28,)
        OUT 4 -> 51 keys (32, 36)
        IN 4 -> 51 keys (32, 36)
        OUT 5 -> 51 keys (40, 44)
        IN 5 -> 51 keys (40, 44)
        OUT 6 -> 51 keys (48, 52)
        IN 6 -> 51 keys (48, 52)
        OUT 7 -> 52 keys (56, 60)
        IN 7 -> 52 keys (56, 60)
        MODIFY 512: (0, 0) -> (0, -1)
        MODIFY 512: (8, 1) -> (0, -1)
        MODIFY 512: (16, 2) -> (0, -1)
        MODIFY 512: (24, 3) -> (0, -1)
        MODIFY 512: (32, 4) -> (0, -1)
        MODIFY 512: (40, 5) -> (0, -1)
        MODIFY 512: (48, 6) -> (0, -1)
        MODIFY 512: (56, 7) -> (0, -1)
        MODIFY 512: (0, -1) -> (0, 50)
        MODIFY 512: (0, -1) -> (28, 51)
        MODIFY 512: (0, -1) -> (56, 52)
        FreeRecord 0
        FreeRecord 1
        FreeRecord 2
        FreeRecord 3
        FreeRecord 4
        FreeRecord 5
        FreeRecord 6
        FreeRecord 7
        END largest 60
    """,
}
LOG_SHAPES = {
    kind: [line.strip() for line in text.strip().splitlines()]
    for kind, text in RECORDED.items()
}


def crash_points():
    """A crash after every log record but END, for every kind.  The
    3-output ids are the bare record count, as when this test covered five
    hand-picked points of that kind alone."""
    for kind, lines in LOG_SHAPES.items():
        for after in range(1, len(lines)):
            label = str(after) if kind == "three_outputs" else f"{kind}-{after}"
            yield pytest.param(kind, after, id=label)


class TestEngineMultiUnit:
    def test_multi_unit_repacks_exactly(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:8]
        total = sum(db.store.get_leaf(c).num_items for c in group)
        needed = -(-total // TARGET)
        assert needed >= 2
        dests = db.store.free_map.free_page_ids("leaf")[:needed]
        before = [(r.key, r.payload) for r in tree.items()]
        result = engine.compact_unit(
            base.page_id, group, dests, target_per_page=TARGET
        )
        assert [(r.key, r.payload) for r in tree.items()] == before
        tree.validate()
        # Every dest except possibly the last is filled to the target.
        fills = [db.store.get_leaf(d).num_items for d in dests
                 if not db.store.free_map.is_free(d)]
        assert all(f == TARGET for f in fills[:-1])
        assert sum(fills) == total
        # All sources are gone.
        assert all(db.store.free_map.is_free(s) for s in group)
        assert result.records_moved == total

    def test_multi_unit_rejects_bad_arguments(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base, group, free = first_leaves(db, tree, 4)
        mark = db.log.last_lsn
        for dests, target in (
            ([group[0], free[0]], TARGET),  # partly in place
            ([group[0], group[1]], TARGET),  # several pages, in place
            ([free[0], free[0]], TARGET),  # the same page twice
            (free[:2], 0),  # nothing to fill the first page to
        ):
            with pytest.raises(ReorgError):
                engine.compact_unit(base, group, dests, target_per_page=target)
        assert db.log.last_lsn == mark and not db.progress.unit_in_flight

    @pytest.mark.parametrize("kind", UNITS)
    def test_unit_logs_the_pinned_records(self, kind):
        db, tree = sparse_db()
        mark = db.log.last_lsn
        UNITS[kind](UnitEngine(db, tree), db, tree)
        tree.validate()
        logged = [shape(r) for r in db.log.records_from(mark + 1)]
        assert logged == LOG_SHAPES[kind]

    @pytest.mark.parametrize("kind, crash_after", crash_points())
    def test_multi_unit_forward_recovery(self, kind, crash_after):
        db, tree = sparse_db()
        expected = sorted(r.key for r in tree.items())
        with pytest.raises(CrashPoint):
            with LogCrashInjector(db.log, after_records=crash_after):
                UNITS[kind](UnitEngine(db, tree), db, tree)
        recovery = crash_recover(db)
        pending = recovery.pending_unit
        assert pending is not None
        assert (len(pending.dest_pages) >= 2) == (kind == "three_outputs")
        UnitEngine(db, db.tree()).finish_unit(pending)
        tree = db.tree()
        tree.validate()
        assert sorted(r.key for r in tree.items()) == expected
        assert not db.progress.unit_in_flight

    @pytest.mark.parametrize("outputs, target, fits", [(1, 0, 4), (3, 3, 7)])
    def test_outgrown_group_is_refused_before_any_record_moves(
        self, outputs, target, fits
    ):
        """Inserts between planning and locking can leave a group with
        more records than its destinations hold: all but the last filled
        to the target, the last to the brim (two records a leaf here)."""
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base, group, free = first_leaves(db, tree, fits + 1)
        dests = free[:outputs]
        before = [(r.key, r.payload) for r in tree.items()]
        mark = db.log.last_lsn
        with pytest.raises(ReorgError) as refused:
            engine.compact_unit(base, group, dests, target_per_page=target)
        assert str(group) in str(refused.value)
        assert str(dests) in str(refused.value)
        assert db.log.last_lsn == mark and not db.progress.unit_in_flight
        assert all(db.store.free_map.is_free(dest) for dest in dests)
        assert [(r.key, r.payload) for r in tree.items()] == before
        # One leaf fewer is exactly what the destinations hold.
        engine.compact_unit(base, group[:fits], dests, target_per_page=target)
        tree.validate()
        assert [(r.key, r.payload) for r in tree.items()] == before
        fills = [db.store.get_leaf(dest).num_items for dest in dests]
        assert fills == [target] * (outputs - 1) + [db.store.config.leaf_capacity]


class TestCompactorWithMultiOutput:
    def test_pass1_emits_multi_output_units(self):
        db, tree = sparse_db()
        config = ReorgConfig(target_fill=0.9, max_unit_output_pages=4)
        stats = Reorganizer(db, tree, config).run_pass1()
        tree.validate()
        begins = [
            r for r in db.log.records_from(1)
            if isinstance(r, ReorgBeginRecord) and len(r.dest_pages) > 1
        ]
        assert begins, "expected at least one multi-output unit"
        assert stats.units > 0

    def test_fewer_units_than_single_output(self):
        db1, tree1 = sparse_db()
        single = Reorganizer(
            db1, tree1, ReorgConfig(max_unit_output_pages=1)
        ).run_pass1()
        db4, tree4 = sparse_db()
        multi = Reorganizer(
            db4, tree4, ReorgConfig(max_unit_output_pages=4)
        ).run_pass1()
        assert multi.units < single.units
        # Same end content and similar fill.
        assert sorted(r.key for r in db1.tree().items()) == sorted(
            r.key for r in db4.tree().items()
        )
        fill1 = collect_stats(db1.tree()).leaf_fill
        fill4 = collect_stats(db4.tree()).leaf_fill
        assert abs(fill1 - fill4) < 0.15

    def test_full_reorg_with_multi_output(self):
        db, tree = sparse_db()
        expected = sorted(r.key for r in tree.items())
        config = ReorgConfig(target_fill=0.9, max_unit_output_pages=3)
        Reorganizer(db, tree, config).run()
        tree = db.tree()
        tree.validate()
        assert sorted(r.key for r in tree.items()) == expected
        assert collect_stats(tree).disk_order_fraction == 1.0

    def test_crash_during_multi_output_pass1(self):
        db, tree = sparse_db()
        expected = sorted(r.key for r in tree.items())
        config = ReorgConfig(target_fill=0.9, max_unit_output_pages=4)
        crashed = False
        try:
            with LogCrashInjector(db.log, after_records=9):
                Reorganizer(db, tree, config).run()
        except CrashPoint:
            crashed = True
        assert crashed
        recovery = crash_recover(db)
        Reorganizer(db, db.tree(), config).forward_recover(recovery)
        Reorganizer(db, db.tree(), config).run()
        tree = db.tree()
        tree.validate()
        assert sorted(r.key for r in tree.items()) == expected


class TestFirstFitMultiOutput:
    """Regression: first fit ignores the L/C bounds, so asking it
    ``needed`` times used to return the same free page ``needed`` times
    and the unit died with "destinations full with records left"."""

    CONFIG = ReorgConfig(
        free_space_policy=FreeSpacePolicy.FIRST_FIT, max_unit_output_pages=3
    )

    def multi_dests(self, db):
        return [
            r.dest_pages
            for r in db.log.records_from(1)
            if isinstance(r, ReorgBeginRecord) and len(r.dest_pages) > 1
        ]

    def check(self, db, expected):
        tree = db.tree()
        tree.validate()
        assert sorted(r.key for r in tree.items()) == expected
        dests = self.multi_dests(db)
        assert dests, "the fixture must exercise multi-output units"
        for pages in dests:
            assert list(pages) == sorted(set(pages))  # distinct, ascending

    def test_sync(self):
        db, tree = sparse_db()
        expected = sorted(r.key for r in tree.items())
        Reorganizer(db, tree, self.CONFIG).run()
        self.check(db, expected)

    def test_des(self):
        db, tree = sparse_db()
        expected = sorted(r.key for r in tree.items())
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        protocol = ReorgProtocol(db, "primary", self.CONFIG, op_duration=0.05)
        sched.spawn(full_reorganization(protocol), name="reorg", is_reorganizer=True)
        sched.run()
        assert sched.failed == []
        self.check(db, expected)
