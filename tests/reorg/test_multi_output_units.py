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
from repro.errors import CrashPoint
from repro.reorg.compact import LeafCompactor
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.reorg.unit import UnitEngine
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import ReorgBeginRecord


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


class TestEngineMultiUnit:
    def test_multi_unit_repacks_exactly(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:8]
        total = sum(db.store.get_leaf(c).num_items for c in group)
        target = 7
        needed = -(-total // target)
        assert needed >= 2
        dests = db.store.free_map.free_page_ids("leaf")[:needed]
        before = [(r.key, r.payload) for r in tree.items()]
        result = engine.compact_unit_multi(
            base.page_id, group, dests, target_per_page=target
        )
        assert [(r.key, r.payload) for r in tree.items()] == before
        tree.validate()
        # Every dest except possibly the last is filled to the target.
        fills = [db.store.get_leaf(d).num_items for d in dests
                 if not db.store.free_map.is_free(d)]
        assert all(f == target for f in fills[:-1])
        assert sum(fills) == total
        # All sources are gone.
        assert all(db.store.free_map.is_free(s) for s in group)
        assert result.records_moved == total

    def test_multi_unit_rejects_bad_arguments(self):
        from repro.errors import ReorgError

        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:4]
        free = db.store.free_map.free_page_ids("leaf")
        with pytest.raises(ReorgError):
            engine.compact_unit_multi(
                base.page_id, group, free[:1], target_per_page=7
            )
        with pytest.raises(ReorgError):
            engine.compact_unit_multi(
                base.page_id, group, [group[0], free[0]], target_per_page=7
            )

    @pytest.mark.parametrize("crash_after", [2, 4, 6, 9, 12])
    def test_multi_unit_forward_recovery(self, crash_after):
        db, tree = sparse_db()
        expected = sorted(r.key for r in tree.items())
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:8]
        target = 7
        total = sum(db.store.get_leaf(c).num_items for c in group)
        dests = db.store.free_map.free_page_ids("leaf")[: -(-total // target)]
        crashed = False
        try:
            with LogCrashInjector(db.log, after_records=crash_after):
                engine.compact_unit_multi(
                    base.page_id, group, dests, target_per_page=target
                )
        except CrashPoint:
            crashed = True
        assert crashed
        recovery = crash_recover(db)
        assert recovery.pending_unit is not None
        assert len(recovery.pending_unit.dest_pages) >= 2
        fresh = UnitEngine(db, db.tree())
        fresh.finish_unit(recovery.pending_unit)
        tree = db.tree()
        tree.validate()
        assert sorted(r.key for r in tree.items()) == expected
        assert not db.progress.unit_in_flight


class TestCompactorWithMultiOutput:
    def test_pass1_emits_multi_output_units(self):
        db, tree = sparse_db()
        config = ReorgConfig(target_fill=0.9, max_unit_output_pages=4)
        stats = LeafCompactor(db, tree, config).run()
        tree.validate()
        begins = [
            r for r in db.log.records_from(1)
            if isinstance(r, ReorgBeginRecord) and len(r.dest_pages) > 1
        ]
        assert begins, "expected at least one multi-output unit"
        assert stats.units > 0

    def test_fewer_units_than_single_output(self):
        db1, tree1 = sparse_db()
        single = LeafCompactor(
            db1, tree1, ReorgConfig(max_unit_output_pages=1)
        ).run()
        db4, tree4 = sparse_db()
        multi = LeafCompactor(
            db4, tree4, ReorgConfig(max_unit_output_pages=4)
        ).run()
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
