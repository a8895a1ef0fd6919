"""Live per-tree fragmentation metrics under churn.

:class:`repro.metrics.FragmentationStats` is the auto-reorg daemon's
sensor: the tree's insert/delete/split/free paths bump it incrementally,
and :meth:`~repro.metrics.FragmentationStats.sync_from_tree` re-baselines
absolute ``records``/``leaves`` after builds and reorgs.
"""

import random

import pytest

from repro.config import ShardConfig, TreeConfig, gapped_leaf_fill
from repro.db import Database
from repro.metrics import FragmentationStats
from repro.shard import ShardedDatabase
from repro.storage.page import Record


def small_config(gap=0.0):
    return TreeConfig(
        leaf_capacity=8,
        internal_capacity=8,
        leaf_extent_pages=256,
        internal_extent_pages=64,
        buffer_pool_pages=64,
        leaf_gap_fraction=gap,
    )


class TestIncrementalCounters:
    def test_inserts_deletes_and_splits_tracked(self):
        db = Database(small_config())
        tree = db.bulk_load_tree(
            [Record(2 * k, "v") for k in range(80)], leaf_fill=1.0
        )
        frag = db.frag_stats()
        frag.sync_from_tree(tree)
        for k in range(40):
            tree.insert(Record(2 * k + 1, "w"))
        for k in range(10):
            tree.delete(4 * k)
        assert frag.inserts == 40
        assert frag.deletes == 10
        assert frag.records == 80 + 40 - 10
        assert frag.leaf_splits > 0
        assert frag.split_rate == frag.leaf_splits / 40
        assert frag.records == tree.record_count()

    def test_leaves_follow_splits_and_free_at_empty(self):
        db = Database(small_config())
        tree = db.bulk_load_tree(
            [Record(k, "v") for k in range(64)], leaf_fill=1.0
        )
        frag = db.frag_stats()
        frag.sync_from_tree(tree)
        assert frag.leaves == len(tree.leaf_ids_in_key_order())
        for k in range(16):
            tree.delete(k)  # empties the leftmost leaves entirely
        assert frag.leaves == len(tree.leaf_ids_in_key_order())
        for k in range(64, 96):
            tree.insert(Record(k, "w"))
        assert frag.leaves == len(tree.leaf_ids_in_key_order())

    def test_fill_factor_degrades_under_deletion(self):
        db = Database(small_config())
        tree = db.bulk_load_tree(
            [Record(k, "v") for k in range(200)], leaf_fill=1.0
        )
        frag = db.frag_stats()
        frag.sync_from_tree(tree)
        assert frag.fill_factor == pytest.approx(1.0)
        rng = random.Random(3)
        for k in rng.sample(range(200), 120):
            tree.delete(k)
        assert frag.fill_factor < 0.6
        assert frag.fragmentation == pytest.approx(1.0 - frag.fill_factor)

    def test_splits_since_sync_is_the_scatter_signal(self):
        db = Database(small_config())
        tree = db.bulk_load_tree(
            [Record(2 * k, "v") for k in range(80)], leaf_fill=1.0
        )
        frag = db.frag_stats()
        frag.sync_from_tree(tree)
        assert frag.splits_since_sync == 0
        for k in range(40):
            tree.insert(Record(2 * k + 1, "w"))
        assert frag.splits_since_sync == frag.leaf_splits > 0
        frag.sync_from_tree(tree)  # re-baseline, e.g. after a reorg
        assert frag.splits_since_sync == 0
        assert frag.leaf_splits > 0  # the lifetime total is preserved


class TestGapAwareSync:
    def test_gapped_build_reads_as_fully_filled(self):
        db = Database(small_config(gap=0.25))
        tree = db.bulk_load_tree(
            [Record(k, "v") for k in range(96)], leaf_fill=1.0
        )
        frag = db.frag_stats()
        frag.sync_from_tree(tree)
        # fill is measured against the *packed* capacity, so the intended
        # gap does not read as fragmentation
        assert frag.leaf_capacity == gapped_leaf_fill(db.config, 1.0) == 6
        assert frag.fill_factor == pytest.approx(1.0)

    def test_absorbed_inserts_push_fill_above_one(self):
        db = Database(small_config(gap=0.25))
        tree = db.bulk_load_tree(
            [Record(2 * k, "v") for k in range(48)], leaf_fill=1.0
        )
        frag = db.frag_stats()
        frag.sync_from_tree(tree)
        for key in (1, 13, 25, 37, 49, 61, 73, 85):
            tree.insert(Record(key, "w"))
        assert frag.absorbed_inserts > 0
        assert frag.fill_factor > 1.0  # harmless: gap slots in use
        assert frag.fragmentation < 0.0


class TestPerShardTracking:
    def test_each_shard_has_its_own_stats(self):
        sdb = ShardedDatabase(small_config(), ShardConfig(n_shards=2))
        sdb.bulk_load([Record(2 * k, "v") for k in range(80)])
        for handle in sdb.handles:
            handle.frag_stats().sync_from_tree(handle.tree())
        for k in range(0, 80, 2):  # odd keys spread across both shards
            sdb.insert(Record(2 * k + 1, "w"))
        for k in range(0, 40, 4):
            sdb.delete(4 * k)
        per_shard = [handle.frag_stats() for handle in sdb.handles]
        assert sum(f.inserts for f in per_shard) == 40
        assert sum(f.deletes for f in per_shard) == 10
        assert all(f.inserts > 0 for f in per_shard)
        for handle in sdb.handles:
            assert handle.frag_stats().records == handle.tree().record_count()

    def test_shard_fill_factors_are_independent(self):
        sdb = ShardedDatabase(small_config(), ShardConfig(n_shards=2))
        sdb.bulk_load([Record(k, "v") for k in range(80)])
        for handle in sdb.handles:
            handle.frag_stats().sync_from_tree(handle.tree())
        # thin out only the keys of shard 0's key range
        low_keys = [
            k for k in range(80) if sdb.router.shard_for(k) == 0
        ]
        for k in low_keys[:: 2]:
            sdb.delete(k)
        frag0, frag1 = (handle.frag_stats() for handle in sdb.handles)
        assert frag0.fill_factor < 0.7
        assert frag1.fill_factor == pytest.approx(1.0)


class TestResetAndDelta:
    def test_reset_zeroes_everything(self):
        frag = FragmentationStats(
            inserts=3, leaves=4, records=12, leaf_capacity=8, synced=True
        )
        frag.reset()
        assert frag.inserts == frag.leaves == frag.records == 0
        assert frag.synced is False
        assert frag.fill_factor == 1.0  # unknowable again

    def test_snapshot_delta_threading(self):
        frag = FragmentationStats()
        before = frag.snapshot()
        frag.inserts += 5
        frag.leaf_splits += 2
        delta = frag.delta(before)
        assert delta["inserts"] == 5 and delta["leaf_splits"] == 2
        assert delta["deletes"] == 0
