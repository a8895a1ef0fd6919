"""Unit tests for bulk loading and tree statistics."""

import pytest

from repro.btree.bulkload import build_upper_levels, bulk_load
from repro.btree.stats import collect_stats, measure_range_scan
from repro.errors import BTreeError
from repro.storage.page import Record

from tests.conftest import make_env


def records(n, step=1):
    return [Record(k, f"v{k}") for k in range(0, n * step, step)]


class TestBulkLoad:
    def test_empty_input_builds_empty_tree(self):
        store, log = make_env()
        tree = bulk_load(store, log, [])
        assert tree.record_count() == 0
        tree.validate()

    def test_single_leaf_tree(self):
        store, log = make_env(leaf_capacity=8)
        tree = bulk_load(store, log, records(5))
        assert tree.height() == 1
        tree.validate()

    def test_fill_factor_respected(self):
        store, log = make_env(leaf_capacity=10)
        tree = bulk_load(store, log, records(100), leaf_fill=0.5)
        stats = collect_stats(tree)
        assert stats.leaf_count == 20  # 5 records per page
        assert stats.leaf_fill == pytest.approx(0.5)

    def test_unsorted_input_rejected(self):
        store, log = make_env()
        with pytest.raises(BTreeError):
            bulk_load(store, log, [Record(2), Record(1)])

    def test_duplicate_input_rejected(self):
        store, log = make_env()
        with pytest.raises(BTreeError):
            bulk_load(store, log, [Record(1), Record(1)])

    def test_existing_name_rejected(self):
        store, log = make_env()
        bulk_load(store, log, records(3))
        with pytest.raises(BTreeError):
            bulk_load(store, log, records(3))

    def test_two_trees_coexist_under_different_names(self):
        store, log = make_env()
        a = bulk_load(store, log, records(30), name="a")
        b = bulk_load(
            store, log, [Record(k) for k in range(1000, 1030)], name="b"
        )
        a.validate()
        b.validate()
        assert a.search(0) is not None
        assert b.search(1000) is not None

    def test_build_upper_levels_rejects_empty(self):
        store, log = make_env()
        with pytest.raises(BTreeError):
            build_upper_levels(store, log, [], fill=1.0)

    def test_build_upper_levels_callback_counts_pages(self):
        store, log = make_env(internal_capacity=4)
        entries = [(k, k) for k in range(10)]
        # Children ids must exist for nothing here: upper levels only
        # reference them.  Use fill 1.0 -> 3 base pages + 1 root.
        built = []
        build_upper_levels(
            store, log, entries, fill=1.0, on_page_built=built.append
        )
        assert len(built) == 4
        assert store.get_internal(built[0]).level == 1
        assert store.get_internal(built[-1]).level == 2


class TestStats:
    def test_stats_on_packed_tree(self):
        store, log = make_env(leaf_capacity=10)
        tree = bulk_load(store, log, records(100), leaf_fill=1.0)
        stats = collect_stats(tree)
        assert stats.record_count == 100
        assert stats.leaf_fill == pytest.approx(1.0)
        assert stats.disk_order_fraction == 1.0
        assert stats.ascending_fraction == 1.0

    def test_stats_detect_sparseness(self):
        store, log = make_env(leaf_capacity=10)
        tree = bulk_load(store, log, records(100), leaf_fill=1.0)
        # Delete 70% uniformly.
        for key in range(100):
            if key % 10 < 7 and tree.search(key) is not None:
                tree.delete(key)
        stats = collect_stats(tree)
        assert stats.leaf_fill < 0.5

    def test_stats_detect_disk_disorder(self):
        """Random inserts cause splits that break disk order."""
        import random

        rng = random.Random(11)
        keys = list(range(400))
        rng.shuffle(keys)
        store, log = make_env(leaf_capacity=8)
        from repro.btree.tree import BPlusTree

        tree = BPlusTree.create(store, log)
        for key in keys:
            tree.insert(Record(key))
        stats = collect_stats(tree)
        assert stats.disk_order_fraction < 0.9

    def test_scan_cost_sequential_vs_scattered(self):
        """The motivating effect: packed trees scan almost seek-free."""
        store, log = make_env(leaf_capacity=8)
        tree = bulk_load(store, log, records(200), leaf_fill=1.0)
        store.flush_all()
        packed = measure_range_scan(tree, 0, 199)
        assert packed.records_returned == 200
        assert packed.seeks <= 1  # only the initial positioning seek

    def test_scan_cost_counts_only_overlapping_leaves(self):
        store, log = make_env(leaf_capacity=10)
        tree = bulk_load(store, log, records(100), leaf_fill=1.0)
        store.flush_all()
        cost = measure_range_scan(tree, 0, 9)
        assert cost.pages_read == 1
        assert cost.records_returned == 10
