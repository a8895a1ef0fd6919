"""Tests for pass 1 (compaction) and pass 2 (swap/move)."""

import pytest

from repro.btree.stats import collect_stats
from repro.config import FreeSpacePolicy, ReorgConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.reorg.reorganizer import Reorganizer
from repro.storage.page import Record


def sparse_db(
    n=400,
    keep_every=4,
    leaf_capacity=8,
    side=SidePointerKind.NONE,
    seed=None,
):
    db = Database(
        TreeConfig(
            leaf_capacity=leaf_capacity,
            internal_capacity=8,
            leaf_extent_pages=512,
            internal_extent_pages=128,
            side_pointers=side,
            buffer_pool_pages=128,
        )
    )
    tree = db.bulk_load_tree([Record(k, f"v{k}") for k in range(n)], leaf_fill=1.0)
    if seed is None:
        victims = [k for k in range(n) if k % keep_every != 0]
    else:
        import random

        rng = random.Random(seed)
        victims = rng.sample(range(n), int(n * (1 - 1 / keep_every)))
    for k in victims:
        tree.delete(k)
    tree.validate()
    return db, tree


class TestPass1:
    def test_compaction_raises_fill_factor(self):
        db, tree = sparse_db()
        before = collect_stats(tree)
        assert before.leaf_fill < 0.4
        stats = Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run_pass1()
        after = collect_stats(tree)
        assert stats.units > 0
        # Units never span base pages (section 3), so boundary groups stay
        # partial; the mean fill lands below the 0.9 target but well above
        # the sparse starting point.
        assert after.leaf_fill > 0.6
        assert after.leaf_count < before.leaf_count / 2
        tree.validate()

    def test_no_records_lost(self):
        db, tree = sparse_db(seed=5)
        before = [(r.key, r.payload) for r in tree.items()]
        Reorganizer(db, tree, ReorgConfig()).run_pass1()
        assert [(r.key, r.payload) for r in tree.items()] == before

    def test_paper_policy_mixes_in_place_and_new_place(self):
        db, tree = sparse_db()
        stats = Reorganizer(
            db, tree, ReorgConfig(free_space_policy=FreeSpacePolicy.PAPER)
        ).run_pass1()
        assert stats.units == stats.in_place_units + stats.new_place_units

    def test_policy_none_is_all_in_place(self):
        db, tree = sparse_db()
        stats = Reorganizer(
            db, tree, ReorgConfig(free_space_policy=FreeSpacePolicy.NONE)
        ).run_pass1()
        assert stats.new_place_units == 0
        assert stats.in_place_units == stats.units > 0
        tree.validate()

    def test_target_fill_respected_on_average(self):
        db, tree = sparse_db()
        Reorganizer(db, tree, ReorgConfig(target_fill=0.75)).run_pass1()
        after = collect_stats(tree)
        # Greedy grouping fills up to (not over) the target.
        assert after.leaf_fill <= 0.75 + 1e-9
        assert after.leaf_fill > 0.5

    def test_dense_tree_is_a_noop(self):
        db = Database(
            TreeConfig(
                leaf_capacity=8,
                internal_capacity=8,
                leaf_extent_pages=128,
                internal_extent_pages=64,
            )
        )
        tree = db.bulk_load_tree([Record(k) for k in range(100)], leaf_fill=1.0)
        stats = Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run_pass1()
        assert stats.units == 0
        assert stats.leaves_before == stats.leaves_after

    @pytest.mark.parametrize(
        "side", [SidePointerKind.ONE_WAY, SidePointerKind.TWO_WAY]
    )
    def test_side_pointer_configs(self, side):
        db, tree = sparse_db(side=side, seed=9)
        Reorganizer(db, tree, ReorgConfig()).run_pass1()
        tree.validate()

    def test_uniform_random_deletes(self):
        db, tree = sparse_db(seed=42)
        before = sorted(r.key for r in tree.items())
        Reorganizer(db, tree, ReorgConfig()).run_pass1()
        tree.validate()
        assert sorted(r.key for r in tree.items()) == before


class TestPass2:
    def run_both_passes(self, policy=FreeSpacePolicy.PAPER, **kwargs):
        db, tree = sparse_db(**kwargs)
        reorg = Reorganizer(db, tree, ReorgConfig(free_space_policy=policy))
        reorg.run_pass1()
        stats = reorg.run_pass2()
        return db, tree, stats

    def test_leaves_contiguous_in_key_order_after_pass2(self):
        db, tree, _ = self.run_both_passes()
        chain = tree.leaf_ids_in_key_order()
        extent = db.store.disk.extent("leaf")
        assert chain == list(range(extent.start, extent.start + len(chain)))
        tree.validate()

    def test_no_records_lost_through_both_passes(self):
        db, tree = sparse_db(seed=17)
        before = [(r.key, r.payload) for r in tree.items()]
        reorg = Reorganizer(db, tree, ReorgConfig())
        reorg.run_pass1()
        reorg.run_pass2()
        assert [(r.key, r.payload) for r in tree.items()] == before
        tree.validate()

    def test_pass2_is_idempotent(self):
        db, tree, first = self.run_both_passes()
        second = Reorganizer(db, tree, ReorgConfig()).run_pass2()
        assert second.operations == 0
        assert second.already_placed == len(tree.leaf_ids_in_key_order())

    def test_disk_order_fraction_is_one_after_pass2(self):
        db, tree, _ = self.run_both_passes(seed=23)
        stats = collect_stats(tree)
        assert stats.disk_order_fraction == 1.0

    @pytest.mark.parametrize(
        "side", [SidePointerKind.ONE_WAY, SidePointerKind.TWO_WAY]
    )
    def test_pass2_with_side_pointers(self, side):
        db, tree, _ = self.run_both_passes(side=side, seed=3)
        tree.validate()
        assert collect_stats(tree).disk_order_fraction == 1.0

    def test_paper_policy_needs_fewer_swaps_than_none(self):
        """The section 6.1 claim, qualitatively: the heuristic placement
        greatly reduces pass-2 swaps versus in-place-only compaction."""
        _, _, with_heuristic = self.run_both_passes(
            policy=FreeSpacePolicy.PAPER, seed=7
        )
        _, _, without = self.run_both_passes(policy=FreeSpacePolicy.NONE, seed=7)
        assert with_heuristic.swaps <= without.swaps

    def test_single_leaf_tree_skips_pass2(self):
        db = Database(
            TreeConfig(
                leaf_capacity=8,
                internal_capacity=8,
                leaf_extent_pages=64,
                internal_extent_pages=32,
            )
        )
        tree = db.bulk_load_tree([Record(1), Record(2)])
        stats = Reorganizer(db, tree, ReorgConfig()).run_pass2()
        assert stats.operations == 0
