"""Gapped leaf layout: config helpers, bulk load, absorption, rebuild.

``TreeConfig(leaf_gap_fraction=...)`` reserves slack slots in every leaf a
builder lays out, so later inserts land in the gap instead of splitting.
The knob is interpreted in exactly one place —
:func:`repro.config.leaf_gap_slots` / :func:`repro.config.gapped_leaf_fill`
(enforced statically by the ``gap-via-config`` reprolint rule) — and flows
from there into bulk load and the pass 1/2/3 rebuild arithmetic.
"""

import pytest

from repro.config import (
    ReorgConfig,
    TreeConfig,
    gapped_leaf_fill,
    leaf_gap_slots,
)
from repro.db import Database
from repro.perf import PERF
from repro.reorg.placement import gapped_leaf_fill_count
from repro.reorg.reorganizer import Reorganizer
from repro.storage.page import Record


def gap_config(gap=0.25, cap=16):
    return TreeConfig(
        leaf_capacity=cap,
        internal_capacity=8,
        leaf_extent_pages=256,
        internal_extent_pages=64,
        buffer_pool_pages=128,
        leaf_gap_fraction=gap,
    )


def leaf_sizes(tree):
    return [
        tree.store.get_leaf(pid).num_items
        for pid in tree.leaf_ids_in_key_order()
    ]


class TestConfigHelpers:
    def test_gap_slots_floor(self):
        assert leaf_gap_slots(gap_config(0.0)) == 0
        assert leaf_gap_slots(gap_config(0.25, cap=16)) == 4
        assert leaf_gap_slots(gap_config(0.1, cap=16)) == 1
        # floor, not round: 0.49 of 4 slots is 1 slot, not 2
        assert leaf_gap_slots(gap_config(0.49, cap=4)) == 1

    def test_gapped_fill_clamps_to_packed_capacity(self):
        config = gap_config(0.25, cap=16)
        assert gapped_leaf_fill(config, 1.0) == 12
        assert gapped_leaf_fill(config, 0.5) == 8  # below the clamp
        assert gapped_leaf_fill(config, 0.8) == 12  # 12.8 clamped to 12

    def test_zero_gap_is_the_historical_arithmetic(self):
        config = gap_config(0.0, cap=16)
        for fill in (1.0, 0.9, 0.5, 0.01):
            assert gapped_leaf_fill(config, fill) == max(1, int(16 * fill))

    def test_placement_reexport_matches(self):
        config = gap_config(0.25, cap=16)
        assert gapped_leaf_fill_count(config, 0.9) == gapped_leaf_fill(
            config, 0.9
        )

    def test_validation_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            gap_config(1.0)
        with pytest.raises(ValueError):
            gap_config(-0.1)
        # fraction < 1 always leaves at least one packed slot
        assert gapped_leaf_fill(gap_config(0.99, cap=4), 1.0) == 1


class TestGappedBulkLoad:
    def test_leaves_built_with_gap(self):
        PERF.reset()
        db = Database(gap_config(0.25, cap=16))
        tree = db.bulk_load_tree(
            [Record(k, "v") for k in range(120)], leaf_fill=1.0
        )
        sizes = leaf_sizes(tree)
        assert all(size <= 12 for size in sizes)
        assert sizes[:-1] == [12] * (len(sizes) - 1)
        assert PERF.gap.gapped_leaves_built == len(sizes)
        tree.validate()

    def test_zero_gap_packs_full(self):
        PERF.reset()
        db = Database(gap_config(0.0, cap=16))
        tree = db.bulk_load_tree(
            [Record(k, "v") for k in range(120)], leaf_fill=1.0
        )
        assert max(leaf_sizes(tree)) == 16
        assert PERF.gap.gapped_leaves_built == 0

    def test_gap_does_not_change_contents(self):
        records = [Record(k, f"v{k}") for k in range(200)]
        contents = []
        for gap in (0.0, 0.25):
            db = Database(gap_config(gap))
            tree = db.bulk_load_tree(list(records), leaf_fill=1.0)
            contents.append([(r.key, r.payload) for r in tree.items()])
        assert contents[0] == contents[1]


class TestInsertAbsorption:
    def test_gap_absorbs_inserts_without_splitting(self):
        PERF.reset()
        db = Database(gap_config(0.25, cap=16))
        tree = db.bulk_load_tree(
            [Record(2 * k, "v") for k in range(96)], leaf_fill=1.0
        )
        # 8 leaves x 4 slack slots: these interior inserts fit gap-only
        for key in (1, 3, 5, 25, 27, 49, 51, 75, 77, 101, 121, 141):
            tree.insert(Record(key, "w"))
        assert PERF.gap.leaf_splits == 0
        assert PERF.gap.absorbed_inserts == 12
        assert db.frag_stats().absorbed_inserts == 12
        tree.validate()

    def test_gapless_same_stream_splits(self):
        PERF.reset()
        db = Database(gap_config(0.0, cap=16))
        tree = db.bulk_load_tree(
            [Record(2 * k, "v") for k in range(96)], leaf_fill=1.0
        )
        for key in (1, 3, 5, 25, 27, 49, 51, 75, 77, 101, 121, 141):
            tree.insert(Record(key, "w"))
        assert PERF.gap.leaf_splits > 0
        assert PERF.gap.absorbed_inserts == 0

    def test_overflowing_the_gap_still_splits_correctly(self):
        PERF.reset()
        db = Database(gap_config(0.25, cap=8))
        tree = db.bulk_load_tree(
            [Record(4 * k, "v") for k in range(40)], leaf_fill=1.0
        )
        for k in range(160):
            if k % 4:
                tree.insert(Record(k, "w"))
        assert PERF.gap.leaf_splits > 0
        assert tree.record_count() == 160
        tree.validate()


class TestRebuildKeepsGap:
    def test_compaction_packs_to_gapped_target(self):
        db = Database(gap_config(0.25, cap=16))
        tree = db.bulk_load_tree(
            [Record(k, "v") for k in range(320)], leaf_fill=1.0
        )
        for k in range(320):
            if k % 2:
                tree.delete(k)
        before = [(r.key, r.payload) for r in tree.items()]
        Reorganizer(db, tree, ReorgConfig(target_fill=1.0)).run_pass1()
        # the rebuilt leaves respect the gap clamp, not raw capacity
        assert max(leaf_sizes(tree)) <= 12
        assert [(r.key, r.payload) for r in tree.items()] == before
        tree.validate()
