"""Tests for pluggable placement policies (ISSUE 9).

Covers the shared post-reorg shape helper (off-by-one heights), the
BFS -> vEB numbering on perfect and clipped trees, preference resolution
in Find-Free-Space, and end-to-end reorganizations under each policy —
including the sharded case, where every shard's vEB window must stay
inside its internal lease.
"""

import types

import pytest

from repro.config import (
    PlacementPolicyKind,
    ReorgConfig,
    ShardConfig,
    SidePointerKind,
    TreeConfig,
)
from repro.db import Database
from repro.reorg.freespace import find_free_page, resolve_preference
from repro.reorg.placement import (
    KeyOrderPolicy,
    NoPlacementPolicy,
    Pass3Plan,
    VebPolicy,
    bfs_to_veb,
    fill_count,
    make_policy,
    post_reorg_shape,
    predict_base_width,
    veb_order,
)
from repro.reorg.reorganizer import Reorganizer
from repro.shard import ParallelReorganizer, ShardedDatabase
from repro.storage.allocator import FreeSpaceMap
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.page import PageKind, Record


def make_fsm(leaf_pages=64, internal_pages=32):
    disk = SimulatedDisk(
        [
            Extent("leaf", 0, leaf_pages),
            Extent("internal", leaf_pages, internal_pages),
        ]
    )
    return FreeSpaceMap(disk, ["leaf", "internal"])


class TestShapeHelper:
    def test_fill_count_matches_pass3(self):
        assert fill_count(8, 0.9) == 7
        assert fill_count(16, 0.9) == 14
        assert fill_count(10, 1.0) == 10
        # Tiny fills still hold at least one entry per page.
        assert fill_count(8, 0.05) == 1

    def test_single_leaf(self):
        shape = post_reorg_shape(1, 7)
        assert shape.internal_widths == (1,)
        assert shape.internal_levels == 1
        assert shape.n_internal == 1
        assert shape.height == 2

    def test_empty_tree(self):
        shape = post_reorg_shape(0, 7)
        assert shape.internal_widths == ()
        assert shape.n_internal == 0
        assert shape.height == 0

    def test_exactly_full_fanout(self):
        # f^2 leaves chunk perfectly: f base pages, one root.
        shape = post_reorg_shape(49, 7)
        assert shape.internal_widths == (7, 1)

    def test_one_over_full_fanout(self):
        # One extra leaf forces an extra base page AND an extra level.
        shape = post_reorg_shape(50, 7)
        assert shape.internal_widths == (8, 2, 1)

    def test_widths_top_down(self):
        shape = post_reorg_shape(50, 7)
        assert shape.widths_top_down(include_leaves=False) == (1, 2, 8)
        assert shape.widths_top_down(include_leaves=True) == (1, 2, 8, 50)

    def test_reorg_20k_fixture_shape(self):
        # The perf-harness fixture: 429 leaves at fanout 7.
        shape = post_reorg_shape(429, 7)
        assert shape.internal_widths == (62, 9, 2, 1)
        assert shape.n_internal == 74

    def test_matches_actual_pass3_build(self):
        """The prediction must mirror what pass 3 actually builds."""
        db = Database(
            TreeConfig(
                leaf_capacity=8,
                internal_capacity=6,
                leaf_extent_pages=256,
                internal_extent_pages=128,
            )
        )
        records = [Record(k, "v") for k in range(900)]
        tree = db.bulk_load_tree(records, leaf_fill=1.0, internal_fill=0.6)
        for k in range(0, 900, 2):
            tree.delete(k)
        db.flush()
        db.checkpoint()
        # A mid-scan stable point closes the open base page early, leaving
        # it under-filled — the one effect the pure chunking model does not
        # predict (out-of-plan nodes just fall back to default allocation).
        # Disable them to compare the model against a pure build.
        Reorganizer(
            db, tree, ReorgConfig(target_fill=0.9, stable_point_interval=10_000)
        ).run()
        final = db.tree()
        n_leaves = len(final.leaf_ids_in_key_order())
        shape = post_reorg_shape(n_leaves, fill_count(6, 0.9))
        internal = 0
        stack = [final.root_id]
        while stack:
            page = db.store.get(stack.pop())
            if page.kind is PageKind.INTERNAL:
                internal += 1
                stack.extend(page.children())
        assert internal == shape.n_internal
        assert final.height() == shape.height


class TestPredictBaseWidth:
    """The stable-point-aware base-width simulation (section 7.3)."""

    def test_no_stable_points_is_perfect_chunking(self):
        assert predict_base_width([7, 7, 7], 7, 10_000) == 3
        assert predict_base_width([5, 5, 5], 7, 10_000) == 3

    def test_aligned_closures_add_nothing(self):
        # Every old page closes exactly one new page, so each stable point
        # finds an empty open page and fragments nothing.
        assert predict_base_width([7] * 12, 7, 5) == 12

    def test_misaligned_closures_widen_the_base(self):
        # Hand-simulated: every third old page trips the stable point with
        # a part-filled open page, closing it early.
        assert predict_base_width([5] * 10, 7, 2) == 10
        # The perfect-fill model would predict only ceil(50 / 7) = 8.

    def test_empty_and_invalid(self):
        assert predict_base_width([], 7, 5) == 0
        with pytest.raises(ValueError):
            predict_base_width([1], 0, 5)

    def test_shape_accepts_base_width_override(self):
        shape = post_reorg_shape(50, 7, base_width=10)
        assert shape.internal_widths == (10, 2, 1)

    def test_default_stable_points_are_predicted_exactly(self):
        """Replay the scan arithmetic against a real pass 3 with the
        default stable-point interval: page-for-page agreement is what
        lets the vEB plan cover the whole base level (without it, the
        overflow pages fall out of the plan and the descent adjacency is
        lost — the full-scale regression this guards)."""
        db, tree = _sparse_db(PlacementPolicyKind.VEB)
        config = ReorgConfig(target_fill=0.9)
        reorg = Reorganizer(db, tree, config)
        reorg.run_pass1()
        reorg.run_pass2()
        per_page = fill_count(
            db.store.config.internal_capacity, config.internal_fill
        )
        counts = []
        base = tree.base_page_for(0)
        while base is not None:
            counts.append(len(base.entries))
            base = tree.next_base_page_after(base.entries[-1][0])
        n_leaves = len(tree.leaf_ids_in_key_order())
        predicted = predict_base_width(
            counts, per_page, config.stable_point_interval
        )
        stats, _ = reorg.run_pass3()
        assert stats.new_base_pages == predicted
        # The simulation earned its keep: stable points really widened the
        # base level past the perfect-fill estimate.
        assert predicted > -(-n_leaves // per_page)


class TestVebOrder:
    def test_perfect_tree_round_trips(self):
        widths = (1, 3, 9)
        order = veb_order(widths, 3)
        assert sorted(order) == [
            (d, i) for d, w in enumerate(widths) for i in range(w)
        ]
        ranks = bfs_to_veb(widths, 3)
        assert sorted(ranks.values()) == list(range(13))
        assert ranks[(0, 0)] == 0  # the root leads the layout

    def test_non_perfect_tree_round_trips(self):
        widths = (1, 2, 9, 62)  # the 429-leaf fixture's internal levels
        ranks = bfs_to_veb(widths, 7)
        assert sorted(ranks.values()) == list(range(74))
        assert sorted(ranks) == [
            (d, i) for d, w in enumerate(widths) for i in range(w)
        ]

    def test_root_children_follow_root(self):
        # Height 2: vEB degenerates to BFS — root then its children.
        assert veb_order((1, 4), 4) == [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)]

    def test_any_level_stays_in_left_to_right_order(self):
        """A vEB order restricted to one level is index order — the
        theorem that makes veb leaf placement coincide with key_order."""
        widths = (1, 5, 23, 111)
        order = veb_order(widths, 5)
        for depth in range(len(widths)):
            level = [i for d, i in order if d == depth]
            assert level == sorted(level)

    def test_parent_to_first_child_adjacency_exists(self):
        # The payoff: some parent/first-child pairs are rank-adjacent,
        # which key-order placement never produces on a descent path.
        widths = (1, 7, 49)
        ranks = bfs_to_veb(widths, 7)
        adjacent = sum(
            1
            for (d, i), r in ranks.items()
            if d + 1 < len(widths)
            and ranks.get((d + 1, i * 7)) == r + 1
        )
        assert adjacent > 0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            veb_order((2, 4), 2)  # no single root
        with pytest.raises(ValueError):
            veb_order((1, 9), 2)  # level grows faster than fanout
        assert veb_order((), 4) == []


class TestPass3Plan:
    def test_table_is_permutation_of_window(self):
        shape = post_reorg_shape(50, 7)  # widths (8, 2, 1)
        plan = Pass3Plan(shape, window_start=100)
        assert sorted(plan.table.values()) == list(range(100, 111))
        # Level numbering: level 1 is the base level, the top is the root.
        assert plan.preference(3, 0) == 100  # root at the window start
        assert plan.preference(1, 0) is not None

    def test_out_of_shape_nodes_have_no_preference(self):
        plan = Pass3Plan(post_reorg_shape(50, 7), window_start=100)
        assert plan.preference(1, 99) is None  # wider than predicted
        assert plan.preference(9, 0) is None  # taller than predicted

    def test_veb_policy_reserves_contiguous_window(self):
        fsm = make_fsm()
        store = types.SimpleNamespace(free_map=fsm)
        plan = VebPolicy().pass3_plan(store, post_reorg_shape(50, 7))
        assert plan is not None
        assert plan.window_start == 64  # internal extent start
        assert plan.window_end == 64 + 11

    def test_veb_policy_degrades_when_fragmented(self):
        fsm = make_fsm(internal_pages=8)
        for _ in range(8):
            fsm.allocate("internal")
        for pid in (64, 66, 68, 70):  # alternating free pages: no run of 3
            fsm.free(pid)
        store = types.SimpleNamespace(free_map=fsm)
        shape = post_reorg_shape(8, 2)  # widths (4, 2, 1): 7 internal pages
        assert VebPolicy().pass3_plan(store, shape) is None

    def test_resolve_falls_back_to_nearest_free(self):
        fsm = make_fsm()
        store = types.SimpleNamespace(free_map=fsm)
        plan = Pass3Plan(post_reorg_shape(50, 7), window_start=64)
        root_preference = plan.preference(3, 0)
        fsm.allocate("internal", root_preference)
        assert plan.resolve(store, level=3, index=0) == root_preference + 1


class TestPolicyObjects:
    def test_make_policy_covers_every_kind(self):
        for kind in PlacementPolicyKind:
            assert make_policy(kind).kind is kind

    def test_key_order_leaf_slots_are_contiguous_from_window_start(self):
        slots = KeyOrderPolicy().leaf_slots(5, 40)
        assert slots == [40, 41, 42, 43, 44]

    def test_veb_leaf_slots_match_key_order(self):
        assert VebPolicy().leaf_slots(9, 0) == KeyOrderPolicy().leaf_slots(9, 0)

    def test_none_policy_skips_pass2(self):
        policy = NoPlacementPolicy()
        assert not policy.places_leaves
        assert policy.leaf_slots(5, 0) is None

    def test_builtin_policies_leave_pass1_alone(self):
        for kind in PlacementPolicyKind:
            policy = make_policy(kind)
            assert (
                policy.pass1_preference(largest_finished=3, current=9) is None
            )


class TestFindFreeSpacePreference:
    def setup_store(self):
        db = Database(
            TreeConfig(
                leaf_capacity=8,
                internal_capacity=6,
                leaf_extent_pages=64,
                internal_extent_pages=32,
            )
        )
        for _ in range(10):
            db.store.allocate_leaf()
        for pid in (2, 5, 7):
            db.store.deallocate(pid)
        return db.store

    def test_no_preference_is_byte_identical_to_historic_behaviour(self):
        """preference=None must leave every policy's answer unchanged —
        the same probes TestFindFreePage pins down, asked through the new
        signature."""
        from repro.config import FreeSpacePolicy

        store = self.setup_store()
        for policy, kwargs, expected in [
            (FreeSpacePolicy.PAPER, dict(largest_finished=2, current=9), 5),
            (FreeSpacePolicy.PAPER, dict(largest_finished=-1, current=9), 2),
            (FreeSpacePolicy.FIRST_FIT, dict(largest_finished=2, current=9), 2),
            (FreeSpacePolicy.NONE, dict(largest_finished=2, current=9), None),
        ]:
            assert (
                find_free_page(store, policy, preference=None, **kwargs)
                == expected
            )

    def test_exact_preference_wins_over_policy(self):
        from repro.config import FreeSpacePolicy

        store = self.setup_store()
        assert (
            find_free_page(
                store,
                FreeSpacePolicy.PAPER,
                largest_finished=2,
                current=9,
                preference=7,
            )
            == 7
        )

    def test_taken_preference_resolves_to_nearest_free(self):
        fsm = make_fsm()
        for _ in range(10):
            fsm.allocate("leaf")
        for pid in (2, 7):
            fsm.free(pid)
        # 4 is taken; free neighbours are 2 (distance 2) and 7 (distance 3).
        assert resolve_preference(fsm, "leaf", 4) == 2
        # 5 is taken; 7 (distance 2) beats 2 (distance 3).
        assert resolve_preference(fsm, "leaf", 5) == 7
        # A free preference resolves to itself.
        assert resolve_preference(fsm, "leaf", 7) == 7

    def test_tie_resolves_to_smaller_page_id(self):
        fsm = make_fsm()
        for _ in range(10):
            fsm.allocate("leaf")
        for pid in (3, 7):
            fsm.free(pid)
        assert resolve_preference(fsm, "leaf", 5) == 3

    def test_preference_clamped_to_lease(self):
        fsm = make_fsm()
        lease = fsm.grant_lease("leaf", 16, 32)
        # Page 0 is free but outside the lease; nearest in-lease free is 16.
        assert resolve_preference(fsm, "leaf", 0, lease=lease) == 16


def _sparse_db(kind, n_records=900):
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=1024,
            internal_extent_pages=512,
            side_pointers=SidePointerKind.ONE_WAY,
            placement_policy=kind,
        )
    )
    records = [Record(k, "v" * 4) for k in range(n_records)]
    tree = db.bulk_load_tree(records, leaf_fill=1.0, internal_fill=0.6)
    for k in range(n_records):
        if k % 3:
            tree.delete(k)
    db.flush()
    db.checkpoint()
    return db, tree


def _internal_ids(db, tree):
    out = []
    stack = [tree.root_id]
    while stack:
        page = db.store.get(stack.pop())
        if page.kind is PageKind.INTERNAL:
            out.append(page.page_id)
            stack.extend(page.children())
    return out


class TestEndToEndPolicies:
    def test_scans_identical_and_veb_window_contiguous(self):
        results = {}
        for kind in PlacementPolicyKind:
            db, tree = _sparse_db(kind)
            report = Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run()
            final = db.tree()
            final.validate()
            results[kind] = dict(
                scan=[(r.key, r.payload) for r in final.range_scan(0, 10_000)],
                leaves=final.leaf_ids_in_key_order(),
                internal=sorted(_internal_ids(db, final)),
                pass2_ops=report.pass2.operations if report.pass2 else 0,
            )
        key_order = results[PlacementPolicyKind.KEY_ORDER]
        veb = results[PlacementPolicyKind.VEB]
        none = results[PlacementPolicyKind.NONE]
        # Records are invariant under placement.
        assert key_order["scan"] == veb["scan"] == none["scan"]
        # vEB's leaf placement IS key order; only internal pages move.
        assert veb["leaves"] == key_order["leaves"]
        assert veb["pass2_ops"] == key_order["pass2_ops"] > 0
        # The `none` policy skips pass 2, so its leaves stay scattered.
        assert none["pass2_ops"] == 0
        assert none["leaves"] != key_order["leaves"]
        # The vEB upper levels occupy one contiguous window.
        ids = veb["internal"]
        assert ids[-1] - ids[0] + 1 == len(ids)

    def test_veb_reorg_survives_catchup_splits(self):
        """Concurrent-style inserts between passes grow the tree past the
        predicted shape; out-of-plan nodes fall back to default
        allocation and the tree must still validate."""
        db, tree = _sparse_db(PlacementPolicyKind.VEB)
        reorg = Reorganizer(db, tree, ReorgConfig(target_fill=0.9))
        reorg.run_pass1()
        for k in range(10_000, 10_300):
            tree.insert(Record(k, "new"))
        reorg.run_pass2()
        reorg.run_pass3()
        final = db.tree()
        final.validate()
        assert [r.key for r in final.range_scan(10_000, 10_299)] == list(
            range(10_000, 10_300)
        )


class TestShardedVebPlacement:
    def test_each_shard_window_stays_inside_its_lease(self):
        results = {}
        for kind in (PlacementPolicyKind.KEY_ORDER, PlacementPolicyKind.VEB):
            sdb = ShardedDatabase(
                TreeConfig(
                    leaf_capacity=8,
                    internal_capacity=6,
                    leaf_extent_pages=1024,
                    internal_extent_pages=256,
                    side_pointers=SidePointerKind.ONE_WAY,
                    placement_policy=kind,
                ),
                ShardConfig(n_shards=2),
            )
            records = [Record(k, "v" * 4) for k in range(1200)]
            sdb.bulk_load(records, leaf_fill=1.0, internal_fill=0.6)
            for k in range(1200):
                if k % 3:
                    sdb.delete(k)
            sdb.flush()
            sdb.checkpoint()
            ParallelReorganizer(sdb, ReorgConfig(target_fill=0.9)).run()
            sdb.validate()
            for handle in sdb.handles:
                lease = handle.store.internal_lease
                ids = _internal_ids(handle, handle.tree())
                assert all(lease.start <= pid < lease.end for pid in ids), (
                    f"shard {handle.index} placed internal pages outside "
                    f"its lease under {kind.value}"
                )
                if kind is PlacementPolicyKind.VEB:
                    ids = sorted(ids)
                    assert ids[-1] - ids[0] + 1 == len(ids)
            results[kind] = [
                (r.key, r.payload) for r in sdb.range_scan(0, 10_000)
            ]
        assert (
            results[PlacementPolicyKind.KEY_ORDER]
            == results[PlacementPolicyKind.VEB]
        )
