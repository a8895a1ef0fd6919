"""Tests for pass 3 (upper-level rebuild, side file) and the switch."""

import pytest

from repro.btree.stats import collect_stats
from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import ReorgError
from repro.reorg.reorganizer import Reorganizer
from repro.reorg.shrink import SCAN_DONE_KEY, TreeShrinker
from repro.locks.resources import current_lock_name
from repro.reorg.switch import Switcher
from repro.storage.page import PageKind, Record
from tests.reorg import pass3_hooks


def tall_sparse_db(n=600, keep_every=4, internal_capacity=4):
    """A tree whose internal levels became sparse through deletions."""
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=internal_capacity,
            leaf_extent_pages=512,
            internal_extent_pages=512,
            buffer_pool_pages=128,
        )
    )
    tree = db.bulk_load_tree(
        [Record(k, f"v{k}") for k in range(n)],
        leaf_fill=1.0,
        internal_fill=0.5,  # sparse internals: lots to shrink
    )
    for k in range(n):
        if k % keep_every != 0:
            tree.delete(k)
    tree.validate()
    return db, tree


def run_pass3(db, tree, config=None, **hooks):
    reorg = Reorganizer(db, tree, config or ReorgConfig())
    if hooks:
        return pass3_hooks.run_pass3(reorg, **hooks)
    return reorg.run_pass3()


class TestShrink:
    def test_height_reduced(self):
        db, tree = tall_sparse_db()
        height_before = tree.height()
        run_pass3(db, tree)
        tree = db.tree()
        assert tree.height() < height_before
        tree.validate()

    def test_records_unchanged(self):
        db, tree = tall_sparse_db()
        before = [(r.key, r.payload) for r in tree.items()]
        run_pass3(db, tree)
        tree = db.tree()
        assert [(r.key, r.payload) for r in tree.items()] == before

    def test_leaves_not_touched(self):
        """Pass 3 is new-place for internal pages only: leaf page ids and
        contents are identical before and after."""
        db, tree = tall_sparse_db()
        leaves_before = tree.leaf_ids_in_key_order()
        run_pass3(db, tree)
        assert db.tree().leaf_ids_in_key_order() == leaves_before

    def test_old_internal_pages_reclaimed(self):
        db, tree = tall_sparse_db()
        old_internals = self._internal_ids(db, tree)
        _, switch_stats = run_pass3(db, tree)
        assert switch_stats.old_internal_freed == len(old_internals)
        for pid in old_internals:
            assert db.store.free_map.is_free(pid)

    def test_new_internals_at_target_fill(self):
        db, tree = tall_sparse_db()
        run_pass3(db, tree, ReorgConfig(internal_fill=1.0))
        tree = db.tree()
        stats = collect_stats(tree)
        # With fill 1.0 the new internal count is near the minimum.
        import math

        min_base_pages = math.ceil(stats.leaf_count / db.config.internal_capacity)
        # Geometric series over the levels, plus per-level ceil slack.
        assert stats.internal_count <= 2 * min_base_pages + stats.height
        tree.validate()

    def test_stable_points_logged(self):
        db, tree = tall_sparse_db()
        config = ReorgConfig(stable_point_interval=2)
        pass3_stats, _ = run_pass3(db, tree, config)
        assert pass3_stats.stable_points >= 2

    def test_root_pointer_switched(self):
        db, tree = tall_sparse_db()
        old_root = tree.root_id
        _, switch_stats = run_pass3(db, tree)
        assert switch_stats.old_root == old_root
        assert db.tree().root_id == switch_stats.new_root
        assert db.tree().root_id != old_root

    def test_lock_name_changes_at_switch(self):
        db, tree = tall_sparse_db()
        name_before = current_lock_name(db, tree.name)
        run_pass3(db, tree)
        assert current_lock_name(db, tree.name) != name_before

    def test_reorg_bit_cleared_after_switch(self):
        db, tree = tall_sparse_db()
        run_pass3(db, tree)
        assert not db.pass3_state().reorg_bit
        assert db.pass3_state().side_file_entries == []

    def test_single_leaf_tree_rejected(self):
        db = Database(
            TreeConfig(
                leaf_capacity=8, internal_capacity=4,
                leaf_extent_pages=64, internal_extent_pages=32,
            )
        )
        tree = db.bulk_load_tree([Record(1)])
        with pytest.raises(ReorgError):
            run_pass3(db, tree)

    def test_height_two_tree_shrinks_to_compact_form(self):
        db = Database(
            TreeConfig(
                leaf_capacity=4, internal_capacity=8,
                leaf_extent_pages=64, internal_extent_pages=64,
            )
        )
        tree = db.bulk_load_tree([Record(k) for k in range(32)], leaf_fill=1.0)
        assert tree.height() == 2
        run_pass3(db, tree, ReorgConfig(internal_fill=1.0))
        tree = db.tree()
        tree.validate()
        assert tree.height() == 2
        assert tree.record_count() == 32

    @staticmethod
    def _internal_ids(db, tree):
        ids = set()
        stack = [tree.root_id]
        while stack:
            page = db.store.get(stack.pop())
            if page.kind is PageKind.INTERNAL:
                ids.add(page.page_id)
                stack.extend(page.children())
        return ids


class TestOldTreeWalk:
    def test_discard_old_reads_no_leaf(self, monkeypatch):
        """The switch frees the old internal pages without fetching a leaf:
        a level-1 page names its children, it need not read them."""
        db, tree = tall_sparse_db()
        old_internals = TestShrink._internal_ids(db, tree)
        kinds = pass3_hooks.kinds_read_during(monkeypatch, db, Switcher, "discard_old")
        _, switch_stats = run_pass3(db, tree)
        assert switch_stats.old_internal_freed == len(old_internals)
        assert kinds and PageKind.LEAF not in kinds


class TestSideFileCatchUp:
    def test_concurrent_splits_behind_scan_are_caught_up(self):
        """Inserts behind the scan cause leaf splits whose base entries go
        through the side file and land in the new tree."""
        db, tree = tall_sparse_db()
        inserted = []
        state = {"next": 1}

        def during_scan(shrinker):
            # Fill up a leaf far behind the scan position to force splits.
            if not shrinker.scanning:
                return
            ck = shrinker.get_current()
            if ck <= 0 or ck >= SCAN_DONE_KEY:
                return
            for _ in range(3):
                key = state["next"]
                state["next"] += 2  # odd keys, all were deleted earlier
                if key >= ck:
                    break
                tree.insert(Record(key, "hot"))
                inserted.append(key)

        pass3_stats, _ = run_pass3(db, tree, during_scan=during_scan)
        assert inserted, "the workload should have inserted behind the scan"
        new_tree = db.tree()
        new_tree.validate()
        for key in inserted:
            assert new_tree.search(key) is not None
        assert pass3_stats.sidefile_applied >= 0

    def test_deletes_behind_scan_are_caught_up(self):
        db, tree = tall_sparse_db()
        deleted = []

        def during_scan(shrinker):
            if not shrinker.scanning or deleted:
                return
            ck = shrinker.get_current()
            # Drain the first leaf entirely -> free-at-empty -> base delete.
            first_leaf = db.store.get_leaf(tree.leftmost_leaf_id())
            keys = [r.key for r in first_leaf.records]
            if keys and max(keys) < ck:
                for key in keys:
                    tree.delete(key)
                    deleted.append(key)

        run_pass3(db, tree, during_scan=during_scan)
        assert deleted
        new_tree = db.tree()
        new_tree.validate()
        for key in deleted:
            assert new_tree.search(key) is None

    def test_changes_ahead_of_scan_skip_side_file(self):
        db, tree = tall_sparse_db()
        observed = {"appended": 0}

        def during_scan(shrinker):
            if not shrinker.scanning:
                return
            ck = shrinker.get_current()
            if ck >= SCAN_DONE_KEY or observed["appended"]:
                return
            before = len(db.pass3_state().side_file_entries)
            # Insert far ahead of the scan: must NOT go to the side file.
            probe = ck + 100_000
            if tree.search(probe) is None:
                tree.insert(Record(probe))
            observed["appended"] = len(db.pass3_state().side_file_entries) - before

        run_pass3(db, tree, during_scan=during_scan)
        assert observed["appended"] == 0
        db.tree().validate()

    def test_catchup_rounds_converge(self):
        db, tree = tall_sparse_db()
        rounds = {"n": 0}

        def during_catchup(shrinker):
            # Two extra rounds of stragglers, then silence.
            if rounds["n"] < 2:
                key = 1 + 2 * rounds["n"]
                if tree.search(key) is None:
                    tree.insert(Record(key))
                rounds["n"] += 1

        pass3_stats, _ = run_pass3(db, tree, during_catchup=during_catchup)
        assert pass3_stats.catchup_rounds >= 1
        db.tree().validate()


class TestFullReorganization:
    def test_three_passes_end_to_end(self):
        db, tree = tall_sparse_db()
        before = [(r.key, r.payload) for r in tree.items()]
        stats_before = collect_stats(tree)
        report = Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run()
        tree = db.tree()
        tree.validate()
        after = collect_stats(tree)
        assert [(r.key, r.payload) for r in tree.items()] == before
        assert report.pass1 is not None and report.pass1.units > 0
        assert report.pass2 is not None
        assert report.pass3 is not None and report.switch is not None
        assert after.leaf_fill > stats_before.leaf_fill
        assert after.height <= stats_before.height
        assert after.disk_order_fraction == 1.0

    def test_swap_pass_can_be_skipped(self):
        db, tree = tall_sparse_db()
        report = Reorganizer(
            db, tree, ReorgConfig(do_swap_pass=False)
        ).run()
        assert report.pass2 is None
        db.tree().validate()

    def test_tree_usable_after_full_reorg(self):
        db, tree = tall_sparse_db()
        Reorganizer(db, tree, ReorgConfig()).run()
        tree = db.tree()
        tree.insert(Record(100_001, "post"))
        assert tree.search(100_001).payload == "post"
        assert tree.delete(0).key == 0
        tree.validate()

    def test_reorg_is_repeatable(self):
        db, tree = tall_sparse_db()
        Reorganizer(db, tree, ReorgConfig()).run()
        # Degrade again, reorganize again.
        tree = db.tree()
        for k in list(r.key for r in tree.items())[::2]:
            tree.delete(k)
        Reorganizer(db, tree, ReorgConfig()).run()
        db.tree().validate()
