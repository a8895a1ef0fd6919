"""Unit tests for reorganization units (compact / move / swap)."""

import pytest

from repro.btree.bulkload import bulk_load
from repro.config import SidePointerKind, TreeConfig
from repro.db import Database
from repro.errors import ReorgError
from repro.reorg.unit import UnitEngine
from repro.storage.page import Record
from repro.wal.records import (
    ReorgBeginRecord,
    ReorgEndRecord,
    ReorgModifyRecord,
    ReorgMoveInRecord,
    ReorgMoveOutRecord,
    ReorgSwapRecord,
    ReorgUnitType,
)


def sparse_db(
    n=96,
    keep_every=4,
    leaf_capacity=8,
    side=SidePointerKind.NONE,
    careful=True,
):
    """A tree bulk-loaded full, then thinned to 1/keep_every occupancy."""
    db = Database(
        TreeConfig(
            leaf_capacity=leaf_capacity,
            internal_capacity=8,
            leaf_extent_pages=256,
            internal_extent_pages=128,
            side_pointers=side,
            careful_writing=careful,
            buffer_pool_pages=64,
        )
    )
    records = [Record(k, f"v{k}") for k in range(n)]
    tree = db.bulk_load_tree(records, leaf_fill=1.0)
    for k in range(n):
        if k % keep_every != 0:
            tree.delete(k)
    tree.validate()
    return db, tree


class TestCompactUnit:
    def test_in_place_compaction_merges_group(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:3]
        counts = sum(db.store.get_leaf(c).num_items for c in group)
        result = engine.compact_unit(
            base.page_id, group, [group[0]]
        )
        assert result.unit_type is ReorgUnitType.COMPACT
        assert db.store.get_leaf(group[0]).num_items == counts
        for freed in group[1:]:
            assert db.store.free_map.is_free(freed)
        tree.validate()

    def test_new_place_compaction_switches_to_empty_page(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:3]
        empty = db.store.free_map.free_page_ids("leaf")[0]
        before = sorted(r.key for r in tree.items())
        result = engine.compact_unit(base.page_id, group, [empty])
        assert result.dest_page == empty
        for freed in group:
            assert db.store.free_map.is_free(freed)
        tree.validate()
        assert sorted(r.key for r in tree.items()) == before

    def test_records_preserved_exactly(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        before = [(r.key, r.payload) for r in tree.items()]
        base = tree.base_page_for(0)
        group = base.children()[:4]
        engine.compact_unit(base.page_id, group, [group[0]])
        assert [(r.key, r.payload) for r in tree.items()] == before

    def test_base_page_entries_updated(self):
        db, tree = sparse_db()
        base = tree.base_page_for(0)
        group = base.children()[:3]
        n_entries = base.num_items
        UnitEngine(db, tree).compact_unit(
            base.page_id, group, [group[0]]
        )
        base = db.store.get_internal(base.page_id)
        assert base.num_items == n_entries - 2
        # The kept entry's key equals the compacted leaf's min key.
        index = base.index_of_child(group[0])
        assert base.entries[index][0] == db.store.get_leaf(group[0]).min_key()

    def test_log_record_sequence(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:2]
        mark = db.log.last_lsn
        engine.compact_unit(base.page_id, group, [group[0]])
        records = list(db.log.records_from(mark + 1))
        kinds = [type(r).__name__ for r in records]
        assert kinds[0] == "ReorgBeginRecord"
        assert kinds[-1] == "ReorgEndRecord"
        assert "ReorgMoveOutRecord" in kinds
        assert "ReorgMoveInRecord" in kinds
        assert "ReorgModifyRecord" in kinds

    def test_unit_chain_prev_lsns(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:2]
        engine.compact_unit(base.page_id, group, [group[0]])
        # Walk back from END through the unit chain to BEGIN.
        end = next(
            r for r in reversed(list(db.log.records_from(1)))
            if isinstance(r, ReorgEndRecord)
        )
        chain = list(db.log.walk_chain(end.lsn))
        assert isinstance(chain[-1], ReorgBeginRecord)

    def test_progress_table_updated(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:2]
        result = engine.compact_unit(base.page_id, group, [group[0]])
        assert not db.progress.unit_in_flight
        assert db.progress.largest_finished_key == result.largest_key

    def test_careful_writing_logs_keys_only(self):
        db, tree = sparse_db(careful=True)
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:2]
        mark = db.log.last_lsn
        engine.compact_unit(base.page_id, group, [group[0]])
        moves = [
            r for r in db.log.records_from(mark + 1)
            if isinstance(r, (ReorgMoveInRecord, ReorgMoveOutRecord))
        ]
        assert moves and all(r.records == () for r in moves)
        assert all(r.keys for r in moves)

    def test_without_careful_writing_full_contents_logged(self):
        db, tree = sparse_db(careful=False)
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:2]
        mark = db.log.last_lsn
        engine.compact_unit(base.page_id, group, [group[0]])
        moves = [
            r for r in db.log.records_from(mark + 1)
            if isinstance(r, (ReorgMoveInRecord, ReorgMoveOutRecord))
        ]
        assert moves and all(r.records for r in moves)

    @pytest.mark.parametrize(
        "side", [SidePointerKind.ONE_WAY, SidePointerKind.TWO_WAY]
    )
    def test_side_pointers_maintained(self, side):
        db, tree = sparse_db(side=side)
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:3]
        engine.compact_unit(base.page_id, group, [group[0]])
        tree.validate()


class TestMoveUnit:
    def test_move_to_empty_page(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        source = base.children()[0]
        contents = [r.key for r in db.store.get_leaf(source).records]
        empty = db.store.free_map.free_page_ids("leaf")[0]
        result = engine.move_unit(base.page_id, source, empty)
        assert result.unit_type is ReorgUnitType.MOVE
        assert db.store.free_map.is_free(source)
        assert [r.key for r in db.store.get_leaf(empty).records] == contents
        tree.validate()

    @pytest.mark.parametrize(
        "side", [SidePointerKind.ONE_WAY, SidePointerKind.TWO_WAY]
    )
    def test_move_fixes_side_pointers(self, side):
        db, tree = sparse_db(side=side)
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(40)
        source = base.children()[1]
        empty = db.store.free_map.free_page_ids("leaf")[0]
        engine.move_unit(base.page_id, source, empty)
        tree.validate()


class TestSwapUnit:
    def _two_leaves_two_bases(self, tree):
        """A pair of leaves under two different base pages."""
        bases = []
        stack = [tree.root_id]
        store = tree.store
        from repro.storage.page import PageKind

        while stack:
            page = store.get(stack.pop())
            if page.kind is PageKind.INTERNAL:
                if page.level == 1:
                    bases.append(page)
                else:
                    stack.extend(page.children())
        assert len(bases) >= 2
        bases.sort(key=lambda b: b.min_key())
        return bases[0], bases[0].children()[0], bases[1], bases[1].children()[0]

    def test_swap_exchanges_contents(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base_a, leaf_a, base_b, leaf_b = self._two_leaves_two_bases(tree)
        keys_a = db.store.get_leaf(leaf_a).keys()
        keys_b = db.store.get_leaf(leaf_b).keys()
        engine.swap_unit(base_a.page_id, leaf_a, base_b.page_id, leaf_b)
        assert db.store.get_leaf(leaf_a).keys() == keys_b
        assert db.store.get_leaf(leaf_b).keys() == keys_a
        tree.validate()

    def test_swap_within_one_base_page(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        leaf_a, leaf_b = base.children()[0], base.children()[1]
        before = [r.key for r in tree.items()]
        engine.swap_unit(base.page_id, leaf_a, base.page_id, leaf_b)
        tree.validate()
        assert [r.key for r in tree.items()] == before

    def test_swap_logs_full_contents_of_at_least_one_page(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base_a, leaf_a, base_b, leaf_b = self._two_leaves_two_bases(tree)
        mark = db.log.last_lsn
        engine.swap_unit(base_a.page_id, leaf_a, base_b.page_id, leaf_b)
        swap = next(
            r for r in db.log.records_from(mark + 1)
            if isinstance(r, ReorgSwapRecord)
        )
        assert swap.records_a  # full contents of page A always logged

    def test_swap_with_self_rejected(self):
        db, tree = sparse_db()
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        leaf = base.children()[0]
        with pytest.raises(ReorgError):
            engine.swap_unit(base.page_id, leaf, base.page_id, leaf)

    @pytest.mark.parametrize(
        "side", [SidePointerKind.ONE_WAY, SidePointerKind.TWO_WAY]
    )
    def test_swap_fixes_side_pointers(self, side):
        db, tree = sparse_db(side=side)
        engine = UnitEngine(db, tree)
        base_a, leaf_a, base_b, leaf_b = self._two_leaves_two_bases(tree)
        engine.swap_unit(base_a.page_id, leaf_a, base_b.page_id, leaf_b)
        tree.validate()

    def test_adjacent_leaf_swap_with_side_pointers(self):
        db, tree = sparse_db(side=SidePointerKind.TWO_WAY)
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        leaf_a, leaf_b = base.children()[0], base.children()[1]
        engine.swap_unit(base.page_id, leaf_a, base.page_id, leaf_b)
        tree.validate()


class TestUndoUnit:
    """Section 5.2 undo moves each MOVE pair's records back as one run."""

    class _Stop(Exception):
        pass

    @pytest.mark.parametrize("careful", [True, False])
    @pytest.mark.parametrize("pairs_done", [1, 2])
    def test_undo_of_a_partly_moved_unit_restores_every_page(
        self, careful, pairs_done
    ):
        db, tree = sparse_db(careful=careful)
        engine = UnitEngine(db, tree)
        base = tree.base_page_for(0)
        group = base.children()[:3]
        before = {leaf: db.store.get_leaf(leaf).keys() for leaf in group}
        move = engine._move_some_records
        done = []

        def interrupted(*args):
            if len(done) == pairs_done:
                raise self._Stop
            done.append(args)
            move(*args)

        engine._move_some_records = interrupted
        if pairs_done < 2:
            with pytest.raises(self._Stop):
                engine.begin_compact(base.page_id, group, [group[0]])
            (unit_id,) = db.progress.units_in_flight
        else:
            unit_id = engine.begin_compact(base.page_id, group, [group[0]])
        # Each pair done appended its source's records to the destination.
        assert db.store.get_leaf(group[0]).keys() == sorted(
            key for leaf in group[: pairs_done + 1] for key in before[leaf]
        )
        engine._move_some_records = move
        engine.undo_unit(unit_id)
        assert {leaf: db.store.get_leaf(leaf).keys() for leaf in group} == before
        assert db.progress.units_in_flight == []
        tree.validate()
