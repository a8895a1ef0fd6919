"""Unit tests for leaf and internal page operations."""

import pytest

from repro.errors import BTreeError, DuplicateKeyError, KeyNotFoundError
from repro.storage.page import InternalPage, LeafPage, NO_PAGE, PageKind, Record


def make_leaf(keys, capacity=8, page_id=0):
    page = LeafPage(page_id, capacity)
    for k in keys:
        page.insert(Record(k, f"p{k}"))
    return page


class TestLeafPage:
    def test_insert_keeps_key_order(self):
        page = make_leaf([5, 1, 3])
        assert page.keys() == [1, 3, 5]

    def test_insert_duplicate_raises(self):
        page = make_leaf([1])
        with pytest.raises(DuplicateKeyError):
            page.insert(Record(1))

    def test_insert_into_full_page_raises(self):
        page = make_leaf([1, 2], capacity=2)
        with pytest.raises(BTreeError):
            page.insert(Record(3))

    def test_get_and_contains(self):
        page = make_leaf([1, 3])
        assert page.contains(3)
        assert not page.contains(2)
        assert page.get(3).payload == "p3"

    def test_get_missing_raises(self):
        page = make_leaf([1])
        with pytest.raises(KeyNotFoundError):
            page.get(2)

    def test_delete_returns_record(self):
        page = make_leaf([1, 2, 3])
        rec = page.delete(2)
        assert rec.key == 2
        assert page.keys() == [1, 3]

    def test_delete_missing_raises(self):
        page = make_leaf([1])
        with pytest.raises(KeyNotFoundError):
            page.delete(9)

    def test_min_max_key(self):
        page = make_leaf([4, 2, 9])
        assert page.min_key() == 2
        assert page.max_key() == 9

    def test_min_key_on_empty_raises(self):
        page = LeafPage(0, 4)
        with pytest.raises(BTreeError):
            page.min_key()

    def test_fill_fraction_and_slots(self):
        page = make_leaf([1, 2], capacity=8)
        assert page.fill_fraction() == pytest.approx(0.25)
        assert page.free_slots() == 6
        assert not page.is_full
        assert not page.is_empty

    def test_take_all_empties_page(self):
        page = make_leaf([1, 2, 3])
        records = page.take_run(page.keys())
        assert [r.key for r in records] == [1, 2, 3]
        assert page.is_empty

    def test_take_first(self):
        page = make_leaf([1, 2, 3, 4])
        taken = page.take_run((1, 2))
        assert [r.key for r in taken] == [1, 2]
        assert page.keys() == [3, 4]

    @pytest.mark.parametrize(
        "keys, left", [((3, 4), [1, 2]), ((2, 3), [1, 4]), ((), [1, 2, 3, 4])]
    )
    def test_take_run_suffix_interior_and_empty(self, keys, left, monkeypatch):
        page = make_leaf([1, 2, 3, 4])
        # A contiguous run leaves as one slice, never record by record.
        monkeypatch.setattr(LeafPage, "delete", None)
        taken = page.take_run(keys)
        assert [r.key for r in taken] == list(keys)
        assert [r.payload for r in taken] == [f"p{k}" for k in keys]
        assert page.keys() == left

    def test_take_run_non_contiguous_keys_leave_in_the_given_order(self):
        page = make_leaf([1, 2, 3, 4, 5])
        assert [r.key for r in page.take_run((4, 1))] == [4, 1]
        assert [r.key for r in page.take_run([2, 5])] == [2, 5]
        assert page.keys() == [3]

    def test_take_run_missing_key_raises_after_the_keys_before_it(self):
        page = make_leaf([1, 2, 4])
        with pytest.raises(KeyNotFoundError):
            page.take_run((1, 2, 3))
        assert page.keys() == [4]

    @pytest.mark.parametrize(
        "keys, after",
        [((7, 8), [1, 2, 5, 7, 8]), ((0,), [0, 1, 2, 5]), ((3, 4), [1, 2, 3, 4, 5])],
    )
    def test_put_run_prefix_suffix_and_interior(self, keys, after, monkeypatch):
        page = make_leaf([1, 2, 5])
        # A run that lands between two neighbours goes in as one slice.
        monkeypatch.setattr(LeafPage, "insert", None)
        page.put_run([Record(k, f"q{k}") for k in keys])
        assert page.keys() == after
        assert page.get(keys[0]).payload == f"q{keys[0]}"

    def test_put_run_appends_a_suffix_and_takes_the_run_back(self):
        page = make_leaf([1, 2])
        page.put_run((Record(5), Record(7)))
        assert page.keys() == [1, 2, 5, 7]
        assert [r.key for r in page.take_run((5, 7))] == [5, 7]
        assert page.keys() == [1, 2]

    @pytest.mark.parametrize("keys", [(4, 3), (3, 7), (4, 4)])
    def test_put_run_unsorted_or_straddling_batch_goes_in_one_by_one(self, keys):
        page = make_leaf([1, 5])
        if len(set(keys)) < len(keys):
            with pytest.raises(DuplicateKeyError):
                page.put_run([Record(k) for k in keys])
            assert page.keys() == [1, 4, 5]
            return
        page.put_run([Record(k) for k in keys])
        assert page.keys() == sorted({1, 5, *keys})

    def test_put_run_duplicate_of_a_page_key_raises(self):
        page = make_leaf([1, 5])
        with pytest.raises(DuplicateKeyError):
            page.put_run([Record(5), Record(6)])
        assert page.keys() == [1, 5]

    def test_put_run_rejects_overflow(self):
        page = make_leaf([1, 2, 3], capacity=4)
        with pytest.raises(BTreeError):
            page.put_run([Record(5), Record(6)])
        # As inserting one at a time: the record that fitted is in.
        assert page.keys() == [1, 2, 3, 5]

    def test_replace_all_sorts_and_checks_duplicates(self):
        page = make_leaf([1])
        page.replace_all([Record(9), Record(4)])
        assert page.keys() == [4, 9]
        with pytest.raises(DuplicateKeyError):
            page.replace_all([Record(4), Record(4)])

    def test_iter_from(self):
        page = make_leaf([1, 3, 5, 7])
        assert [r.key for r in page.iter_from(3)] == [3, 5, 7]
        assert [r.key for r in page.iter_from(4)] == [5, 7]
        assert [r.key for r in page.iter_from(8)] == []

    def test_clone_is_deep_for_records(self):
        page = make_leaf([1, 2])
        page.next_leaf = 7
        page.page_lsn = 42
        copy = page.clone()
        copy.insert(Record(3))
        assert page.keys() == [1, 2]
        assert copy.next_leaf == 7
        assert copy.page_lsn == 42

    def test_side_pointer_defaults(self):
        page = LeafPage(0, 4)
        assert page.next_leaf == NO_PAGE
        assert page.prev_leaf == NO_PAGE

    def test_payload_bytes(self):
        page = make_leaf([1, 22])  # payloads "p1", "p22"
        assert page.payload_bytes() == len("p1") + len("p22")

    def test_kind(self):
        assert LeafPage(0, 4).kind is PageKind.LEAF


def make_internal(entries, capacity=8, page_id=100, level=1):
    page = InternalPage(page_id, capacity, level=level)
    for k, c in entries:
        page.insert_entry(k, c)
    return page


class TestInternalPage:
    def test_insert_orders_entries(self):
        page = make_internal([(50, 5), (10, 1), (30, 3)])
        assert page.keys() == [10, 30, 50]
        assert page.children() == [1, 3, 5]

    def test_low_mark_set_on_first_insert_only(self):
        page = InternalPage(100, 8)
        assert page.low_mark is None
        page.insert_entry(30, 3)
        assert page.low_mark == 30
        page.insert_entry(10, 1)
        assert page.low_mark == 30  # fixed at creation, per section 7.1

    def test_duplicate_separator_raises(self):
        page = make_internal([(10, 1)])
        with pytest.raises(DuplicateKeyError):
            page.insert_entry(10, 2)

    def test_child_routing(self):
        page = make_internal([(10, 1), (20, 2), (30, 3)])
        assert page.child_for(10) == 1
        assert page.child_for(15) == 1
        assert page.child_for(20) == 2
        assert page.child_for(99) == 3
        # Keys below the minimum route to the leftmost child.
        assert page.child_for(5) == 1

    def test_child_routing_empty_raises(self):
        with pytest.raises(BTreeError):
            InternalPage(0, 4).child_for(1)

    def test_remove_entry_for_child(self):
        page = make_internal([(10, 1), (20, 2)])
        key, child = page.remove_entry_for_child(1)
        assert (key, child) == (10, 1)
        assert page.keys() == [20]

    def test_remove_missing_child_raises(self):
        page = make_internal([(10, 1)])
        with pytest.raises(KeyNotFoundError):
            page.remove_entry_for_child(9)

    def test_update_entry_moves_key(self):
        page = make_internal([(10, 1), (20, 2), (30, 3)])
        page.update_entry(20, 2, 25, 7)
        assert page.entries == ((10, 1), (25, 7), (30, 3))

    def test_update_entry_wrong_pair_raises(self):
        page = make_internal([(10, 1)])
        with pytest.raises(KeyNotFoundError):
            page.update_entry(11, 1, 12, 2)

    def test_set_entries_replaces_all(self):
        page = make_internal([(10, 1)])
        page.set_entries([(40, 4), (20, 2)])
        assert page.entries == ((20, 2), (40, 4))

    def test_full_page_rejects_insert(self):
        page = make_internal([(1, 1), (2, 2)], capacity=2)
        assert page.is_full
        with pytest.raises(BTreeError):
            page.insert_entry(3, 3)

    def test_clone_preserves_level_and_low_mark(self):
        page = make_internal([(10, 1)], level=2)
        copy = page.clone()
        copy.insert_entry(20, 2)
        assert page.keys() == [10]
        assert copy.level == 2
        assert copy.low_mark == 10

    def test_kind(self):
        assert InternalPage(0, 4).kind is PageKind.INTERNAL
