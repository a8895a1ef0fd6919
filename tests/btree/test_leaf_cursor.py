"""The key-order leaf cursor (``BPlusTree.leaf_ids_from``) and what it
costs the synchronous scans in buffer fetches."""

import random

import pytest

from repro.btree.stats import collect_stats
from repro.config import SidePointerKind, TreeConfig
from repro.db import Database
from repro.storage.page import NO_PAGE, InternalPage, Record


def make_db(n=2000, *, side=SidePointerKind.NONE, readahead=0, thin=0.0, seed=3):
    """``n`` keys, four to a leaf, six children per internal page; with
    ``thin`` > 0 that fraction of the keys is deleted again (free-at-empty
    makes the internal levels ragged)."""
    db = Database(
        TreeConfig(
            leaf_capacity=4,
            internal_capacity=8,
            leaf_extent_pages=1024,
            internal_extent_pages=256,
            buffer_pool_pages=64,
            side_pointers=side,
            readahead_pages=readahead,
        )
    )
    tree = db.bulk_load_tree([Record(k, f"v{k}") for k in range(n)], internal_fill=0.75)
    for key in random.Random(seed).sample(range(n), int(n * thin)):
        tree.delete(key)
    return db


def fetches(db):
    return db.store.buffer.hits + db.store.buffer.misses


@pytest.mark.parametrize("thin", [0.0, 0.6, 0.95])
def test_cursor_yields_the_leaf_level_from_the_leaf_for_each_key(thin):
    tree = make_db(thin=thin).tree()
    ids = tree.leaf_ids_in_key_order()
    for key in [-5, 0, 1, 3, 4, 777, 1203, 1998, 1999, 5000]:
        start = ids.index(tree.leaf_for(key).page_id)
        assert list(tree.leaf_ids_from(key)) == ids[start:]


def test_cursor_over_a_leaf_root_yields_the_root():
    tree = make_db(n=3).tree()
    assert list(tree.leaf_ids_from(1)) == [tree.root_id]
    assert [r.key for r in tree.range_scan(0, 9)] == [0, 1, 2]


def test_child_at_is_no_page_past_the_last_child():
    page = InternalPage(7, 4)
    page.set_entries([(0, 10), (5, 11)])
    assert [page.child_at(i) for i in range(3)] == [10, 11, NO_PAGE]


@pytest.mark.parametrize("side", list(SidePointerKind), ids=lambda s: s.value)
@pytest.mark.parametrize("readahead", [0, 16])
def test_range_scan_is_the_key_order_slice(side, readahead):
    db = make_db(side=side, readahead=readahead, thin=0.6)
    tree = db.tree()
    live = [r.key for r in tree.items()]
    for low, high in [(0, 1999), (-10, 5), (700, 1300), (1990, 4000), (5, 4)]:
        assert [r.key for r in tree.range_scan(low, high)] == [
            k for k in live if low <= k <= high
        ]


def test_a_full_scan_descends_once():
    """The guard against a per-leaf descent coming back: at most two
    fetches per page plus one descent (a descent per leaf took 3 602)."""
    db = make_db()
    tree = db.tree()
    stats = collect_stats(tree)
    assert (stats.leaf_count, stats.internal_count, stats.height) == (500, 102, 5)
    before = fetches(db)
    assert len(tree.range_scan(0, 1999)) == 2000
    spent = fetches(db) - before
    assert spent <= 2 * (stats.leaf_count + stats.internal_count) + stats.height


def test_a_point_lookup_fetches_each_level_once():
    db = make_db()
    tree = db.tree()
    before = fetches(db)
    assert tree.search(777).payload == "v777"
    assert fetches(db) - before == tree.height()
