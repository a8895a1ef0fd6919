"""The buffer pool's per-page version stamps.

Every mutation funnel bumps a page's stamp, so a transaction that captured
it before a lock wait can tell whether the page changed while it slept
(ROADMAP item 1(a)).  The sanitizer's ``version-stamp`` check guards the
funnels at runtime; these tests pin them directly.
"""

from repro.config import TreeConfig
from repro.db import Database
from repro.storage.page import LeafPage, Record


def make_db(n=200):
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=256,
            internal_extent_pages=128,
            buffer_pool_pages=64,
        )
    )
    db.bulk_load_tree([Record(k, f"v{k}") for k in range(n)], leaf_fill=1.0)
    return db


def test_logged_mutation_bumps_the_leaf_stamp():
    db = make_db()
    tree = db.tree()
    leaf = tree.path_to_leaf(5)[-1]
    buffer = db.store.buffer
    before = buffer.version_of(leaf)
    tree.delete(5)
    assert buffer.version_of(leaf) > before


def test_drop_bumps_and_keeps_the_stamp_against_aba():
    """Free + re-allocate of the same page id must never return the
    stamp captured before the free."""
    db = make_db()
    buffer = db.store.buffer
    buffer.put_new(LeafPage(9_999, 8))
    captured = buffer.version_of(9_999)
    assert captured > 0
    buffer.drop(9_999)
    after_drop = buffer.version_of(9_999)
    assert after_drop > captured
    buffer.put_new(LeafPage(9_999, 8))
    assert buffer.version_of(9_999) > after_drop


def test_explicit_bump_invalidates_without_content_change():
    db = make_db()
    root = db.tree().root_id
    buffer = db.store.buffer
    before = buffer.version_of(root)
    buffer.bump_version(root)
    assert buffer.version_of(root) == before + 1
