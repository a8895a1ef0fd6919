"""Integration tests for redo/undo crash recovery (no reorganizer yet)."""

import pytest

from repro.config import TreeConfig
from repro.db import Database
from repro.storage.page import Record
from repro.txn.transaction import Transaction
from repro.wal.records import CommitRecord, EndRecord


def small_db(**kwargs):
    defaults = dict(
        leaf_capacity=4,
        internal_capacity=4,
        leaf_extent_pages=256,
        internal_extent_pages=128,
        buffer_pool_pages=64,
    )
    defaults.update(kwargs)
    return Database(TreeConfig(**defaults))


def committed_insert(db, tree, record):
    txn = Transaction()
    tree.insert(record, txn)
    db.log.append(CommitRecord(txn_id=txn.txn_id, prev_lsn=txn.last_lsn))
    db.log.append(EndRecord(txn_id=txn.txn_id))
    return txn


class TestRedo:
    def test_committed_inserts_survive_crash(self):
        db = small_db()
        tree = db.create_tree()
        for key in range(50):
            committed_insert(db, tree, Record(key, f"v{key}"))
        db.log.flush()  # commit forces the log
        db.crash()
        db.recover()
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == list(range(50))

    def test_unflushed_log_tail_is_lost(self):
        db = small_db()
        tree = db.create_tree()
        committed_insert(db, tree, Record(1))
        db.log.flush()
        tree.insert(Record(2))  # never flushed
        db.crash()
        db.recover()
        tree = db.tree()
        assert tree.search(1) is not None
        assert tree.search(2) is None

    def test_redo_is_idempotent_across_double_crash(self):
        db = small_db()
        tree = db.create_tree()
        for key in range(30):
            committed_insert(db, tree, Record(key))
        db.log.flush()
        db.crash()
        db.recover()
        db.crash()
        db.recover()
        tree = db.tree()
        tree.validate()
        assert tree.record_count() == 30

    def test_checkpoint_bounds_redo_work(self):
        db = small_db()
        tree = db.create_tree()
        for key in range(30):
            committed_insert(db, tree, Record(key))
        db.checkpoint()
        for key in range(30, 40):
            committed_insert(db, tree, Record(key))
        db.log.flush()
        db.crash()
        report = db.recover()
        # Only the post-checkpoint suffix is scanned, not the whole log.
        assert report.redo_scanned < len(db.log) / 2
        assert db.tree().record_count() == 40

    def test_splits_survive_crash(self):
        db = small_db(leaf_capacity=3, internal_capacity=3)
        tree = db.create_tree()
        for key in range(100):
            committed_insert(db, tree, Record(key, "x" * 5))
        db.log.flush()
        db.crash()
        db.recover()
        tree = db.tree()
        tree.validate()
        assert tree.height() >= 3
        assert tree.record_count() == 100

    def test_deletes_and_free_at_empty_survive_crash(self):
        db = small_db(leaf_capacity=3, internal_capacity=3)
        tree = db.create_tree()
        for key in range(60):
            committed_insert(db, tree, Record(key))
        for key in range(0, 30):
            txn = Transaction()
            tree.delete(key, txn)
            db.log.append(CommitRecord(txn_id=txn.txn_id, prev_lsn=txn.last_lsn))
        db.log.flush()
        db.crash()
        db.recover()
        tree = db.tree()
        tree.validate()
        assert [r.key for r in tree.items()] == list(range(30, 60))

    def test_dirty_pages_flushed_by_eviction_roll_forward(self):
        """Pages written mid-run have page LSNs; redo must skip them."""
        db = small_db(buffer_pool_pages=8)  # tiny pool forces evictions
        tree = db.create_tree()
        for key in range(80):
            committed_insert(db, tree, Record(key))
        db.log.flush()
        db.crash()
        db.recover()
        assert db.tree().record_count() == 80


class TestUndo:
    def test_incomplete_transaction_rolled_back(self):
        db = small_db()
        tree = db.create_tree()
        committed_insert(db, tree, Record(1))
        loser = Transaction()
        tree.insert(Record(2), loser)  # never commits
        db.log.flush()
        db.crash()
        report = db.recover()
        assert loser.txn_id in report.undone_txns
        tree = db.tree()
        assert tree.search(1) is not None
        assert tree.search(2) is None

    def test_incomplete_delete_rolled_back(self):
        db = small_db()
        tree = db.create_tree()
        committed_insert(db, tree, Record(1, "keepme"))
        loser = Transaction()
        tree.delete(1, loser)
        db.log.flush()
        db.crash()
        db.recover()
        assert db.tree().search(1).payload == "keepme"

    def test_multi_op_transaction_fully_undone(self):
        db = small_db()
        tree = db.create_tree()
        loser = Transaction()
        for key in range(10):
            tree.insert(Record(key), loser)
        db.log.flush()
        db.crash()
        db.recover()
        assert db.tree().record_count() == 0

    def test_undo_writes_clrs_so_second_crash_is_safe(self):
        db = small_db()
        tree = db.create_tree()
        loser = Transaction()
        tree.insert(Record(7), loser)
        db.log.flush()
        db.crash()
        db.recover()
        db.log.flush()
        db.crash()
        report = db.recover()
        # The transaction ended during the first recovery; the second one
        # must not try to undo it again.
        assert loser.txn_id not in report.undone_txns
        assert db.tree().search(7) is None

    def test_committed_txn_not_undone_even_with_active_entry(self):
        db = small_db()
        tree = db.create_tree()
        txn = Transaction()
        tree.insert(Record(5), txn)
        db.log.append(CommitRecord(txn_id=txn.txn_id, prev_lsn=txn.last_lsn))
        db.log.flush()  # commit record stable, no End record
        db.crash()
        report = db.recover()
        assert txn.txn_id not in report.undone_txns
        assert db.tree().search(5) is not None

    def test_undo_disabled_leaves_changes(self):
        db = small_db()
        tree = db.create_tree()
        loser = Transaction()
        tree.insert(Record(2), loser)
        db.log.flush()
        db.crash()
        db.recover(undo=False)
        assert db.tree().search(2) is not None


class TestMetaAndFreeMap:
    def test_root_pointer_survives(self):
        db = small_db(leaf_capacity=3, internal_capacity=3)
        tree = db.create_tree()
        for key in range(50):
            committed_insert(db, tree, Record(key))
        root_before = tree.root_id
        db.log.flush()
        db.crash()
        db.recover()
        assert db.tree().root_id == root_before

    def test_root_split_survives_a_crash_before_any_flush(self):
        """The root pointer obeys WAL: the new root's records are forced
        before its location is written, so redo rebuilds the root."""
        db = small_db()
        tree = db.create_tree()
        db.checkpoint()
        keys = []
        while tree.height() == 1:
            keys.append(len(keys))
            tree.insert(Record(keys[-1]))
        db.crash()
        db.recover()
        tree = db.tree()
        tree.validate()
        # The insert that split the root logs its own record after the split.
        for key in keys[:-1]:
            assert tree.search(key) is not None

    def test_created_and_bulk_loaded_trees_survive_a_crash_before_any_flush(self):
        db = small_db()
        db.create_tree("empty")
        db.bulk_load_tree([Record(k) for k in range(40)], name="loaded")
        db.crash()
        db.recover()
        assert db.tree("empty").search(1) is None
        assert [r.key for r in db.tree("loaded").items()] == list(range(40))

    def test_free_map_rebuilt_consistently(self):
        db = small_db(leaf_capacity=3, internal_capacity=3)
        tree = db.create_tree()
        for key in range(60):
            committed_insert(db, tree, Record(key))
        db.log.flush()
        db.crash()
        db.recover()
        tree = db.tree()
        tree.validate()  # checks reachable pages are allocated
        # Allocating new pages must not hand out pages the tree uses.
        leaf_ids = set(tree.leaf_ids_in_key_order())
        new_leaf = db.store.allocate_leaf()
        assert new_leaf.page_id not in leaf_ids
