"""Unit tests for the side file and Find-Free-Space policies."""

import pytest

from repro.config import FreeSpacePolicy, TreeConfig
from repro.db import Database
from repro.reorg.freespace import find_free_page
from repro.reorg.sidefile import SideFile
from repro.storage.page import Record
from repro.txn.transaction import Transaction
from repro.wal.records import SideFileApplyRecord, SideFileInsertRecord


def make_db():
    return Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=64,
            internal_extent_pages=32,
        )
    )


class TestSideFile:
    def test_append_logs_and_mirrors_into_pass3_state(self):
        db = make_db()
        side = SideFile(db, "primary")
        side.append(10, 3, "insert")
        assert db.pass3_state().side_file_entries == [(10, 3, "insert")]
        records = [
            r for r in db.log.records_from(1)
            if isinstance(r, SideFileInsertRecord)
        ]
        assert len(records) == 1
        assert (records[0].key, records[0].child, records[0].op) == (10, 3, "insert")

    def test_append_chains_into_the_causing_transaction(self):
        db = make_db()
        side = SideFile(db, "primary")
        txn = Transaction()
        side.append(10, 3, "insert", txn)
        record = db.log.get(txn.last_lsn)
        assert isinstance(record, SideFileInsertRecord)
        assert record.txn_id == txn.txn_id

    def test_invalid_op_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            SideFile(db, "primary").append(1, 1, "upsert")

    def test_pop_and_log_applied(self):
        db = make_db()
        side = SideFile(db, "primary")
        side.append(10, 3, "insert")
        side.append(20, 4, "delete")
        entry = side.pop_front()
        assert entry == (10, 3, "insert")
        side.log_applied(entry, new_base_page=99)
        applies = [
            r for r in db.log.records_from(1)
            if isinstance(r, SideFileApplyRecord)
        ]
        assert len(applies) == 1
        assert applies[0].new_base_page == 99
        assert len(side) == 1

    def test_drop_after_key(self):
        db = make_db()
        side = SideFile(db, "primary")
        for key in (5, 15, 25):
            side.append(key, 0, "insert")
        dropped = side.drop_after_key(15)
        assert dropped == 2
        assert side.entries == [(5, 0, "insert")]

    def test_restore(self):
        db = make_db()
        side = SideFile(db, "primary")
        side.restore([(1, 2, "insert")])
        assert db.pass3_state().side_file_entries == [(1, 2, "insert")]


class TestFindFreePage:
    def setup_store(self):
        db = make_db()
        # Allocate leaf pages 0..9; free 2, 5, 7.
        for _ in range(10):
            db.store.allocate_leaf()
        for pid in (2, 5, 7):
            db.store.deallocate(pid)
        return db.store

    def test_paper_policy_picks_first_between_l_and_c(self):
        store = self.setup_store()
        assert find_free_page(
            store, FreeSpacePolicy.PAPER, largest_finished=2, current=9
        ) == 5
        assert find_free_page(
            store, FreeSpacePolicy.PAPER, largest_finished=-1, current=9
        ) == 2
        assert find_free_page(
            store, FreeSpacePolicy.PAPER, largest_finished=5, current=7
        ) is None

    def test_first_fit_ignores_bounds(self):
        store = self.setup_store()
        assert find_free_page(
            store, FreeSpacePolicy.FIRST_FIT, largest_finished=5, current=6
        ) == 2

    def test_none_always_none(self):
        store = self.setup_store()
        assert find_free_page(
            store, FreeSpacePolicy.NONE, largest_finished=-1, current=99
        ) is None

    def test_paper_policy_excludes_c_itself(self):
        store = self.setup_store()
        # Free page 7 is NOT before C=7.
        assert find_free_page(
            store, FreeSpacePolicy.PAPER, largest_finished=5, current=8
        ) == 7
        assert find_free_page(
            store, FreeSpacePolicy.PAPER, largest_finished=5, current=7
        ) is None
