"""Unit tests for the log manager and record byte accounting."""

import pytest

from repro.errors import LogCorruptionError, LogError
from repro.storage.page import Record
from repro.wal.log import LogManager
from repro.wal.records import (
    CheckpointRecord,
    CommitRecord,
    LeafInsertRecord,
    ReorgBeginRecord,
    ReorgMoveOutRecord,
    ReorgSwapRecord,
    ReorgUnitType,
)


class TestAppendFlush:
    def test_lsns_are_monotonic_from_one(self):
        log = LogManager()
        first = log.append(CommitRecord(txn_id=1))
        second = log.append(CommitRecord(txn_id=2))
        assert (first, second) == (1, 2)
        assert log.last_lsn == 2
        assert log.next_lsn == 3

    def test_flush_advances_stable_boundary(self):
        log = LogManager()
        log.append(CommitRecord(txn_id=1))
        log.append(CommitRecord(txn_id=2))
        assert log.flushed_lsn == 0
        log.flush(1)
        assert log.flushed_lsn == 1
        log.flush()
        assert log.flushed_lsn == 2

    def test_flush_beyond_end_clamps(self):
        log = LogManager()
        log.append(CommitRecord(txn_id=1))
        log.flush(99)
        assert log.flushed_lsn == 1

    def test_flush_is_monotonic(self):
        log = LogManager()
        log.append(CommitRecord(txn_id=1))
        log.append(CommitRecord(txn_id=2))
        log.flush(2)
        log.flush(1)  # no-op backwards
        assert log.flushed_lsn == 2
        assert log.stats.flushes == 1


class TestCrash:
    def test_crash_drops_unflushed_tail(self):
        log = LogManager()
        log.append(CommitRecord(txn_id=1))
        log.flush()
        log.append(CommitRecord(txn_id=2))
        log.crash()
        assert log.last_lsn == 1
        assert len(log) == 1

    def test_crash_forgets_unflushed_checkpoint(self):
        log = LogManager()
        log.append(CheckpointRecord())
        log.flush()
        log.append(CheckpointRecord())
        assert log.last_checkpoint_lsn == 2
        log.crash()
        assert log.last_checkpoint_lsn == 1

    def test_lsns_continue_after_crash(self):
        log = LogManager()
        log.append(CommitRecord(txn_id=1))
        log.flush()
        log.append(CommitRecord(txn_id=2))
        log.crash()
        lsn = log.append(CommitRecord(txn_id=3))
        assert lsn == 2  # reuses the truncated position


class TestTruncate:
    def test_base_moves_and_the_volatile_tail_is_never_cut(self):
        log = LogManager()
        for txn in range(1, 11):
            log.append(CommitRecord(txn_id=txn))
        log.flush(6)
        assert log.truncate(9) == 6  # only the stable records 1..6
        assert (log.first_lsn, log.last_lsn) == (7, 10)
        assert log.stats.records_truncated == 6
        assert [r.lsn for r in log.records_from(1)] == [7, 8, 9, 10]
        assert log.get(7).txn_id == 7
        with pytest.raises(LogCorruptionError):
            log.get(6)
        with pytest.raises(LogError):
            log.get(11)

    def test_lsns_continue_after_a_crash_that_empties_the_kept_log(self):
        log = LogManager()
        for txn in range(1, 5):
            log.append(CommitRecord(txn_id=txn))
        log.flush(2)
        log.truncate(3)
        log.crash()
        assert (log.first_lsn, log.last_lsn, len(log)) == (3, 2, 2)
        assert list(log.records_from(1)) == []
        assert log.append(CommitRecord(txn_id=5)) == 3
        assert log.get(3).txn_id == 5


class TestScan:
    def test_get_and_range_scan(self):
        log = LogManager()
        for txn in (1, 2, 3):
            log.append(CommitRecord(txn_id=txn))
        assert log.get(2).txn_id == 2
        assert [r.txn_id for r in log.records_from(2)] == [2, 3]

    def test_get_out_of_range_raises(self):
        log = LogManager()
        with pytest.raises(LogError):
            log.get(1)

    def test_walk_chain_follows_prev_lsn(self):
        log = LogManager()
        first = log.append(LeafInsertRecord(txn_id=5, prev_lsn=0))
        second = log.append(LeafInsertRecord(txn_id=5, prev_lsn=first))
        third = log.append(CommitRecord(txn_id=5, prev_lsn=second))
        chain = [r.lsn for r in log.walk_chain(third)]
        assert chain == [third, second, first]


class TestByteAccounting:
    def test_insert_record_counts_payload(self):
        small = LeafInsertRecord(txn_id=1, page_id=0, record=Record(1, ""))
        big = LeafInsertRecord(txn_id=1, page_id=0, record=Record(1, "x" * 100))
        assert big.log_bytes() - small.log_bytes() == 100

    def test_keys_only_move_is_smaller_than_full_contents(self):
        records = tuple(Record(k, "payload" * 10) for k in range(10))
        keys = tuple(r.key for r in records)
        with_contents = ReorgMoveOutRecord(
            unit_id=1, org_page=1, dest_page=2, keys=keys, records=records
        )
        keys_only = ReorgMoveOutRecord(
            unit_id=1, org_page=1, dest_page=2, keys=keys
        )
        assert keys_only.log_bytes() < with_contents.log_bytes()

    def test_swap_record_carries_one_full_page(self):
        records = tuple(Record(k, "v" * 20) for k in range(5))
        swap = ReorgSwapRecord(
            unit_id=1, page_a=1, page_b=2,
            records_a=records, keys_b=(9, 10),
        )
        # Full contents of A dominate the size.
        assert swap.log_bytes() > sum(8 + 20 for _ in records)

    def test_stats_track_reorg_categories(self):
        log = LogManager()
        log.append(CommitRecord(txn_id=1))
        log.append(
            ReorgBeginRecord(
                unit_id=1, unit_type=ReorgUnitType.COMPACT,
                base_pages=(10,), leaf_pages=(1, 2),
            )
        )
        log.append(ReorgMoveOutRecord(unit_id=1, org_page=1, dest_page=2, keys=(5,)))
        assert log.stats.records_appended == 3
        assert log.stats.reorg_records == 2
        assert log.stats.move_bytes > 0
        assert log.stats.bytes_appended > log.stats.reorg_bytes

    def test_stats_reset(self):
        log = LogManager()
        log.append(CommitRecord(txn_id=1))
        log.stats.reset()
        assert log.stats.records_appended == 0
        assert log.stats.bytes_appended == 0
