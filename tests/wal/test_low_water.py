"""The log low-water mark (section 5) and log truncation.

"(This information, together with the transaction low-water mark [GR93],
can be used to calculate the low-water mark for system recovery — i.e.,
the lowest LSN that must be kept available for recovery.)"
"""

import pytest

from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint, LogCorruptionError
from repro.reorg.reorganizer import Reorganizer
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.storage.page import Record


def sparse_db():
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=512,
            internal_extent_pages=256,
            buffer_pool_pages=128,
        )
    )
    tree = db.bulk_load_tree([Record(k, "v") for k in range(400)])
    for k in range(400):
        if k % 4 != 0:
            tree.delete(k)
    db.flush()
    db.checkpoint()
    return db


class TestTruncation:
    def test_truncate_below_checkpoint_is_safe(self):
        db = sparse_db()
        tree = db.tree()
        for key in range(1000, 1020):
            tree.insert(Record(key))
        truncated = db.log.stats.records_truncated
        checkpoint_lsn = db.checkpoint()
        # No unit in flight and no active txns: the low-water mark is the
        # checkpoint itself.
        assert db.log.first_lsn == checkpoint_lsn
        assert db.log.stats.records_truncated - truncated >= 20
        db.log.flush()
        db.crash()
        db.recover()
        tree = db.tree()
        tree.validate()
        assert tree.search(1005) is not None

    def test_in_flight_unit_pins_the_log(self):
        """A unit's BEGIN LSN lowers the low-water mark; truncating up to
        it keeps forward recovery possible."""
        db = sparse_db()
        reorg = Reorganizer(db, db.tree(), ReorgConfig())
        crashed = False
        try:
            with LogCrashInjector(db.log, after_records=120):
                reorg.run_pass1()
        except CrashPoint:
            crashed = True
        assert crashed
        db.crash()
        # Restore the progress table first (as the checkpoint would), then
        # compute the low-water mark and reclaim everything below it.
        report = db.recover(undo=False)
        if report.pending_unit is None:
            pytest.skip("crash fell between units for this workload")
        begin_lsn = report.pending_unit.records[0].lsn
        low_water = db.progress.low_water_lsn(
            txn_low_water=db.log.last_checkpoint_lsn
        )
        assert low_water <= begin_lsn
        db.log.truncate(low_water)
        # Forward recovery still has the whole unit chain available.
        from repro.reorg.unit import UnitEngine

        UnitEngine(db, db.tree()).finish_unit(report.pending_unit)
        db.tree().validate()

    def test_truncating_past_the_mark_fails_loudly(self):
        db = sparse_db()
        tree = db.tree()
        txn_lsn = db.log.last_lsn
        for key in range(2000, 2005):
            tree.insert(Record(key))
        db.log.flush()
        # Truncate beyond the last checkpoint: recovery cannot start.
        db.log.truncate(db.log.last_checkpoint_lsn + 1)
        db.crash()
        with pytest.raises(LogCorruptionError):
            db.recover()
        del txn_lsn

    def test_truncate_counts_and_is_idempotent(self):
        db = sparse_db()
        checkpoint_lsn = db.log.last_checkpoint_lsn
        assert db.log.first_lsn == checkpoint_lsn
        truncated = db.log.stats.records_truncated
        assert truncated == checkpoint_lsn - 1
        assert db.log.truncate(checkpoint_lsn) == 0
        assert db.log.truncate(10) == 0
        assert db.log.stats.records_truncated == truncated

    def test_scan_skips_truncated_prefix(self):
        db = sparse_db()
        base = db.log.first_lsn
        lsns = [r.lsn for r in db.log.records_from(1)]
        assert lsns[0] == base == db.log.last_checkpoint_lsn
        with pytest.raises(LogCorruptionError):
            db.log.get(base - 1)
        with pytest.raises(LogCorruptionError):
            db.log.get(5)
