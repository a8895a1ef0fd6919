"""Recovery redoes, analyses and undoes what it did when every record went
through three type lookups and two isinstance ladders.

Each case crashes a run, recovers it and pins one digest over, per crash:

* every :class:`~repro.wal.recovery.RecoveryReport` field, pending units as
  (unit id, unit type, record LSNs);
* the disk I/O statistics after ``recover()``;
* the sorted (page id, page LSN) of the dirty buffer frames.

Cases: every log offset of the exhaustive crash audit's three-pass
reorganization, crashes inside a sharded reorganization, and a crash with
incomplete user transactions, so undo runs too.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.config import ShardConfig, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint
from repro.reorg.reorganizer import Reorganizer
from repro.shard import ParallelReorganizer, ShardedDatabase
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.storage.page import Record
from repro.txn.transaction import Transaction
from repro.wal.records import (
    AbortRecord,
    CommitRecord,
    EndRecord,
    ReorgDoneRecord,
    StableKeyRecord,
    TreeSwitchRecord,
)
from tests.integration.test_exhaustive_crash_audit import CONFIG, build, calibrate


def recovery_state(store, report) -> tuple:
    fields = []
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if field.name == "pending_units":
            value = [
                (unit.unit_id, unit.unit_type.value, tuple(r.lsn for r in unit.records))
                for unit in value
            ]
        fields.append((field.name, value))
    dirty = sorted(
        (page_id, frame.page.page_lsn)
        for page_id, frame in store.buffer._frames.items()
        if frame.dirty
    )
    return fields, repr(store.disk.stats), dirty


def _digest(states) -> tuple[str, int]:
    return hashlib.sha256(repr(states).encode()).hexdigest()[:16], len(states)


def audit_sweep():
    total, _ = calibrate()
    states = []
    for crash_after in range(2, total + 1):
        db = build()
        with pytest.raises(CrashPoint):
            with LogCrashInjector(db.log, after_records=crash_after):
                Reorganizer(db, db.tree(), CONFIG).run()
        states.append(recovery_state(db.store, crash_recover(db)))
    return states


def _sharded_db():
    sdb = ShardedDatabase(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=768,
            internal_extent_pages=384,
            buffer_pool_pages=96,
        ),
        ShardConfig(n_shards=3),
    )
    sdb.bulk_load([Record(k, f"v{k}") for k in range(900)], internal_fill=0.5)
    for key in random.Random(5).sample(range(900), 600):
        sdb.delete(key)
    sdb.flush()
    sdb.checkpoint()
    return sdb


def sharded_crashes():
    """Crash a three-shard reorganization a quarter into its log, and right
    after its first stable point, switch record and finished shard."""
    rehearsal = _sharded_db()
    mark = rehearsal.log.last_lsn
    ParallelReorganizer(rehearsal, CONFIG).run()
    logged = list(rehearsal.log.records_from(mark + 1))
    points = [len(logged) // 4] + [
        1 + next(i for i, r in enumerate(logged) if isinstance(r, kind))
        for kind in (StableKeyRecord, TreeSwitchRecord, ReorgDoneRecord)
    ]
    states = []
    for after in points:
        sdb = _sharded_db()
        with pytest.raises(CrashPoint):
            with LogCrashInjector(sdb.log, after_records=after):
                ParallelReorganizer(sdb, CONFIG).run()
        sdb.crash()
        states.append(recovery_state(sdb.store, sdb.recover()))
    return states


def _txn(txn_id):
    txn = Transaction()
    txn.txn_id = txn_id  # independent of how many transactions ran before
    return txn


def _finish(db, txn, record_type):
    txn.last_lsn = db.log.append(record_type(txn_id=txn.txn_id, prev_lsn=txn.last_lsn))


def undo_crash():
    """Committed, ended, aborted and unfinished transactions across a
    checkpoint that lists one of the losers as active."""
    db = Database(
        TreeConfig(
            leaf_capacity=4,
            internal_capacity=4,
            leaf_extent_pages=256,
            internal_extent_pages=128,
            buffer_pool_pages=16,
        )
    )
    tree = db.create_tree()
    for key in range(60):
        txn = _txn(key + 1)
        tree.insert(Record(key, f"v{key}"), txn)
        _finish(db, txn, CommitRecord)
        _finish(db, txn, EndRecord)
    loser = _txn(901)
    for key in range(100, 120):
        tree.insert(Record(key, "new"), loser)
    for key in range(10):
        tree.delete(key, loser)
    db.checkpoint(active_txns={loser.txn_id: loser.last_lsn})
    for key in range(10, 15):
        tree.delete(key, loser)
    committed = _txn(902)
    for key in range(20, 25):
        tree.delete(key, committed)
    _finish(db, committed, CommitRecord)  # no End record
    aborting = _txn(903)
    for key in range(200, 206):
        tree.insert(Record(key, "gone"), aborting)
    _finish(db, aborting, AbortRecord)
    db.log.flush()
    report = crash_recover(db)
    assert report.undone_txns == [901, 903]
    return [recovery_state(db.store, report)]


CASES = {
    "audit-sweep": audit_sweep,
    "sharded": sharded_crashes,
    "undo": undo_crash,
}

#: case -> (digest, crashes), generated with the isinstance ladders, then
#: re-pinned when the report's global pass-3 fields became one map keyed by
#: tree name.  Mapping the one-tree entry back onto the global fields
#: reproduces the earlier "audit-sweep" digest.  "undo" differs from it in
#: one value: an internal page split off by user inserts, with no pass 3
#: running, is no longer an orphan candidate.  "sharded" moved because
#: each shard's post-checkpoint pass-3 records now replay into its own
#: entry.
PINNED = {
    "audit-sweep": ("9ebef386d9c63d3b", 190),
    "sharded": ("55ad07e09b329a31", 4),
    "undo": ("71bdbfad68970c70", 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_recovery_state_as_pinned(name):
    assert _digest(CASES[name]()) == PINNED[name]
