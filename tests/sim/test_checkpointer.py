"""Background checkpointing during live simulation."""

import pytest

from repro.btree.protocols import updater_insert
from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.sim.checkpointer import checkpointer
from repro.sim.crash import count_completed_units, crash_recover
from repro.sim.workload import build_sparse_tree
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import ReorgEndRecord


def make_db():
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=1024,
            internal_extent_pages=512,
            buffer_pool_pages=128,
        )
    )
    build_sparse_tree(db, n_records=500, fill_after=0.3)
    db.flush()
    db.checkpoint()
    return db


def test_checkpoints_taken_at_cadence():
    db = make_db()
    sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(), unit_pause=0.05, op_duration=0.2
    )
    sched.spawn(
        full_reorganization(protocol), name="reorg", is_reorganizer=True
    )
    ckpt_txn = sched.spawn(
        checkpointer(db, interval=3.0, rounds=5), name="checkpointer"
    )
    truncated = db.log.stats.records_truncated
    sched.run()
    assert sched.failed == []
    taken = next(r for t, r in sched.completed if t is ckpt_txn)
    assert taken == 5
    # Each checkpoint cut the log below its low-water mark: the last one
    # and what followed it are kept.
    assert db.log.stats.records_truncated > truncated
    assert db.log.stats.records_truncated == db.log.first_lsn - 1
    assert db.log.first_lsn <= db.log.last_checkpoint_lsn
    db.tree().validate()


def test_completed_units_are_counted_across_truncation():
    """``count_completed_units`` counts the END records appended, which the
    checkpoints cut from the log during the run."""

    def reorganize(db, checkpoint_every=None):
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        protocol = ReorgProtocol(
            db, "primary", ReorgConfig(), unit_pause=0.05, op_duration=0.2
        )
        sched.spawn(full_reorganization(protocol), name="reorg", is_reorganizer=True)
        if checkpoint_every is not None:
            sched.spawn(checkpointer(db, interval=checkpoint_every, rounds=20), name="ckpt")
        sched.run()
        assert sched.failed == []

    def ends_kept(db):
        return sum(isinstance(r, ReorgEndRecord) for r in db.log.records_from(1))

    plain, truncated = make_db(), make_db()
    reorganize(plain)
    reorganize(truncated, checkpoint_every=0.5)
    units = count_completed_units(plain.log)
    assert units == ends_kept(plain) > 0
    assert count_completed_units(truncated.log) == units
    assert ends_kept(truncated) < units


def test_checkpoint_bounds_redo_after_mid_run_crash():
    db = make_db()
    sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(), unit_pause=0.05, op_duration=0.2
    )
    sched.spawn(
        full_reorganization(protocol), name="reorg", is_reorganizer=True
    )
    sched.spawn(checkpointer(db, interval=2.0, rounds=50), name="ckpt")
    for i in range(40):
        sched.spawn(
            updater_insert(db, "primary", Record(9_000 + i, "w")), at=0.3 * i
        )
    sched.run(until=9.0)
    db.log.flush()
    log_length = db.log.last_lsn
    last_ckpt = db.log.last_checkpoint_lsn
    assert last_ckpt > 0
    recovery = crash_recover(db)
    # Redo scanned only the post-checkpoint suffix.
    assert recovery.redo_scanned <= log_length - last_ckpt + 1
    Reorganizer(db, db.tree(), ReorgConfig()).forward_recover(recovery)
    db.tree().validate()


def test_checkpoint_during_pass3_preserves_side_file_state():
    """A checkpoint taken while pass 3 runs captures the reorg bit, stable
    key and side file, so a crash right after it restores them."""
    db = make_db()
    sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(stable_point_interval=2),
        scan_pause=0.5,
    )

    def pass3_only():
        result = yield from protocol.pass3()
        return result

    sched.spawn(pass3_only(), name="reorg", is_reorganizer=True)
    # Let the scan get going, then checkpoint and stop.
    sched.run(until=3.0)
    if not db.pass3_state().reorg_bit:
        pytest.skip("pass 3 finished before the observation window")
    db.checkpoint()
    db.log.flush()
    recovery = crash_recover(db)
    assert recovery.pass3["primary"].reorg_bit
    assert recovery.pass3["primary"].stable_key is not None
    Reorganizer(db, db.tree(), ReorgConfig()).forward_recover(recovery)
    tree = db.tree()
    tree.validate()
    assert not db.pass3_state().reorg_bit
