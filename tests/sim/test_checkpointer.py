"""Background checkpointing during live simulation."""

import pytest

from repro.btree.protocols import updater_insert
from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.sim.checkpointer import checkpointer
from repro.sim.crash import crash_recover
from repro.sim.workload import build_sparse_tree
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import CheckpointRecord


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
    sched.run()
    assert sched.failed == []
    taken = next(r for t, r in sched.completed if t is ckpt_txn)
    assert taken == 5
    checkpoints = [
        r for r in db.log.records_from(1) if isinstance(r, CheckpointRecord)
    ]
    assert len(checkpoints) >= 6  # setup checkpoint + 5 cadence ones
    db.tree().validate()


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
