"""Crash audits of a reorganization whose checkpoints cut the log.

A checkpoint keeps the log from the section 5 low-water mark on: the
lowest of its own LSN, every in-flight unit's BEGIN LSN and each running
pass 3's last stable point.  These audits take checkpoints where those
terms bind (a unit in flight, pass 3 between stable points, the switch
draining the old tree), crash at every later log record, and require
recovery plus forward recovery to restore the exact key set, a valid tree
and no allocated internal page that the tree cannot reach.
"""

import pytest

from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint, LogCorruptionError
from repro.locks.modes import LockMode
from repro.locks.resources import current_lock_name, tree_lock
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.sim.checkpointer import checkpointer
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.sim.workload import build_sparse_tree
from repro.txn.ops import Acquire, ReleaseAll, Think
from repro.txn.scheduler import Scheduler
from tests.integration.test_exhaustive_crash_audit import orphan_internal_pages

CONFIG = ReorgConfig(stable_point_interval=2)


def make_db(n_records=500):
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=1024,
            internal_extent_pages=512,
            buffer_pool_pages=128,
        )
    )
    build_sparse_tree(db, n_records=n_records, fill_after=0.3)
    db.flush()
    db.checkpoint()
    return db


def old_tree_reader():
    """A transaction on the old tree that outlasts the reorganization, so
    the switch waits for it to drain."""
    yield Acquire(tree_lock("primary@0"), LockMode.IS)
    yield Think(10_000.0)
    yield ReleaseAll()


def reorg_scheduler(db, *, checkpoint_every=None, straggler=False, **pauses):
    """The three passes as one DES process, optionally beside the
    checkpointer or an old-tree reader."""
    sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
    if straggler:
        sched.spawn(old_tree_reader(), name="old-reader")
    protocol = ReorgProtocol(db, "primary", CONFIG, **pauses)
    sched.spawn(full_reorganization(protocol), name="reorg", is_reorganizer=True)
    if checkpoint_every is not None:
        sched.spawn(checkpointer(db, interval=checkpoint_every), name="ckpt")
    return sched


def recover_and_check(db, expected, where):
    """Recover, finish the reorganization forward and audit the tree."""
    recovery = crash_recover(db)
    fresh = Reorganizer(db, db.tree(), CONFIG)
    if fresh.forward_recover(recovery).switch is None:
        fresh.run()
    tree = db.tree()
    tree.validate()
    assert sorted(r.key for r in tree.items()) == expected, where
    assert orphan_internal_pages(db.store, [tree.root_id]) == set(), where


# -- the checkpointer during pass 3 -------------------------------------------------


def test_checkpointer_cadence_sweep_survives_crashes_in_pass3():
    """A checkpoint taken between two pass-3 stable points once carried the
    base pages closed after the stable point, which the restarted scan
    emitted again (``DuplicateKeyError`` from the upper-level build), and
    none of the internal pages allocated since it, which stayed orphans."""
    db = make_db()
    expected = sorted(r.key for r in db.tree().items())
    sched = reorg_scheduler(db, scan_pause=0.1)
    sched.run()
    end = sched.now
    crash_times = [end - 2.5 + 2.5 * i / 63 for i in range(63)]
    in_pass3 = 0
    for interval in (0.05, 0.13, 0.29):
        for at in crash_times:
            db = make_db()
            reorg_scheduler(db, checkpoint_every=interval, scan_pause=0.1).run(until=at)
            in_pass3 += db.pass3_state().reorg_bit
            db.log.flush()
            recover_and_check(db, expected, (interval, at))
    assert in_pass3 >= 60


# -- every-offset audits after a truncating checkpoint ------------------------------


def stop_and_checkpoint(db, sched, stop):
    """Run ``sched`` in small steps until ``stop(db)`` holds, then take a
    checkpoint there; returns its LSN."""
    at = 0.0
    while not stop(db):
        at += 0.01
        sched.run(until=at)
        assert not any(txn.is_reorganizer for txn, _ in sched.completed), (
            "the reorganization ended before the stop point"
        )
    return db.checkpoint()


def unit_in_flight(db):
    return db.progress.unit_in_flight


def between_stable_points(db):
    """Pass 3 has closed a base page since its last stable point."""
    state = db.pass3_state()
    if not state.stable_lsn:
        return False
    return len(state.built_entries) > len(db.log.get(state.stable_lsn).built_entries)


def switch_draining(db):
    """The root flipped to the new tree and the old one drains."""
    return current_lock_name(db, "primary") != "primary@0"


AUDITS = {
    # A pass-1 unit's Think(op_duration) keeps it in flight across steps.
    "pass1-unit": (unit_in_flight, dict(op_duration=0.2)),
    "pass3-scan": (between_stable_points, dict(scan_pause=0.1)),
    # The checkpoint once lost a switch logged after the last stable point.
    "switch-drain": (switch_draining, dict(straggler=True)),
}


def setup_audit(name):
    stop, options = AUDITS[name]
    db = make_db(n_records=240)
    sched = reorg_scheduler(db, **options)
    return db, sched, stop_and_checkpoint(db, sched, stop)


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_crash_after_every_record_following_a_truncating_checkpoint(name):
    db, sched, checkpoint_lsn = setup_audit(name)
    # An in-flight term, not the checkpoint itself, set the mark.
    low_water = db.progress.begin_lsn or db.pass3_state().stable_lsn
    assert 0 < low_water < checkpoint_lsn
    assert db.log.first_lsn == low_water
    sched.run()
    expected = sorted(r.key for r in db.tree().items())
    total = db.log.last_lsn - checkpoint_lsn
    for crash_after in range(1, total + 1):
        db, sched, _ = setup_audit(name)
        with pytest.raises(CrashPoint):
            with LogCrashInjector(db.log, after_records=crash_after):
                sched.run()
        recover_and_check(db, expected, crash_after)


def test_a_mark_without_the_begin_lsn_term_fails_loudly():
    """Cutting at the checkpoint while a unit is in flight loses the
    unit's BEGIN record: recovery must refuse, not guess."""
    db = make_db(n_records=240)
    sched = reorg_scheduler(db, op_duration=0.2)
    checkpoint_lsn = stop_and_checkpoint(db, sched, unit_in_flight)
    assert db.log.truncate(checkpoint_lsn) > 0
    with pytest.raises(CrashPoint):
        with LogCrashInjector(db.log, after_records=1):
            sched.run()
    with pytest.raises(LogCorruptionError):
        crash_recover(db)
