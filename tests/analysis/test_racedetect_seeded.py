"""Seeded-bug tests: a deliberately removed lock acquire is caught in ONE run.

This is the tentpole claim of the race detector (docs/static_analysis.md):
reprocheck needs to *explore* its way onto a schedule that makes a missing
lock corrupt an invariant, while the lockset + happens-before detector
flags the unprotected access on any single execution that merely
*performs* it.  Each test strips one lock mode out of a reorg pass via a
generator middleman, runs the default schedule once, and asserts a report;
the unmodified control world must stay silent.
"""

from __future__ import annotations

import pytest

from repro.analysis.racedetect import active, install, uninstall
from repro.btree.protocols import reader_search, updater_insert
from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.locks.modes import LockMode
from repro.locks.resources import PAGE
from repro.reorg.protocols import ReorgProtocol
from repro.sim.workload import build_sparse_tree
from repro.storage.page import Record
from repro.txn.ops import Acquire, AcquireSet, Release, ReleaseSet
from repro.txn.scheduler import Scheduler


def strip_page_locks(gen, mode):
    """Swallow Acquire/Release of ``mode`` on page locks — the seeded bug —
    and AcquireSet/ReleaseSet of ``mode``, whose members are all page locks
    (a swallowed AcquireSet still answers with its pages).

    Everything else (Calls, Thinks, other lock modes, tree locks) is
    forwarded unchanged, so the protocol still *does* all its work — it
    just no longer holds this one lock while doing it.
    """
    send = None
    throw = None
    while True:
        try:
            op = gen.throw(throw) if throw is not None else gen.send(send)
        except StopIteration as stop:
            return stop.value
        throw = None
        if isinstance(op, (AcquireSet, ReleaseSet)) and op.mode is mode:
            send = op.pages() if callable(op.pages) else op.pages
            continue
        if (
            isinstance(op, (Acquire, Release))
            and op.mode is mode
            and isinstance(op.resource, tuple)
            and op.resource[0] == PAGE
        ):
            send = None
            continue
        try:
            send = yield op
        except BaseException as exc:  # scheduler-thrown (deadlock, abort)
            send, throw = None, exc


@pytest.fixture
def detector():
    session_det = active()
    if session_det is not None:
        # REPRO_RACE=1 installs the detector suite-wide; reuse it rather
        # than cycling the patches, and isolate this test's reports.
        session_det.reports.clear()
        session_det._seen.clear()
        session_det.checks.clear()
        yield session_det
        session_det.reports.clear()
        session_det._seen.clear()
        return
    det = install(strict=False)
    yield det
    uninstall()


def _build_db(**overrides) -> tuple[Database, frozenset[int]]:
    config = TreeConfig(
        leaf_capacity=4,
        internal_capacity=4,
        leaf_extent_pages=64,
        internal_extent_pages=32,
        buffer_pool_pages=overrides.pop("buffer_pool_pages", 16),
    )
    db = Database(config)
    build_sparse_tree(db, **overrides)
    db.flush()
    db.checkpoint()
    return db, frozenset(record.key for record in db.tree().items())


def _scheduler(db: Database) -> Scheduler:
    return Scheduler(db.locks, store=db.store, log=db.log, io_time=1.0, hit_time=0.05)


# -- pass 1: leaf compaction without its RX locks -----------------------------------


def _run_pass1_world(*, seeded: bool) -> Scheduler:
    db, initial = _build_db(n_records=24, fill_after=0.45, seed=5)
    scheduler = _scheduler(db)
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(do_swap_pass=False),
        op_duration=0.4, unit_pause=0.1,
    )
    gen = protocol.pass1()
    if seeded:
        gen = strip_page_locks(gen, LockMode.RX)
    scheduler.spawn(gen, name="reorganizer", is_reorganizer=True)
    keys = sorted(initial)
    for index, key in enumerate([keys[1], keys[len(keys) // 2], keys[-2]]):
        scheduler.spawn(
            reader_search(db, "primary", key, think=0.05),
            name=f"reader-{index}", at=0.3 + 0.4 * index,
        )
    scheduler.run()
    return scheduler


def test_pass1_missing_rx_is_caught_in_one_run(detector):
    scheduler = _run_pass1_world(seeded=True)
    assert not scheduler.failed
    assert detector.reports, "stripped RX must race the locked readers"
    pages = {report.page_id for report in detector.reports}
    kinds = {report.kind for report in detector.reports}
    assert kinds <= {"read-write", "write-write", "unvalidated-read"}
    # Evidence is attached: both sites and the vector-clock explanation.
    for report in detector.reports:
        assert report.earlier.site and report.later.site
        assert "VC evidence" in report.evidence
        assert report.page_id in pages


def test_pass1_clean_control_is_silent(detector):
    scheduler = _run_pass1_world(seeded=False)
    assert not scheduler.failed
    assert detector.reports == []


# -- pass 3: base-page scan without its S locks -------------------------------------


def _run_pass3_world(*, seeded: bool) -> Scheduler:
    # A larger pool than the reprocheck worlds: eviction-pressure flushes
    # are WAL synchronization events and would (legitimately) order the
    # updaters before the scan, masking the seeded bug.
    db, initial = _build_db(
        n_records=40, fill_after=0.5, seed=7, buffer_pool_pages=128
    )
    scheduler = _scheduler(db)
    protocol = ReorgProtocol(
        db, "primary",
        ReorgConfig(do_swap_pass=False, stable_point_interval=100),
        scan_pause=0.8,
    )
    gen = protocol.pass3()
    if seeded:
        gen = strip_page_locks(gen, LockMode.S)
    scheduler.spawn(gen, name="reorganizer", is_reorganizer=True)
    # Tail inserts overflow the rightmost leaf (capacity 4): the third
    # insert splits it and writes its *base* page under X mid-scan —
    # exactly the write the stripped S lock was protecting against.
    top = max(initial)
    for index, key in enumerate([top + 1 + i for i in range(5)]):
        scheduler.spawn(
            updater_insert(db, "primary", Record(key, "w"), think=0.05),
            name=f"insert-{index}", at=0.5 + 0.5 * index,
        )
    scheduler.run()
    return scheduler


def test_pass3_missing_s_is_caught_in_one_run(detector):
    scheduler = _run_pass3_world(seeded=True)
    assert not scheduler.failed
    assert detector.reports, "stripped S must race the structural updaters"
    report = detector.reports[0]
    assert report.kind == "unvalidated-read"
    assert "strip_page_locks" in report.earlier.site or "protocols" in report.earlier.site
    assert "_structural_update" in report.later.site
    assert "VC evidence" in report.evidence


def test_pass3_clean_control_is_silent(detector):
    scheduler = _run_pass3_world(seeded=False)
    assert not scheduler.failed
    assert detector.reports == []
