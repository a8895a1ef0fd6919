"""Unit tests for the hybrid lockset + happens-before race detector.

The seeded-bug end-to-end proofs live in ``test_racedetect_seeded.py``;
this file covers the machinery: install/uninstall hygiene, the Eraser
page-state machine, release→acquire ordering, pending unlocked reads,
and the explorer hook that turns a race into a violation.
"""

from __future__ import annotations

import pytest

from repro.analysis import racedetect
from repro.analysis.explorer import Scenario, World
from repro.analysis.racedetect import (
    RaceDetector,
    RaceError,
    RaceExplorer,
    active,
    install,
    uninstall,
)
from repro.btree.protocols import reader_search, updater_insert
from repro.config import TreeConfig
from repro.db import Database
from repro.locks.modes import LockMode
from repro.locks.resources import page_lock
from repro.storage.page import Record
from repro.txn.ops import Acquire, Call, Release, Think
from repro.txn.scheduler import Scheduler


@pytest.fixture
def detector():
    session_det = active()
    if session_det is not None:
        # REPRO_RACE=1 runs install the detector suite-wide; reuse it
        # (cycling the patches here would strip coverage from the rest
        # of the session) and isolate this test's reports.
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


def _tiny_db() -> Database:
    db = Database(
        TreeConfig(
            leaf_capacity=4,
            internal_capacity=4,
            leaf_extent_pages=64,
            internal_extent_pages=32,
            buffer_pool_pages=64,
        )
    )
    db.bulk_load_tree([Record(k, f"v{k}") for k in range(0, 40, 2)], leaf_fill=0.5)
    db.flush()
    db.checkpoint()
    return db


def _scheduler(db: Database) -> Scheduler:
    return Scheduler(db.locks, store=db.store, log=db.log, io_time=1.0, hit_time=0.05)


def _touch(db: Database, page_id: int):
    """Read-modify-write one page frame (the funnel the detector watches)."""
    db.store.buffer.fetch(page_id)
    db.store.buffer.mark_dirty(page_id)


# -- install / uninstall -------------------------------------------------------


def test_install_is_idempotent_and_uninstall_restores():
    from repro.storage.buffer import BufferPool

    if active() is not None:
        pytest.skip("session detector active; cannot cycle patches here")
    before = BufferPool.fetch
    det = install()
    assert install() is det, "second install returns the active detector"
    assert active() is det
    assert BufferPool.fetch is not before
    assert uninstall() is det
    assert active() is None
    assert BufferPool.fetch is before
    assert uninstall() is None


def test_strict_mode_raises_on_report():
    det = RaceDetector(strict=True)
    site = racedetect.AccessSite(
        owner="t1", op="write", site="x.py:1 in f", clock=1, locks=()
    )
    with pytest.raises(RaceError):
        det.report(
            kind="write-write", page_id=3, state="shared-modified",
            candidate=(), earlier=site, later=site, evidence="VC evidence: test",
        )
    assert len(det.reports) == 1


def test_duplicate_reports_are_deduplicated():
    det = RaceDetector()
    site = racedetect.AccessSite(
        owner="t1", op="write", site="x.py:1 in f", clock=1, locks=()
    )
    for _ in range(3):
        det.report(
            kind="write-write", page_id=3, state="shared-modified",
            candidate=(), earlier=site, later=site, evidence="VC evidence: test",
        )
    assert len(det.reports) == 1


# -- the Eraser page-state machine ---------------------------------------------


def test_page_state_machine_transitions():
    st = racedetect._PageState()
    assert st.state == "virgin"
    st.advance("t1", write=True, prot=frozenset({page_lock(1)}))
    assert st.state == "exclusive"
    st.advance("t1", write=True, prot=frozenset({page_lock(1)}))
    assert st.state == "exclusive", "same owner keeps exclusive"
    st.advance("t2", write=False, prot=frozenset({page_lock(1)}))
    assert st.state == "shared"
    st.advance("t3", write=True, prot=frozenset({page_lock(1)}))
    assert st.state == "shared-modified"


def test_candidate_lockset_intersects():
    a, b = page_lock(1), page_lock(2)
    st = racedetect._PageState()
    st.advance("t1", write=True, prot=frozenset({a, b}))
    st.advance("t2", write=True, prot=frozenset({a}))
    assert st.candidate == frozenset({a})


# -- happens-before edges ------------------------------------------------------


def test_lock_release_acquire_orders_writes(detector):
    db = _tiny_db()
    sched = _scheduler(db)
    root = db.tree().root_id
    resource = page_lock(root)

    def locked_writer(think):
        yield Acquire(resource, LockMode.X)
        yield Call(lambda: _touch(db, root))
        yield Think(think)
        yield Release(resource, LockMode.X)

    sched.spawn(locked_writer(0.3), name="w1")
    sched.spawn(locked_writer(0.1), name="w2", at=0.1)
    sched.run()
    assert not sched.failed
    assert detector.reports == []
    assert detector.checks["write-check"] >= 2


def test_unlocked_concurrent_writes_race(detector):
    db = _tiny_db()
    sched = _scheduler(db)
    root = db.tree().root_id

    def unlocked_writer():
        yield Think(0.2)
        yield Call(lambda: _touch(db, root))
        yield Think(0.2)

    sched.spawn(unlocked_writer(), name="w1")
    sched.spawn(unlocked_writer(), name="w2", at=0.1)
    sched.run()
    assert not sched.failed
    kinds = {report.kind for report in detector.reports}
    assert "write-write" in kinds
    report = next(r for r in detector.reports if r.kind == "write-write")
    assert report.page_id == root
    assert report.earlier.locks == () and report.later.locks == ()
    assert "VC evidence" in report.evidence


def test_spawn_edge_orders_child_after_parent(detector):
    db = _tiny_db()
    sched = _scheduler(db)
    root = db.tree().root_id

    def child():
        yield Call(lambda: _touch(db, root))

    def parent():
        yield Call(lambda: _touch(db, root))
        yield Call(lambda: sched.spawn(child(), name="child"))

    sched.spawn(parent(), name="parent")
    sched.run()
    assert not sched.failed
    assert detector.reports == []


def test_finish_edge_orders_later_transactions(detector):
    db = _tiny_db()
    sched = _scheduler(db)
    root = db.tree().root_id

    def writer():
        yield Call(lambda: _touch(db, root))

    sched.spawn(writer(), name="w1")
    sched.spawn(writer(), name="w2", at=5.0)  # starts after w1 finished
    sched.run()
    assert not sched.failed
    assert detector.reports == []


# -- pending unlocked reads ----------------------------------------------------


def test_unvalidated_unlocked_read_is_reported(detector):
    db = _tiny_db()
    sched = _scheduler(db)
    root = db.tree().root_id

    def sniffer():
        # Reads the page frame and never locks it.
        yield Call(lambda: db.store.buffer.fetch(root))
        yield Think(0.5)

    def writer():
        yield Acquire(page_lock(root), LockMode.X)
        yield Call(lambda: _touch(db, root))
        yield Release(page_lock(root), LockMode.X)

    sched.spawn(sniffer(), name="sniffer")
    sched.spawn(writer(), name="writer", at=0.1)
    sched.run()
    assert not sched.failed
    kinds = {report.kind for report in detector.reports}
    assert "unvalidated-read" in kinds


# -- the explorer hook ---------------------------------------------------------


def _racy_world() -> World:
    db = _tiny_db()
    sched = _scheduler(db)
    root = db.tree().root_id

    def unlocked_writer():
        yield Think(0.2)
        yield Call(lambda: _touch(db, root))
        yield Think(0.2)

    sched.spawn(unlocked_writer(), name="w1")
    sched.spawn(unlocked_writer(), name="w2", at=0.1)
    return World(db=db, scheduler=sched)


def test_race_explorer_synthesizes_data_race_violation():
    scenario = Scenario(
        name="racy-pair",
        description="two unlocked writers touch the same frame",
        build=_racy_world,
        invariants=("btree-structure",),
    )
    before = active()
    explorer = RaceExplorer()
    run = explorer.execute(scenario)
    assert run.violation is not None
    assert run.violation.invariant == "data-race"
    assert "write-write" in run.violation.message
    assert explorer.last_reports
    assert active() is before, "explorer leaves the install state as found"


def test_race_explorer_clean_scenario_has_no_violation():
    db_holder = {}

    def clean_world() -> World:
        db = _tiny_db()
        db_holder["db"] = db
        sched = _scheduler(db)
        sched.spawn(
            updater_insert(db, "primary", Record(13, "w"), think=0.05),
            name="u1",
        )
        return World(db=db, scheduler=sched)

    scenario = Scenario(
        name="clean-insert",
        description="one locked updater",
        build=clean_world,
        invariants=("btree-structure",),
    )
    before = active()
    explorer = RaceExplorer()
    run = explorer.execute(scenario)
    assert run.violation is None
    assert explorer.last_reports == []
    assert active() is before
