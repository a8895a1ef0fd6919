"""The runtime sanitizer catches deliberately injected protocol breaks:
Table-1 violations smuggled into the holder table, WAL-bypassing disk
writes, page-LSN regressions, and wrong deadlock victims."""

from collections import Counter

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import (
    LockTableViolation,
    VersionStampViolation,
    VictimPolicyViolation,
    WALOrderViolation,
)
from repro.config import TreeConfig
from repro.db import Database
from repro.locks.manager import LockManager
from repro.locks.modes import LockMode
from repro.locks.resources import page_lock
from repro.storage.page import Record


class Owner:
    def __init__(self, name, is_reorganizer=False):
        self.name = name
        self.is_reorganizer = is_reorganizer

    def __repr__(self):
        return self.name


@pytest.fixture
def lm(san):
    return LockManager()


RES = page_lock(7)


# -- Table-1 holder-set validation --------------------------------------------


class TestLockTable:
    def test_clean_protocol_traffic_is_quiet(self, san, lm):
        a, b = Owner("a"), Owner("b")
        lm.request(a, RES, LockMode.S)
        lm.request(b, RES, LockMode.S)
        lm.release(a, RES, LockMode.S)
        lm.release(b, RES, LockMode.S)
        assert san.checks["lock-table"] > 0
        assert san.new_violations() == []

    def test_injected_incompatible_pair_is_caught(self, san, lm):
        a, b, c = Owner("a"), Owner("b"), Owner("c")
        lm.request(a, RES, LockMode.S)
        # Smuggle an X grant in behind the manager's back; the very next
        # public operation touching the resource must detect S vs X (No).
        lm._holders[RES][b] = Counter({LockMode.X: 1})
        with pytest.raises(LockTableViolation, match="Table 1: No"):
            lm.request(c, RES, LockMode.IS)
        assert san.new_violations("lock-table")

    def test_injected_blank_cell_pairing_is_caught(self, san, lm):
        a, b = Owner("a"), Owner("b")
        lm.request(a, RES, LockMode.IS)
        # IS with R is a blank Table-1 cell: never requested together.
        lm._holders[RES][b] = Counter({LockMode.R: 1})
        with pytest.raises(LockTableViolation, match="blank Table-1"):
            lm.request(a, RES, LockMode.IS)

    def test_held_rs_is_caught(self, san, lm):
        a, b = Owner("a"), Owner("b")
        lm.request(a, RES, LockMode.S)
        # RS is instant-duration; a *held* RS can only mean a grant-path bug.
        lm._holders[RES][b] = Counter({LockMode.RS: 1})
        with pytest.raises(LockTableViolation, match="instant-duration"):
            lm.release(a, RES, LockMode.S)

    def test_non_strict_records_instead_of_raising(self):
        if sanitizer.active() is not None:
            pytest.skip("session sanitizer already installed in strict mode")
        san = sanitizer.install(strict=False)
        try:
            manager = LockManager()
            a, b = Owner("a"), Owner("b")
            manager.request(a, RES, LockMode.S)
            manager._holders[RES][b] = Counter({LockMode.X: 1})
            manager.request(Owner("c"), RES, LockMode.IS)
            assert any(d.kind == "lock-table" for d in san.violations)
        finally:
            sanitizer.uninstall()


# -- deadlock victim policy ----------------------------------------------------


class TestVictimPolicy:
    def _build_cycle(self, lm):
        reorg = Owner("reorg", is_reorganizer=True)
        user = Owner("user")
        a, b = page_lock(1), page_lock(2)
        lm.request(reorg, a, LockMode.X)
        lm.request(user, b, LockMode.X)
        lm.request(reorg, b, LockMode.X)  # waits on user
        lm.request(user, a, LockMode.X)  # waits on reorg -> cycle
        return reorg, user

    def test_correct_victim_is_quiet(self, san, lm):
        reorg, _user = self._build_cycle(lm)
        victims = lm.resolve_deadlocks()
        assert victims == [reorg]
        assert san.checks["victim-policy"] > 0
        assert san.new_violations("victim-policy") == []

    def test_sacrificing_a_user_transaction_is_caught(self, san, lm):
        _reorg, user = self._build_cycle(lm)
        with pytest.raises(VictimPolicyViolation, match="always forces"):
            lm._deliver_deadlock(user)


# -- WAL ordering --------------------------------------------------------------


@pytest.fixture
def db(san):
    db = Database(
        TreeConfig(leaf_capacity=8, internal_capacity=8, buffer_pool_pages=64)
    )
    tree = db.create_tree()
    for key in range(32):
        tree.insert(Record(key, "payload"))
    return db


class TestWALOrdering:
    def test_normal_flush_path_is_quiet(self, san, db):
        db.flush()
        assert san.checks["write-ahead"] > 0
        assert san.new_violations("write-ahead") == []

    def test_wal_bypassing_disk_write_is_caught(self, san, db):
        dirty_page = next(
            frame.page
            for frame in db.store.buffer._frames.values()
            if frame.dirty and frame.page.page_lsn > db.log.flushed_lsn
        )
        with pytest.raises(WALOrderViolation, match="write-ahead"):
            db.store.disk.write(dirty_page)  # reprolint: disable=no-raw-disk-write -- the raw write IS what the sanitizer must catch

    def test_page_lsn_regression_is_caught(self, san, db):
        page_id = next(iter(db.store.buffer._frames))
        db.store.buffer.mark_dirty(page_id, db.log.last_lsn)
        with pytest.raises(WALOrderViolation, match="regress"):
            db.store.buffer.mark_dirty(page_id, db.log.last_lsn - 1)

    def test_stamping_unappended_lsn_is_caught(self, san, db):
        page_id = next(iter(db.store.buffer._frames))
        with pytest.raises(WALOrderViolation, match="only appended"):
            db.store.buffer.mark_dirty(page_id, db.log.last_lsn + 1000)

    def test_suspended_skips_checks(self, san, db):
        dirty_page = next(
            frame.page
            for frame in db.store.buffer._frames.values()
            if frame.dirty and frame.page.page_lsn > db.log.flushed_lsn
        )
        with san.suspended():
            db.store.disk.write(dirty_page)  # reprolint: disable=no-raw-disk-write -- the raw write IS what the sanitizer must catch
        assert san.new == []


# -- fetch coverage ------------------------------------------------------------


class TestFetchCoverage:
    def test_dirty_fetch_without_lock_is_warned(self, san, db):
        lm = LockManager()
        me, other = Owner("me"), Owner("other")
        page_id = next(
            pid
            for pid, frame in db.store.buffer._frames.items()
            if frame.dirty
        )
        lm.request(other, page_lock(page_id), LockMode.S)
        ctx = sanitizer._CTX
        ctx.owner, ctx.lock_manager = me, lm
        try:
            db.store.buffer.fetch(page_id)
        finally:
            ctx.owner = ctx.lock_manager = None
        assert san.new_warnings("dirty-fetch")

    def test_foreign_rx_fetch_is_warned_not_raised(self, san, db):
        lm = LockManager()
        me, reorg = Owner("me"), Owner("reorg", is_reorganizer=True)
        page_id = next(iter(db.store.buffer._frames))
        lm.request(reorg, page_lock(page_id), LockMode.RX)
        ctx = sanitizer._CTX
        ctx.owner, ctx.lock_manager = me, lm
        try:
            db.store.buffer.fetch(page_id)  # navigation read: legal
        finally:
            ctx.owner = ctx.lock_manager = None
        assert san.new_warnings("rx-foreign-fetch")
        assert san.new_violations("rx-foreign-fetch") == []


# -- version stamps ------------------------------------------------------------


def _seed_stamp_skip_bug(buffer, page_id):
    """Mutate a frame the way a buggy ``mark_dirty`` would: dirty it and
    advance its page LSN, but 'forget' the version-stamp bump."""
    frame = buffer._frames[page_id]
    frame.dirty = True
    frame.page.page_lsn += 1


class TestVersionStamps:
    def test_proper_mutation_under_pin_is_quiet(self, san, db):
        buffer = db.store.buffer
        page_id = next(iter(buffer._frames))
        buffer.pin(page_id)
        buffer.mark_dirty(page_id, db.log.last_lsn)
        buffer.unpin(page_id)
        assert san.checks["version-stamp"] > 0
        assert san.new_violations("version-stamp") == []

    def test_seeded_stamp_skip_is_caught(self, san, db):
        buffer = db.store.buffer
        page_id = next(iter(buffer._frames))
        buffer.pin(page_id)
        _seed_stamp_skip_bug(buffer, page_id)
        with pytest.raises(VersionStampViolation, match="version-stamp bump"):
            buffer.unpin(page_id)

    def test_fetch_pin_path_snapshots_too(self, san, db):
        buffer = db.store.buffer
        page_id = next(iter(buffer._frames))
        buffer.fetch(page_id, pin=True)
        _seed_stamp_skip_bug(buffer, page_id)
        with pytest.raises(VersionStampViolation, match="version-stamp bump"):
            buffer.unpin(page_id)

    def test_nested_pins_keep_first_snapshot_and_bump_recovers(self, san, db):
        buffer = db.store.buffer
        page_id = next(iter(buffer._frames))
        buffer.pin(page_id)
        buffer.pin(page_id)
        _seed_stamp_skip_bug(buffer, page_id)
        with pytest.raises(VersionStampViolation, match="version-stamp bump"):
            buffer.unpin(page_id)
        # Bumping the stamp (what the fix would do) clears the condition;
        # both outstanding unpins then validate and release cleanly.
        buffer.bump_version(page_id)
        buffer.unpin(page_id)
        buffer.unpin(page_id)
        assert len(san.new_violations("version-stamp")) == 1

    def test_unmutated_pin_unpin_is_quiet(self, san, db):
        buffer = db.store.buffer
        page_id = next(iter(buffer._frames))
        before = len(san.new_violations("version-stamp"))
        buffer.pin(page_id)
        buffer.unpin(page_id)
        assert len(san.new_violations("version-stamp")) == before


# -- lifecycle -----------------------------------------------------------------


class TestLifecycle:
    def test_install_is_idempotent(self, san):
        assert sanitizer.install() is san.instance

    def test_uninstall_restores_originals(self):
        if sanitizer.active() is not None:
            pytest.skip("session sanitizer active; cannot cycle patches here")
        from repro.storage.buffer import BufferPool
        from repro.txn.scheduler import Scheduler

        fetch_before = BufferPool.fetch
        step_before = Scheduler._step
        request_before = LockManager.request
        sanitizer.install()
        assert BufferPool.fetch is not fetch_before
        sanitizer.uninstall()
        assert BufferPool.fetch is fetch_before
        assert Scheduler._step is step_before
        assert LockManager.request is request_before
