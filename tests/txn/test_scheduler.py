"""Unit tests for the discrete-event scheduler."""

import gc
import sys

import pytest

from repro.btree.protocols import reader_search
from repro.db import Database
from repro.errors import (
    BTreeError,
    CrashPoint,
    DeadlockError,
    ReproError,
    RXConflictError,
    TransactionAborted,
)
from repro.locks.manager import LockManager
from repro.locks.modes import LockMode
from repro.locks.resources import page_lock
from repro.sim.workload import build_sparse_tree
from repro.storage.store import StorageManager
from repro.config import TreeConfig
from repro.txn.ops import (
    Acquire,
    AcquireSet,
    Call,
    Convert,
    FetchPage,
    Release,
    ReleaseAll,
    Think,
)
from repro.txn.scheduler import Scheduler, SchedulerStall, run_alone
from repro.txn.transaction import Transaction, TxnState

S, X, R, RX, RS = (
    LockMode.S, LockMode.X, LockMode.R, LockMode.RX, LockMode.RS,
)
A = page_lock(1)
B = page_lock(2)
BASE = page_lock(100)


def make_scheduler(**kwargs):
    return Scheduler(LockManager(), **kwargs)


class TestBasics:
    def test_think_advances_clock(self):
        sched = make_scheduler()

        def proc():
            yield Think(5.0)
            yield Think(2.5)
            return "done"

        sched.spawn(proc())
        sched.run()
        assert sched.now == pytest.approx(7.5)
        assert sched.completed[0][1] == "done"

    def test_processes_interleave_by_time(self):
        sched = make_scheduler()
        order = []

        def proc(name, pause):
            yield Think(pause)
            order.append(name)

        sched.spawn(proc("slow", 10.0))
        sched.spawn(proc("fast", 1.0))
        sched.run()
        assert order == ["fast", "slow"]

    def test_spawn_at_delays_start(self):
        sched = make_scheduler()
        starts = []

        def proc():
            starts.append(sched.now)
            yield Think(1.0)

        sched.spawn(proc(), at=3.0)
        sched.run()
        assert starts == [3.0]

    def test_run_until_stops_early(self):
        sched = make_scheduler()

        def proc():
            yield Think(10.0)
            return "late"

        sched.spawn(proc())
        sched.run(until=5.0)
        assert sched.completed == []
        sched.run()
        assert sched.completed[0][1] == "late"

    def test_run_until_keeps_equal_time_order(self):
        """Stopping at ``until`` puts the next event back as it was: two
        processes due at the same instant still finish in spawn order."""

        def proc():
            yield Think(2.0)

        def finish_order(*untils):
            sched = make_scheduler()
            for name in "ab":
                sched.spawn(proc(), name=name)
            for until in untils:
                sched.run(until=until)
            sched.run()
            return [txn.name for txn, _ in sched.completed]

        assert finish_order() == ["a", "b"]
        assert finish_order(1.0) == ["a", "b"]
        assert finish_order(0.5, 1.0, 1.5) == ["a", "b"]

    def test_call_runs_function_synchronously(self):
        sched = make_scheduler()

        def proc():
            value = yield Call(lambda: 21 * 2)
            return value

        sched.spawn(proc())
        sched.run()
        assert sched.completed[0][1] == 42

    def test_fetch_page_costs_depend_on_buffer(self):
        store = StorageManager(TreeConfig(leaf_extent_pages=16, internal_extent_pages=4))
        leaf = store.allocate_leaf()
        store.flush_all()
        sched = Scheduler(LockManager(), store=store, io_time=2.0, hit_time=0.5)

        def proc():
            yield FetchPage(leaf.page_id)  # buffered: hit
            return sched.now

        sched.spawn(proc())
        sched.run()
        assert sched.completed[0][1] == pytest.approx(0.5)

        store.buffer.crash()  # force a miss
        sched2 = Scheduler(LockManager(), store=store, io_time=2.0, hit_time=0.5)

        def proc2():
            yield FetchPage(leaf.page_id)
            return sched2.now

        sched2.spawn(proc2())
        sched2.run()
        assert sched2.completed[0][1] == pytest.approx(2.0)


class TestLocking:
    def test_lock_wait_and_grant(self):
        sched = make_scheduler()
        events = []

        def holder():
            yield Acquire(A, X)
            yield Think(5.0)
            yield Release(A, X)
            events.append(("holder-done", sched.now))

        def waiter():
            yield Think(1.0)  # start after the holder has the lock
            yield Acquire(A, X)
            events.append(("waiter-got-lock", sched.now))
            yield ReleaseAll()

        sched.spawn(holder())
        waiter_txn = sched.spawn(waiter())
        sched.run()
        assert ("waiter-got-lock", 5.0) in events
        assert waiter_txn.metrics.blocks == 1
        assert waiter_txn.metrics.wait_time == pytest.approx(4.0)

    def test_rx_conflict_thrown_into_generator(self):
        sched = make_scheduler()
        outcomes = []

        def reorganizer():
            yield Acquire(A, RX)
            yield Think(10.0)
            yield ReleaseAll()

        def reader():
            yield Think(1.0)
            try:
                yield Acquire(A, S)
            except RXConflictError:
                outcomes.append("backed-off")
                return
            outcomes.append("unexpected-grant")

        sched.spawn(reorganizer(), is_reorganizer=True)
        reader_txn = sched.spawn(reader())
        sched.run()
        assert outcomes == ["backed-off"]
        assert reader_txn.metrics.rx_backoffs == 1

    def test_instant_rs_resumes_when_reorg_releases(self):
        sched = make_scheduler()
        resumed_at = []

        def reorganizer():
            yield Acquire(BASE, R)
            yield Think(8.0)
            yield ReleaseAll()

        def reader():
            yield Think(1.0)
            yield Acquire(BASE, RS, instant=True)
            resumed_at.append(sched.now)

        sched.spawn(reorganizer(), is_reorganizer=True)
        sched.spawn(reader())
        sched.run()
        assert resumed_at == [8.0]

    def test_conversion_op(self):
        sched = make_scheduler()

        def reorganizer():
            yield Acquire(BASE, R)
            yield Convert(BASE, X)
            return "converted"

        sched.spawn(reorganizer(), is_reorganizer=True)
        sched.run()
        assert sched.completed[0][1] == "converted"

    def test_deadlock_victim_gets_exception(self):
        sched = make_scheduler()

        def proc(first, second, pause):
            yield Acquire(first, X)
            yield Think(pause)
            yield Acquire(second, X)
            yield ReleaseAll()
            return "survived"

        t1 = sched.spawn(proc(A, B, 2.0), name="t1")
        t2 = sched.spawn(proc(B, A, 2.0), name="t2")
        sched.run()
        # Exactly one survives, the other dies with DeadlockError.
        assert len(sched.completed) == 1
        assert len(sched.failed) == 1
        victim_txn, exc = sched.failed[0]
        assert isinstance(exc, DeadlockError)
        assert victim_txn in (t1, t2)
        assert victim_txn.state is TxnState.ABORTED

    def test_reorganizer_is_preferred_victim(self):
        sched = make_scheduler()

        def proc(first, second):
            yield Acquire(first, X)
            yield Think(2.0)
            yield Acquire(second, X)
            yield ReleaseAll()

        sched.spawn(proc(A, B), name="user")
        reorg = sched.spawn(proc(B, A), name="reorg", is_reorganizer=True)
        sched.run()
        assert sched.failed[0][0] is reorg

    def test_locks_released_on_completion(self):
        lm = LockManager()
        sched = Scheduler(lm)

        def proc():
            yield Acquire(A, X)
            return "kept lock"

        txn = sched.spawn(proc())
        sched.run()
        assert lm.holders_of(A) == {}

    def test_transaction_aborted_is_recorded_not_raised(self):
        sched = make_scheduler()

        def proc():
            yield Think(1.0)
            raise TransactionAborted("user abort")

        sched.spawn(proc())
        sched.run()
        assert len(sched.failed) == 1


class TestUnexpectedException:
    def test_failing_process_is_named_and_the_others_are_closed(self):
        db = Database(TreeConfig(leaf_capacity=8, internal_capacity=8))
        build_sparse_tree(db, n_records=200, fill_after=0.5)
        sched = Scheduler(db.locks, store=db.store, log=db.log)
        readers = [
            reader_search(db, "primary", key, think=100.0) for key in range(5)
        ]
        reader_txns = [
            sched.spawn(gen, name=f"reader-{index}")
            for index, gen in enumerate(readers)
        ]
        held = page_lock(10**6)

        def corrupt():
            raise BTreeError("page 8 has no stable image on disk")

        def broken():
            yield Acquire(held, X)
            yield Think(5.0)
            yield Call(corrupt)

        txn = sched.spawn(broken(), name="broken")
        with pytest.raises(BTreeError, match="no stable image") as info:
            sched.run()
        (note,) = info.value.__notes__
        assert "DES process 'broken'" in note
        assert "Call(fn=" in note and "corrupt" in note
        assert "t=5 " in note
        assert repr([held]) in note
        # The lock table is left as it was at the failure: each reader
        # still holds its tree IS and leaf S, in the middle of its Think.
        assert db.locks.owned_resources(txn) == [held]
        assert [len(db.locks.owned_resources(t)) for t in reader_txns] == [2] * 5
        assert all(gen.gi_frame is None for gen in readers)

        unraisable = []
        hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
        try:
            del readers, sched, info
            gc.collect()
        finally:
            sys.unraisablehook = hook
        assert unraisable == []

    def test_a_failure_right_after_a_lock_set_names_the_set(self):
        sched = make_scheduler()

        def proc():
            yield AcquireSet([1, 2], S)
            raise BTreeError("bad page")

        sched.spawn(proc(), name="setter")
        with pytest.raises(BTreeError) as info:
            sched.run()
        (note,) = info.value.__notes__
        assert "'setter'" in note and "the lock set on pages [1, 2]" in note
        assert repr(A) in note and repr(B) in note

    def test_a_crash_point_leaves_the_other_processes_to_the_harness(self):
        sched = make_scheduler()

        def power_fails():
            raise CrashPoint("power")

        def crasher():
            yield Think(1.0)
            yield Call(power_fails)

        def sleeper():
            yield Think(100.0)

        other = sleeper()
        sched.spawn(other)
        sched.spawn(crasher())
        with pytest.raises(CrashPoint) as info:
            sched.run()
        assert not hasattr(info.value, "__notes__")
        assert other.gi_frame is not None


class TestStallDetection:
    def test_stall_raises_when_wait_can_never_be_satisfied(self):
        sched = make_scheduler()

        def holder():
            yield Acquire(A, X)
            yield Think(1.0)
            return "keeps lock forever"  # scheduler releases at finish...

        def waiter():
            yield Acquire(A, X)

        sched.spawn(holder())
        sched.spawn(waiter(), at=0.5)
        # Holder finishes -> locks released -> waiter proceeds: no stall.
        sched.run()
        assert len(sched.completed) == 2

    def test_zero_time_spin_detected(self):
        sched = make_scheduler()

        def spinner():
            while True:
                yield Call(lambda: None)

        sched.spawn(spinner())
        with pytest.raises(SchedulerStall):
            sched.run()


class TestRunAlone:
    def test_run_alone_returns_value(self):
        def proc():
            yield Acquire(A, X)
            yield Think(1.0)
            yield ReleaseAll()
            return 99

        assert run_alone(proc()) == 99

    def test_run_alone_propagates_failure(self):
        def proc():
            yield Think(1.0)
            raise TransactionAborted("boom")

        with pytest.raises(TransactionAborted):
            run_alone(proc())

    def test_calls_run_and_lock_and_think_ops_are_skipped(self):
        def proc():
            yield Acquire(A, X)
            yield Convert(A, X)
            yield Think(1.0)
            first = yield Call(lambda: 20)
            yield Release(A, X)
            yield ReleaseAll()
            return first + (yield Call(lambda: 22))

        assert run_alone(proc()) == 42

    def test_ops_that_need_a_scheduler_are_refused(self):
        closed = []

        def proc():
            try:
                yield FetchPage(1)
            finally:
                closed.append(True)

        with pytest.raises(ReproError, match="FetchPage"):
            run_alone(proc())
        assert closed == [True]

    def test_a_failing_call_closes_the_generator_first(self):
        cleaned = []

        def power_fails():
            raise CrashPoint("power")

        def proc():
            try:
                yield Acquire(A, X)
                yield Call(power_fails)
            finally:
                cleaned.append(True)

        with pytest.raises(CrashPoint):
            run_alone(proc())
        assert cleaned == [True]
