"""Equal-time scheduler events are ordered by sequence number only.

Explorer traces (``repro.analysis.explorer``) identify schedules by choice
indices into the *sorted* pending-event list, so the tie-break between
equal-time events must be the per-scheduler sequence counter — never dict
iteration order, object identity, or anything else that could differ
between runs or Python versions.  The booby-trapped processes below prove
the heap never falls through to comparing what follows the sequence number.
"""

import pytest

from repro.errors import TransactionAborted
from repro.locks.manager import LockManager
from repro.locks.modes import LockMode
from repro.txn.ops import Acquire, Release, Think
from repro.txn.scheduler import Scheduler, _Process


class _EntryCompared(Exception):
    pass


class BoobyTrap(_Process):
    """A process that detonates if the event heap ever compares it."""

    def _explode(self, other):
        raise _EntryCompared("the scheduler compared a process")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _explode
    __hash__ = object.__hash__


def _trapped_scheduler(order: list) -> Scheduler:
    scheduler = Scheduler(LockManager())

    def proc(tag):
        order.append(tag)
        yield Think(1.0)

    for tag in range(12):
        scheduler.spawn(proc(tag), name=str(tag), at=1.0)
    # Swap each queued process for a booby-trapped twin.
    scheduler._heap[:] = [
        (time, seq, BoobyTrap(process.txn, process.gen), value, throw)
        for time, seq, process, value, throw in scheduler._heap
    ]
    return scheduler


def test_equal_time_events_run_in_schedule_order():
    order: list[int] = []
    _trapped_scheduler(order).run()
    assert order == list(range(12))


def test_equal_time_events_never_compare_actions_in_explored_mode():
    order: list[int] = []
    scheduler = _trapped_scheduler(order)
    # Reverse order via the policy: same-time events are still presented
    # sorted by seq, and sorting never touches the process element.
    scheduler.pick_next = lambda options: len(options) - 1
    scheduler.run()
    assert order == list(reversed(range(12)))


def test_equal_spawn_times_step_in_spawn_order():
    scheduler = Scheduler(LockManager())
    order: list = []

    def proc(tag):
        order.append(tag)
        yield Think(0.0)
        order.append((tag, "resumed"))

    for tag in "abc":
        scheduler.spawn(proc(tag), name=tag, at=0.0)
    scheduler.run()
    assert order == [
        "a", "b", "c", ("a", "resumed"), ("b", "resumed"), ("c", "resumed")
    ]


def _contended_run(pick_next=None):
    scheduler = Scheduler(LockManager())
    finished: list[str] = []

    def worker(name):
        yield Acquire(("page", 1), LockMode.X)
        yield Think(0.3)
        yield Release(("page", 1), LockMode.X)
        finished.append(name)

    for index in range(3):
        scheduler.spawn(worker(f"w{index}"), name=f"w{index}", at=0.1 * index)
    if pick_next is not None:
        scheduler.pick_next = pick_next
    scheduler.run()
    return scheduler, finished


def test_explored_mode_choice_zero_matches_native_schedule():
    native, native_finished = _contended_run()
    explored, explored_finished = _contended_run(pick_next=lambda options: 0)
    assert explored_finished == native_finished
    assert explored.now == native.now
    assert [t.name for t, _ in explored.completed] == [
        t.name for t, _ in native.completed
    ]


def test_pick_next_out_of_range_is_an_error():
    from repro.errors import ReproError

    def one_think():
        yield Think(0.1)

    scheduler = Scheduler(LockManager())
    scheduler.spawn(one_think(), name="t")
    scheduler.pick_next = lambda options: 99
    with pytest.raises(ReproError, match="pick_next"):
        scheduler.run()


def test_throw_wakeups_carry_their_process():
    """An abort wake-up is one heap entry naming the process it wakes, so
    the explorer can attribute pending events to transactions."""
    scheduler = Scheduler(LockManager())

    def sleeper():
        yield Think(10.0)

    txn = scheduler.spawn(sleeper(), name="sleeper")
    scheduler.run(until=1.0)
    assert scheduler.abort_transaction(txn, "test")
    throw_events = [entry for entry in scheduler._heap if entry[4] is not None]
    assert len(throw_events) == 1
    _, _, process, value, throw = throw_events[0]
    assert process.txn is txn
    assert value is None
    assert isinstance(throw, TransactionAborted)
