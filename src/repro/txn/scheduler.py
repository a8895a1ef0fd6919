# reproflow: disable-file=lock-pairing -- the scheduler is the op
# interpreter: _step performs an Acquire/Convert for a protocol generator,
# and the matching Release/ReleaseAll is a later op of the same generator,
# performed by a later _step call from a later heap entry, so per-owner
# pairing cannot be tracked here statically.  Pairing is a property of the
# generators (checked by reproflow there), and release_all on
# finish/abort is the runtime backstop.
"""Deterministic discrete-event scheduler for protocol generators.

The scheduler advances a simulated clock and interleaves *processes* —
generator objects yielding :mod:`repro.txn.ops` operations on behalf of a
:class:`~repro.txn.transaction.Transaction`.  All interleaving is a pure
function of spawn times, operation costs and lock-manager state, so every
concurrency experiment in this repository is exactly reproducible.

Timing model (configurable):

* ``Acquire``/``Convert``/``Release``/``Log``/``Call`` and the lock sets
  (one ``Acquire`` or ``Release`` per page) — instantaneous.
  Blocking on a lock suspends the process until the lock manager's grant
  callback fires; the elapsed simulated time is charged to the
  transaction's ``wait_time``.
* ``FetchPage`` — ``hit_time`` if the page is buffered, ``io_time`` if it
  must come from disk.
* ``Think`` — exactly its duration.

Exception delivery: an :class:`~repro.errors.RXConflictError` from the lock
manager and a :class:`~repro.errors.DeadlockError` for deadlock victims are
thrown *into* the generator, which implements the paper's reaction (back
off and RS-wait; or abort/retry).  An exception that escapes the generator
aborts the process: its locks are released and the failure is recorded in
:attr:`Scheduler.failed`.

A :class:`~repro.errors.CrashPoint` escaping any process is different: it
propagates out of :meth:`Scheduler.run` so the crash harness can take over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro.errors import (
    CrashPoint,
    DeadlockError,
    ReproError,
    RXConflictError,
    SwitchTimeoutError,
    TransactionAborted,
)
from repro.locks.manager import LockManager, LockRequest, RequestState
from repro.locks.resources import page_lock
from repro.perf import PERF

#: See storage/buffer.py: reset() clears in place, the alias stays valid.
_COUNTERS = PERF.counters
from repro.txn.ops import (
    Acquire,
    AcquireSet,
    Call,
    Convert,
    Downgrade,
    FetchPage,
    Log,
    Op,
    Release,
    ReleaseAll,
    ReleaseSet,
    Think,
)
from repro.txn.transaction import Transaction, TxnState

ProtocolGen = Generator[Op, Any, Any]


class SchedulerStall(ReproError):
    """No runnable events remain but processes are still waiting.

    Indicates a protocol bug (a wait that nothing will ever satisfy) —
    genuine deadlocks are broken by the victim policy before this fires.
    """


#: Safety valve: maximum ops a process may execute without consuming
#: simulated time (prevents accidental same-instant spin loops).
_MAX_ZERO_TIME_OPS = 100_000

#: Bound once: looking a member up on an Enum class is slow.
_WAITING = RequestState.WAITING

#: The value of a process's first heap entry: :meth:`Scheduler._step`
#: stamps the start time and primes the generator.
_START = object()


@dataclass(slots=True, eq=False)
class _Process:
    txn: Transaction
    gen: ProtocolGen
    waiting_since: float | None = None
    done: bool = False
    #: Set by Scheduler.abort_transaction; honoured at the next step.
    abort_requested: bool = False
    #: A lock set op that waits: (its pages, its single ops still to come).
    lock_set: tuple | None = None


class Scheduler:
    """Event loop over simulated time."""

    def __init__(
        self,
        lock_manager: LockManager,
        *,
        store=None,
        log=None,
        io_time: float = 1.0,
        hit_time: float = 0.05,
    ):
        self.lm = lock_manager
        self.store = store
        self.log = log
        self.io_time = io_time
        self.hit_time = hit_time
        #: Bound residency test for the FetchPage hot path (None when the
        #: scheduler runs without a store, e.g. pure lock-protocol tests).
        self._buffer_contains = store.buffer.contains if store is not None else None
        self.now: float = 0.0
        #: Pending events ``(time, seq, process, value, throw)``: at
        #: ``time``, step ``process`` sending it ``value`` or throwing
        #: ``throw`` into it.  ``seq`` is unique per event, so tuple
        #: comparison is decided by ``(time, seq)`` alone and the rest is
        #: *never* compared — event order is a pure function of the spawn
        #: plan on every Python version.
        self._heap: list[tuple[float, int, _Process, Any, BaseException | None]] = []
        self._seq = itertools.count()
        #: Explorer hook (see ``repro.analysis.explorer``): when set,
        #: :meth:`run` routes through :meth:`_run_explored`, which asks this
        #: callable to pick the next event from the sorted pending list.
        #: ``None`` (production) keeps the branch-free heap loop below; the
        #: attribute is tested once per ``run()`` call, so the hot path is
        #: byte-identical with the explorer merely imported.
        self.pick_next: Callable[[list[tuple]], int] | None = None
        #: Every spawned process, by its transaction — the lock owner the
        #: manager's callbacks name.
        self._processes: dict[Transaction, _Process] = {}
        #: The lock-manager callbacks of every waiting request, bound once.
        self._on_grant = self._wake_granted
        self._on_deadlock = self._wake_victim
        #: (txn, result) for processes that ran to completion.
        self.completed: list[tuple[Transaction, Any]] = []
        #: (txn, exception) for processes that died.
        self.failed: list[tuple[Transaction, BaseException]] = []
        self._crash: CrashPoint | None = None

    # -- public API ------------------------------------------------------------

    def spawn(
        self,
        gen: ProtocolGen,
        *,
        txn: Transaction | None = None,
        name: str | None = None,
        at: float = 0.0,
        is_reorganizer: bool = False,
        shard: str | None = None,
    ) -> Transaction:
        """Register a protocol generator to start at simulated time ``at``."""
        transaction = txn or Transaction(
            name, is_reorganizer=is_reorganizer, shard=shard
        )
        process = self._processes[transaction] = _Process(transaction, gen)
        heappush(self._heap, (at, next(self._seq), process, _START, None))
        return transaction

    def run(self, *, until: float | None = None, max_events: int = 2_000_000) -> None:
        """Drain the event heap (optionally up to simulated time ``until``).

        Events execute in ``(time, seq)`` order, where ``seq`` is assigned
        from a per-scheduler counter at scheduling time.  Equal-time events
        are therefore ordered by sequence number only — never by dict
        iteration order or callable identity — which is what lets explorer
        traces (``repro.analysis.explorer``) replay identically across runs
        and Python versions.
        """
        if self.pick_next is not None:
            return self._run_explored(until=until, max_events=max_events)
        events = 0
        heap = self._heap
        step = self._step
        try:
            while heap:
                if self._crash is not None:
                    raise self._crash
                event = heappop(heap)
                time, _, process, value, throw = event
                if until is not None and time > until:
                    heappush(heap, event)  # unchanged: it keeps its seq
                    return
                if time > self.now:
                    self.now = time
                step(process, value, throw)
                events += 1
                if events > max_events:
                    raise SchedulerStall(f"exceeded {max_events} events")
        finally:
            _COUNTERS.des_events += events
        self._check_drained()

    def _run_explored(self, *, until: float | None, max_events: int) -> None:
        """Policy-driven twin of :meth:`run` for schedule exploration.

        Kept separate so the production loop stays branch-free.  Each
        iteration fully sorts the pending list (total order on
        ``(time, seq)``; nothing after ``seq`` is compared) and lets ``pick_next``
        choose *any* pending event, not just the earliest.  The clock is
        clamped monotonically: running a later-timestamped event first must
        not move time backwards when the earlier one finally executes.
        """
        events = 0
        counters = _COUNTERS
        heap = self._heap
        pick_next = self.pick_next
        assert pick_next is not None
        while heap:
            if self._crash is not None:
                raise self._crash
            heap.sort()
            options = heap
            if until is not None:
                options = [event for event in heap if event[0] <= until]
                if not options:
                    return
            index = pick_next(options)
            if not 0 <= index < len(options):
                raise ReproError(
                    f"pick_next returned {index} for {len(options)} pending events"
                )
            event = options[index]
            heap.remove(event)
            time, _, process, value, throw = event
            if time > self.now:
                self.now = time
            self._step(process, value, throw)
            events += 1
            counters.des_events += 1
            if events > max_events:
                raise SchedulerStall(f"exceeded {max_events} events")
        self._check_drained()

    def _check_drained(self) -> None:
        if self._crash is not None:
            raise self._crash
        stuck = [
            p for p in self._processes.values()
            if not p.done and p.waiting_since is not None
        ]
        if stuck:
            names = ", ".join(p.txn.name for p in stuck)
            raise SchedulerStall(f"no events left but processes wait: {names}")

    def abort_transaction(self, txn: Transaction, reason: str = "forced abort") -> bool:
        """Force a running process to abort (the paper's switch policy:
        "it will force the on-going transactions that use the old tree to
        abort", section 7.4).  Returns False if the process is done."""
        process = self._processes.get(txn)
        if process is None or process.done:
            return False
        process.abort_requested = True
        if self.lm.waiting_request(txn) is not None:
            self.lm.cancel_wait(txn)
        # Wake the process *now* — a transaction sleeping in Think must not
        # keep its locks until its timer fires.  Its stale timer event later
        # finds the process done and no-ops.
        heappush(self._heap, (
            self.now, next(self._seq), process, None, TransactionAborted(reason)
        ))
        return True

    # -- internals ------------------------------------------------------------

    def _finish(self, process: _Process, result: Any) -> None:
        process.done = True
        process.txn.metrics.end_time = self.now
        if process.txn.state is TxnState.ACTIVE:
            process.txn.state = TxnState.COMMITTED
        self.lm.release_all(process.txn)
        self.completed.append((process.txn, result))

    def _fail(self, process: _Process, exc: BaseException) -> None:
        process.done = True
        process.txn.state = TxnState.ABORTED
        process.txn.metrics.end_time = self.now
        self.lm.cancel_wait(process.txn)
        self.lm.release_all(process.txn)
        self.failed.append((process.txn, exc))

    def _step(
        self, process: _Process, value: Any, throw: BaseException | None
    ) -> None:
        """Advance one process until it suspends, finishes or fails."""
        if value is _START:
            process.txn.metrics.start_time = self.now
            value = None
        _COUNTERS.des_steps += 1
        if process.done:
            return  # a late wake-up for an already-aborted process
        if process.abort_requested and throw is None:
            process.abort_requested = False
            throw = TransactionAborted("forced abort")
        gen = process.gen
        txn = process.txn
        lm = self.lm
        # A lock set runs as its single ops; after a wait, the rest run on
        # the grant before the generator resumes (a throw abandons them).
        lock_set, process.lock_set = process.lock_set, None
        for _ in range(_MAX_ZERO_TIME_OPS):
            try:
                if throw is not None:
                    exc, throw, lock_set = throw, None, None
                    op = gen.throw(exc)
                elif lock_set is None:
                    op = gen.send(value)
                elif (op := next(lock_set[1], None)) is None:
                    op, lock_set = gen.send(lock_set[0]), None  # set done
            except StopIteration as stop:
                self._finish(process, stop.value)
                return
            except CrashPoint as crash:
                # A crash takes the whole system down, not one process.
                self._crash = crash
                return
            except (
                DeadlockError,
                TransactionAborted,
                RXConflictError,
                SwitchTimeoutError,  # an expected switch-policy outcome
            ) as abort:
                self._fail(process, abort)
                return
            value = None

            # Op kinds are tested by identity (op classes are final), the
            # most frequent first: acquires, releases, calls and fetches
            # dominate the op mix in every experiment.
            op_cls = op.__class__
            if op_cls is Acquire:
                txn.metrics.lock_requests += 1
                try:
                    request = lm.request(
                        txn,
                        op.resource,
                        op.mode,
                        instant=op.instant,
                        on_grant=self._on_grant,
                        on_deadlock=self._on_deadlock,
                    )
                except RXConflictError as conflict:
                    txn.metrics.rx_backoffs += 1
                    throw = conflict
                    continue
                if request.state is _WAITING:
                    process.lock_set = lock_set
                    self._suspend_on_lock(process)
                    return
                value = request
            elif op_cls is Release:
                lm.release(txn, op.resource, op.mode)
            elif op_cls is AcquireSet or op_cls is ReleaseSet:
                pages = op.pages() if callable(op.pages) else op.pages
                single = Acquire if op_cls is AcquireSet else Release
                ops = map(single, map(page_lock, pages), itertools.repeat(op.mode))
                lock_set = (pages, ops)
            elif op_cls is Call:
                try:
                    value = op.fn()
                except CrashPoint as crash:
                    self._crash = crash
                    return
            elif op_cls is FetchPage:
                txn.metrics.pages_read += 1
                contains = self._buffer_contains
                if contains is not None:
                    cost = self.hit_time if contains(op.page_id) else self.io_time
                    page = self.store.get(op.page_id)
                else:
                    cost = self.io_time
                    page = None
                heappush(
                    self._heap, (self.now + cost, next(self._seq), process, page, None)
                )
                return
            elif op_cls is Think:
                heappush(
                    self._heap,
                    (self.now + op.duration, next(self._seq), process, None, None),
                )
                return
            elif op_cls is Convert:
                txn.metrics.lock_requests += 1
                try:
                    request = lm.convert(
                        txn,
                        op.resource,
                        op.mode,
                        on_grant=self._on_grant,
                        on_deadlock=self._on_deadlock,
                    )
                except RXConflictError as conflict:
                    txn.metrics.rx_backoffs += 1
                    throw = conflict
                    continue
                if request.state is _WAITING:
                    self._suspend_on_lock(process)
                    return
                value = request
            elif op_cls is Downgrade:
                lm.downgrade(txn, op.resource, op.from_mode, op.to_mode)
            elif op_cls is ReleaseAll:
                lm.release_all(txn)
            elif op_cls is Log:
                value = 0 if self.log is None else self.log.append(op.record)
            else:  # pragma: no cover - defensive
                raise ReproError(f"unknown op {op!r}")
        raise SchedulerStall(
            f"process {txn.name} executed {_MAX_ZERO_TIME_OPS} ops without "
            f"consuming simulated time"
        )

    def _suspend_on_lock(self, process: _Process) -> None:
        process.txn.metrics.blocks += 1
        process.waiting_since = self.now
        # Victim callbacks push the victims' wake-ups themselves.
        self.lm.resolve_deadlocks()

    def _wake_granted(self, request: LockRequest) -> None:
        process = self._processes[request.owner]
        self._end_wait(process)
        heappush(self._heap, (self.now, next(self._seq), process, request, None))

    def _wake_victim(self, request: LockRequest) -> None:
        process = self._processes[request.owner]
        process.txn.metrics.deadlocks += 1
        self._end_wait(process)
        error = DeadlockError(
            f"{process.txn.name} chosen as deadlock victim", victim=process.txn
        )
        heappush(self._heap, (self.now, next(self._seq), process, None, error))

    def _end_wait(self, process: _Process) -> None:
        if process.waiting_since is not None:
            process.txn.metrics.wait_time += self.now - process.waiting_since
            process.waiting_since = None


#: What :func:`run_alone` skips: with nobody else running every lock is
#: granted and no simulated time needs to pass.
_ALONE_NO_OPS = (Acquire, AcquireSet, Convert, Release, ReleaseSet, ReleaseAll, Think)


def run_alone(gen: ProtocolGen) -> Any:
    """Drive one protocol generator to completion with nobody else running
    — how the synchronous reorganizer runs passes 1 and 2.

    Every ``Call`` runs; the lock ops, the lock sets and ``Think`` are
    no-ops, so no lock-manager request is made and a callable set's pages
    are never computed; any other op raises :class:`ReproError`.  An
    exception out of a ``Call`` (a :class:`CrashPoint` too) propagates
    after the generator is closed, so its own cleanup runs.
    """
    send, value = gen.send, None
    try:
        while True:
            op = send(value)
            value = None
            if op.__class__ is Call:
                value = op.fn()
            elif op.__class__ not in _ALONE_NO_OPS:
                raise ReproError(f"run_alone cannot perform {op!r}")
    except StopIteration as stop:
        return stop.value
    finally:
        gen.close()
