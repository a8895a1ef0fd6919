"""The lock-set ops: ``AcquireSet`` / ``ReleaseSet``.

A set is performed as one ``Acquire`` (or ``Release``) per page, in order,
with the same lock-manager calls.  A request that waits suspends the
process in the middle of the set; the scheduler finishes the set on the
grant before the generator resumes, and an exception reaches the generator
at the set's yield.  ``run_alone`` skips sets, and a callable set is never
called there.
"""

import hashlib

from repro.config import ReorgConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.errors import DeadlockError, RXConflictError, TransactionAborted
from repro.locks.manager import LockManager
from repro.locks.modes import LockMode
from repro.locks.resources import page_lock
from repro.reorg.protocols import ReorgProtocol
from repro.sim.workload import build_sparse_tree
from repro.txn.ops import Acquire, AcquireSet, ReleaseAll, ReleaseSet, Think
from repro.txn.scheduler import Scheduler, run_alone

S, X, RX = LockMode.S, LockMode.X, LockMode.RX


class RecordingLockManager(LockManager):
    """Logs every request and release, in the order the scheduler makes them."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def request(self, owner, resource, mode, **kw):
        self.calls.append(("request", owner.name, resource, mode.name))
        return super().request(owner, resource, mode, **kw)

    def release(self, owner, resource, mode):
        self.calls.append(("release", owner.name, resource, mode.name))
        return super().release(owner, resource, mode)


def holder(page, mode, until):
    yield Acquire(page_lock(page), mode)
    yield Think(until)
    yield ReleaseAll()


def held_pages(lm, txn, pages, mode):
    return [page for page in pages if mode in lm.held_modes(txn, page_lock(page))]


def test_a_set_that_waits_part_way_finishes_in_order_before_the_generator_resumes():
    lm = RecordingLockManager()
    sched = Scheduler(lm)
    seen = []

    def unit():
        pages = yield AcquireSet([1, 2, 3], X)
        seen.append((sched.now, pages, held_pages(lm, txn, [1, 2, 3], X)))
        yield ReleaseSet(pages, X)

    sched.spawn(holder(2, X, 1.0), name="holder")
    txn = sched.spawn(unit(), name="unit", at=0.5)
    sched.run()
    assert seen == [(1.0, [1, 2, 3], [1, 2, 3])]
    assert [call for call in lm.calls if call[1] == "unit"] == [
        ("request", "unit", page_lock(1), "X"),
        ("request", "unit", page_lock(2), "X"),
        ("request", "unit", page_lock(3), "X"),
        ("release", "unit", page_lock(1), "X"),
        ("release", "unit", page_lock(2), "X"),
        ("release", "unit", page_lock(3), "X"),
    ]
    assert txn.metrics.lock_requests == 3
    assert txn.metrics.blocks == 1
    assert sched.completed and not sched.failed


def test_a_deadlock_victim_part_way_through_a_set_gets_the_error_at_its_yield():
    lm = LockManager()
    sched = Scheduler(lm)
    outcome = []

    def unit():
        yield Acquire(page_lock(5), X)
        yield Think(0.5)
        try:
            yield AcquireSet([1, 2, 3], X)
        except DeadlockError:
            outcome.append(held_pages(lm, txn, [1, 2, 3, 5], X))
        yield ReleaseAll()

    def other():
        yield Acquire(page_lock(2), X)
        yield Think(1.0)
        yield Acquire(page_lock(5), X)  # closes the cycle: unit waits on 2
        yield ReleaseAll()

    txn = sched.spawn(unit(), name="unit", is_reorganizer=True)
    sched.spawn(other(), name="other")
    sched.run()
    # Only the lock granted before the wait (and the one held before the
    # set); nothing from the rest of the set was requested.
    assert outcome == [[1, 5]]
    assert txn.metrics.deadlocks == 1
    assert txn.metrics.lock_requests == 3
    assert not sched.failed


def test_an_rx_conflict_part_way_through_a_set_is_thrown_at_its_yield():
    lm = LockManager()
    sched = Scheduler(lm)
    outcome = []

    def unit():
        try:
            yield AcquireSet([1, 2, 3], S)
        except RXConflictError:
            outcome.append(held_pages(lm, txn, [1, 2, 3], S))
        yield ReleaseAll()

    sched.spawn(holder(2, RX, 1.0), name="reorganizer", is_reorganizer=True)
    txn = sched.spawn(unit(), name="unit", at=0.5)
    sched.run()
    assert outcome == [[1]]
    assert txn.metrics.rx_backoffs == 1
    assert not sched.failed


def test_abort_transaction_part_way_through_a_set():
    lm = LockManager()
    sched = Scheduler(lm)
    outcome = []

    def unit():
        try:
            yield AcquireSet([1, 2, 3], X)
        except TransactionAborted:
            outcome.append(held_pages(lm, txn, [1, 2, 3], X))
            raise
        outcome.append("resumed")

    def aborter():
        yield Think(0.75)
        assert sched.abort_transaction(txn)

    sched.spawn(holder(2, X, 1.0), name="holder")
    txn = sched.spawn(unit(), name="unit", at=0.5)
    sched.spawn(aborter(), name="aborter")
    sched.run()
    assert outcome == [[1]]
    assert [(t.name, type(e)) for t, e in sched.failed] == [
        ("unit", TransactionAborted)
    ]
    assert lm.holders_of(page_lock(1)) == {}
    assert lm.waiting_request(txn) is None


def test_run_alone_never_calls_a_callable_set():
    calls = []

    def pages():
        calls.append("called")
        return [1, 2]

    def unit():
        found = yield AcquireSet(pages, X)
        yield ReleaseSet(found, X)
        return found

    assert run_alone(unit()) is None
    assert calls == []


def test_the_des_calls_a_callable_set_once_when_performed():
    sched = Scheduler(LockManager())
    calls = []

    def pages():
        calls.append(sched.now)
        return [4, 7]

    def unit():
        yield Think(2.0)
        found = yield AcquireSet(pages, X)
        yield ReleaseSet(found, X)
        return found

    sched.spawn(unit(), name="unit")
    sched.run()
    assert calls == [2.0]
    assert sched.completed[0][1] == [4, 7]


def _unit_lock_calls(side_pointers):
    """Pass 1 then pass 2 of a small sparse tree on the DES, alone: every
    lock-manager request and release, in order."""
    db = Database(TreeConfig(
        leaf_capacity=8, internal_capacity=8, leaf_extent_pages=512,
        internal_extent_pages=128, buffer_pool_pages=256,
        side_pointers=side_pointers,
    ))
    build_sparse_tree(db, n_records=600, fill_after=0.3, seed=5)
    lm = RecordingLockManager()
    db.locks = lm
    protocol = ReorgProtocol(db, db.tree().name, ReorgConfig(do_swap_pass=True))
    sched = Scheduler(lm, store=db.store, log=db.log)

    def passes():
        yield from protocol.pass1()
        yield from protocol.pass2()

    sched.spawn(passes(), name="reorganizer", is_reorganizer=True)
    sched.run()
    assert not sched.failed
    db.tree().validate()
    return lm.calls


#: sha256 prefixes and lengths of the call sequences, recorded when each
#: unit still yielded one Acquire / Release per page.
PER_PAGE_CHOREOGRAPHY = {
    SidePointerKind.NONE: ("f29d19bc23117815", 726),
    SidePointerKind.ONE_WAY: ("99a2592f4ffaf60a", 938),
    SidePointerKind.TWO_WAY: ("99a2592f4ffaf60a", 938),
}


def test_units_make_the_same_lock_calls_as_one_op_per_page():
    for kind, (digest, length) in PER_PAGE_CHOREOGRAPHY.items():
        calls = _unit_lock_calls(kind)
        text = repr(calls).encode()
        assert (hashlib.sha256(text).hexdigest()[:16], len(calls)) == (
            digest, length
        ), kind
