"""Yieldable operations for protocol generators.

Concurrency in this reproduction is modelled with a deterministic
discrete-event scheduler (see DESIGN.md: the paper's results are about
*blocking structure*, which a DES measures exactly, not wall-clock
parallelism).  Transactions and the reorganizer are written as Python
generators that ``yield`` these operation objects; the scheduler performs
them, charges simulated time, and sends results back into the generator.

A protocol generator looks like the paper's pseudo-code, almost line for
line::

    def reader(tree, key):
        yield Acquire(tree_lock(tree.name), LockMode.IS)
        ...
        page = yield FetchPage(leaf_id)
        yield Think(0.1)          # record processing
        yield ReleaseAll()

Exceptions are delivered *into* the generator at the yield point:
:class:`~repro.errors.RXConflictError` when a request hits a held RX lock
(the paper's forgo-and-back-off signal) and
:class:`~repro.errors.DeadlockError` when the process is chosen as a
deadlock victim.

Ops are slotted, not frozen: a reorganization unit yields 18.5 of them on
average (``reorg_offline``, seed 11), and nothing hashes or mutates one
after it is yielded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from repro.locks.modes import LockMode
from repro.storage.page import PageId
from repro.wal.records import LogRecord


@dataclass(slots=True)
class Acquire:
    """Request a lock; resumes when granted.

    ``instant`` requests the paper's unconditional instant-duration
    semantics: the generator resumes when the lock *would be* grantable,
    without ever holding it.
    """

    resource: Hashable
    mode: LockMode
    instant: bool = False


@dataclass(slots=True)
class Convert:
    """Convert a held lock to a stronger mode (e.g. R -> X on a base page)."""

    resource: Hashable
    mode: LockMode


@dataclass(slots=True)
class Downgrade:
    """Replace a held lock with a weaker mode (e.g. page S -> IS while a
    record-level S is retained, section 4.1.2).  Never waits."""

    resource: Hashable
    from_mode: LockMode
    to_mode: LockMode


@dataclass(slots=True)
class Release:
    """Release one held lock."""

    resource: Hashable
    mode: LockMode


@dataclass(slots=True)
class AcquireSet:
    """An :class:`Acquire` of ``mode`` on each page's lock, in order; resumes
    with the pages once all are granted (an exception is thrown in here).
    ``pages`` may be a zero-argument callable, called when performed."""

    pages: Iterable[PageId] | Callable[[], Iterable[PageId]]
    mode: LockMode


@dataclass(slots=True)
class ReleaseSet:
    """Release ``mode`` on the page lock of each of ``pages``, in order."""

    pages: Iterable[PageId]
    mode: LockMode


@dataclass(slots=True)
class ReleaseAll:
    """Drop every lock the process holds (end of transaction)."""


@dataclass(slots=True)
class FetchPage:
    """Read a page through the buffer pool; returns the page object.

    Charges the scheduler's I/O time on a buffer miss and hit time
    otherwise.
    """

    page_id: PageId


@dataclass(slots=True)
class Think:
    """Consume simulated time (record processing, in-memory work)."""

    duration: float


@dataclass(slots=True)
class Log:
    """Append a log record; returns its LSN.  No simulated time."""

    record: LogRecord


@dataclass(slots=True)
class Call:
    """Run a synchronous function at the current simulated instant.

    The protocol generators keep lock choreography visible as yields while
    delegating page manipulation to synchronous engine code; ``Call`` makes
    that delegation explicit and gives the scheduler a hook to count work.
    Returns the function's result.
    """

    fn: Callable[[], Any]


Op = (Acquire | AcquireSet | Convert | Downgrade | Release | ReleaseSet | ReleaseAll
      | FetchPage | Think | Log | Call)
