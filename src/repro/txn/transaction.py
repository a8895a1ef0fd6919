"""Transaction contexts: identity, lock ownership, per-process metrics.

A :class:`Transaction` is the lock *owner* object handed to the lock
manager and the unit the scheduler accounts time to.  The reorganizer gets
``is_reorganizer=True``, which drives the paper's deadlock-victim policy
("we always force the reorganizer to give up its lock").
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

_txn_ids = itertools.count(1)


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class TxnMetrics:
    """Per-transaction accounting the concurrency benchmarks read."""

    start_time: float = 0.0
    end_time: float = 0.0
    #: Total simulated time spent waiting for locks.
    wait_time: float = 0.0
    #: Number of times the process blocked on a lock.
    blocks: int = 0
    #: Number of RX back-offs performed (reader/updater protocol).
    rx_backoffs: int = 0
    #: Number of times this transaction was a deadlock victim.
    deadlocks: int = 0
    #: Number of lock requests issued.
    lock_requests: int = 0
    pages_read: int = 0

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time


class Transaction:
    """Lock owner + metrics holder for one scheduled process."""

    # ``__weakref__``: the race detector holds its owners weakly.
    __slots__ = ("txn_id", "name", "is_reorganizer", "shard", "state",
                 "metrics", "last_lsn", "__weakref__")

    def __init__(
        self,
        name: str | None = None,
        *,
        is_reorganizer: bool = False,
        shard: str | None = None,
    ):
        self.txn_id: int = next(_txn_ids)
        self.name = name or f"txn-{self.txn_id}"
        self.is_reorganizer = is_reorganizer
        #: Which shard this process works for (victim-policy tie-break when
        #: several shard reorganizers deadlock with each other).
        self.shard = shard
        self.state = TxnState.ACTIVE
        self.metrics = TxnMetrics()
        #: LSN of this transaction's most recent log record (undo chain head).
        self.last_lsn: int = 0

    # Equality and hashing are by identity (``txn_id`` is unique per
    # object anyway): the lock table hashes its owner on every operation,
    # and the default runs as a C slot instead of a Python call.

    def __repr__(self) -> str:
        flag = " reorg" if self.is_reorganizer else ""
        return f"<Txn {self.txn_id} {self.name}{flag} {self.state.value}>"
