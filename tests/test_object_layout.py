"""Object layout: the classes the library keeps by the hundred thousand
carry a fixed slot layout and no per-instance ``__dict__``.

A bulk-loaded tree holds one :class:`Record` per row, the in-memory WAL
one log record per logged change, the buffer pool one page and one frame
per resident page, and every DES process one transaction with its
metrics and a stream of yielded ops.  A ``__dict__`` on any of them costs
about 40 bytes an instance (``tests/perf/test_memory_per_object.py``
measures the sums).  A subclass or a new record type that forgets
``slots=True`` fails here.

:class:`Transaction` keeps a ``__weakref__`` slot: the race detector holds
its owners weakly and falls back to a strong table for anything that
cannot be weak-referenced (``tests/analysis/test_racedetect_weak_owners.py``).
"""

from __future__ import annotations

import dataclasses
import inspect
import weakref

import pytest

from repro.locks.manager import LockRequest
from repro.locks.modes import LockMode
from repro.storage.buffer import _Frame
from repro.storage.page import InternalPage, LeafPage, Record
from repro.txn import ops
from repro.txn.transaction import Transaction, TxnMetrics
from repro.wal import records
from repro.wal.records import LogRecord


def _log_record_classes() -> list[type]:
    found: list[type] = []
    todo = [LogRecord]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


def _op_classes() -> list[type]:
    return [
        cls
        for _, cls in inspect.getmembers(ops, inspect.isclass)
        if cls.__module__ == ops.__name__
    ]


def _build_op(cls: type):
    """An op with every required field filled by a placeholder (ops are
    plain containers: nothing checks a field's type at construction)."""
    required = [
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    return cls(**{name: None for name in required})


def test_the_walk_finds_every_record_class_of_the_wal():
    defined = {
        cls
        for _, cls in inspect.getmembers(records, inspect.isclass)
        if issubclass(cls, LogRecord)
    }
    assert set(_log_record_classes()) == defined


@pytest.mark.parametrize("cls", _log_record_classes(), ids=lambda c: c.__name__)
def test_log_records_have_no_dict(cls):
    record = cls()
    assert not hasattr(record, "__dict__")
    assert record.log_bytes() > 0


@pytest.mark.parametrize("cls", _op_classes(), ids=lambda c: c.__name__)
def test_ops_have_no_dict(cls):
    assert not hasattr(_build_op(cls), "__dict__")


@pytest.mark.parametrize(
    "make",
    [
        lambda: Record(1, "x"),
        lambda: LeafPage(1, 4),
        lambda: InternalPage(2, 4),
        lambda: LeafPage(1, 4).clone(),
        lambda: InternalPage(2, 4).clone(),
        lambda: _Frame(LeafPage(1, 4), False),
        lambda: Transaction(),
        lambda: TxnMetrics(),
        lambda: LockRequest("owner", ("page", 1), LockMode.S),
    ],
    ids=[
        "Record",
        "LeafPage",
        "InternalPage",
        "LeafPage.clone",
        "InternalPage.clone",
        "_Frame",
        "Transaction",
        "TxnMetrics",
        "LockRequest",
    ],
)
def test_hot_objects_have_no_dict(make):
    assert not hasattr(make(), "__dict__")


def test_record_stays_frozen_and_ordered():
    a, b = Record(1, "z"), Record(2, "a")
    assert a < b and sorted([b, a]) == [a, b]
    assert hash(a) == hash(Record(1, "z"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.key = 3  # type: ignore[misc]


def test_transaction_can_be_weakly_referenced():
    txn = Transaction()
    ref = weakref.ref(txn)
    assert ref() is txn
