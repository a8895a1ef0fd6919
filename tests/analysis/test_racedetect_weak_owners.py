"""The race detector holds DES transactions weakly.

``racedetect._OwnerTable`` keys its per-owner state weakly and falls back
to a strong dict for an owner that cannot be weak-referenced (the plain
string owners of direct lock-manager tests).  :class:`Transaction`
declares ``__slots__``; if its ``__weakref__`` slot went missing, every
transaction of a ``REPRO_RACE=1`` session would land in the strong half
and live until uninstall.
"""

from __future__ import annotations

import pytest

from repro.analysis import racedetect
from repro.analysis.racedetect import active, install, uninstall
from repro.btree.protocols import reader_search, updater_delete, updater_insert
from repro.config import TreeConfig
from repro.db import Database
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler
from repro.txn.transaction import Transaction

_TABLES = {
    "_VCS": racedetect._VCS,
    "_PENDING": racedetect._PENDING,
    "_SPAWN_JOIN": racedetect._SPAWN_JOIN,
}


@pytest.fixture
def detector():
    session_det = active()
    if session_det is not None:
        # REPRO_RACE=1 installs the detector suite-wide; keep it installed.
        yield session_det
        return
    det = install(strict=False)
    yield det
    uninstall()


def _strong_transactions() -> dict[str, list]:
    return {
        name: [key for key in table._strong if isinstance(key, Transaction)]
        for name, table in _TABLES.items()
    }


def test_des_transactions_stay_in_the_weak_half(detector):
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
    sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=1.0, hit_time=0.05)
    for i in range(4):
        at = 0.05 * i
        sched.spawn(reader_search(db, "primary", 4 * i, think=0.05), at=at)
        sched.spawn(
            updater_insert(db, "primary", Record(4 * i + 1, "w"), think=0.05),
            at=at,
        )
        sched.spawn(updater_delete(db, "primary", 4 * i + 2, think=0.05), at=at)
    sched.run()
    assert not sched.failed

    assert _strong_transactions() == {name: [] for name in _TABLES}
    weak_txns = [
        key for key in racedetect._VCS._weak.keys() if isinstance(key, Transaction)
    ]
    assert weak_txns, "the run gave the detector transactions to track"
