"""Bytes the library retains per record and per logged change.

``peak_rss_mb`` on ``point_fit`` is dominated by two populations: the
data records of the tree and the in-memory WAL, which keeps every record
it logs until a checkpoint cuts it.  These tests measure both with
``tracemalloc`` (exact allocation sizes, independent of the host's load)
and bound them at the slotted layout's own figure plus 20 %.  A
``__dict__`` back on :class:`Record` or on the leaf insert/delete log
records pushes them past the bound:

===============================  ========  =======  =====
figure (CPython 3.11)            dict      slotted  bound
===============================  ========  =======  =====
per built ``Record``             128.7 B   88.7 B   106 B
per logged insert or delete      225.7 B   176.7 B  212 B
===============================  ========  =======  =====

Of the 176.7 B per logged op, 116.5 B are the log's and 60.2 B the
pages' growth.  A checkpoint that did not truncate kept all 176.7 B; the
one that cuts the log below itself leaves 60.2 B, bound at 80 B.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.config import TreeConfig
from repro.db import Database
from repro.storage.page import Record

N_RECORDS = 20_000
N_PAIRS = 2_000
#: Far above the small-int cache, so every key is an int object of its own.
KEY_BASE = 10**6


def _retained(work) -> tuple[int, object]:
    """Bytes still allocated after ``work()`` returns, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = work()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def test_bytes_per_record():
    """One ``Record`` with an empty payload, its key int and its slot in
    the list a bulk load takes."""
    keys = range(KEY_BASE, KEY_BASE + N_RECORDS)
    retained, records = _retained(lambda: [Record(k) for k in keys])
    assert len(records) == N_RECORDS  # type: ignore[arg-type]
    per_record = retained / N_RECORDS
    assert per_record < 106, f"{per_record:.1f} B per record"


def _logged_ops():
    """A 20 k-record tree and the work ``point_fit`` does on it: inserts of
    new keys and deletes of live ones (the records are built first)."""
    db = Database(
        TreeConfig(
            leaf_capacity=32,
            internal_capacity=32,
            leaf_extent_pages=2048,
            internal_extent_pages=256,
            buffer_pool_pages=2048,
        )
    )
    tree = db.bulk_load_tree(
        [Record(2 * k, f"v{2 * k}") for k in range(N_RECORDS)], leaf_fill=0.7
    )
    db.flush()
    step = N_RECORDS // N_PAIRS
    inserts = [Record(2 * k + 1, f"v{2 * k + 1}") for k in range(0, N_RECORDS, step)]
    deletes = [2 * k for k in range(1, N_RECORDS, step)]

    def work() -> None:
        for record, key in zip(inserts, deletes):
            tree.insert(record)
            tree.delete(key)

    return db, work


def test_bytes_per_logged_insert_and_delete():
    """An insert of a new key and a delete of a live one on a 20 k-record
    tree, as ``point_fit`` runs them: the log records, page growth and
    splits they leave behind."""
    db, work = _logged_ops()
    lsn_before = db.log.last_lsn
    retained, _ = _retained(work)
    assert db.log.last_lsn - lsn_before >= 2 * N_PAIRS  # plus any splits
    per_op = retained / (2 * N_PAIRS)
    assert per_op < 212, f"{per_op:.1f} B per logged op"


def test_bytes_per_logged_op_after_a_checkpoint():
    """The same work followed by a checkpoint, which cuts the log below
    itself: the log records go and the pages' growth stays.  The
    checkpoint's flush also leaves a disk copy of every page the work
    changed; a flush just before the checkpoint makes those copies, and
    they are not counted."""
    db, work = _logged_ops()
    db.checkpoint()  # the bulk load's records go before the measurement

    def work_then_checkpoint() -> int:
        work()
        gc.collect()
        worked = tracemalloc.get_traced_memory()[0]
        db.flush()
        copies = tracemalloc.get_traced_memory()[0] - worked
        db.checkpoint()
        return copies

    retained, copies = _retained(work_then_checkpoint)
    assert db.log.first_lsn == db.log.last_checkpoint_lsn
    per_op = (retained - copies) / (2 * N_PAIRS)  # type: ignore[operator]
    assert per_op < 80, f"{per_op:.1f} B per logged op"
