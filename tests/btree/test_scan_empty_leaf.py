"""Scans walk past an empty leaf.

A crash between the delete that empties a leaf and its free-at-empty
records leaves, after recovery, an empty leaf that ``validate()`` accepts.
Without side pointers an empty leaf has no key to find its successor by,
and the scans used to stop there: ``range_scan(0, 39)``, ``items()`` and
the DES ``reader_range_scan`` returned 8 of 36 records.
"""

import pytest

from repro.btree.protocols import reader_range_scan
from repro.config import SidePointerKind, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler

N = 40


def db_with_empty_leaves(side=SidePointerKind.NONE, first_keys=(8,)):
    """Keys 0..39 bulk-loaded four to a leaf; each leaf whose first key is
    in ``first_keys`` is emptied by three deletes and a fourth that crashes
    right after its leaf-delete record, before the free-at-empty records."""
    db = Database(
        TreeConfig(
            leaf_capacity=4,
            internal_capacity=4,
            leaf_extent_pages=64,
            internal_extent_pages=32,
            buffer_pool_pages=16,
            side_pointers=side,
        )
    )
    tree = db.bulk_load_tree([Record(k, f"v{k}") for k in range(N)])
    for first in first_keys:
        for key in range(first, first + 3):
            tree.delete(key)
        with pytest.raises(CrashPoint):
            with LogCrashInjector(db.log, after_records=1):
                tree.delete(first + 3)
        crash_recover(db)
        tree = db.tree()
    empties = [
        leaf_id
        for leaf_id in tree.leaf_ids_in_key_order()
        if db.store.get_leaf(leaf_id).is_empty
    ]
    assert len(empties) == len(first_keys)
    live = [k for k in range(N) if not any(f <= k < f + 4 for f in first_keys)]
    return db, live


@pytest.mark.parametrize("side", list(SidePointerKind), ids=lambda s: s.value)
def test_synchronous_scans_walk_past_an_empty_leaf(side):
    db, live = db_with_empty_leaves(side)
    tree = db.tree()
    tree.validate()
    assert [r.key for r in tree.range_scan(0, 39)] == live
    assert [r.key for r in tree.range_scan(8, 39)] == [k for k in live if k >= 8]
    assert [r.key for r in tree.items()] == live


#: case -> (emptied leaves by first key, scan low).
DES_CASES = {
    "mid-range": ((8,), 0),
    "low-in-empty-leaf": ((8,), 8),
    "two-empty-in-a-row": ((8, 12), 0),
    "low-in-two-empty": ((8, 12), 9),
}


@pytest.mark.parametrize("side", list(SidePointerKind), ids=lambda s: s.value)
@pytest.mark.parametrize("case", sorted(DES_CASES))
def test_des_scans_walk_past_an_empty_leaf(case, side):
    first_keys, low = DES_CASES[case]
    db, live = db_with_empty_leaves(side, first_keys)
    scheduler = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.1, hit_time=0.01)
    scheduler.spawn(reader_range_scan(db, "primary", low, N - 1, think_per_page=0.01))
    scheduler.run()
    assert not scheduler.failed
    (_, records), = scheduler.completed
    assert [r.key for r in records] == [k for k in live if k >= low]
