"""Crash-offset audit of the complete three-pass reorganization.

Crashes the full pipeline at log-append offsets spanning pass 1, pass 2,
pass 3 and the switch; recovery + forward recovery must restore the exact
record set at *every* one of its 190 offsets, and leave no allocated
internal page the tree cannot reach.
"""

from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint
from repro.reorg.reorganizer import Reorganizer
from repro.reorg.shrink import internal_post_order
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.storage.page import Record
from repro.storage.store import INTERNAL_EXTENT

CONFIG = ReorgConfig(stable_point_interval=2)


def build():
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=512,
            internal_extent_pages=256,
            buffer_pool_pages=64,
        )
    )
    tree = db.bulk_load_tree(
        [Record(k, "v") for k in range(240)], leaf_fill=1.0, internal_fill=0.5
    )
    for k in range(240):
        if k % 4 != 0:
            tree.delete(k)
    db.flush()
    db.checkpoint()
    return db


def calibrate():
    db = build()
    mark = db.log.last_lsn
    Reorganizer(db, db.tree(), CONFIG).run()
    total = db.log.last_lsn - mark
    expected = sorted(r.key for r in db.tree().items())
    return total, expected


def audit_offset(crash_after, expected):
    db = build()
    reorg = Reorganizer(db, db.tree(), CONFIG)
    try:
        with LogCrashInjector(db.log, after_records=crash_after):
            reorg.run()
        crashed = False
    except CrashPoint:
        crashed = True
    if crashed:
        recovery = crash_recover(db)
        fresh = Reorganizer(db, db.tree(), CONFIG)
        report = fresh.forward_recover(recovery)
        if report.switch is None:
            fresh.run()
    tree = db.tree()
    tree.validate()
    assert sorted(r.key for r in tree.items()) == expected, crash_after
    assert orphan_internal_pages(db.store, [tree.root_id]) == set(), crash_after


def orphan_internal_pages(store, roots):
    """Allocated internal pages that no tree under ``roots`` reaches."""
    reachable = set()
    for root in roots:
        reachable.update(internal_post_order(store, root))
    return set(store.free_map.allocated_page_ids(INTERNAL_EXTENT)) - reachable


def test_crash_audit_across_all_passes():
    total, expected = calibrate()
    for crash_after in range(2, total + 1):
        audit_offset(crash_after, expected)
