"""Pass 3, the switch and their forward recovery log what they logged when
each had a synchronous ordering of its own, and bulk loading logs what it
logged before the bottom-up level builder was shared.

Each cell reorganizes the same sparse tree under one combination of
placement policy, side pointers and stable-point interval, after passes 1
and 2.  Two digests are pinned per cell: (a) every record pass 3 and the
switch log — type, pages, keys, LSN fields aside — and (b) the disk
statistics after the pass.  The crash cells crash at each stable point, or
right after the switch record, recover and forward-recover; their digests
cover the crashed run and the recovery together.
"""

import hashlib
import itertools

import pytest

from repro.btree.bulkload import bulk_load
from repro.config import PlacementPolicyKind, ReorgConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint
from repro.reorg.reorganizer import Reorganizer
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.storage.page import Record
from repro.wal.records import StableKeyRecord, TreeSwitchRecord
from tests.conftest import make_env
from tests.reorg.test_sync_passes_pinned import _row

N = 1500
DEFAULT_INTERVAL = ReorgConfig().stable_point_interval

CELLS = list(
    itertools.product(
        (PlacementPolicyKind.KEY_ORDER, PlacementPolicyKind.VEB, PlacementPolicyKind.NONE),
        (SidePointerKind.NONE, SidePointerKind.TWO_WAY),
        (1, DEFAULT_INTERVAL),
    )
)


def post_pass2_db(policy, side, interval):
    """A sparse tree with sparse internals, after passes 1 and 2."""
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=512,
            internal_extent_pages=512,
            buffer_pool_pages=64,
            side_pointers=side,
            placement_policy=policy,
        )
    )
    tree = db.bulk_load_tree(
        [Record(k, "v") for k in range(N)], leaf_fill=1.0, internal_fill=0.5
    )
    for k in range(N):
        if k % 3:
            tree.delete(k)
    db.flush()
    db.checkpoint()
    reorg = Reorganizer(db, tree, ReorgConfig(stable_point_interval=interval))
    reorg.run_pass1()
    reorg.run_pass2()
    db.log.flush()
    return db, reorg


def _digests(db, mark):
    # The disk digest is taken before the checks below: it pins pass 3's
    # own reads, not those of the walk that checks its result.
    disk_digest = hashlib.sha256(repr(db.store.disk.stats).encode()).hexdigest()[:16]
    rows = [_row(record) for record in db.log.records_from(mark + 1)]
    tree = db.tree()
    tree.validate()
    assert [r.key for r in tree.items()] == list(range(0, N, 3))
    assert not db.pass3_state().reorg_bit
    log_digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    return log_digest, disk_digest, rows


def pass3_digests(policy, side, interval):
    db, reorg = post_pass2_db(policy, side, interval)
    mark = db.log.last_lsn
    reorg.run_pass3()
    return _digests(db, mark)


def crash_digests(policy, side, interval, crash_at):
    """Crash right after each record ``crash_at`` picks from a rehearsal's
    pass-3 log, recover and forward-recover; one digest over all of them."""
    rehearsal, reorg = post_pass2_db(policy, side, interval)
    mark = rehearsal.log.last_lsn
    reorg.run_pass3()
    logged = list(rehearsal.log.records_from(mark + 1))
    points = [i + 1 for i, record in enumerate(logged) if crash_at(record)]
    assert points
    logs, disks = [], []
    for after in points:
        db, reorg = post_pass2_db(policy, side, interval)
        mark = db.log.last_lsn
        with pytest.raises(CrashPoint):
            with LogCrashInjector(db.log, after_records=after):
                reorg.run_pass3()
        recovery = crash_recover(db)
        Reorganizer(db, db.tree(), reorg.config).forward_recover(recovery)
        log_digest, disk_digest, _ = _digests(db, mark)
        logs.append(log_digest)
        disks.append(disk_digest)
    return (
        hashlib.sha256(repr(logs).encode()).hexdigest()[:16],
        hashlib.sha256(repr(disks).encode()).hexdigest()[:16],
        len(points),
    )


def _cell_id(cell):
    policy, side, interval = cell
    return f"{policy.value}-{side.value}-sp{interval}"


#: cell -> (log rows of pass 3 + switch, disk stats after the pass).  The
#: log digests were those of the deleted synchronous orderings until the
#: pass-3 records named their tree (``tree_name``): re-pinned then, after
#: checking that dropping that one field from each pass-3 row reproduces
#: every earlier digest.  The disk digests were re-pinned three times: when
#: the switch's discard and the crash restart stopped reading leaves (125
#: fewer pass-3 disk reads in every cell, key_order-none-sp5: 285 -> 160,
#: the same writes); when the digest moved ahead of the validate() /
#: items() checks, so that only the pass's own I/O is pinned; and when
#: passes 1 and 2 stopped keeping a leaf chain of their own.  They now count
#: leaves by a walk of the upper levels and step the tree's leaf cursor,
#: which read base pages this 64-page pool cannot keep pinned (the index
#: has 95 pages): 47 more reads per leaf count before pass 3
#: (key_order-none-sp1: 855 -> 949, none-none-sp1: 684 -> 731), while pass
#: 3 reads its 161 pages as before.
PINNED = {
    "key_order-none-sp1": ("b60d706a969abac7", "f2be42afbdfca590"),
    "key_order-none-sp5": ("69bdeb6e98acf953", "617c0bd0ed445b9b"),
    "key_order-two_way-sp1": ("b60d706a969abac7", "5a7045b7c9ea4cb5"),
    "key_order-two_way-sp5": ("69bdeb6e98acf953", "7e2b25a16469d94c"),
    "veb-none-sp1": ("a10a00f7547ca43e", "f2e01e40d4162362"),
    "veb-none-sp5": ("e85e535e28e6d252", "dc7bd4e34cd0c1f9"),
    "veb-two_way-sp1": ("a10a00f7547ca43e", "804b89e007f2de15"),
    "veb-two_way-sp5": ("e85e535e28e6d252", "a6f29249c91945be"),
    "none-none-sp1": ("e1ad47f6e5d85a50", "cee5a1c1f2a50d06"),
    "none-none-sp5": ("d45aee724949a76e", "5691b827fd566aa8"),
    "none-two_way-sp1": ("e1ad47f6e5d85a50", "1c02ac5f9404b1fb"),
    "none-two_way-sp5": ("d45aee724949a76e", "442921c3e22b378d"),
}

#: crash cell -> (log rows incl. recovery, disk stats, crash points).  The
#: log digests moved with ``tree_name`` as above, and only with it.  Then
#: "stable-points" moved in its last crash point alone, the final stable
#: point (new root 607): the restart keeps the forced upper levels instead
#: of building a second set, so it logs 13 fewer records and leaks no root.
PINNED_CRASH = {
    "stable-points": ("132b25cf32a17fc0", "ab2f875bdd0858ae", 14),
    "switch-record": ("2d38fdd57d579dd4", "738bacf27a0af945", 1),
}

CRASH_CELLS = {
    "stable-points": (
        (PlacementPolicyKind.VEB, SidePointerKind.TWO_WAY, 2),
        lambda record: isinstance(record, StableKeyRecord),
    ),
    "switch-record": (
        (PlacementPolicyKind.KEY_ORDER, SidePointerKind.NONE, 2),
        lambda record: isinstance(record, TreeSwitchRecord),
    ),
}


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_pass3_logs_and_reads_as_pinned(cell):
    log_digest, disk_digest, rows = pass3_digests(*cell)
    assert rows[0][0] == "StableKeyRecord" and rows[-1][0] == "ReorgDoneRecord"
    assert (log_digest, disk_digest) == PINNED[_cell_id(cell)]


@pytest.mark.parametrize("name", sorted(CRASH_CELLS))
def test_forward_recovered_pass3_logs_and_reads_as_pinned(name):
    cell, crash_at = CRASH_CELLS[name]
    assert crash_digests(*cell, crash_at) == PINNED_CRASH[name]


BULK_CELLS = {
    "cap4-fill0.5": dict(internal_capacity=4, leaf_fill=1.0, internal_fill=0.5, n=600),
    "cap6-fill0.9": dict(internal_capacity=6, leaf_fill=0.7, internal_fill=0.9, n=2000),
    "cap8-fill1.0": dict(internal_capacity=8, leaf_fill=1.0, internal_fill=1.0, n=64),
}

#: bulk-load cell -> log rows.
PINNED_BULK = {
    "cap4-fill0.5": "c22af98ffdc97ad5",
    "cap6-fill0.9": "a51d5ba94648dbd3",
    "cap8-fill1.0": "f63d74ec9122b9a1",
}


def bulk_digest(internal_capacity, leaf_fill, internal_fill, n):
    store, log = make_env(
        internal_capacity=internal_capacity,
        leaf_extent_pages=1024,
        internal_extent_pages=512,
        side_pointers=SidePointerKind.TWO_WAY,
    )
    tree = bulk_load(
        store, log, [Record(k, "v") for k in range(n)],
        leaf_fill=leaf_fill, internal_fill=internal_fill,
    )
    tree.validate()
    rows = [_row(record) for record in log.records_from(1)]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(BULK_CELLS))
def test_bulk_load_logs_as_pinned(name):
    assert bulk_digest(**BULK_CELLS[name]) == PINNED_BULK[name]
