"""Crash audit of a three-shard parallel reorganization.

Every shard's pass-3 state is the one database's entry for its tree, and
every pass-3 record names its tree, so a crash while one shard is in pass
3 restores that shard's stable point — whatever the other shards logged
after the checkpoint.  Per crash offset: crash, ``recover()``, then
forward-recover every shard with the one report (and ``run()`` those the
crash left without a switch to finish); the forest must validate, hold
the records of the uninterrupted run, and leave no allocated internal
page that no shard root reaches.

Tier-1 crashes at every offset of each shard's pass 3, from its first
stable point to its ``ReorgDoneRecord``, and at a stride elsewhere.  The
whole sweep runs by hand::

    PYTHONPATH=src:. python -m tests.shard.test_sharded_crash_audit
"""

import pytest

from repro.errors import CrashPoint
from repro.reorg.reorganizer import Reorganizer
from repro.shard import ParallelReorganizer
from repro.sim.crash import LogCrashInjector
from repro.wal.records import ReorgDoneRecord, StableKeyRecord
from tests.integration.test_exhaustive_crash_audit import (
    CONFIG,
    orphan_internal_pages,
)
from tests.wal.test_recovery_pinned import _sharded_db

#: Offsets outside every shard's pass 3 that tier-1 crashes at.
STRIDE = 50


def reorganize(sdb, pause=0.0):
    ParallelReorganizer(sdb, CONFIG, unit_pause=pause, scan_pause=pause).run()


def shard_keys(sdb):
    return [sorted(r.key for r in h.tree().items()) for h in sdb.handles]


def rehearsal(pause=0.0):
    """The records an uninterrupted reorganization of the fixture logs,
    and the keys each shard holds after it."""
    sdb = _sharded_db()
    mark = sdb.log.last_lsn
    reorganize(sdb, pause)
    return list(sdb.log.records_from(mark + 1)), shard_keys(sdb)


def crashed_after(records, pause=0.0):
    sdb = _sharded_db()
    with pytest.raises(CrashPoint):
        with LogCrashInjector(sdb.log, after_records=records):
            reorganize(sdb, pause)
    sdb.crash()
    return sdb


def forward_recover_all(sdb, report):
    for handle in sdb.handles:
        reorg = Reorganizer(handle, handle.tree(), CONFIG)
        if reorg.forward_recover(report).switch is None:
            reorg.run()


def audit_offset(records, expected, pause=0.0):
    sdb = crashed_after(records, pause)
    forward_recover_all(sdb, sdb.recover())
    sdb.validate()
    assert shard_keys(sdb) == expected, records
    roots = [handle.tree().root_id for handle in sdb.handles]
    assert orphan_internal_pages(sdb.store, roots) == set(), records


def pass3_windows(logged):
    """Offsets from each shard's first stable point to its ReorgDoneRecord."""
    first, done = {}, {}
    for offset, record in enumerate(logged, start=1):
        if isinstance(record, StableKeyRecord):
            first.setdefault(record.tree_name, offset)
        elif isinstance(record, ReorgDoneRecord):
            done[record.tree_name] = offset
    return {o for name in done for o in range(first[name], done[name] + 1)}


def test_crash_mid_pass3_restores_that_shard_alone():
    logged, _ = rehearsal()
    first_stable = next(
        i for i, r in enumerate(logged)
        if isinstance(r, StableKeyRecord) and r.tree_name == "shard1"
    )
    # Shard 0 logged its whole pass 3 after the checkpoint, before that.
    assert any(
        isinstance(r, ReorgDoneRecord) and r.tree_name == "shard0"
        for r in logged[:first_stable]
    )
    stable = logged[first_stable]
    sdb = crashed_after(first_stable + 1)
    sdb.recover()
    state = sdb.handle(1).pass3_state()
    assert state.reorg_bit
    assert state.stable_key == stable.stable_key
    assert state.built_entries == list(stable.built_entries)
    assert sdb.handle(0).pass3_state().idle
    assert sdb.handle(2).pass3_state().idle


def test_crash_audit_across_every_shard_pass3():
    logged, expected = rehearsal()
    windows = pass3_windows(logged)
    assert len(windows) > 3 * CONFIG.stable_point_interval
    for records in range(1, len(logged) + 1):
        if records in windows or records % STRIDE == 0:
            audit_offset(records, expected)


def test_overlapping_pass3_restarts_free_only_their_own_orphans():
    """Paced shards run pass 3 side by side, so one shard allocates after
    another's stable point; a restart frees only pages in its own lease."""
    logged, expected = rehearsal(pause=1.0)
    in_pass3: set[str] = set()
    overlapping = []
    for offset, record in enumerate(logged, start=1):
        if isinstance(record, StableKeyRecord):
            in_pass3.add(record.tree_name)
        elif isinstance(record, ReorgDoneRecord):
            in_pass3.discard(record.tree_name)
        if len(in_pass3) > 1:
            overlapping.append(offset)
    assert overlapping
    for records in overlapping[::8]:
        audit_offset(records, expected, pause=1.0)


if __name__ == "__main__":
    import time

    started = time.perf_counter()
    logged, expected = rehearsal()
    failures = []
    for records in range(1, len(logged) + 1):
        try:
            audit_offset(records, expected)
        except Exception as error:  # every failing offset is listed
            failures.append((records, f"{type(error).__name__}: {error}"))
    print(f"{len(logged)} offsets, {len(failures)} failing, "
          f"{time.perf_counter() - started:.1f} s")
    for records, error in failures:
        print(f"  {records}: {error}")
