"""Wall-clock performance harness — the BENCH_<n>.json trajectory.

Times three representative workloads end to end and writes the results to
``BENCH_<n>.json`` at the repository root, so every PR leaves a measured
data point behind:

* ``bulk_insert``   — 20k randomized single-record inserts (splits, WAL,
  buffer churn; the write-path microcosm).
* ``mixed_e2``      — the E2 concurrency cell: 250 user transactions
  interleaved with the paper's reorganizer on the deterministic scheduler.
  The headline number.  The optimization PR targeted >= 1.5x over the
  seed baseline and landed at 1.43x here (1.73x bulk_insert, 7.58x
  reorg_20k); the residual cost is DES/lock bookkeeping that must stay
  check-identical.  See EXPERIMENTS.md "Performance".
* ``reorg_20k``     — full three-pass reorganization (compact, swap,
  shrink + switch) of a 20k-record sparse tree with one-way side pointers.
* ``reorg_20k_batched``    — the same reorganization with the batched-I/O
  layer on (group-commit WAL, elevator write-back, readahead, seek-aware
  pass 2, leaf-chain cache).  Must produce the same tree.
* ``range_scan_e6`` / ``range_scan_e6_batched`` — the E6 scenario: a full
  range scan of a randomly-grown (disk-disordered) tree through a small
  buffer pool, without and with readahead.  The check values carry the
  simulated I/O cost, so the BENCH file quantifies the batching win in
  *cost-model* units, not just wall clock.
* ``reorg_20k_sharded`` — the sharded forest (docs/sharding.md): the same
  sparse fixture reorganized as one tree, as a 1-shard forest (must be
  byte-identical) and as a 4-shard forest with one full three-pass
  reorganizer per shard.  Checks carry the simulated-clock makespans;
  the 4-shard run must be >= 2x faster with identical merged scans.
* ``churn_daemon`` — gapped leaves + fragmentation-aware auto-reorg
  daemon (docs/gapped_leaves.md): gapped vs gapless bulk load under an
  insert stream (split-count win), then DES insert/delete churn with the
  daemon off vs on (the daemon must hold cold range-scan cost roughly
  flat while the off cell degrades).

Each workload also returns deterministic *check* values (record counts,
unit/swap counts, log bytes).  Those must be bit-identical run to run and
PR to PR under the same seeds — a changed check means an optimization
changed behaviour, which the perf tests fail loudly on.  Workloads may
additionally report an ``io`` section (simulated disk / WAL deltas); those
are deterministic too but informational — not compared against baselines.

``--profile small`` shrinks every workload (fewer records / transactions)
for CI smoke runs; the checks of a small profile are its own and must not
be compared against a full-size BENCH file.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py              # print
    PYTHONPATH=src python benchmarks/perf_harness.py --write      # BENCH_<n>.json
    PYTHONPATH=src python benchmarks/perf_harness.py --write \
        --baseline /tmp/seed_timings.json --label optimized

``--baseline`` merges previously captured timings into the written file so
a single BENCH_<n>.json carries the before/after pair and the speedups.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

from repro.config import (
    DaemonConfig,
    ReorgConfig,
    ShardConfig,
    SidePointerKind,
    TreeConfig,
)
from repro.db import Database
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.shard import ParallelReorganizer, ShardedDatabase
from repro.sim.churn import ChurnSetup, run_churn_experiment, scan_digest
from repro.sim.driver import ExperimentSetup, run_concurrent_experiment
from repro.sim.workload import WorkloadConfig
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler

try:  # perf counters land in PR 1; the harness predates them on seed code.
    from repro.perf import PERF
except ImportError:  # pragma: no cover - seed-baseline capture only
    PERF = None


# -- workloads ---------------------------------------------------------------

#: The batched-I/O configuration exercised by the ``*_batched`` workloads.
#: Every flag defaults off in TreeConfig; this is the "all on" profile.
#: (Ascending-page-id write-back, part of this profile when BENCH_2 was
#: recorded, is now simply how the buffer pool writes.)
BATCHED_FLAGS = dict(
    group_commit_window=64,
    readahead_pages=16,
    seek_aware_pass2=True,
)


#: Workloads whose pool is smaller than their tree, so evictions write
#: dirty pages back.  BENCH_1…6 recorded them when an eviction wrote one
#: page; it now writes an ascending sweep of up to 8, which moves
#: ``wal_flush_skips`` (one per page written whose log is already stable)
#: and nothing else in their counters.
WRITEBACK_BOUND = frozenset({"bulk_insert", "range_scan_e6"})


#: Workloads that run compaction units on the scheduler.  BENCH_1…6
#: recorded a unit engine that read each source leaf twice to order the
#: moves and the destination twice to close the unit; the one unit shape
#: reads each once, which lowers these two hit counters and nothing else
#: (no miss, no disk read, no log byte moves).
UNIT_BOUND = frozenset({"mixed_e2", "read_mostly_e6", "mixed_e2_optimistic"})
UNIT_HIT_COUNTERS = ("buffer_hits", "buffer_mru_hits")


def recorded_counters(workload: str, counters: dict) -> dict:
    """The counters of ``workload`` that BENCH_1…6 still pin."""
    unpinned: tuple[str, ...] = ()
    if workload in WRITEBACK_BOUND:
        unpinned += ("wal_flush_skips",)
    if workload in UNIT_BOUND:
        unpinned += UNIT_HIT_COUNTERS
    return {k: v for k, v in counters.items() if k not in unpinned}


def assert_counters_as_recorded(workload: str, now: dict, recorded: dict) -> None:
    """The pinned counters are identical; the unit engine's two hit
    counters, where they are no longer pinned, have not risen."""
    assert recorded_counters(workload, now) == recorded_counters(workload, recorded)
    if workload in UNIT_BOUND:
        for key in UNIT_HIT_COUNTERS:
            assert now[key] <= recorded[key], (workload, key, now[key], recorded[key])


def run_bulk_insert(n_records: int = 20_000) -> dict:
    """Randomized single-record inserts into an empty tree."""
    db = Database(
        TreeConfig(
            leaf_capacity=16,
            internal_capacity=8,
            leaf_extent_pages=4096,
            internal_extent_pages=1024,
            buffer_pool_pages=512,
            side_pointers=SidePointerKind.ONE_WAY,
        )
    )
    tree = db.create_tree()
    keys = list(range(n_records))
    random.Random(1234).shuffle(keys)
    t0 = time.perf_counter()
    for key in keys:
        tree.insert(Record(key, "x" * 16))
    wall = time.perf_counter() - t0
    db.flush()
    return {
        "wall_s": wall,
        "checks": {
            "record_count": tree.record_count(),
            "log_records": db.log.stats.records_appended,
            "log_bytes": db.log.stats.bytes_appended,
        },
    }


def _e2_setup(
    n_transactions: int = 250, seed: int = 11, *, optimistic_reads: bool = False
) -> ExperimentSetup:
    """The exact cell of benchmarks/test_bench_e2_concurrency_vs_smith.py."""
    return ExperimentSetup(
        tree_config=TreeConfig(
            leaf_capacity=16,
            internal_capacity=8,
            leaf_extent_pages=1024,
            internal_extent_pages=256,
            buffer_pool_pages=512,
            optimistic_reads=optimistic_reads,
        ),
        reorg_config=ReorgConfig(target_fill=0.9),
        workload=WorkloadConfig(
            n_transactions=n_transactions,
            key_space=3000,
            mean_interarrival=0.25,
            zipf_theta=0.0,
            seed=seed,
        ),
        n_records=3000,
        fill_after=0.3,
        op_duration=0.3,
    )


def run_mixed_e2(n_transactions: int = 250) -> dict:
    """Mixed read/update workload concurrent with the paper reorganizer."""
    t0 = time.perf_counter()
    db, metrics = run_concurrent_experiment(
        _e2_setup(n_transactions), reorganizer="paper"
    )
    wall = time.perf_counter() - t0
    db.tree().validate()
    return {
        "wall_s": wall,
        "checks": {
            "completed": metrics.completed,
            "aborted": metrics.aborted,
            "blocked_txns": metrics.blocked_txns,
            "total_blocks": metrics.total_blocks,
            "rx_backoffs": metrics.rx_backoffs,
            "makespan": round(metrics.makespan, 6),
            "record_count": db.tree().record_count(),
        },
    }


def run_mixed_e2_optimistic(n_transactions: int = 250) -> dict:
    """The mixed_e2 cell re-measured with ``optimistic_reads=True``.

    Same planned workload and reorganizer; point reads and range scans go
    through the latch-free version-validated protocol, downgrading to the
    locked Table-1 path only when they observe an RX holder.  Checks carry
    the lock-manager request count and the optimistic stats so the BENCH
    file shows how much reader traffic left the lock manager.
    """
    from repro.btree.protocols import OPTIMISTIC_STATS

    OPTIMISTIC_STATS.reset()
    t0 = time.perf_counter()
    db, metrics = run_concurrent_experiment(
        _e2_setup(n_transactions, optimistic_reads=True), reorganizer="paper"
    )
    wall = time.perf_counter() - t0
    db.tree().validate()
    return {
        "wall_s": wall,
        "checks": {
            "completed": metrics.completed,
            "aborted": metrics.aborted,
            "blocked_txns": metrics.blocked_txns,
            "total_blocks": metrics.total_blocks,
            "rx_backoffs": metrics.rx_backoffs,
            "makespan": round(metrics.makespan, 6),
            "record_count": db.tree().record_count(),
            "lock_requests": db.locks.stats.requests,
            **{
                f"optimistic_{k}": v
                for k, v in OPTIMISTIC_STATS.snapshot().items()
            },
        },
    }


def _read_mostly_cell(
    *, optimistic: bool, n_records: int, n_reads: int, n_scans: int
) -> dict:
    """One mode of the read-mostly cell: point reads and range scans race
    a full three-pass reorganization on the DES.  The record set is
    invariant under reorganization, so reader results and scan digests
    must be identical whichever read protocol runs."""
    from repro.btree.protocols import reader_range_scan, reader_search
    from repro.sim.workload import build_sparse_tree

    db = Database(
        TreeConfig(
            leaf_capacity=16,
            internal_capacity=8,
            leaf_extent_pages=1024,
            internal_extent_pages=256,
            buffer_pool_pages=512,
            optimistic_reads=optimistic,
        )
    )
    tree = build_sparse_tree(db, n_records=n_records, fill_after=0.45, seed=31)
    db.flush()
    db.checkpoint()
    alive = sorted(record.key for record in tree.items())
    scheduler = Scheduler(
        db.locks, store=db.store, log=db.log, io_time=0.2, hit_time=0.01
    )
    protocol = ReorgProtocol(
        db,
        "primary",
        ReorgConfig(target_fill=0.9),
        unit_pause=0.05,
        scan_pause=0.02,
        op_duration=0.3,
    )
    protocol.abort_hook = lambda victims: [
        scheduler.abort_transaction(v, "old-tree drain timeout")
        for v in victims
    ]
    scheduler.spawn(
        full_reorganization(protocol), name="reorganizer", is_reorganizer=True
    )
    rng = random.Random(97)
    for index in range(n_reads):
        key = alive[rng.randrange(len(alive))]
        scheduler.spawn(
            reader_search(db, "primary", key, think=0.02),
            name=f"read-{index}",
            at=rng.uniform(0.0, 60.0),
        )
    span = max(1, len(alive) // (n_scans + 1))
    for index in range(n_scans):
        low = alive[index * span]
        high = alive[min(len(alive) - 1, index * span + span)]
        scheduler.spawn(
            reader_range_scan(db, "primary", low, high, think_per_page=0.01),
            name=f"scan-{index:03d}",
            at=rng.uniform(0.0, 60.0),
        )
    scheduler.run()
    if scheduler.failed:
        txn, error = scheduler.failed[0]
        raise RuntimeError(f"{txn.name} failed: {error!r}") from error
    found = 0
    scans: list[tuple[str, list[Record]]] = []
    for txn, result in scheduler.completed:
        if txn.name.startswith("read-") and result is not None:
            found += 1
        elif txn.name.startswith("scan-"):
            scans.append((txn.name, result))
    digest = hashlib.sha256()
    for _name, records in sorted(scans):
        digest.update(_scan_digest(records).encode())
    return {
        "found": found,
        "scan_digest": digest.hexdigest()[:16],
        "lock_requests": db.locks.stats.requests,
        "makespan": round(scheduler.now, 6),
    }


def run_read_mostly_e6(
    n_records: int = 2_000, n_reads: int = 1_500, n_scans: int = 12
) -> dict:
    """Read-mostly workload, locked vs optimistic read path (ISSUE 6).

    The same DES cell — seeded point reads and range scans racing a full
    three-pass reorganization — runs twice: once on the historical locked
    Table-1 protocol, once with ``optimistic_reads=True``.  Reader results
    and scan digests must be byte-identical (the record set is invariant
    under reorganization); the headline check is ``lock_reduction``, the
    ratio of lock-manager requests, which must be >= 5x — optimistic
    readers only reach the lock manager through the RX downgrade path.
    """
    from repro.btree.protocols import OPTIMISTIC_STATS

    params = dict(n_records=n_records, n_reads=n_reads, n_scans=n_scans)
    t0 = time.perf_counter()
    locked = _read_mostly_cell(optimistic=False, **params)
    OPTIMISTIC_STATS.reset()
    optimistic = _read_mostly_cell(optimistic=True, **params)
    stats = OPTIMISTIC_STATS.snapshot()
    wall = time.perf_counter() - t0
    if optimistic["scan_digest"] != locked["scan_digest"]:
        raise AssertionError(
            "optimistic scan results diverged from the locked path: "
            f"{optimistic['scan_digest']} != {locked['scan_digest']}"
        )
    if optimistic["found"] != locked["found"]:
        raise AssertionError(
            "optimistic point reads diverged from the locked path: "
            f"{optimistic['found']} != {locked['found']}"
        )
    reduction = locked["lock_requests"] / optimistic["lock_requests"]
    if reduction < 5.0:
        raise AssertionError(
            f"lock-manager request reduction {reduction:.2f}x < 5x "
            f"({locked['lock_requests']} locked vs "
            f"{optimistic['lock_requests']} optimistic)"
        )
    return {
        "wall_s": wall,
        "checks": {
            "reads_found": locked["found"],
            "scan_digest": locked["scan_digest"],
            "locked_lock_requests": locked["lock_requests"],
            "optimistic_lock_requests": optimistic["lock_requests"],
            "lock_reduction": round(reduction, 2),
            "locked_makespan": locked["makespan"],
            "optimistic_makespan": optimistic["makespan"],
            **{f"optimistic_{k}": v for k, v in stats.items()},
        },
    }


def run_reorg_20k(n_records: int = 20_000, *, batched: bool = False) -> dict:
    """Full three-pass reorganization of a sparse 20k-record tree."""
    db = Database(
        TreeConfig(
            leaf_capacity=16,
            internal_capacity=8,
            leaf_extent_pages=4096,
            internal_extent_pages=1024,
            buffer_pool_pages=512,
            side_pointers=SidePointerKind.ONE_WAY,
            **(BATCHED_FLAGS if batched else {}),
        )
    )
    tree = db.bulk_load_tree(
        [Record(k, "x" * 16) for k in range(n_records)],
        leaf_fill=1.0,
        internal_fill=0.6,
    )
    rng = random.Random(7)
    for key in rng.sample(range(n_records), int(n_records * 0.7)):
        tree.delete(key)
    db.flush()
    db.checkpoint()
    reorg = Reorganizer(db, tree, ReorgConfig(target_fill=0.9))
    disk_before = db.store.disk.stats.snapshot()
    log_before = db.log.stats.snapshot()
    t0 = time.perf_counter()
    report = reorg.run()
    wall = time.perf_counter() - t0
    disk_io = db.store.disk.stats.delta(disk_before)
    log_io = db.log.stats.delta(log_before)
    final = db.tree()
    final.validate()
    return {
        "wall_s": wall,
        "checks": {
            "record_count": final.record_count(),
            "pass1_units": report.pass1.units,
            "pass2_swaps": report.pass2.swaps if report.pass2 else 0,
            "pass2_moves": report.pass2.moves if report.pass2 else 0,
            "leaves_after": report.pass1.leaves_after,
            "reorg_log_bytes": db.log.stats.reorg_bytes,
        },
        "io": {
            "reads": disk_io["reads"],
            "writes": disk_io["writes"],
            "read_cost": round(disk_io["read_cost"], 1),
            "write_cost": round(disk_io["write_cost"], 1),
            "batch_reads": disk_io["batch_reads"],
            "log_flushes": log_io["flushes"],
            "absorbed_flushes": log_io["absorbed_flushes"],
            "prefetch_hits": db.store.buffer.prefetch_hits,
            "prefetch_wasted": db.store.buffer.prefetch_wasted,
            "writeback_sweeps": db.store.buffer.writeback_sweeps,
        },
    }


def run_range_scan_e6(n_records: int = 20_000, *, batched: bool = False) -> dict:
    """E6: full range scan of a randomly-grown tree, small buffer pool.

    Random-order inserts split leaves all over the extent, so the key-order
    leaf chain is disk-disordered — the paper's motivating scan scenario.
    The pool holds a fraction of the leaf level, making the scan mostly
    cold; the ``io`` / check numbers quantify the seek bill, which the
    readahead path (``batched=True``) pays down with multi-page reads.
    """
    db = Database(
        TreeConfig(
            leaf_capacity=16,
            internal_capacity=8,
            leaf_extent_pages=4096,
            internal_extent_pages=1024,
            buffer_pool_pages=64,
            side_pointers=SidePointerKind.ONE_WAY,
            **(BATCHED_FLAGS if batched else {}),
        )
    )
    tree = db.create_tree()
    keys = list(range(n_records))
    random.Random(1234).shuffle(keys)
    for key in keys:
        tree.insert(Record(key, "x" * 16))
    db.flush()
    disk_before = db.store.disk.stats.snapshot()
    t0 = time.perf_counter()
    records = tree.range_scan(0, n_records)
    wall = time.perf_counter() - t0
    disk_io = db.store.disk.stats.delta(disk_before)
    return {
        "wall_s": wall,
        "checks": {
            "records_returned": len(records),
            "reads": disk_io["reads"],
            "sequential_reads": disk_io["sequential_reads"],
            "seeks": disk_io["seeks"],
            "read_cost": round(disk_io["read_cost"], 1),
            "batch_reads": disk_io["batch_reads"],
        },
        "io": {
            "batch_read_pages": disk_io["batch_read_pages"],
            "prefetch_hits": db.store.buffer.prefetch_hits,
            "prefetch_wasted": db.store.buffer.prefetch_wasted,
        },
    }


def run_reorg_20k_batched(n_records: int = 20_000) -> dict:
    return run_reorg_20k(n_records, batched=True)


#: Simulated-time costs for the sharded-reorg DES runs.  Nonzero pauses /
#: op durations make the makespan reflect reorganization *work*, so the
#: single-tree vs N-shard comparison measures parallelism, not epsilon.
SHARD_DES = dict(unit_pause=0.1, scan_pause=0.1, op_duration=1.0)


def _scan_digest(records: list[Record]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.key}:{r.payload};".encode())
    return h.hexdigest()[:16]


def _leaf_layout_digest(store, tree) -> str:
    """Digest of (page id, records) for every leaf in key order — the
    byte-identity witness for the 1-shard vs unsharded comparison."""
    h = hashlib.sha256()
    for pid in tree.leaf_ids_in_key_order():
        leaf = store.get_leaf(pid)
        h.update(repr((pid, [(r.key, r.payload) for r in leaf.records])).encode())
    return h.hexdigest()[:16]


def _sparse_records(n_records: int) -> tuple[list[Record], list[int]]:
    """The reorg_20k fixture: full key range, 70% deleted with seed 7."""
    records = [Record(k, "x" * 16) for k in range(n_records)]
    doomed = random.Random(7).sample(range(n_records), int(n_records * 0.7))
    return records, doomed


def _sharded_sparse_db(
    n_records: int, n_shards: int, config: TreeConfig
) -> ShardedDatabase:
    sdb = ShardedDatabase(config, ShardConfig(n_shards=n_shards))
    records, doomed = _sparse_records(n_records)
    sdb.bulk_load(records, leaf_fill=1.0, internal_fill=0.6)
    for key in doomed:
        sdb.delete(key)
    sdb.flush()
    sdb.checkpoint()
    return sdb


def _des_reorg_single_tree(db: Database, tree_name: str = "primary") -> float:
    """Single-tree three-pass reorg on the DES; returns the makespan."""
    sched = Scheduler(db.locks, store=db.store, log=db.log)
    proto = ReorgProtocol(
        db,
        tree_name,
        ReorgConfig(target_fill=0.9),
        abort_hook=lambda txns: [sched.abort_transaction(t) for t in txns],
        **SHARD_DES,
    )
    sched.spawn(
        full_reorganization(proto), name="reorg-baseline", is_reorganizer=True
    )
    sched.run()
    if sched.failed:
        txn, error = sched.failed[0]
        raise RuntimeError(f"baseline reorganizer failed: {error!r}") from error
    return sched.now


def run_reorg_20k_sharded(n_records: int = 20_000, n_shards: int = 4) -> dict:
    """Sharded-forest parallel reorganization vs the single-tree baseline.

    Three DES runs over the same sparse fixture (bulk load fill 1.0/0.6,
    70% deleted, seed 7), all with identical simulated costs:

    1. unsharded ``Database`` + single ``ReorgProtocol`` — the baseline
       makespan;
    2. 1-shard ``ShardedDatabase`` — must be *byte-identical* to the
       baseline (leaf layout digest and makespan both equal);
    3. ``n_shards``-shard forest with :class:`ParallelReorganizer` — the
       headline: makespan must drop >= 2x at 4 shards while the merged
       ``range_scan`` stays identical to the baseline's.

    The wall clock covers all three runs; the interesting numbers are the
    simulated-clock makespans in ``checks``, which are deterministic.
    """
    cfg = dict(
        leaf_capacity=16,
        internal_capacity=8,
        leaf_extent_pages=4096,
        internal_extent_pages=1024,
        buffer_pool_pages=512,
        side_pointers=SidePointerKind.ONE_WAY,
    )
    t0 = time.perf_counter()

    # 1. Single-tree DES baseline.
    db = Database(TreeConfig(**cfg))
    records, doomed = _sparse_records(n_records)
    tree = db.bulk_load_tree(records, leaf_fill=1.0, internal_fill=0.6)
    for key in doomed:
        tree.delete(key)
    db.flush()
    db.checkpoint()
    base_makespan = _des_reorg_single_tree(db)
    base_tree = db.tree()
    base_tree.validate()
    base_scan = base_tree.range_scan(0, n_records)
    base_digest = _scan_digest(base_scan)
    base_layout = _leaf_layout_digest(db.store, base_tree)

    # 2. One shard: the degenerate forest must reproduce the baseline
    #    bit for bit — same leaf layout, same simulated makespan.
    sdb1 = _sharded_sparse_db(n_records, 1, TreeConfig(**cfg))
    makespan_1 = ParallelReorganizer(
        sdb1, ReorgConfig(target_fill=0.9), **SHARD_DES
    ).run()
    sdb1.validate()
    scan1_digest = _scan_digest(sdb1.range_scan(0, n_records))
    layout_1 = _leaf_layout_digest(
        sdb1.handle(0).store, sdb1.handle(0).tree()
    )

    # 3. The parallel forest.
    sdbn = _sharded_sparse_db(n_records, n_shards, TreeConfig(**cfg))
    makespan_n = ParallelReorganizer(
        sdbn, ReorgConfig(target_fill=0.9), **SHARD_DES
    ).run()
    sdbn.validate()
    scan_n = sdbn.range_scan(0, n_records)
    scan_n_digest = _scan_digest(scan_n)
    wall = time.perf_counter() - t0

    speedup = base_makespan / makespan_n
    if scan1_digest != base_digest or scan_n_digest != base_digest:
        raise AssertionError(
            "sharded range_scan diverged from the single-tree baseline"
        )
    if layout_1 != base_layout:
        raise AssertionError(
            "1-shard leaf layout is not byte-identical to unsharded"
        )
    if makespan_1 != base_makespan:
        raise AssertionError(
            f"1-shard makespan {makespan_1} != baseline {base_makespan}"
        )
    if n_shards >= 4 and speedup < 2.0:
        raise AssertionError(
            f"parallel reorg speedup {speedup:.2f}x < 2x at {n_shards} shards"
        )
    return {
        "wall_s": wall,
        "checks": {
            "record_count": len(base_scan),
            "sharded_record_count": len(scan_n),
            "scan_digest": base_digest,
            "sharded_scan_digest": scan_n_digest,
            "one_shard_layout_identical": layout_1 == base_layout,
            "makespan_baseline": round(base_makespan, 6),
            "makespan_1shard": round(makespan_1, 6),
            f"makespan_{n_shards}shard": round(makespan_n, 6),
            "reorg_speedup": round(speedup, 2),
            "shard_units": sum(
                h.stats.reorg_units for h in sdbn.handles
            ),
        },
    }


def run_range_scan_e6_batched(n_records: int = 20_000) -> dict:
    return run_range_scan_e6(n_records, batched=True)


def run_placement_policies(
    n_records: int = 20_000, n_lookups: int = 400
) -> dict:
    """Placement-policy comparison: key_order vs veb vs none (ISSUE 9).

    The reorg_20k sparse fixture is reorganized three times, once per
    :class:`~repro.config.PlacementPolicyKind`, and each resulting tree is
    measured on two axes: ``measure_descent`` (cold point lookups billed
    through the shared disk head — the axis vEB placement targets) and
    ``measure_range_scan`` (the axis key-order placement targets).

    Hard expectations, raised on violation rather than reported:

    * range-scan digests are byte-identical across all three policies (the
      record set is invariant under placement);
    * veb and key_order produce *identical leaf layouts* (a vEB order
      restricted to one level is key order) and hence identical scan cost;
    * veb strictly reduces the cold-descent read cost vs key_order — its
      parent-to-first-child hops are sequential, key_order's never are;
    * the veb upper levels land in one contiguous window.
    """
    from repro.btree.stats import measure_descent, measure_range_scan
    from repro.config import PlacementPolicyKind
    from repro.storage.page import PageKind

    records, doomed = _sparse_records(n_records)
    alive = sorted(set(range(n_records)) - set(doomed))
    probe_keys = random.Random(17).sample(alive, min(n_lookups, len(alive)))

    t0 = time.perf_counter()
    per_policy: dict[str, dict] = {}
    for kind in PlacementPolicyKind:
        db = Database(
            TreeConfig(
                leaf_capacity=16,
                internal_capacity=8,
                leaf_extent_pages=4096,
                internal_extent_pages=1024,
                buffer_pool_pages=512,
                side_pointers=SidePointerKind.ONE_WAY,
                placement_policy=kind,
            )
        )
        tree = db.bulk_load_tree(records, leaf_fill=1.0, internal_fill=0.6)
        for key in doomed:
            tree.delete(key)
        db.flush()
        db.checkpoint()
        report = Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run()
        final = db.tree()
        final.validate()
        db.flush()
        descent = measure_descent(final, probe_keys)
        scan = measure_range_scan(final, 0, n_records)
        internal_ids = []
        stack = [final.root_id]
        while stack:
            page = db.store.get(stack.pop())
            if page.kind is PageKind.INTERNAL:
                internal_ids.append(page.page_id)
                stack.extend(page.children())
        per_policy[kind.value] = {
            "scan_digest": _scan_digest(final.range_scan(0, n_records)),
            "leaf_layout": _leaf_layout_digest(db.store, final),
            "descent_cost": round(descent.read_cost, 1),
            "descent_sequential": descent.sequential_reads,
            "scan_cost": round(scan.read_cost, 1),
            "pass2_ops": report.pass2.operations if report.pass2 else 0,
            "internal_pages": len(internal_ids),
            "internal_span": max(internal_ids) - min(internal_ids) + 1
            if internal_ids
            else 0,
        }
    wall = time.perf_counter() - t0

    key_order, veb, none = (
        per_policy["key_order"],
        per_policy["veb"],
        per_policy["none"],
    )
    digests = {p["scan_digest"] for p in per_policy.values()}
    if len(digests) != 1:
        raise AssertionError(
            f"range-scan digests diverged across placement policies: "
            f"{ {k: p['scan_digest'] for k, p in per_policy.items()} }"
        )
    if veb["leaf_layout"] != key_order["leaf_layout"]:
        raise AssertionError(
            "veb leaf layout differs from key_order — vEB restricted to "
            "the leaf level must be key order"
        )
    if none["pass2_ops"] != 0:
        raise AssertionError("the `none` policy must skip pass 2 entirely")
    if veb["descent_cost"] >= key_order["descent_cost"]:
        raise AssertionError(
            f"veb cold-descent cost {veb['descent_cost']} is not below "
            f"key_order's {key_order['descent_cost']}"
        )
    if veb["internal_span"] != veb["internal_pages"]:
        raise AssertionError(
            f"veb upper levels are not one contiguous window: "
            f"{veb['internal_pages']} pages span {veb['internal_span']}"
        )
    return {
        "wall_s": wall,
        "checks": {
            "record_count": len(alive),
            "lookups": len(probe_keys),
            "scan_digest": key_order["scan_digest"],
            "descent_reduction": round(
                key_order["descent_cost"] / veb["descent_cost"], 3
            ),
            **{
                f"{policy}_{metric}": value
                for policy, numbers in per_policy.items()
                for metric, value in numbers.items()
                if metric != "scan_digest"
            },
        },
    }


def run_churn_daemon(
    n_records: int = 4_000,
    n_ops: int = 3_000,
    churn_records: int = 20_000,
    churn_inserts: int = 5_000,
    gap_fraction: float = 0.25,
    split_ratio_floor: float = 2.0,
    off_floor: float = 1.5,
    on_limit: float = 1.10,
) -> dict:
    """Gapped leaves + auto-reorg daemon under sustained churn.

    Two cells, both seeded-deterministic:

    1. **Gapped vs gapless bulk load + insert churn** (synchronous):
       the same records bulk loaded with ``leaf_gap_fraction`` 0 and
       ``gap_fraction``, then the same odd-key insert stream applied to
       each.  The gapped layout must absorb inserts in-place and cut the
       leaf split count by at least ``split_ratio_floor``; both trees
       must scan to the same digest.  Per-cell wall clocks go in the
       informational section (the one non-deterministic entry there) —
       the gapped cell's win shows up as wall time too, but wall is
       never asserted.

    2. **Daemon-off vs daemon-on DES churn**: ``n_ops`` interleaved
       insert/delete updater transactions against a bulk-loaded tree
       (:mod:`repro.sim.churn`).  Without the daemon, splits scatter
       leaves and the cold range-scan cost degrades by at least
       ``off_floor``; with the :class:`repro.reorg.daemon.ReorgDaemon`
       polling the live fragmentation metrics and running the paper's
       three-pass reorg concurrently with the churn, the same stream
       must hold degradation within ``on_limit``.  Both cells must end
       with identical records (digest-checked).
    """
    assert PERF is not None, "churn_daemon needs the perf registry"
    t0 = time.perf_counter()

    # -- cell 1: gapped vs gapless bulk load + insert churn ------------------
    rng = random.Random(4242)
    insert_keys = rng.sample(range(1, 2 * churn_records, 2), churn_inserts)
    payload = "p" * 16
    cells: dict[str, dict] = {}
    for label, gap in (("gapless", 0.0), ("gapped", gap_fraction)):
        db = Database(TreeConfig(leaf_gap_fraction=gap))
        tree = db.bulk_load_tree(
            [Record(2 * k, payload) for k in range(churn_records)],
            leaf_fill=1.0,
        )
        splits0 = PERF.gap.leaf_splits
        absorbed0 = PERF.gap.absorbed_inserts
        # Time only the churn: the gapped layout pays its slack at build
        # time (more pages bulk loaded) and earns it back on every insert
        # that would otherwise split.
        cell_t0 = time.perf_counter()
        for key in insert_keys:
            tree.insert(Record(key, payload))
        cell_wall = time.perf_counter() - cell_t0
        cells[label] = {
            "splits": PERF.gap.leaf_splits - splits0,
            "absorbed": PERF.gap.absorbed_inserts - absorbed0,
            "records": len(tree.range_scan(0, 2 * churn_records)),
            "digest": scan_digest(tree.items()),
            "wall_s": cell_wall,
        }
    gapless, gapped = cells["gapless"], cells["gapped"]
    if gapless["digest"] != gapped["digest"]:
        raise AssertionError(
            "gapped layout changed tree contents: "
            f"{gapless['digest']} != {gapped['digest']}"
        )
    split_reduction = gapless["splits"] / max(1, gapped["splits"])
    if split_reduction < split_ratio_floor:
        raise AssertionError(
            f"gapped leaves cut splits only {split_reduction:.2f}x "
            f"({gapless['splits']} -> {gapped['splits']}), "
            f"need >= {split_ratio_floor}x"
        )

    # -- cell 2: daemon-off vs daemon-on DES churn ---------------------------
    setup = ChurnSetup(
        tree_config=TreeConfig(
            leaf_capacity=16,
            buffer_pool_pages=256,
            leaf_gap_fraction=gap_fraction,
        ),
        daemon_config=DaemonConfig(
            poll_interval=20.0,
            frag_high=0.30,
            frag_low=0.15,
            cooldown=30.0,
            split_trigger=1,
        ),
        n_records=n_records,
        n_ops=n_ops,
    )
    des_walls: dict[str, float] = {}
    cell_t0 = time.perf_counter()
    off = run_churn_experiment(setup, daemon=False)
    des_walls["daemon_off_wall_s"] = time.perf_counter() - cell_t0
    cell_t0 = time.perf_counter()
    on = run_churn_experiment(setup, daemon=True)
    des_walls["daemon_on_wall_s"] = time.perf_counter() - cell_t0

    if off.final_digest != on.final_digest:
        raise AssertionError(
            "auto-reorg daemon changed tree contents under churn: "
            f"{off.final_digest} != {on.final_digest}"
        )
    if off.degradation < off_floor:
        raise AssertionError(
            f"daemon-off churn degraded scans only {off.degradation:.3f}x, "
            f"need >= {off_floor}x for the cell to mean anything"
        )
    if on.degradation > on_limit:
        raise AssertionError(
            f"daemon-on churn degraded scans {on.degradation:.3f}x, "
            f"must stay within {on_limit}x"
        )
    if on.reorgs < 1:
        raise AssertionError("the daemon never triggered a reorganization")
    wall = time.perf_counter() - t0

    assert on.daemon is not None
    return {
        "wall_s": wall,
        "checks": {
            "churn_records": gapless["records"],
            "gapless_splits": gapless["splits"],
            "gapped_splits": gapped["splits"],
            "gapped_absorbed": gapped["absorbed"],
            "split_reduction": round(split_reduction, 2),
            "churn_digest": gapless["digest"],
            "des_records": on.final_records,
            "des_digest": on.final_digest,
            "off_scan_cost": round(off.final_cost, 1),
            "off_degradation": round(off.degradation, 3),
            "on_scan_cost": round(on.final_cost, 1),
            "on_degradation": round(on.degradation, 3),
            "off_leaf_splits": off.leaf_splits,
            "on_absorbed": on.absorbed_inserts,
            "daemon_polls": on.daemon.polls,
            "daemon_reorgs": on.reorgs,
            "daemon_deferred_cooldown": on.daemon.deferred_cooldown,
        },
        # Wall clocks are the one informational entry here that is not
        # deterministic; they carry the gapped / daemon wall-time story.
        "io": {
            "gapless_churn_wall_s": round(gapless["wall_s"], 4),
            "gapped_churn_wall_s": round(gapped["wall_s"], 4),
            **{k: round(v, 4) for k, v in des_walls.items()},
        },
    }


WORKLOADS = {
    "bulk_insert": run_bulk_insert,
    "mixed_e2": run_mixed_e2,
    "mixed_e2_optimistic": run_mixed_e2_optimistic,
    "read_mostly_e6": run_read_mostly_e6,
    "reorg_20k": run_reorg_20k,
    "reorg_20k_batched": run_reorg_20k_batched,
    "range_scan_e6": run_range_scan_e6,
    "range_scan_e6_batched": run_range_scan_e6_batched,
    "reorg_20k_sharded": run_reorg_20k_sharded,
    "placement_policies": run_placement_policies,
    "churn_daemon": run_churn_daemon,
}

#: Per-workload overrides for ``--profile``; "full" is the empty default.
PROFILE_PARAMS: dict[str, dict[str, dict]] = {
    "full": {},
    "small": {
        "bulk_insert": {"n_records": 2_000},
        "mixed_e2": {"n_transactions": 60},
        "mixed_e2_optimistic": {"n_transactions": 60},
        "read_mostly_e6": {"n_records": 800, "n_reads": 600, "n_scans": 4},
        "reorg_20k": {"n_records": 2_000},
        "reorg_20k_batched": {"n_records": 2_000},
        "range_scan_e6": {"n_records": 2_000},
        "range_scan_e6_batched": {"n_records": 2_000},
        "reorg_20k_sharded": {"n_records": 2_000},
        "placement_policies": {"n_records": 2_000, "n_lookups": 120},
        "churn_daemon": {
            "n_records": 1_500,
            "n_ops": 1_200,
            "churn_records": 2_000,
            "churn_inserts": 500,
            "off_floor": 1.2,
            "on_limit": 1.25,
        },
    },
}


# -- suite runner ------------------------------------------------------------


def run_suite(
    names: list[str] | None = None, *, repeats: int = 3, profile: str = "full"
) -> dict:
    """Run each workload ``repeats`` times; report the fastest wall clock.

    Checks must agree across repeats (they are seeded-deterministic); a
    mismatch raises immediately rather than producing a silently-wrong
    BENCH file.
    """
    results: dict[str, dict] = {}
    overrides = PROFILE_PARAMS[profile]
    for name in names or list(WORKLOADS):
        fn = WORKLOADS[name]
        best: dict | None = None
        walls: list[float] = []
        for _ in range(max(1, repeats)):
            if PERF is not None:
                PERF.reset()
            out = fn(**overrides.get(name, {}))
            if PERF is not None:
                out["counters"] = PERF.counters.snapshot()
            walls.append(out["wall_s"])
            if best is not None and best["checks"] != out["checks"]:
                raise AssertionError(
                    f"workload {name!r} is not deterministic: "
                    f"{best['checks']} != {out['checks']}"
                )
            if best is None or out["wall_s"] < best["wall_s"]:
                best = out
        best["wall_s"] = min(walls)
        best["wall_all_s"] = [round(w, 4) for w in walls]
        results[name] = best
    return results


def next_bench_path(root: Path = REPO_ROOT) -> Path:
    """First unused BENCH_<n>.json slot at the repository root."""
    n = 1
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    return root / f"BENCH_{n}.json"


def build_report(
    results: dict, *, label: str = "current", baseline: dict | None = None
) -> dict:
    """Assemble the BENCH file body, folding in a baseline if given."""
    report: dict = {"label": label, "workloads": {}}
    for name, result in results.items():
        entry = {
            "wall_s": round(result["wall_s"], 4),
            "wall_all_s": result.get("wall_all_s", []),
            "checks": result["checks"],
        }
        if "counters" in result:
            entry["counters"] = result["counters"]
        if "io" in result:
            entry["io"] = result["io"]
        if baseline and name in baseline:
            base_wall = baseline[name]["wall_s"]
            entry["baseline_wall_s"] = round(base_wall, 4)
            entry["speedup"] = round(base_wall / result["wall_s"], 2)
            base_checks = baseline[name].get("checks")
            if base_checks is not None and base_checks != result["checks"]:
                raise AssertionError(
                    f"workload {name!r} checks drifted from baseline: "
                    f"{base_checks} != {result['checks']}"
                )
        report["workloads"][name] = entry
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="*", choices=sorted(WORKLOADS), default=None
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILE_PARAMS),
        default="full",
        help="workload size profile (small = CI smoke scale)",
    )
    parser.add_argument(
        "--write", action="store_true", help="write BENCH_<n>.json at repo root"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="explicit output path"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="JSON of earlier run_suite results to merge as the baseline",
    )
    parser.add_argument("--label", default="current")
    args = parser.parse_args(argv)

    results = run_suite(args.workloads, repeats=args.repeats, profile=args.profile)
    baseline = None
    if args.baseline is not None:
        loaded = json.loads(args.baseline.read_text())
        baseline = loaded.get("workloads", loaded)
    report = build_report(results, label=args.label, baseline=baseline)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.write or args.out:
        path = args.out or next_bench_path()
        path.write_text(text + "\n")
        print(f"\nwrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
