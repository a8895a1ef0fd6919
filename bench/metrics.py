"""Names, units, directions and bounds of every metric the benchmark prints.

``BENCHMARK.json`` carries the subset of these fields its schema allows
(name / unit / better, plus bound for the end-to-end metrics);
``test_bench_contract.py`` keeps the two in step.  The extra columns here —
clock, which workloads a metric is real on, which layer a counter belongs
to, where it comes from and which end-to-end metric it should move — feed
the printed tables and ``--compare``; ``README.md`` says what each metric
measures.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS: dict[str, dict[str, str]] = {
    "point_fit": {
        "loop": "closed, 1 client",
        "why": "cache-resident 60/20/20 search/insert/delete: btree.tree, "
        "storage.page and wal.log.append do the work; locks, DES, reorg and "
        "disk reads do none",
    },
    "scan_spill": {
        "loop": "closed, 1 client",
        "why": "read-only scans and lookups over a working set 11x the "
        "buffer pool: the storage.buffer miss/evict path and the "
        "storage.disk cost model dominate; no WAL, no locks",
    },
    "reorg_offline": {
        "loop": "closed, 1 client",
        "why": "the paper's Figure 1 alone, three passes on a sparse tree: "
        "reorg.compact/swap/shrink/switch/unit and buffer write-back work; "
        "user tree ops and the DES do none",
    },
    "reorg_online": {
        "loop": "open on the simulated clock, Poisson arrivals",
        "why": "the paper's headline: user searches, scans and deletes arrive "
        "while the reorganizer runs on the Scheduler; txn.scheduler, "
        "locks.manager and both protocol modules dominate",
    },
    "shard_churn": {
        "loop": "open on the simulated clock, Poisson arrivals",
        "why": "service mode: 4-shard forest under read/insert/delete churn "
        "with the default ReorgDaemon; adds shard.router, reorg.daemon and "
        "several reorganizers sharing one lock manager and WAL",
    },
    "crash_recover": {
        "loop": "closed, 1 client",
        "why": "crash at 6 points of a reorganization, recover and "
        "forward-recover: the only workload on wal.recovery / wal.apply, "
        "and the end-to-end durability check",
    },
}

ALL = tuple(WORKLOADS)
DES = ("reorg_online", "shard_churn")

#: Printed in the cells where a metric does not apply.  The benchmark
#: contract wants every end-to-end metric from every run and none of them
#: 0, so a cell such as ``sim_txn_p99`` on ``point_fit`` reads 1.0 and can
#: neither regress nor improve.
NOT_APPLICABLE = 1.0


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: "W" = host wall clock (median of the timed repeats), "D" =
    #: deterministic (simulated clock / cost model; bit-identical for one
    #: seed).
    clock: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    workloads: tuple[str, ...]


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", "W", 0.25, ALL),
    EndToEnd("ops_per_s", "ops/s", "higher", "W", 0.25, ALL),
    EndToEnd("peak_rss_mb", "MiB", "lower", "W", 0.10, ALL),
    EndToEnd("sim_io_cost_per_op", "cost/op", "lower", "D", 0.15, ALL),
    # Not on the read-only scan_spill, nor on crash_recover, where recovery
    # appends a fraction of a byte per redo record.
    EndToEnd("log_bytes_per_op", "B/op", "lower", "D", 0.05,
             ("point_fit", "reorg_offline", "reorg_online", "shard_churn")),
    EndToEnd("sim_txn_p50", "sim-time", "lower", "D", 0.05, DES),
    EndToEnd("sim_txn_p99", "sim-time", "lower", "D", 0.15, DES),
    EndToEnd("sim_reorg_span", "sim-time", "lower", "D", 0.05, ("reorg_online",)),
    EndToEnd("scan_cost_ratio", "x", "lower", "D", 0.25, ALL),
    EndToEnd("space_amp", "x", "lower", "D", 0.10, ALL),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: "stats" = delta of a public stats object over the untraced phase
    #: (exact), "traced" = the traced run, "timer" = wall timer in the
    #: untraced run, "both" = needs both runs.
    source: str
    #: The end-to-end metric, and workload, a change to this layer should move.
    moves: str


def _layer(layer: str, source: str, moves: str, *rows: tuple[str, str, str]) -> list[PerLayer]:
    return [PerLayer(name, unit, better, layer, source, moves) for name, unit, better in rows]


_LOWER, _HIGHER = "lower", "higher"

PER_LAYER: tuple[PerLayer, ...] = tuple(
    _layer("btree.tree", "traced",
           "ops_per_s on point_fit, scan_spill",
           ("btree.calls", "count", _LOWER), ("btree.self_s", "s", _LOWER))
    + _layer("btree.tree", "timer",
             "ops_per_s on point_fit, scan_spill (per-call clock in a "
             "dedicated latency repeat)",
             *[(f"btree.{op}_{p}_us", "us", _LOWER)
               for p in ("p50", "p99") for op in ("search", "insert", "delete", "scan")])
    + _layer("btree.tree", "stats", "ops_per_s on point_fit, scan_spill",
             ("btree.fetches_per_lookup", "ratio", _LOWER),
             ("btree.leaf_splits", "count", _LOWER),
             ("btree.absorbed_inserts", "count", _HIGHER))
    + _layer("btree.tree", "traced",
             "ops_per_s on reorg_offline, shard_churn (leaf_ids_in_key_order)",
             ("btree.leaf_walk_calls", "count", _LOWER),
             ("btree.leaf_walk_self_s", "s", _LOWER))
    + _layer("btree.protocols", "both", "ops_per_s on reorg_online, shard_churn",
             ("protocols.steps_per_txn", "ratio", _LOWER),
             ("protocols.self_s", "s", _LOWER))
    + _layer("storage.page", "traced",
             "ops_per_s on point_fit (no move predicted on reorg_online)",
             ("page.calls", "count", _LOWER), ("page.self_s", "s", _LOWER),
             ("page.clone_calls", "count", _LOWER))
    + _layer("storage.buffer", "stats",
             "hit path: ops_per_s on point_fit; miss path: ops_per_s + "
             "sim_io_cost_per_op on scan_spill; write-back: "
             "sim_io_cost_per_op on reorg_offline",
             ("buffer.fetches", "count", _LOWER),
             ("buffer.fetches_per_op", "ratio", _LOWER),
             ("buffer.hit_rate", "ratio", _HIGHER),
             ("buffer.mru_hit_rate", "ratio", _HIGHER),
             ("buffer.misses", "count", _LOWER),
             ("buffer.dirty_writebacks", "count", _LOWER),
             ("buffer.wal_flush_skips", "count", _HIGHER))
    + _layer("storage.buffer", "traced", "ops_per_s on point_fit, scan_spill",
             ("buffer.self_s", "s", _LOWER))
    + _layer("storage.disk", "stats",
             "sim_io_cost_per_op everywhere; scan_cost_ratio after reorg",
             ("disk.reads", "count", _LOWER), ("disk.writes", "count", _LOWER),
             ("disk.seeks", "count", _LOWER),
             ("disk.sequential_reads", "count", _HIGHER),
             ("disk.sequential_writes", "count", _HIGHER),
             ("disk.read_cost", "cost", _LOWER), ("disk.write_cost", "cost", _LOWER),
             ("disk.batch_reads", "count", _HIGHER))
    + _layer("storage.disk", "traced", "ops_per_s on scan_spill",
             ("disk.self_s", "s", _LOWER))
    + _layer("storage.allocator", "traced",
             "space_amp; ops_per_s on reorg_offline (Find-Free-Space)",
             ("alloc.calls", "count", _LOWER),
             ("alloc.pages_allocated", "count", _LOWER),
             ("alloc.self_s", "s", _LOWER))
    + _layer("locks.manager", "stats",
             "sim_txn_p99 + ops_per_s on reorg_online, shard_churn; zero "
             "calls predicted on the four synchronous workloads",
             ("locks.requests", "count", _LOWER),
             ("locks.fast_path_rate", "ratio", _HIGHER),
             ("locks.waits", "count", _LOWER),
             ("locks.rx_rejections", "count", _LOWER),
             ("locks.deadlocks", "count", _LOWER),
             ("locks.conversions", "count", _LOWER),
             ("locks.blocked_frac", "ratio", _LOWER),
             ("locks.sim_wait_p99", "sim-time", _LOWER))
    + _layer("locks.manager", "traced", "ops_per_s on reorg_online, shard_churn",
             ("locks.self_s", "s", _LOWER))
    + _layer("wal.log", "stats",
             "log_bytes_per_op on point_fit, reorg_offline; ops_per_s on point_fit",
             ("wal.records", "count", _LOWER), ("wal.bytes", "B", _LOWER),
             ("wal.reorg_bytes", "B", _LOWER), ("wal.move_bytes", "B", _LOWER),
             ("wal.swap_bytes", "B", _LOWER), ("wal.flushes", "count", _LOWER),
             ("wal.absorbed_flushes", "count", _HIGHER))
    + _layer("wal.log", "traced", "ops_per_s on point_fit",
             ("wal.self_s", "s", _LOWER))
    + _layer("wal.recovery", "stats", "ops_per_s, failures on crash_recover only",
             ("recovery.redo_scanned", "count", _LOWER),
             ("recovery.redo_applied", "count", _LOWER),
             ("recovery.apply_ratio", "ratio", _LOWER),
             ("recovery.pending_units", "count", _LOWER))
    + _layer("wal.recovery", "timer", "ops_per_s on crash_recover only",
             ("recovery.recover_s", "s", _LOWER), ("recovery.forward_s", "s", _LOWER),
             ("recovery.crash_points", "count", _HIGHER))
    + _layer("txn.scheduler", "stats",
             "ops_per_s on reorg_online, shard_churn; must leave every sim_* "
             "metric identical",
             ("sched.events", "count", _LOWER), ("sched.steps", "count", _LOWER),
             ("sched.steps_per_s", "1/s", _HIGHER), ("sched.run_s", "s", _LOWER),
             ("sched.aborts", "count", _LOWER))
    + _layer("txn.scheduler", "traced", "ops_per_s on reorg_online, shard_churn",
             ("sched.self_s", "s", _LOWER))
    + _layer("reorg.compact", "stats",
             "ops_per_s, log_bytes_per_op, space_amp on reorg_offline",
             ("pass1.units", "count", _LOWER), ("pass1.in_place_units", "count", _LOWER),
             ("pass1.new_place_units", "count", _LOWER),
             ("pass1.records_moved", "count", _LOWER),
             ("pass1.leaves_before", "count", _LOWER),
             ("pass1.leaves_after", "count", _LOWER),
             ("pass1.wall_s", "s", _LOWER), ("pass1.io_cost", "cost", _LOWER),
             ("pass1.log_bytes", "B", _LOWER))
    + _layer("reorg.swap", "stats",
             "scan_cost_ratio, sim_io_cost_per_op on reorg_offline",
             ("pass2.swaps", "count", _LOWER), ("pass2.moves", "count", _LOWER),
             ("pass2.already_placed", "count", _HIGHER),
             ("pass2.wall_s", "s", _LOWER), ("pass2.io_cost", "cost", _LOWER),
             ("pass2.log_bytes", "B", _LOWER))
    + _layer("reorg.shrink", "stats",
             "space_amp on reorg_offline; sim_reorg_span, sim_txn_p99 on "
             "reorg_online (side file, switch drain)",
             ("pass3.base_pages_read", "count", _LOWER),
             ("pass3.new_internal_pages", "count", _LOWER),
             ("pass3.stable_points", "count", _LOWER),
             ("pass3.sidefile_appended", "count", _LOWER),
             ("pass3.sidefile_applied", "count", _LOWER),
             ("pass3.catchup_rounds", "count", _LOWER),
             ("pass3.wall_s", "s", _LOWER), ("pass3.io_cost", "cost", _LOWER),
             ("pass3.log_bytes", "B", _LOWER))
    + _layer("reorg.switch", "both", "sim_reorg_span on reorg_online",
             ("switch.wall_s", "s", _LOWER),
             ("switch.old_internal_freed", "count", _HIGHER))
    + _layer("reorg.unit", "traced",
             "ops_per_s on reorg_offline, crash_recover (finish_unit)",
             ("unit.calls", "count", _LOWER), ("unit.us_per_unit", "us", _LOWER),
             ("unit.self_s", "s", _LOWER))
    + _layer("reorg.placement", "traced", "ops_per_s on reorg_offline",
             ("placement.self_s", "s", _LOWER))
    + _layer("reorg.daemon", "stats",
             "scan_cost_ratio, sim_txn_p99 on shard_churn only",
             ("daemon.polls", "count", _LOWER), ("daemon.triggers", "count", _LOWER),
             ("daemon.hysteresis_holds", "count", _LOWER),
             ("daemon.deferred", "count", _LOWER))
    + _layer("reorg.daemon", "traced", "ops_per_s on shard_churn only",
             ("daemon.self_s", "s", _LOWER))
    + _layer("shard", "both", "ops_per_s on shard_churn only",
             ("shard.router_calls", "count", _LOWER),
             ("shard.reorg_units", "count", _LOWER),
             ("shard.max_over_mean_units", "ratio", _LOWER),
             ("shard.self_s", "s", _LOWER))
    + _layer("btree.stats", "stats", "explain scan_cost_ratio, space_amp",
             ("frag.fill_factor_end", "ratio", _HIGHER),
             ("frag.leaf_count_end", "count", _LOWER),
             ("frag.disk_order_fraction_end", "ratio", _HIGHER))
    + _layer("bench", "both",
             "none: they bound how far the traced shares and a wall delta "
             "can be trusted",
             ("trace.overhead_ratio", "ratio", _LOWER),
             ("bench.repeat_iqr_frac", "ratio", _LOWER))
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
