"""Runs one workload inside this process: fixture, timed repeats, oracle.

Load shape, identical for every workload: one process, one thread, no
connections; ``gc.collect()`` before each timed phase and default GC
otherwise.  A run is one discarded warm-up repeat followed by a fixed
number of timed repeats — :data:`MIN_REPEATS` at the default ``--seconds``,
more in proportion when asked for longer — each doing the same planned
amount of work, so a run's numbers never depend on how fast the host
happened to be.  Each repeat ends, outside the timed window, with the
sorted-dict oracle comparison and ``validate()``.

Host-wall metrics are medians over the timed repeats.  Deterministic
metrics come from the first :data:`MIN_REPEATS` timed repeats only, so
they do not depend on ``--seconds``; on the workloads whose repeats are
replicas (every one but ``point_fit``, which keeps going on one
steady-state tree) they are also required to be bit-identical from repeat
to repeat.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.btree.protocols import (
    reader_range_scan,
    reader_search,
    updater_delete,
    updater_insert,
)
from repro.btree.stats import collect_stats, measure_range_scan
from repro.config import ReorgConfig, ShardConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint
from repro.perf import PERF
from repro.reorg.daemon import ReorgDaemon
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.shard import ShardedDatabase
from repro.sim.churn import scan_digest
from repro.sim.crash import LogCrashInjector
from repro.storage.page import Record
from repro.storage.store import INTERNAL_EXTENT, LEAF_EXTENT
from repro.txn.scheduler import Scheduler

from bench import workloads as wl
from bench.metrics import DES, END_TO_END, NOT_APPLICABLE, PER_LAYER
from bench.trace import UNIT_COMPLETIONS, Tracer

MIN_REPEATS = 5
#: Timed chunks per repeat where the benchmark owns the op loop.
CHUNKS = 10
#: Fixture builds timed for ``setup_s`` where the fixture is built once
#: (after one discarded warm-up build).
SETUP_BUILDS = 3
#: Timed crash -> recover cycles at each crash point of ``crash_recover``.
RECOVERY_CYCLES = 6
#: Simulated-clock costs of the DES workloads (``ExperimentSetup`` defaults).
IO_TIME, HIT_TIME = 0.2, 0.01
UNIT_PAUSE, SCAN_PAUSE, OP_DURATION = 0.05, 0.02, 0.3

_KEY_MIN, _KEY_MAX = -(1 << 62), 1 << 62


# -- shared helpers ------------------------------------------------------------


def tree_config(sizes: dict) -> TreeConfig:
    kwargs = {
        name: sizes[name]
        for name in (
            "leaf_capacity", "internal_capacity", "leaf_extent_pages",
            "internal_extent_pages", "buffer_pool_pages",
        )
    }
    if "side_pointers" in sizes:
        kwargs["side_pointers"] = SidePointerKind(sizes["side_pointers"])
    return TreeConfig(**kwargs)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (as ``repro.sim.metrics`` computes p95)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def minimal_pages(records: int, leaf_capacity: int, internal_capacity: int) -> int:
    """Fewest leaf + internal pages that can hold ``records``."""
    width = max(1, math.ceil(records / leaf_capacity))
    total = width
    while width > 1:
        width = math.ceil(width / internal_capacity)
        total += width
    return total


def snapshot(db) -> dict[str, float]:
    """Every public counter of a Database / ShardedDatabase, flat."""
    snap: dict[str, float] = {}
    for prefix, values in (
        ("io", db.store.disk.stats.snapshot()),
        ("log", db.log.stats.snapshot()),
        ("lock", dataclasses.asdict(db.locks.stats)),
        ("perf", PERF.counters.snapshot()),
        ("gap", PERF.gap.snapshot()),
    ):
        for name, value in values.items():
            snap[f"{prefix}.{name}"] = value
    return snap


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {name: after[name] - before[name] for name in after}


def add_into(total: dict[str, float], part: dict[str, float]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value


def io_cost(counters: dict[str, float]) -> float:
    return counters["io.read_cost"] + counters["io.write_cost"]


def items_of(trees) -> list[tuple[int, str]]:
    return [(r.key, r.payload) for tree in trees for r in tree.items()]


def check_contents(trees, oracle: dict[int, str], failures: list[str]) -> None:
    """The final tree(s) must hold exactly the oracle and be well-formed."""
    if items_of(trees) != sorted(oracle.items()):
        failures.append("final tree contents differ from the oracle")
    for tree in trees:
        try:
            tree.validate()
        except Exception as error:  # any validate() complaint is a failure
            failures.append(f"validate(): {error!r}")


def final_state(db, trees, config: TreeConfig, n_records: int) -> tuple[dict, dict]:
    """(deterministic end-to-end, per-layer frag.*) metrics of flushed trees."""
    read_cost = sum(
        measure_range_scan(tree, _KEY_MIN, _KEY_MAX).read_cost for tree in trees
    )
    ideal_leaves = max(1, math.ceil(n_records / config.leaf_capacity))
    free_map = db.store.free_map
    allocated = free_map.allocated_count(LEAF_EXTENT) + free_map.allocated_count(
        INTERNAL_EXTENT
    )
    stats = [collect_stats(tree) for tree in trees]
    leaves = sum(s.leaf_count for s in stats)
    pairs = sum(max(0, s.leaf_count - 1) for s in stats)
    det = {
        "scan_cost_ratio": read_cost / (config.seek_cost + ideal_leaves - 1),
        "space_amp": allocated
        / minimal_pages(n_records, config.leaf_capacity, config.internal_capacity),
    }
    frag = {
        "frag.fill_factor_end": sum(s.leaf_fill * s.leaf_count for s in stats) / leaves,
        "frag.leaf_count_end": leaves,
        "frag.disk_order_fraction_end": (
            sum(s.disk_order_fraction * max(0, s.leaf_count - 1) for s in stats) / pairs
            if pairs else 1.0
        ),
    }
    return det, frag


@dataclass
class Repeat:
    """What one repeat measured."""

    wall_s: float
    ops: int
    #: Stats deltas over the measured phase (exact, deterministic).
    counters: dict[str, float]
    #: ops/s samples of this repeat: one per timed chunk where the benchmark
    #: owns a loop of like ops (a slow spell of the host then spoils a few
    #: samples, not the repeat), else the single ``ops / wall_s``.
    rates: list[float] = field(default_factory=list)
    #: Deterministic end-to-end values not derived from ``counters``.
    det: dict[str, float] = field(default_factory=dict)
    #: Deterministic per-layer values (pass stats, txn stats, frag.*).
    layer: dict[str, float] = field(default_factory=dict)
    #: Wall sub-timers of the untraced phase (pass walls, recovery, ...).
    timers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


class Workload:
    """Base: a fixture builder plus one measured, verified repeat."""

    name = ""
    #: True when the phase consumes its fixture, so every repeat builds one.
    fresh_fixture = True
    #: True when every repeat does identical work (deterministic metrics
    #: must then be bit-identical across repeats).
    replicas = True

    def __init__(self, sizes: dict, seed: int, tracer: Tracer | None = None):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        self.config = tree_config(sizes)

    def build(self) -> None:
        raise NotImplementedError

    def run(self) -> Repeat:
        raise NotImplementedError

    def timed(self, db, work, *, flush: bool = True, collect: bool = True):
        """Run ``work()`` and then ``db.flush()`` as one timed phase.

        Returns (wall seconds, stats deltas over the phase with the disk
        writes that preceded the flush under ``writes_before_flush``, what
        ``work`` returned).
        """
        disk_stats = db.store.disk.stats
        marks: list[int] = []

        def phase():
            out = work()
            marks.append(disk_stats.writes)
            if flush:
                db.flush()
            return out

        if self.tracer is not None:
            phase = self.tracer.root(phase)
        if collect:
            gc.collect()
        before = snapshot(db)
        started = time.perf_counter()
        out = phase()
        wall = time.perf_counter() - started
        counters = delta(snapshot(db), before)
        counters["writes_before_flush"] = marks[0] - before["io.writes"]
        return wall, counters, out

    def latency(self) -> dict[str, list[int]]:
        """Per-call clock samples by op kind, where the workload makes
        tree calls itself (``point_fit``, ``scan_spill``)."""
        return {}

    def check(self, trees, oracle: dict[int, str], failures: list[str]) -> None:
        """Oracle + validate(); remembers its inputs for the self-check."""
        self.last_trees, self.last_oracle = trees, oracle
        check_contents(trees, oracle, failures)

    def oracle_self_check(self) -> bool:
        """True when the oracle comparison trips on an oracle with one key
        removed (the program under test is not touched)."""
        broken = dict(self.last_oracle)
        del broken[next(iter(broken))]
        failures: list[str] = []
        check_contents(self.last_trees, broken, failures)
        return bool(failures)

    def traced_gen(self, gen, layer: str, name: str):
        if self.tracer is None:
            return gen
        return self.tracer.wrap_generator(gen, layer, name)


# -- 1. point_fit ----------------------------------------------------------------


class PointFit(Workload):
    name = "point_fit"
    fresh_fixture = False
    replicas = False  # repeats continue on one steady-state tree

    def build(self) -> None:
        s = self.sizes
        live, absent = wl.even_keys(s["n_records"])
        self.key_space = 2 * s["n_records"]
        self.pool = wl.KeyPool(live, absent)
        self.rng = random.Random(self.seed)
        self.db = Database(self.config)
        self.tree = self.db.bulk_load_tree(
            [Record(k, p) for k, p in live.items()], leaf_fill=s["leaf_fill"]
        )
        self.db.flush()
        self.serial = 0
        self._plan()

    def _plan(self) -> None:
        ops, self.expected = wl.plan_point_ops(
            self.rng, self.pool, self.key_space, self.sizes["ops"], self.serial
        )
        self.serial += len(ops)
        self.ops = [
            (kind, Record(*arg) if kind == wl.INSERT else arg) for kind, arg in ops
        ]

    def run(self) -> Repeat:
        if self.ops is None:
            self._plan()
        db, tree, ops = self.db, self.tree, self.ops
        found: list = []

        rates: list[float] = []
        chunk = max(1, len(ops) // CHUNKS)

        def work() -> None:
            search, insert, delete = tree.search, tree.insert, tree.delete
            keep = found.append
            for start in range(0, len(ops), chunk):
                t0 = time.perf_counter()
                for kind, arg in ops[start:start + chunk]:
                    if kind == wl.SEARCH:
                        keep(search(arg))
                    elif kind == wl.INSERT:
                        insert(arg)
                    else:
                        delete(arg)
                rates.append(min(chunk, len(ops) - start) / (time.perf_counter() - t0))

        wall, counters, _ = self.timed(db, work)
        rep = Repeat(wall, len(ops), counters, rates, attempted=len(ops))
        wrong = sum(
            1
            for record, want in zip(found, self.expected)
            if (record.payload if record is not None else None) != want
        )
        if wrong:
            rep.failures.append(f"{wrong} searches disagree with the oracle")
        self.check([tree], self.pool.oracle, rep.failures)
        rep.det, rep.layer = final_state(db, [tree], self.config, len(self.pool.oracle))
        self.ops = None
        return rep

    def latency(self) -> dict[str, list[int]]:
        """One dedicated repeat with a clock read around every call."""
        self._plan()
        tree, now = self.tree, time.perf_counter_ns
        calls = {wl.SEARCH: tree.search, wl.INSERT: tree.insert, wl.DELETE: tree.delete}
        samples: dict[str, list[int]] = {kind: [] for kind in calls}
        gc.collect()
        for kind, arg in self.ops:
            call = calls[kind]
            t0 = now()
            call(arg)
            samples[kind].append(now() - t0)
        self.db.flush()
        self.ops = None
        return samples


# -- 2. scan_spill -----------------------------------------------------------------


class ScanSpill(Workload):
    name = "scan_spill"
    fresh_fixture = False

    def build(self) -> None:
        s = self.sizes
        rng = random.Random(self.seed)
        n = s["n_records"]
        self.oracle = {key: wl.payload_for(key) for key in range(n)}
        order = list(range(n))
        rng.shuffle(order)
        self.db = Database(self.config)
        self.tree = tree = self.db.create_tree()
        for key in order:
            tree.insert(Record(key, self.oracle[key]))
        self.db.flush()
        self.ops = wl.plan_scan_groups(
            rng, n, s["groups"], s["scan_width"], s["lookups_per_scan"]
        )

    def run(self) -> Repeat:
        db, tree, ops = self.db, self.tree, self.ops
        width = self.sizes["scan_width"]
        found: list = []

        rates: list[float] = []
        group = 1 + self.sizes["lookups_per_scan"]
        chunk = group * max(1, self.sizes["groups"] // CHUNKS)  # whole groups

        def work() -> None:
            search, scan = tree.search, tree.range_scan
            keep = found.append
            for start in range(0, len(ops), chunk):
                t0 = time.perf_counter()
                for kind, key in ops[start:start + chunk]:
                    if kind == wl.SEARCH:
                        keep(search(key))
                    else:
                        keep(scan(key, key + width - 1))
                rates.append(min(chunk, len(ops) - start) / (time.perf_counter() - t0))

        wall, counters, _ = self.timed(db, work)
        rep = Repeat(wall, len(ops), counters, rates, attempted=len(ops))
        wrong = 0
        for (kind, key), got in zip(ops, found):
            if kind == wl.SEARCH:
                wrong += got is None or got.payload != self.oracle[key]
            else:
                wrong += [r.key for r in got] != list(range(key, key + width))
        if wrong:
            rep.failures.append(f"{wrong} reads disagree with the oracle")
        self.check([tree], self.oracle, rep.failures)
        rep.det, rep.layer = final_state(db, [tree], self.config, len(self.oracle))
        return rep

    def latency(self) -> dict[str, list[int]]:
        tree, now = self.tree, time.perf_counter_ns
        width = self.sizes["scan_width"]
        samples: dict[str, list[int]] = {wl.SEARCH: [], wl.SCAN: []}
        gc.collect()
        for kind, key in self.ops:
            t0 = now()
            if kind == wl.SEARCH:
                tree.search(key)
            else:
                tree.range_scan(key, key + width - 1)
            samples[kind].append(now() - t0)
        return samples


# -- sparse fixture shared by the reorganizing workloads ------------------------------


def build_sparse(config: TreeConfig, records: dict[int, str], victims: list[int]):
    """Bulk load full, delete the victims, flush + checkpoint."""
    db = Database(config)
    tree = db.bulk_load_tree([Record(k, p) for k, p in records.items()])
    for key in victims:
        tree.delete(key)
    db.flush()
    db.checkpoint()
    return db, tree


# -- 3. reorg_offline ---------------------------------------------------------------


class ReorgOffline(Workload):
    name = "reorg_offline"

    def build(self) -> None:
        s = self.sizes
        records, victims = wl.plan_sparse(
            random.Random(self.seed), s["n_records"], s["fill_after"]
        )
        self.db, self.tree = build_sparse(self.config, records, victims)
        for key in victims:
            del records[key]
        self.oracle = records

    def run(self) -> Repeat:
        db = self.db
        reorg = Reorganizer(db, self.tree, ReorgConfig())
        marks: list[tuple[float, dict]] = []

        def mark() -> None:
            marks.append((time.perf_counter(), snapshot(db)))

        def work():
            mark()
            pass1 = reorg.run_pass1()
            mark()
            pass2 = reorg.run_pass2()
            mark()
            pass3, switch = reorg.run_pass3()
            mark()
            return pass1, pass2, pass3, switch

        wall, counters, (pass1, pass2, pass3, switch) = self.timed(db, work)
        rep = Repeat(wall, len(self.oracle), counters, attempted=len(self.oracle))
        for number, ((t0, s0), (t1, s1)) in enumerate(zip(marks, marks[1:]), start=1):
            spent = delta(s1, s0)
            rep.timers[f"pass{number}.wall_s"] = t1 - t0
            rep.layer[f"pass{number}.io_cost"] = io_cost(spent)
            rep.layer[f"pass{number}.log_bytes"] = spent["log.bytes_appended"]
        for prefix, stats, names in (
            ("pass1", pass1, ("units", "in_place_units", "new_place_units",
                              "records_moved", "leaves_before", "leaves_after")),
            ("pass2", pass2, ("swaps", "moves", "already_placed")),
            ("pass3", pass3, ("base_pages_read", "new_internal_pages",
                              "stable_points", "sidefile_appended",
                              "sidefile_applied", "catchup_rounds")),
            ("switch", switch, ("old_internal_freed",)),
        ):
            for name in names:
                rep.layer[f"{prefix}.{name}"] = getattr(stats, name)
        final = db.tree()
        self.check([final], self.oracle, rep.failures)
        det, frag = final_state(db, [final], self.config, len(self.oracle))
        rep.det.update(det)
        rep.layer.update(frag)
        return rep


# -- DES workloads: shared verification ---------------------------------------------


def verify_txns(plan: wl.TxnPlan, scheduler: Scheduler, rep: Repeat) -> dict[int, object]:
    """Compare every user transaction's result with the plan-time oracle.

    Returns the user transactions by plan index.  Aborted transactions,
    wrong results and any transaction late enough to leave the plan's
    cooldown window (which would make the strict comparison unsound) all
    count as failures.
    """
    users: dict[int, object] = {}
    results: dict[int, object] = {}
    for txn, result in scheduler.completed:
        if txn.name.isdigit():
            users[int(txn.name)] = txn
            results[int(txn.name)] = result
    aborted = [txn for txn, _ in scheduler.failed]
    if aborted:
        rep.failures.append(
            f"{len(aborted)} transactions aborted, first: "
            f"{aborted[0].name} {scheduler.failed[0][1]!r}"
        )
    wrong = late = 0
    txns = plan.txns
    for planned in txns:
        if planned.index not in results:
            continue
        got = results[planned.index]
        if planned.kind == wl.SEARCH:
            wrong += (got.payload if got is not None else None) != planned.expected
        elif planned.kind == wl.SCAN:
            unsure = wl.ambiguous_keys(plan, planned)
            seen = {r.key for r in got} - unsure
            wrong += seen != set(planned.expected) - unsure
        else:
            wrong += got is not True
        horizon = planned.index + plan.cooldown
        if horizon < len(txns):
            late += users[planned.index].metrics.end_time >= txns[horizon].arrival
    if wrong:
        rep.failures.append(f"{wrong} transaction results disagree with the oracle")
    if late:
        rep.failures.append(f"{late} transactions outlived the plan's cooldown window")
    return users


def sim_txn_metrics(users: dict[int, object], rep: Repeat) -> None:
    metrics = [txn.metrics for txn in users.values()]
    latencies = [m.elapsed for m in metrics]
    rep.det["sim_txn_p50"] = percentile(latencies, 0.50)
    rep.det["sim_txn_p99"] = percentile(latencies, 0.99)
    blocked = sum(1 for m in metrics if m.blocks or m.rx_backoffs)
    rep.layer["locks.blocked_frac"] = blocked / len(metrics) if metrics else 0.0
    rep.layer["locks.sim_wait_p99"] = percentile([m.wait_time for m in metrics], 0.99)


def user_txn(db, tree_name: str, txn: wl.Txn, think: float):
    if txn.kind == wl.SEARCH:
        return reader_search(db, tree_name, txn.key, think=think)
    if txn.kind == wl.SCAN:
        return reader_range_scan(
            db, tree_name, txn.key, txn.high, think_per_page=think / 4
        )
    if txn.kind == wl.INSERT:
        return updater_insert(db, tree_name, Record(txn.key, txn.payload), think=think)
    return updater_delete(db, tree_name, txn.key, think=think)


def reorg_pass_stats(stats: dict, rep: Repeat) -> None:
    """Fold one ``full_reorganization`` result dict into the layer table."""
    for number, keys in (
        ("pass1", ("units",)),
        ("pass2", ("swaps", "moves")),
        ("pass3", ("base_pages_read", "new_internal_pages", "stable_points",
                   "sidefile_appended", "sidefile_applied", "catchup_rounds",
                   "old_internal_freed")),
    ):
        for key in keys:
            # The DES pass 3 reports what the switch freed; the layer table
            # files that under the switch, as the synchronous stats do.
            name = "switch.old_internal_freed" if key == "old_internal_freed" else f"{number}.{key}"
            rep.layer[name] = rep.layer.get(name, 0) + stats.get(number, {}).get(key, 0)


# -- 4. reorg_online -----------------------------------------------------------------


class ReorgOnline(Workload):
    name = "reorg_online"

    def build(self) -> None:
        s = self.sizes
        rng = random.Random(self.seed)
        records, victims = wl.plan_sparse(rng, s["n_records"], s["fill_after"])
        self.db, _ = build_sparse(self.config, records, victims)
        for key in victims:
            del records[key]
        self.plan = wl.plan_txns(
            rng, records, key_space=s["n_records"], n_txns=s["txns"], mix=s["mix"],
            scan_width=s["scan_width"], mean_interarrival=s["mean_interarrival"],
            cooldown=s["cooldown"],
        )

    def run(self) -> Repeat:
        db, plan = self.db, self.plan
        scheduler = Scheduler(
            db.locks, store=db.store, log=db.log, io_time=IO_TIME, hit_time=HIT_TIME
        )
        protocol = ReorgProtocol(
            db, "primary", ReorgConfig(),
            unit_pause=UNIT_PAUSE, scan_pause=SCAN_PAUSE, op_duration=OP_DURATION,
            abort_hook=lambda victims: [
                scheduler.abort_transaction(v, "old-tree drain timeout") for v in victims
            ],
        )
        reorg_txn = scheduler.spawn(
            self.traced_gen(full_reorganization(protocol), "reorg.protocols", "reorganizer"),
            name="reorganizer", is_reorganizer=True,
        )
        think = self.sizes["think"]
        for txn in plan.txns:
            scheduler.spawn(
                self.traced_gen(user_txn(db, "primary", txn, think), "btree.protocols", txn.kind),
                name=str(txn.index), at=txn.arrival,
            )

        def work() -> float:
            started = time.perf_counter()
            scheduler.run()
            return time.perf_counter() - started

        wall, counters, run_s = self.timed(db, work)
        rep = Repeat(wall, len(plan.txns), counters, attempted=len(plan.txns) + 1)
        rep.timers["sched.run_s"] = run_s
        users = verify_txns(plan, scheduler, rep)
        sim_txn_metrics(users, rep)
        rep.ops = len(users)
        rep.det["sim_reorg_span"] = reorg_txn.metrics.elapsed
        rep.layer["sched.aborts"] = len(scheduler.failed)
        for txn, result in scheduler.completed:
            if txn is reorg_txn:
                reorg_pass_stats(result, rep)
        final = db.tree()
        self.check([final], plan.oracle, rep.failures)
        det, frag = final_state(db, [final], self.config, len(plan.oracle))
        rep.det.update(det)
        rep.layer.update(frag)
        return rep


# -- 5. shard_churn ------------------------------------------------------------------


def routed_txn(sdb: ShardedDatabase, txn: wl.Txn, think: float):
    """One user transaction of the forest, routed when it starts: a point
    op to the shard owning its key, a scan shard by shard (what the facade
    does for synchronous calls)."""
    if txn.kind != wl.SCAN:
        handle = sdb.handles[sdb.router.shard_for(txn.key)]
        return (yield from user_txn(handle, handle.tree_name, txn, think))
    out: list[Record] = []
    for index in sdb.router.shards_for_range(txn.key, txn.high):
        handle = sdb.handles[index]
        out.extend(
            (yield from reader_range_scan(handle, handle.tree_name, txn.key, txn.high))
        )
    return out


class ShardChurn(Workload):
    name = "shard_churn"

    def build(self) -> None:
        s = self.sizes
        live, _absent = wl.even_keys(s["n_records"])
        self.sdb = sdb = ShardedDatabase(self.config, ShardConfig(n_shards=s["n_shards"]))
        sdb.bulk_load([Record(k, p) for k, p in live.items()])
        sdb.flush()
        sdb.checkpoint()
        self.plan = wl.plan_txns(
            random.Random(self.seed), live, key_space=2 * s["n_records"],
            n_txns=s["txns"], mix=s["mix"], scan_width=s["scan_width"],
            mean_interarrival=s["mean_interarrival"], cooldown=s["cooldown"],
        )

    def run(self) -> Repeat:
        sdb, plan = self.sdb, self.plan
        scheduler = Scheduler(
            sdb.locks, store=sdb.store, log=sdb.log, io_time=IO_TIME, hit_time=HIT_TIME
        )
        daemon = ReorgDaemon.for_shards(sdb)
        horizon = plan.txns[-1].arrival + 2 * self.sizes["mean_interarrival"]
        scheduler.spawn(
            self.traced_gen(daemon.run(scheduler, horizon=horizon), "reorg.daemon", "daemon"),
            name="reorg-daemon", is_reorganizer=True,
        )
        think = self.sizes["think"]
        for txn in plan.txns:
            scheduler.spawn(
                self.traced_gen(routed_txn(sdb, txn, think), "btree.protocols", txn.kind),
                name=str(txn.index), at=txn.arrival,
            )

        def work() -> float:
            started = time.perf_counter()
            scheduler.run()
            return time.perf_counter() - started

        wall, counters, run_s = self.timed(sdb, work)
        rep = Repeat(wall, len(plan.txns), counters, attempted=len(plan.txns) + 1)
        rep.timers["sched.run_s"] = run_s
        users = verify_txns(plan, scheduler, rep)
        sim_txn_metrics(users, rep)
        rep.ops = len(users)
        rep.layer["sched.aborts"] = len(scheduler.failed)
        stats = daemon.stats
        rep.layer.update({
            "daemon.polls": stats.polls,
            "daemon.triggers": stats.triggers,
            "daemon.hysteresis_holds": stats.hysteresis_holds,
            "daemon.deferred": stats.deferred_manual + stats.deferred_cooldown
            + stats.deferred_optimistic,
        })
        units = []
        for results in daemon.results.values():
            units.append(sum(r.get("pass1", {}).get("units", 0) for r in results))
            for result in results:
                reorg_pass_stats(result, rep)
        rep.layer["shard.reorg_units"] = sum(units)
        mean = sum(units) / len(units)
        rep.layer["shard.max_over_mean_units"] = max(units) / mean if mean else 0.0
        trees = [handle.tree() for handle in sdb.handles]
        self.check(trees, plan.oracle, rep.failures)
        det, frag = final_state(sdb, trees, self.config, len(plan.oracle))
        rep.det.update(det)
        rep.layer.update(frag)
        return rep


# -- 6. crash_recover ----------------------------------------------------------------


class CrashRecover(Workload):
    name = "crash_recover"

    def _fixture(self) -> Database:
        """Bulk load, flush + checkpoint, then delete with no later
        checkpoint: recovery has every delete to redo."""
        db = Database(self.config)
        tree = db.bulk_load_tree([Record(k, p) for k, p in self.records.items()])
        db.flush()
        db.checkpoint()
        for key in self.victims:
            tree.delete(key)
        return db

    def build(self) -> None:
        s = self.sizes
        self.records, self.victims = wl.plan_sparse(
            random.Random(self.seed), s["n_records"], 1.0 - s["delete_fraction"]
        )
        gone = set(self.victims)
        self.oracle = {k: p for k, p in self.records.items() if k not in gone}
        # The uninterrupted reorganization: its per-pass log append counts
        # place the crash points, its final tree is the reference.
        db = self._fixture()
        reorg = Reorganizer(db, db.tree(), ReorgConfig())
        appended = [db.log.stats.records_appended]
        for run_pass in (reorg.run_pass1, reorg.run_pass2, reorg.run_pass3):
            run_pass()
            appended.append(db.log.stats.records_appended)
        self.crash_after = [
            max(1, appended[number - 1] - appended[0]
                + int(fraction * (appended[number] - appended[number - 1])))
            for number, fraction in wl.CRASH_POINTS
        ]
        self.reference = scan_digest(db.tree().items())

    def run(self) -> Repeat:
        counters: dict[str, float] = {}
        rep = Repeat(0.0, 0, counters, attempted=len(self.crash_after))
        recover_s = forward_s = 0.0
        scanned = applied = pending = 0
        #: Sum over the crash points of the fastest crash + recover cycle.
        undisturbed_s = 0.0
        for point, crash_after in enumerate(self.crash_after):
            db = self._fixture()
            crashed = False
            try:
                with LogCrashInjector(db.log, after_records=crash_after, flush_each=True):
                    Reorganizer(db, db.tree(), ReorgConfig()).run()
            except CrashPoint:
                crashed = True
            if not crashed:
                rep.failures.append(f"crash point {point} was never reached")
                continue

            def recover(db=db):
                db.crash()
                return db.recover()

            # No flush inside the phases: recovery's own writes are the cost.
            # A crash right after recovery loses what recovery did in memory,
            # so every cycle redoes the same log from the same disk image.
            seen = None
            walls: list[float] = []
            for cycle in range(RECOVERY_CYCLES):
                # One collection per crash point, as before any timed phase;
                # a full one before every cycle would cost more than the cycle.
                wall, spent, report = self.timed(
                    db, recover, flush=False, collect=cycle == 0
                )
                walls.append(wall)
                add_into(counters, spent)
                scanned += report.redo_scanned
                applied += report.redo_applied
                outcome = (report.redo_scanned, report.redo_applied,
                           [unit.unit_id for unit in report.pending_units])
                if seen is not None and outcome != seen:
                    rep.failures.append(
                        f"crash point {point}: recovery {cycle + 1} differs from the first"
                    )
                seen = outcome
            recover_s += sum(walls)
            undisturbed_s += min(walls)
            pending += len(report.pending_units)

            def forward(db=db, report=report):
                reorg = Reorganizer(db, db.tree(), ReorgConfig())
                return reorg, reorg.forward_recover(report)

            wall, spent, (reorg, forwarded) = self.timed(db, forward, flush=False)
            forward_s += wall
            add_into(counters, spent)
            if forwarded.switch is None:
                reorg.run()  # crash hit pass 1/2: finish from LK onwards
            db.flush()
            final = db.tree()
            self.check([final], self.oracle, rep.failures)
            if scan_digest(final.items()) != self.reference:
                rep.failures.append(
                    f"crash point {point}: final tree differs from the "
                    "uninterrupted reorganization"
                )
        rep.wall_s = recover_s + forward_s
        rep.ops = scanned
        # The cycles of a crash point do identical work, so the fastest is
        # the one the host disturbed least: the repeat's rate is one sweep of
        # the crash points at that speed (forward recovery cannot be redone).
        if undisturbed_s:
            rep.rates = [scanned / RECOVERY_CYCLES / (undisturbed_s + forward_s)]
        rep.timers.update({"recovery.recover_s": recover_s, "recovery.forward_s": forward_s})
        rep.layer.update({
            "recovery.redo_scanned": scanned,
            "recovery.redo_applied": applied,
            "recovery.apply_ratio": applied / scanned if scanned else 0.0,
            "recovery.pending_units": pending,
            "recovery.crash_points": len(self.crash_after),
        })
        if not rep.failures:
            det, frag = final_state(db, [final], self.config, len(self.oracle))
            rep.det.update(det)
            rep.layer.update(frag)
        return rep


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PointFit, ScanSpill, ReorgOffline, ReorgOnline, ShardChurn, CrashRecover)
}


# -- the measured run ------------------------------------------------------------------


@dataclass
class Measured:
    repeats: list[Repeat]  # warm-up first
    setups: list[float]    # one per build, the warm-up build first
    failures: list[str]
    attempted: int


def measure(workload: Workload, timed_repeats: int) -> Measured:
    """Warm-up + ``timed_repeats`` repeats; stops at the first failing one."""
    setups: list[float] = []
    repeats: list[Repeat] = []

    def build() -> None:
        started = time.perf_counter()
        workload.build()
        setups.append(time.perf_counter() - started)

    if not workload.fresh_fixture:
        for _ in range(1 + SETUP_BUILDS):  # the first build is the warm-up
            build()
    failures: list[str] = []
    while len(repeats) <= timed_repeats:
        try:
            if workload.fresh_fixture:
                build()
            rep = workload.run()
        except Exception as error:  # a library exception is a failure, not a crash
            failures.append(f"repeat {len(repeats)}: exception {error!r}")
            break
        repeats.append(rep)
        if rep.failures:
            failures.extend(f"repeat {len(repeats) - 1}: {text}" for text in rep.failures)
            break
    timed = repeats[1:]
    if workload.replicas and timed and not failures:
        first = timed[0]
        for number, rep in enumerate(timed[1:], start=2):
            if (rep.det, rep.counters, rep.layer) != (first.det, first.counters, first.layer):
                failures.append(
                    f"deterministic metrics of timed repeat {number} differ from repeat 1"
                )
                break
    attempted = sum(rep.attempted for rep in repeats) or 1
    return Measured(repeats, setups, failures, attempted)


def end_to_end(workload: Workload, run: Measured) -> dict[str, dict]:
    """Every end-to-end metric of one measured run, with its samples."""
    timed = run.repeats[1:]
    window = timed[:MIN_REPEATS]
    rate = [r for rep in timed for r in (rep.rates or [rep.ops / rep.wall_s])]
    setups = run.setups[1:]
    ops = sum(rep.ops for rep in window)
    values: dict[str, float] = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rate),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_io_cost_per_op": sum(io_cost(rep.counters) for rep in window) / ops,
        "log_bytes_per_op": sum(rep.counters["log.bytes_appended"] for rep in window) / ops,
        **window[-1].det,
    }
    samples = {
        "setup_s": setups,
        "ops_per_s": rate,
    }
    out: dict[str, dict] = {}
    for metric in END_TO_END:
        applies = workload.name in metric.workloads
        value = values[metric.name] if applies else NOT_APPLICABLE
        entry = {"value": value, "unit": metric.unit, "clock": metric.clock,
                 "better": metric.better, "bound": metric.bound, "applies": applies}
        if metric.name in samples:
            entry["samples"] = samples[metric.name]
            entry["iqr"] = iqr(samples[metric.name])
        out[metric.name] = entry
    out["setup_s"]["warmup"] = run.setups[0]
    out["ops_per_s"]["warmup"] = run.repeats[0].ops / run.repeats[0].wall_s
    out["ops_per_s"]["per_repeat"] = [rep.ops / rep.wall_s for rep in timed]
    return out


def per_layer(
    workload: Workload,
    run: Measured,
    latency: dict[str, list[int]],
    tracer: Tracer,
    traced: Repeat,
) -> dict[str, float]:
    """Every per-layer metric: exact counters from the untraced run's last
    window repeat, ``*_s`` / ``.calls`` of un-countered layers from the
    traced repeat."""
    timed = run.repeats[1:]
    rates = [r for each in timed for r in (each.rates or [each.ops / each.wall_s])]
    rep = timed[:MIN_REPEATS][-1]
    c = rep.counters
    table = tracer.layer_table()
    values: dict[str, float] = {metric.name: 0.0 for metric in PER_LAYER}
    values.update(rep.layer)
    values.update(rep.timers)

    def self_s(layer: str) -> float:
        return table.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> float:
        return table.get(layer, {}).get("calls", 0)

    fetches = c["perf.buffer_hits"] + c["perf.buffer_misses"]
    grants = c["perf.lock_fast_grants"] + c["perf.lock_slow_grants"] + c["perf.lock_waits"]
    tree_ops = ("search", "insert", "delete", "range_scan")
    btree_calls, btree_self, _ = tracer.method_totals("btree.tree", tree_ops)
    walk_calls, walk_self, _ = tracer.method_totals("btree.tree", ("leaf_ids_in_key_order",))
    clone_calls = tracer.method_totals("storage.page", ("clone",))[0]
    alloc_calls = tracer.method_totals("storage.allocator", ("allocate", "allocate_in_lease"))[0]
    unit_calls = tracer.method_totals("reorg.unit", UNIT_COMPLETIONS)[0]
    switch_wall = tracer.method_totals("reorg.switch", ("run", "finish_pending_switch"))[2]
    for op, kind in (("search", wl.SEARCH), ("insert", wl.INSERT),
                     ("delete", wl.DELETE), ("scan", wl.SCAN)):
        ns = latency.get(kind, [])
        values[f"btree.{op}_p50_us"] = percentile(ns, 0.50) / 1e3
        values[f"btree.{op}_p99_us"] = percentile(ns, 0.99) / 1e3
    values.update({
        "btree.calls": btree_calls,
        "btree.self_s": btree_self,
        "btree.leaf_walk_calls": walk_calls,
        "btree.leaf_walk_self_s": walk_self,
        "btree.fetches_per_lookup": fetches / btree_calls if btree_calls else 0.0,
        "btree.leaf_splits": c["gap.leaf_splits"],
        "btree.absorbed_inserts": c["gap.absorbed_inserts"],
        "protocols.steps_per_txn": c["perf.des_steps"] / rep.ops if workload.name in DES else 0.0,
        "protocols.self_s": self_s("btree.protocols") + self_s("reorg.protocols"),
        "page.calls": calls("storage.page"),
        "page.self_s": self_s("storage.page"),
        "page.clone_calls": clone_calls,
        "buffer.fetches": fetches,
        "buffer.fetches_per_op": fetches / rep.ops,
        "buffer.hit_rate": c["perf.buffer_hits"] / fetches if fetches else 0.0,
        "buffer.mru_hit_rate": c["perf.buffer_mru_hits"] / fetches if fetches else 0.0,
        "buffer.misses": c["perf.buffer_misses"],
        "buffer.dirty_writebacks": c["writes_before_flush"],
        "buffer.wal_flush_skips": c["perf.wal_flush_skips"],
        "buffer.self_s": self_s("storage.buffer"),
        "disk.reads": c["io.reads"],
        "disk.writes": c["io.writes"],
        "disk.seeks": c["io.seeks"],
        "disk.sequential_reads": c["io.sequential_reads"],
        "disk.sequential_writes": c["io.sequential_writes"],
        "disk.read_cost": c["io.read_cost"],
        "disk.write_cost": c["io.write_cost"],
        "disk.batch_reads": c["io.batch_reads"],
        "disk.self_s": self_s("storage.disk"),
        "alloc.calls": calls("storage.allocator"),
        "alloc.pages_allocated": alloc_calls,
        "alloc.self_s": self_s("storage.allocator"),
        "locks.requests": c["lock.requests"],
        "locks.fast_path_rate": c["perf.lock_fast_grants"] / grants if grants else 0.0,
        "locks.waits": c["lock.waits"],
        "locks.rx_rejections": c["lock.rx_rejections"],
        "locks.deadlocks": c["lock.deadlocks"],
        "locks.conversions": c["lock.conversions"],
        "locks.self_s": self_s("locks.manager"),
        "wal.records": c["log.records_appended"],
        "wal.bytes": c["log.bytes_appended"],
        "wal.reorg_bytes": c["log.reorg_bytes"],
        "wal.move_bytes": c["log.move_bytes"],
        "wal.swap_bytes": c["log.swap_bytes"],
        "wal.flushes": c["log.flushes"],
        "wal.absorbed_flushes": c["log.absorbed_flushes"],
        "wal.self_s": self_s("wal.log"),
        "sched.events": c["perf.des_events"],
        "sched.steps": c["perf.des_steps"],
        "sched.self_s": self_s("txn.scheduler"),
        "switch.wall_s": switch_wall,
        "unit.calls": unit_calls,
        "unit.self_s": self_s("reorg.unit"),
        "unit.us_per_unit": self_s("reorg.unit") / unit_calls * 1e6 if unit_calls else 0.0,
        "placement.self_s": self_s("reorg.placement"),
        "daemon.self_s": self_s("reorg.daemon"),
        "shard.router_calls": calls("shard.router"),
        "shard.self_s": self_s("shard.router"),
        "trace.overhead_ratio": traced.wall_s / statistics.median(r.wall_s for r in timed),
        "bench.repeat_iqr_frac": iqr(rates) / statistics.median(rates),
    })
    if values["sched.run_s"]:
        values["sched.steps_per_s"] = c["perf.des_steps"] / values["sched.run_s"]
    return values
