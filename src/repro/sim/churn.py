"""Sustained insert/delete churn under an optional auto-reorg daemon.

The experiment behind the gapped-leaf and daemon headline
(``benchmarks/test_bench_features.py``): a bulk-loaded
tree takes a long stream of interleaved inserts (new keys between
existing ones — every one a potential split) and deletes (thinning the
leaves), as DES updater transactions under the section 4.1.3 protocol.
Splits scatter newly allocated leaves far from their key-order
neighbours, so the cold range-scan cost model
(:func:`repro.btree.stats.measure_range_scan`) degrades as churn
accumulates.  With a :class:`repro.reorg.daemon.ReorgDaemon` watching the
live fragmentation metrics, the paper's three-pass reorganization runs
*concurrently with the churn* whenever fragmentation crosses the
threshold, repacking and re-sequencing the leaves — the scan cost stays
roughly flat where the daemon-off run keeps degrading.

Everything is seeded and discrete-event-driven, so both cells are exactly
reproducible.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.btree.stats import measure_range_scan
from repro.config import DaemonConfig, ReorgConfig, TreeConfig
from repro.db import Database
from repro.btree.protocols import updater_delete, updater_insert
from repro.reorg.daemon import DaemonStats, ReorgDaemon
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler


@dataclass(frozen=True)
class ChurnSetup:
    """Shape of one churn cell (daemon on and off share one setup).

    The tree is bulk loaded with ``n_records`` even keys at full fill;
    churn then issues ``n_ops`` updater transactions, each op an insert
    of an unused *odd* key (always between two existing keys, so full
    leaves split) or a delete of a random live key, one arrival every
    ``mean_interarrival`` of simulated time.
    """

    tree_config: TreeConfig = field(default_factory=TreeConfig)
    reorg_config: ReorgConfig = field(default_factory=ReorgConfig)
    daemon_config: DaemonConfig = field(default_factory=DaemonConfig)
    n_records: int = 3000
    n_ops: int = 3000
    insert_fraction: float = 0.5
    mean_interarrival: float = 1.0
    io_time: float = 0.2
    hit_time: float = 0.01
    payload_width: int = 16
    seed: int = 11
    unit_pause: float = 0.0
    scan_pause: float = 0.0
    op_duration: float = 0.0

    @property
    def horizon(self) -> float:
        """Daemon poll horizon: a hair past the last churn arrival."""
        return (self.n_ops + 2) * self.mean_interarrival


@dataclass
class ChurnResult:
    """One churn cell's outcome."""

    initial_cost: float
    final_cost: float
    final_records: int
    final_fill: float
    leaf_splits: int
    absorbed_inserts: int
    daemon: DaemonStats | None
    history: list[tuple[float, str, str]]
    reorgs: int
    #: md5 over the final tree's (key, value) stream — the daemon must
    #: never change *what* the tree holds, only where it lives on disk,
    #: so the on and off cells of one setup produce equal digests.
    final_digest: str = ""

    @property
    def degradation(self) -> float:
        """Final / initial cold range-scan read cost."""
        return self.final_cost / self.initial_cost if self.initial_cost else 1.0


def plan_churn(setup: ChurnSetup) -> list[tuple[float, str, int]]:
    """Deterministic (arrival, op, key) schedule for one churn cell.

    The plan tracks the live key set as it goes, so every delete names a
    key that is present when ops apply in arrival order, and every insert
    names an odd key never used before.
    """
    rng = random.Random(setup.seed)
    alive = [2 * k for k in range(setup.n_records)]
    unused_odd = [2 * k + 1 for k in range(setup.n_records)]
    rng.shuffle(unused_odd)
    plan: list[tuple[float, str, int]] = []
    for i in range(setup.n_ops):
        arrival = (i + 1) * setup.mean_interarrival
        if unused_odd and (
            not alive or rng.random() < setup.insert_fraction
        ):
            key = unused_odd.pop()
            alive.append(key)
            plan.append((arrival, "insert", key))
        else:
            idx = rng.randrange(len(alive))
            alive[idx], alive[-1] = alive[-1], alive[idx]
            plan.append((arrival, "delete", alive.pop()))
    return plan


def scan_digest(records) -> str:
    """Order-sensitive digest of an iterable of records."""
    h = hashlib.md5()
    for record in records:
        h.update(f"{record.key}:{record.payload};".encode())
    return h.hexdigest()


def run_churn_experiment(
    setup: ChurnSetup, *, daemon: bool
) -> ChurnResult:
    """Run one churn cell; ``daemon`` switches the auto-reorg process on."""
    db = Database(setup.tree_config)
    payload = "x" * setup.payload_width
    tree = db.bulk_load_tree(
        [Record(2 * k, payload) for k in range(setup.n_records)],
        leaf_fill=1.0,
    )
    db.flush()
    span = 2 * setup.n_records
    initial_cost = measure_range_scan(tree, 0, span).read_cost

    frag = db.frag_stats()
    frag.sync_from_tree(tree)
    scheduler = Scheduler(
        db.locks,
        store=db.store,
        log=db.log,
        io_time=setup.io_time,
        hit_time=setup.hit_time,
    )
    for i, (arrival, op, key) in enumerate(plan_churn(setup)):
        if op == "insert":
            gen = updater_insert(db, "primary", Record(key, payload))
        else:
            gen = updater_delete(db, "primary", key)
        scheduler.spawn(gen, name=f"churn-{i}", at=arrival)

    reorg_daemon: ReorgDaemon | None = None
    if daemon:
        reorg_daemon = ReorgDaemon.for_database(
            db,
            setup.daemon_config,
            setup.reorg_config,
            unit_pause=setup.unit_pause,
            scan_pause=setup.scan_pause,
            op_duration=setup.op_duration,
        )
        reorg_daemon.spawn(scheduler, horizon=setup.horizon)

    scheduler.run()
    if scheduler.failed:
        txn, error = scheduler.failed[0]
        raise RuntimeError(f"churn transaction {txn.name} failed: {error!r}")

    db.flush()
    tree = db.tree()
    final_cost = measure_range_scan(tree, 0, span).read_cost
    frag.sync_from_tree(tree)
    return ChurnResult(
        initial_cost=initial_cost,
        final_cost=final_cost,
        final_records=frag.records,
        final_fill=frag.fill_factor,
        leaf_splits=frag.leaf_splits,
        absorbed_inserts=frag.absorbed_inserts,
        daemon=reorg_daemon.stats if reorg_daemon is not None else None,
        history=reorg_daemon.history if reorg_daemon is not None else [],
        reorgs=frag.reorgs_triggered,
        final_digest=scan_digest(tree.items()),
    )
