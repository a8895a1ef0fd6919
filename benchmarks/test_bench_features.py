"""Feature headlines: what each extension buys, as a ratio with a floor.

The other files here reproduce the paper's artifacts.  These cells
measure the mechanisms built on top of it — vEB placement, the sharded
forest, optimistic reads, gapped leaves with the auto-reorg daemon — each
against the same cell with the mechanism off, on the simulated clock and
the cost model only, so every number is deterministic.  The floors are the
ones each headline was first stated with.  Readahead's headline is a cell
of test_bench_e6_range_scan.py.
"""

import random

from repro.btree.protocols import reader_range_scan, reader_search
from repro.btree.stats import measure_descent, measure_range_scan
from repro.config import (
    DaemonConfig,
    PlacementPolicyKind,
    ReorgConfig,
    ShardConfig,
    SidePointerKind,
)
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.shard import ParallelReorganizer, ShardedDatabase
from repro.sim.churn import ChurnSetup, run_churn_experiment
from repro.sim.workload import build_sparse_tree
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler

from conftest import banner, degrade_uniform, make_db, tree_config

N_RECORDS = 2_000
REORG = ReorgConfig(target_fill=0.9)
SPARSE = dict(
    leaf_extent_pages=4096,
    internal_extent_pages=1024,
    side_pointers=SidePointerKind.ONE_WAY,
)
#: Nonzero pauses and op durations make a makespan measure reorganization
#: work, so 1 vs 4 shards compares parallelism rather than epsilons.
PACING = dict(unit_pause=0.1, scan_pause=0.1, op_duration=1.0)


def leaf_layout(store, tree):
    return [
        (pid, store.get_leaf(pid).records) for pid in tree.leaf_ids_in_key_order()
    ]


def spawn_reorganizer(sched, db, **pacing):
    protocol = ReorgProtocol(db, "primary", REORG, **pacing)
    sched.spawn(full_reorganization(protocol), name="reorg", is_reorganizer=True)


def sparse_forest(n_shards):
    """degrade_uniform's tree, range-partitioned over ``n_shards``."""
    sdb = ShardedDatabase(tree_config(**SPARSE), ShardConfig(n_shards=n_shards))
    records = [Record(k, "x" * 16) for k in range(N_RECORDS)]
    sdb.bulk_load(records, leaf_fill=1.0, internal_fill=0.6)
    for key in random.Random(7).sample(range(N_RECORDS), int(N_RECORDS * 0.7)):
        sdb.delete(key)
    sdb.flush()
    sdb.checkpoint()
    return sdb


def test_veb_placement_cuts_cold_descent_cost():
    cells = {}
    for kind in PlacementPolicyKind:
        db = make_db(**SPARSE, placement_policy=kind)
        tree = degrade_uniform(db, N_RECORDS, 0.3, internal_fill=0.6)
        probes = random.Random(17).sample([r.key for r in tree.items()], 120)
        report = Reorganizer(db, tree, REORG).run()
        final = db.tree()
        final.validate()
        db.flush()
        cells[kind] = dict(
            descent=measure_descent(final, probes),
            scan=measure_range_scan(final, 0, N_RECORDS),
            records=final.range_scan(0, N_RECORDS),
            layout=leaf_layout(db.store, final),
            pass2_ops=report.pass2.operations if report.pass2 else 0,
        )
    banner("Placement policies — cold-descent and cold-scan read cost")
    for kind, cell in cells.items():
        descent, scan = cell["descent"], cell["scan"]
        print(f"  {kind.value:>9}: {descent.read_cost:6.0f} {scan.read_cost:5.0f}")
    key_order, veb, none = (
        cells[PlacementPolicyKind.KEY_ORDER],
        cells[PlacementPolicyKind.VEB],
        cells[PlacementPolicyKind.NONE],
    )
    # vEB makes parent-to-first-child hops sequential; key order never does.
    assert veb["descent"].read_cost < key_order["descent"].read_cost
    assert veb["descent"].sequential_reads > 0 == key_order["descent"].sequential_reads
    # ... and costs nothing on scans: vEB restricted to the leaves is key order.
    assert veb["layout"] == key_order["layout"]
    assert veb["scan"] == key_order["scan"]
    assert key_order["records"] == veb["records"] == none["records"]
    assert none["pass2_ops"] == 0 < veb["pass2_ops"]
    assert none["scan"].read_cost > key_order["scan"].read_cost


def test_sharding_cuts_reorganization_makespan():
    db = make_db(**SPARSE)
    degrade_uniform(db, N_RECORDS, 0.3, internal_fill=0.6)
    sched = Scheduler(db.locks, store=db.store, log=db.log)
    spawn_reorganizer(sched, db, **PACING)
    sched.run()
    assert sched.failed == []
    forests = {n: sparse_forest(n) for n in (1, 4)}
    makespan = {
        n: ParallelReorganizer(sdb, REORG, **PACING).run()
        for n, sdb in forests.items()
    }
    banner("Sharded forest — simulated reorganization makespan")
    print(f"  one tree {sched.now:.1f}, shards {makespan[1]:.1f} / {makespan[4]:.1f}")
    assert makespan[1] / makespan[4] >= 2.0
    # One shard is the unsharded tree, page for page and tick for tick.
    one = forests[1].handle(0)
    assert leaf_layout(one.store, one.tree()) == leaf_layout(db.store, db.tree())
    assert makespan[1] == sched.now
    records = db.tree().range_scan(0, N_RECORDS)
    for sdb in forests.values():
        sdb.validate()
        assert sdb.range_scan(0, N_RECORDS) == records


def read_mostly_cell(optimistic):
    """Seeded point reads and range scans racing a full three-pass
    reorganization on the DES; (reader results by name, lock requests)."""
    db = make_db(
        leaf_extent_pages=1024, internal_extent_pages=256, optimistic_reads=optimistic
    )
    build_sparse_tree(db, n_records=800, fill_after=0.45, seed=31)
    db.flush()
    db.checkpoint()
    alive = [r.key for r in db.tree().items()]
    sched = Scheduler(
        db.locks, store=db.store, log=db.log, io_time=0.2, hit_time=0.01
    )
    spawn_reorganizer(sched, db, unit_pause=0.05, scan_pause=0.02, op_duration=0.3)
    rng = random.Random(97)
    for i in range(600):
        read = reader_search(db, "primary", rng.choice(alive), think=0.02)
        sched.spawn(read, name=f"read-{i}", at=rng.uniform(0.0, 60.0))
    for i in range(4):
        low, high = alive[i * len(alive) // 4], alive[(i + 1) * len(alive) // 4 - 1]
        scan = reader_range_scan(db, "primary", low, high, think_per_page=0.01)
        sched.spawn(scan, name=f"scan-{i}", at=rng.uniform(0.0, 60.0))
    sched.run()
    assert sched.failed == []
    results = {t.name: r for t, r in sched.completed if not t.is_reorganizer}
    return results, db.locks.stats.requests


def test_optimistic_reads_leave_the_lock_manager():
    locked, locked_requests = read_mostly_cell(optimistic=False)
    optimistic, optimistic_requests = read_mostly_cell(optimistic=True)
    ratio = locked_requests / optimistic_requests
    banner("Read-mostly cell — lock-manager requests")
    print(f"  locked {locked_requests}, optimistic {optimistic_requests}")
    assert optimistic == locked and len(locked) == 604
    assert ratio >= 5.0


def test_gapped_leaves_and_daemon_hold_scan_cost():
    def churn(gap, daemon):
        setup = ChurnSetup(
            tree_config=tree_config(buffer_pool_pages=256, leaf_gap_fraction=gap),
            # Inserts and deletes balance, so fill never reaches frag_high;
            # splits are what scatter the leaves the cold scan pays for.
            daemon_config=DaemonConfig(split_trigger=1),
            n_records=1_500,
            n_ops=1_200,
        )
        return run_churn_experiment(setup, daemon=daemon)

    gapless, gapped, tended = churn(0.0, False), churn(0.25, False), churn(0.25, True)
    banner("Insert/delete churn — leaf splits and cold-scan degradation")
    for label, cell in (("gapless", gapless), ("gapped", gapped), ("daemon", tended)):
        print(f"  {label:>7}: {cell.leaf_splits:4d} {cell.degradation:6.3f}x")
    assert gapless.final_digest == gapped.final_digest == tended.final_digest
    assert gapless.leaf_splits / max(1, gapped.leaf_splits) >= 2.0
    assert gapped.degradation >= 1.5
    assert tended.degradation <= 1.10
