"""Feature headlines: what each extension buys, as a ratio with a floor.

The other files here reproduce the paper's artifacts.  These cells
measure the mechanisms built on top of it — the sharded forest, gapped
leaves with the auto-reorg daemon — each
against the same cell with the mechanism off, on the simulated clock and
the cost model only, so every number is deterministic.  The floors are the
ones each headline was first stated with.  Readahead's headline is a cell
of test_bench_e6_range_scan.py.
"""

import random

from repro.config import (
    DaemonConfig,
    ReorgConfig,
    ShardConfig,
    SidePointerKind,
)
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.shard import ParallelReorganizer, ShardedDatabase
from repro.sim.churn import ChurnSetup, run_churn_experiment
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
