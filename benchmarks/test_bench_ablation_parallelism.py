"""Ablation — parallel compaction (the paper's future work, section 9).

"Future work includes ... exploration of parallelism in reorganization."

K workers compact disjoint contiguous base-page partitions concurrently.
The sweep measures the speedup of pass 1 (with per-unit record-movement
time) and the price paid in pass-2 placement work: each worker keeps its
own L, so new-place outputs interleave across partitions and more leaves
need moving afterwards — the parallelism-vs-placement trade-off.
"""

import pytest

from repro.config import ReorgConfig
from repro.reorg.parallel import build_parallel_pass1
from repro.reorg.reorganizer import Reorganizer
from repro.sim.workload import build_sparse_tree
from repro.txn.scheduler import Scheduler

from conftest import banner, make_db

WORKERS = [1, 2, 4, 8]
N_RECORDS = 3000


def sparse_db():
    db = make_db(leaf_capacity=8, buffer_pool_pages=256)
    build_sparse_tree(db, n_records=N_RECORDS, fill_after=0.3)
    db.flush()
    db.checkpoint()
    return db


def run_with_workers(n_workers):
    db = sparse_db()
    sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
    protocols = build_parallel_pass1(
        db, "primary", ReorgConfig(), n_workers,
        unit_pause=0.01, op_duration=0.2,
    )
    for i, protocol in enumerate(protocols):
        sched.spawn(protocol.pass1(), name=f"w{i}", is_reorganizer=True)
    sched.run()
    assert sched.failed == []
    units = sum(result["units"] for _, result in sched.completed)
    pass2 = Reorganizer(db, db.tree(), ReorgConfig()).run_pass2()
    db.tree().validate()
    return sched.now, units, pass2


def test_ablation_parallel_workers(benchmark):
    banner("Ablation — parallel pass 1 (section 9 future work)")
    print(
        f"{'workers':>8} {'pass1 time':>11} {'speedup':>8} {'units':>6} "
        f"{'pass2 swaps':>12} {'pass2 moves':>12}"
    )
    rows = {}
    for n in WORKERS:
        elapsed, units, pass2 = run_with_workers(n)
        rows[n] = (elapsed, units, pass2)
        base = rows[WORKERS[0]][0]
        print(
            f"{n:>8} {elapsed:>11.1f} {base / elapsed:>7.1f}x {units:>6} "
            f"{pass2.swaps:>12} {pass2.moves:>12}"
        )
    # Speedup is real and grows with workers ...
    assert rows[4][0] < rows[1][0] * 0.6
    assert rows[8][0] <= rows[4][0] * 1.05
    # ... the same compaction work gets done ...
    assert abs(rows[4][1] - rows[1][1]) <= max(4, rows[1][1] // 10)
    # ... and correctness is never traded (validate() ran inside).
    benchmark.pedantic(lambda: run_with_workers(2), rounds=1, iterations=1)
