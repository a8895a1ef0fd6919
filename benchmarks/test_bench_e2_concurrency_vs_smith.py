"""E2 — concurrency during reorganization: paper protocol vs. [Smi90].

Paper section 8: "This increased concurrency is the most important
advantage our method has over [Smi90]."  The paper's method RX-locks only
the unit's leaves while moving records and X-locks the base page only for
the short key-posting step; [Smi90] "prevents user transactions from
accessing the entire file" for every block operation.

The experiment runs the same deterministic workload of readers/updaters
(a) with no reorganizer, (b) with the paper's reorganizer, and (c) with the
Smith-style baseline, and reports blocked transactions, waits and latency.
"""

import pytest

from repro.config import ReorgConfig, TreeConfig
from repro.sim.driver import ExperimentSetup, run_concurrent_experiment
from repro.sim.workload import WorkloadConfig

from conftest import banner


def setup(n_transactions=250, zipf=0.0, seed=11):
    return ExperimentSetup(
        tree_config=TreeConfig(
            leaf_capacity=16,
            internal_capacity=8,
            leaf_extent_pages=1024,
            internal_extent_pages=256,
            buffer_pool_pages=512,
        ),
        reorg_config=ReorgConfig(target_fill=0.9),
        workload=WorkloadConfig(
            n_transactions=n_transactions,
            key_space=3000,
            mean_interarrival=0.25,
            zipf_theta=zipf,
            seed=seed,
        ),
        n_records=3000,
        fill_after=0.3,
        op_duration=0.3,
    )


def run_cell(mode, **kwargs):
    db, metrics = run_concurrent_experiment(setup(**kwargs), reorganizer=mode)
    db.tree().validate()
    return metrics


def test_e2_blocked_transactions(benchmark):
    banner("E2 — user impact of on-line reorganization (section 8 vs [Smi90])")
    rows = {}
    print(
        f"{'reorganizer':<10} {'blocked':>8} {'rx-backoff':>11} "
        f"{'mean wait':>10} {'p95 wait':>9} {'mean lat':>9} {'reorg time':>11}"
    )
    for mode in ("none", "paper", "smith90"):
        m = run_cell(mode)
        rows[mode] = m
        print(
            f"{mode:<10} {m.blocked_txns:>8} {m.rx_backoffs:>11} "
            f"{m.mean_wait:>10.3f} {m.p95_wait:>9.3f} "
            f"{m.mean_latency:>9.3f} {m.reorg_elapsed:>11.1f}"
        )
    paper, smith, none = rows["paper"], rows["smith90"], rows["none"]
    # All transactions complete in every configuration.
    for m in rows.values():
        assert m.aborted == 0
        assert m.completed == m.user_txns
    # The paper's protocol blocks a small fraction; Smith blocks most.
    assert paper.blocked_txns < smith.blocked_txns / 5
    assert paper.mean_wait < smith.mean_wait / 5
    assert paper.p95_wait <= smith.p95_wait
    # And the paper's method stays close to the no-reorganizer baseline.
    assert paper.mean_latency < none.mean_latency * 1.25
    benchmark.pedantic(lambda: run_cell("paper"), rounds=1, iterations=1)


def test_e2_skewed_access(benchmark):
    """Zipf-skewed access concentrates the collision window; the ordering
    between the methods must survive."""
    banner("E2b — same comparison under Zipf(1.0) skew")
    paper = run_cell("paper", zipf=1.0)
    smith = run_cell("smith90", zipf=1.0)
    print(
        f"paper:   blocked={paper.blocked_txns} mean_wait={paper.mean_wait:.3f}"
    )
    print(
        f"smith90: blocked={smith.blocked_txns} mean_wait={smith.mean_wait:.3f}"
    )
    assert paper.blocked_txns < smith.blocked_txns
    assert paper.mean_wait < smith.mean_wait
    benchmark.pedantic(lambda: run_cell("paper", zipf=1.0), rounds=1, iterations=1)


def test_e2_reorganizer_finishes_despite_contention(benchmark):
    """The background reorganizer completes and the tree ends healthy."""
    from repro.btree.stats import collect_stats

    db, metrics = run_concurrent_experiment(setup(), reorganizer="paper")
    stats = collect_stats(db.tree())
    assert metrics.reorg_elapsed > 0
    assert stats.leaf_fill > 0.55
    assert not db.pass3_state().reorg_bit
    benchmark.pedantic(
        lambda: run_concurrent_experiment(setup(n_transactions=80),
                                          reorganizer="paper"),
        rounds=1,
        iterations=1,
    )
