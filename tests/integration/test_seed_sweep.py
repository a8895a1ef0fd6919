"""Seed-sweep robustness: the full concurrent experiment across many
deterministic seeds.

Each seed produces a different workload mix, arrival pattern and sparse
tree; across all of them the invariants must hold: no transaction fails,
the tree validates, the reorganizer terminates, and the paper-vs-Smith
ordering of E2 is preserved.
"""

import pytest

from repro.btree.stats import collect_stats
from repro.config import ReorgConfig, TreeConfig
from repro.sim.driver import ExperimentSetup, run_concurrent_experiment
from repro.sim.workload import WorkloadConfig

SEEDS = [3, 17, 42, 99, 123]


def setup_for(seed):
    return ExperimentSetup(
        tree_config=TreeConfig(
            leaf_capacity=16,
            internal_capacity=8,
            leaf_extent_pages=1024,
            internal_extent_pages=256,
            buffer_pool_pages=256,
        ),
        reorg_config=ReorgConfig(target_fill=0.9),
        workload=WorkloadConfig(
            n_transactions=120,
            key_space=2000,
            mean_interarrival=0.3,
            seed=seed,
        ),
        n_records=2000,
        fill_after=0.3,
        op_duration=0.25,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_paper_reorganizer_robust_across_seeds(seed):
    db, metrics = run_concurrent_experiment(
        setup_for(seed), reorganizer="paper"
    )
    assert metrics.aborted == 0
    assert metrics.completed == metrics.user_txns
    assert metrics.reorg_elapsed > 0
    tree = db.tree()
    tree.validate()
    assert collect_stats(tree).leaf_fill > 0.5
    assert not db.pass3_state().reorg_bit
    assert not db.progress.unit_in_flight


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_paper_beats_smith_across_seeds(seed):
    _, paper = run_concurrent_experiment(setup_for(seed), reorganizer="paper")
    _, smith = run_concurrent_experiment(setup_for(seed), reorganizer="smith90")
    assert paper.blocked_txns < smith.blocked_txns
    assert paper.mean_wait < smith.mean_wait
