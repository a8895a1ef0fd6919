"""E1 — the Find-Free-Space heuristic "greatly reduces" pass-2 swaps.

Paper section 6.1: "Initial experiments showed that our algorithm can
greatly reduce the number of swaps needed at the second pass [ZS95]."

The sweep compares three empty-page policies over starting fill factors
f1 in {0.2, 0.3, 0.4, 0.5} and two degradation regimes:

* *deletion-degraded* — bulk-loaded then thinned uniformly (leaves still in
  disk order, many free pages): the paper's primary setting;
* *random-growth* — grown by random insertion then thinned (leaves
  scattered by splits): the adversarial setting where the heuristic's
  after-L constraint finds few usable pages and falls back to in-place.

Policies:

* PAPER      — first free page between L (largest finished id) and C;
* FIRST_FIT  — any first free page in the extent;
* NONE       — no new-place compaction at all (in-place only).

A swap is the expensive pass-2 operation: it usually involves two base
pages and always logs at least one full page image (sections 5-6); a move
is cheap.  The paper's claim holds when the PAPER column never needs more
swaps than the alternatives and beats naive FIRST_FIT placement decisively.
"""

import pytest

from repro.config import FreeSpacePolicy, ReorgConfig
from repro.reorg.reorganizer import Reorganizer

from conftest import (
    banner,
    degrade_by_random_growth,
    degrade_uniform,
    make_db,
)

F1_VALUES = [0.2, 0.3, 0.4, 0.5]
POLICIES = [FreeSpacePolicy.PAPER, FreeSpacePolicy.FIRST_FIT, FreeSpacePolicy.NONE]
N_RECORDS = 4000


def swaps_for(f1, policy, *, build=degrade_uniform, seed=7):
    db = make_db(internal_capacity=32)
    tree = build(db, N_RECORDS, f1, seed=seed)
    config = ReorgConfig(target_fill=0.9, free_space_policy=policy)
    reorg = Reorganizer(db, tree, config)
    reorg.run_pass1()
    pass2 = reorg.run_pass2()
    db.tree().validate()
    return pass2


def _sweep(build, label):
    print()
    print(label)
    print(
        f"{'f1':>5} | {'PAPER swap(move)':>17} | {'FIRST_FIT':>15} | {'NONE':>15}"
    )
    table = {}
    for f1 in F1_VALUES:
        row = {policy: swaps_for(f1, policy, build=build) for policy in POLICIES}
        table[f1] = row
        print(
            f"{f1:>5.1f} | "
            f"{row[FreeSpacePolicy.PAPER].swaps:>10}({row[FreeSpacePolicy.PAPER].moves:>4}) | "
            f"{row[FreeSpacePolicy.FIRST_FIT].swaps:>9}({row[FreeSpacePolicy.FIRST_FIT].moves:>4}) | "
            f"{row[FreeSpacePolicy.NONE].swaps:>9}({row[FreeSpacePolicy.NONE].moves:>4})"
        )
    return table


def test_e1_swap_heuristic_sweep(benchmark):
    banner("E1 — pass-2 swaps by empty-page policy (section 6.1 / [ZS95])")
    deletion = _sweep(degrade_uniform, "deletion-degraded (paper's setting)")
    scattered = _sweep(degrade_by_random_growth, "random-growth (adversarial)")

    for regime, table in (("deletion", deletion), ("scattered", scattered)):
        for f1, row in table.items():
            paper = row[FreeSpacePolicy.PAPER]
            # Never more swaps than naive placement ...
            assert paper.swaps <= row[FreeSpacePolicy.FIRST_FIT].swaps, (regime, f1)
            # ... and essentially no worse than in-place-only (the
            # adversarial regime degenerates to in-place, modulo the odd
            # placement the few successful new-place picks perturb).
            assert paper.swaps <= row[FreeSpacePolicy.NONE].swaps + 2, (regime, f1)
            assert (
                paper.operations <= row[FreeSpacePolicy.NONE].operations + 2
            ), (regime, f1)
    # "Greatly reduce": against naive placement, the reduction is dramatic
    # in the paper's own (deletion-degraded) setting.
    paper_total = sum(r[FreeSpacePolicy.PAPER].swaps for r in deletion.values())
    first_fit_total = sum(
        r[FreeSpacePolicy.FIRST_FIT].swaps for r in deletion.values()
    )
    print()
    print(
        f"deletion-degraded swap totals: PAPER={paper_total}, "
        f"FIRST_FIT={first_fit_total}"
    )
    assert paper_total < first_fit_total / 4
    benchmark.pedantic(
        lambda: swaps_for(0.3, FreeSpacePolicy.PAPER), rounds=1, iterations=1
    )


def test_e1_heuristic_robust_across_seeds(benchmark):
    """PAPER <= FIRST_FIT must hold for several delete patterns."""
    for seed in (3, 11, 29):
        paper = swaps_for(0.3, FreeSpacePolicy.PAPER, seed=seed).swaps
        first_fit = swaps_for(0.3, FreeSpacePolicy.FIRST_FIT, seed=seed).swaps
        assert paper <= first_fit, (seed, paper, first_fit)
    benchmark.pedantic(
        lambda: swaps_for(0.3, FreeSpacePolicy.PAPER, seed=3),
        rounds=1,
        iterations=1,
    )
