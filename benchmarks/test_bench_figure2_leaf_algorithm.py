"""F2 — Figure 2: the main program for reorganizing the leaves.

Figure 2's loop::

    While(more leaves) {
        Find-free-space;
        If there is appropriate free space
            Copying-Switching;
        Else
            In-Place-Reorg;
    }
    Swapping_Moving;

This benchmark traces the decision the loop makes for every unit across
free-space regimes: plenty of well-placed empty pages (deletion-heavy
degradation frees pages early), no usable empty pages (random growth fills
the extent densely), and policy NONE (Find-free-space disabled).  It prints
the Copying-Switching vs. In-Place-Reorg split and the Swapping_Moving work
that follows.
"""

import pytest

from repro.config import FreeSpacePolicy, ReorgConfig
from repro.reorg.reorganizer import Reorganizer

from conftest import banner, degrade_by_random_growth, degrade_uniform, make_db

N_RECORDS = 3000


def run_leaf_algorithm(build, policy):
    db = make_db()
    tree = build(db, N_RECORDS, 0.3)
    config = ReorgConfig(target_fill=0.9, free_space_policy=policy)
    reorg = Reorganizer(db, tree, config)
    pass1 = reorg.run_pass1()
    pass2 = reorg.run_pass2()
    db.tree().validate()
    return pass1, pass2


SCENARIOS = [
    ("deletion-degraded", degrade_uniform, FreeSpacePolicy.PAPER),
    ("random-growth", degrade_by_random_growth, FreeSpacePolicy.PAPER),
    ("policy=NONE", degrade_uniform, FreeSpacePolicy.NONE),
]


def test_figure2_decision_trace(benchmark):
    banner("Figure 2 — leaf reorganization main loop (per-unit decisions)")
    print(
        f"{'scenario':<20} {'units':>6} {'copy-switch':>12} {'in-place':>9} "
        f"{'then swaps':>11} {'moves':>6}"
    )
    results = {}
    for label, build, policy in SCENARIOS:
        pass1, pass2 = run_leaf_algorithm(build, policy)
        results[label] = (pass1, pass2)
        print(
            f"{label:<20} {pass1.units:>6} {pass1.new_place_units:>12} "
            f"{pass1.in_place_units:>9} {pass2.swaps:>11} {pass2.moves:>6}"
        )

    # Deletion-heavy degradation leaves usable free pages, so the loop
    # prefers Copying-Switching; with the policy disabled everything is
    # In-Place-Reorg.
    deletion_p1, _ = results["deletion-degraded"]
    assert deletion_p1.new_place_units > 0
    none_p1, none_p2 = results["policy=NONE"]
    assert none_p1.new_place_units == 0
    assert none_p1.in_place_units == none_p1.units
    # Figure 2 invariant: every unit is exactly one of the two branches.
    for pass1, _ in results.values():
        assert pass1.units == pass1.new_place_units + pass1.in_place_units

    benchmark.pedantic(
        lambda: run_leaf_algorithm(degrade_uniform, FreeSpacePolicy.PAPER),
        rounds=1,
        iterations=1,
    )


def test_figure2_units_stay_within_one_base_page(benchmark):
    """Section 3: "each separate operation on the leaves involves only one
    base page" — checked against the logged BEGIN records."""
    from repro.wal.records import ReorgBeginRecord, ReorgUnitType

    db = make_db()
    tree = degrade_uniform(db, N_RECORDS, 0.3)
    Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run_pass1()
    begins = [
        r for r in db.log.records_from(1) if isinstance(r, ReorgBeginRecord)
    ]
    assert begins
    for begin in begins:
        if begin.unit_type is ReorgUnitType.COMPACT:
            assert len(begin.base_pages) == 1
    benchmark(lambda: sum(1 for r in db.log.records_from(1)))
