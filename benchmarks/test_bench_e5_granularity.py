"""E5 — granularity and transaction overhead: d-page units vs. two blocks.

Paper section 8:

* "Better granularity.  No matter what the new page fill factor is, each
  transaction in [Smi90] will only deal with two blocks (pages). ...  In
  our method, if we do in-place compaction, we may compact several pages
  into one."  (On average d = ceil(f2/f1) pages per unit, section 6.)
* "Less transaction overhead.  [Smi90] uses one transaction for each
  reorganization operation ... In our method, the reorganizer runs in the
  background as one process."

The sweep varies f2/f1 in {2, 3, 4} (by f1 = 0.9/d) and compares units of
work, pages per unit, and lock acquisitions for the compaction phase.
"""

import math

import pytest

from repro.config import ReorgConfig
from repro.baseline.smith90 import Smith90Reorganizer
from repro.reorg.reorganizer import Reorganizer
from repro.wal.records import ReorgBeginRecord

from conftest import banner, degrade_uniform, make_db

N_RECORDS = 3000
RATIOS = [2, 3, 4]


def paper_compaction(f1):
    db = make_db(internal_capacity=32)
    tree = degrade_uniform(db, N_RECORDS, f1)
    stats = Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run_pass1()
    begins = [
        r for r in db.log.records_from(1) if isinstance(r, ReorgBeginRecord)
    ]
    pages_per_unit = (
        sum(len(b.leaf_pages) for b in begins) / len(begins) if begins else 0
    )
    db.tree().validate()
    return stats, pages_per_unit


def smith_compaction(f1):
    db = make_db(internal_capacity=32)
    tree = degrade_uniform(db, N_RECORDS, f1)
    smith = Smith90Reorganizer(db, tree, ReorgConfig(target_fill=0.9))
    smith.run_compaction()
    db.tree().validate()
    return smith.stats


def test_e5_units_of_work(benchmark):
    banner("E5 — compaction granularity: d-page units vs two-block txns (section 8)")
    print(
        f"{'f2/f1':>6} {'f1':>5} | {'paper units':>11} {'pages/unit':>11} | "
        f"{'smith txns':>10} {'file locks':>11}"
    )
    rows = {}
    for d in RATIOS:
        f1 = 0.9 / d
        paper, pages_per_unit = paper_compaction(f1)
        smith = smith_compaction(f1)
        rows[d] = (paper, pages_per_unit, smith)
        print(
            f"{d:>6} {f1:>5.2f} | {paper.units:>11} {pages_per_unit:>11.1f} | "
            f"{smith.transactions:>10} {smith.file_locks:>11}"
        )
    for d, (paper, pages_per_unit, smith) in rows.items():
        # Units compact ~d pages each (the paper's average), so the paper's
        # method needs far fewer units than Smith's pairwise merges ...
        assert pages_per_unit > max(2.0, d * 0.6), d
        assert paper.units < smith.transactions, d
        # ... and Smith pays one whole-file lock per transaction.
        assert smith.file_locks == smith.transactions
    # Granularity improves with sparser trees (larger d).
    assert rows[4][1] > rows[2][1]
    benchmark.pedantic(lambda: paper_compaction(0.3), rounds=1, iterations=1)


def test_e5_operations_to_reach_same_fill(benchmark):
    """Transaction overhead: [Smi90] needs one transaction per two-block
    operation, so reaching the same compaction result takes many more
    units of work — each with its own begin/commit and whole-file lock.
    "These will cause more transaction overhead and locking overhead."
    """
    from repro.btree.stats import collect_stats

    results = {}
    for label in ("paper", "smith90"):
        db = make_db(internal_capacity=32)
        tree = degrade_uniform(db, N_RECORDS, 0.3)
        if label == "paper":
            stats = Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run_pass1()
            ops = stats.units
        else:
            smith = Smith90Reorganizer(db, tree, ReorgConfig(target_fill=0.9))
            smith.run_compaction()
            ops = smith.stats.transactions
        results[label] = (ops, collect_stats(db.tree()).leaf_fill)
        db.tree().validate()
    paper_ops, paper_fill = results["paper"]
    smith_ops, smith_fill = results["smith90"]
    print(
        f"\npaper:   {paper_ops} units        -> fill {paper_fill:.2f}"
        f"\nsmith90: {smith_ops} transactions -> fill {smith_fill:.2f}"
    )
    # Comparable end state, far fewer units of work (hence far less
    # transaction + file-lock overhead).
    assert paper_fill >= smith_fill * 0.9
    assert paper_ops < smith_ops * 0.8
    benchmark.pedantic(lambda: paper_compaction(0.3), rounds=1, iterations=1)
