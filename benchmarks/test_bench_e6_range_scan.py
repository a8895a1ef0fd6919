"""E6 — the motivation: sparse, scattered trees slow range queries down.

Paper section 1: "the leaf pages within a key range ... are not in
contiguous disk space.  This will require more disk read time for a range
query.  Large numbers of deletions will cause the pages ... to be sparse
... it will take more page reads for a sparsely populated B+-tree than for
a normal (unsparse) one."

The experiment degrades a tree by random growth + thinning, measures
range-scan I/O (page reads, seeks, modelled read cost with a 10x seek
penalty) for scan widths of 10 / 100 / 1000 records, after each pass.
"""

import pytest

from repro.btree.stats import measure_range_scan
from repro.config import ReorgConfig
from repro.reorg.reorganizer import Reorganizer

from conftest import banner, degrade_by_random_growth, make_db

N_RECORDS = 5000
WIDTHS = [10, 100, 1000]


def scan_costs(tree, live_keys):
    """Cost of scans of each width starting at the 10th percentile key."""
    start = live_keys[len(live_keys) // 10]
    costs = {}
    for width in WIDTHS:
        high_index = min(len(live_keys) - 1, len(live_keys) // 10 + width - 1)
        high = live_keys[high_index]
        costs[width] = measure_range_scan(tree, start, high)
    return costs


def test_e6_scan_cost_by_pass(benchmark):
    banner("E6 — range-scan I/O before/after each pass (section 1 motivation)")
    db = make_db(internal_capacity=16, leaf_extent_pages=4096)
    tree = degrade_by_random_growth(db, N_RECORDS, 0.3)
    live_keys = [r.key for r in tree.items()]
    db.store.flush_all()

    stages = [("degraded", scan_costs(tree, live_keys))]
    reorg = Reorganizer(db, tree, ReorgConfig(target_fill=0.9))
    reorg.run_pass1()
    db.store.flush_all()
    stages.append(("after pass 1", scan_costs(db.tree(), live_keys)))
    reorg.run_pass2()
    db.store.flush_all()
    stages.append(("after pass 2", scan_costs(db.tree(), live_keys)))
    reorg.run_pass3()
    db.store.flush_all()
    stages.append(("after pass 3", scan_costs(db.tree(), live_keys)))
    db.tree().validate()

    print(f"{'stage':<14}" + "".join(
        f" | {'w=' + str(w):>6} {'pages':>6} {'seeks':>6} {'cost':>8}"
        for w in WIDTHS
    ))
    for label, costs in stages:
        row = f"{label:<14}"
        for width in WIDTHS:
            c = costs[width]
            row += f" | {'':>6} {c.pages_read:>6} {c.seeks:>6} {c.read_cost:>8.0f}"
        print(row)

    degraded = stages[0][1]
    compacted = stages[1][1]
    swapped = stages[2][1]
    final = stages[3][1]
    for width in WIDTHS:
        # Same records come back at every stage.
        counts = {s[1][width].records_returned for s in stages}
        assert len(counts) == 1
        # Pass 1 reduces the page count (sparseness fixed) ...
        assert compacted[width].pages_read <= degraded[width].pages_read
        # ... pass 2 removes the seeks (disk order fixed) ...
        assert swapped[width].seeks <= max(degraded[width].seeks, 1)
        # ... and the final cost is decisively lower for wide scans.
    assert final[1000].read_cost < degraded[1000].read_cost / 3
    assert final[1000].seeks <= 2
    benchmark.pedantic(
        lambda: scan_costs(db.tree(), live_keys), rounds=1, iterations=1
    )


def test_e6_wide_scan_crossover(benchmark):
    """Narrow scans barely notice the degradation; wide scans suffer —
    and the reorganization gain grows with the scan width."""
    db = make_db(internal_capacity=16, leaf_extent_pages=4096)
    tree = degrade_by_random_growth(db, N_RECORDS, 0.3)
    live_keys = [r.key for r in tree.items()]
    db.store.flush_all()
    before = scan_costs(tree, live_keys)
    Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run()
    db.store.flush_all()
    after = scan_costs(db.tree(), live_keys)
    gains = {
        w: before[w].read_cost / max(after[w].read_cost, 1e-9) for w in WIDTHS
    }
    print("\nscan-cost gain by width: " + ", ".join(
        f"w={w}: {gains[w]:.1f}x" for w in WIDTHS
    ))
    assert gains[1000] > gains[10]
    assert gains[1000] > 3.0
    benchmark.pedantic(
        lambda: scan_costs(db.tree(), live_keys), rounds=1, iterations=1
    )


def test_e6_readahead_before_reorganization():
    """Readahead pays down the same seek bill without reorganizing: a
    full scan of the degraded tree through a pool far smaller than its
    leaf level reads each base page's scattered leaves as one batch."""
    scans = {}
    for readahead in (0, 16):
        db = make_db(internal_capacity=16, leaf_extent_pages=4096,
                     buffer_pool_pages=64, readahead_pages=readahead)
        tree = degrade_by_random_growth(db, N_RECORDS, 0.3)
        db.store.flush_all()
        before = db.store.disk.stats.snapshot()
        records = tree.range_scan(0, N_RECORDS)
        scans[readahead] = (records, db.store.disk.stats.delta(before))
    (plain, plain_io), (ahead, ahead_io) = scans[0], scans[16]
    ratio = plain_io["read_cost"] / ahead_io["read_cost"]
    print(
        f"\nfull scan read cost: {plain_io['read_cost']:.0f} by seek, "
        f"{ahead_io['read_cost']:.0f} with readahead ({ratio:.2f}x)"
    )
    assert ahead == plain and len(plain) == int(N_RECORDS * 0.3)
    assert ratio >= 1.3
    assert ahead_io["seeks"] < plain_io["seeks"]
