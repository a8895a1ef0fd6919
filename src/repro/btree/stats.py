"""Tree statistics and scan-cost measurement.

These functions quantify the degradation the paper's introduction motivates
(sparse leaves, leaves out of disk order) and the improvement each
reorganization pass buys.  They power the F1/E6 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.storage.page import PageKind


@dataclass(frozen=True)
class TreeStats:
    """Snapshot of the structural health of a tree."""

    height: int
    record_count: int
    leaf_count: int
    internal_count: int
    #: Mean leaf occupancy in [0, 1] — the paper's fill factor f.
    leaf_fill: float
    #: Fraction of consecutive leaf pairs (in key order) whose page ids are
    #: also consecutive on disk; 1.0 = perfectly clustered.
    disk_order_fraction: float
    #: Fraction of consecutive leaf pairs in strictly ascending disk order
    #: (not necessarily adjacent); 1.0 = scan never seeks backwards.
    ascending_fraction: float


def collect_stats(tree: BPlusTree) -> TreeStats:
    leaf_ids = tree.leaf_ids_in_key_order()
    internal_count = 0
    stack = [tree.root_id]
    while stack:
        page = tree.store.get(stack.pop())
        if page.kind is PageKind.INTERNAL:
            internal_count += 1
            stack.extend(page.children())  # type: ignore[union-attr]
    fills = []
    records = 0
    for leaf_id in leaf_ids:
        leaf = tree.store.get_leaf(leaf_id)
        fills.append(leaf.fill_fraction())
        records += leaf.num_items
    pairs = list(zip(leaf_ids, leaf_ids[1:]))
    adjacent = sum(1 for a, b in pairs if b == a + 1)
    ascending = sum(1 for a, b in pairs if b > a)
    return TreeStats(
        height=tree.height(),
        record_count=records,
        leaf_count=len(leaf_ids),
        internal_count=internal_count,
        leaf_fill=sum(fills) / len(fills) if fills else 0.0,
        disk_order_fraction=adjacent / len(pairs) if pairs else 1.0,
        ascending_fraction=ascending / len(pairs) if pairs else 1.0,
    )


@dataclass(frozen=True)
class ScanCost:
    """I/O accounting of one range scan."""

    pages_read: int
    sequential_reads: int
    seeks: int
    read_cost: float
    records_returned: int


def measure_range_scan(tree: BPlusTree, low: int, high: int) -> ScanCost:
    """Run a range scan against cold storage and report its I/O cost.

    The buffer pool is bypassed by reading leaf pages straight from the
    simulated disk, which models the motivating scenario (a scan large
    enough that caching does not help) and keeps the seek accounting pure.
    """
    disk = tree.store.disk
    # Resolve the leaf order first: the tree walk may fault pages into the
    # buffer pool, and those reads must not be charged to the scan.
    leaf_ids = tree.leaf_ids_in_key_order()
    before = disk.stats.snapshot()
    disk.reset_read_position()

    # Walk the leaves in key order through the disk, charging I/O per leaf.
    # The overlap pre-check uses peek() (uncounted): it models the key
    # bounds a scan learns from the parent level, which is in memory.
    records = 0
    for leaf_id in leaf_ids:
        preview = (
            disk.peek(leaf_id)
            if disk.has_image(leaf_id)
            else tree.store.get_leaf(leaf_id)
        )
        if preview.is_empty:
            continue
        if preview.min_key() > high or preview.max_key() < low:
            continue
        page = (
            disk.read(leaf_id)  # reprolint: disable=buffer-bypass,no-raw-disk-write -- read-only I/O cost model; counts raw disk reads on purpose
            if disk.has_image(leaf_id)
            else preview
        )
        for record in page.records:  # type: ignore[union-attr]
            if low <= record.key <= high:
                records += 1
    spent = disk.stats.delta(before)
    return ScanCost(
        pages_read=spent["reads"],
        sequential_reads=spent["sequential_reads"],
        seeks=spent["seeks"],
        read_cost=spent["read_cost"],
        records_returned=records,
    )
