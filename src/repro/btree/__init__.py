"""The primary B+-tree: structure, bulk load, statistics, protocols."""

from repro.btree.bulkload import build_leaf_level, build_upper_levels, bulk_load
from repro.btree.stats import (
    ScanCost,
    TreeStats,
    collect_stats,
    measure_range_scan,
)
from repro.btree.tree import BPlusTree

__all__ = [
    "BPlusTree",
    "ScanCost",
    "TreeStats",
    "build_leaf_level",
    "build_upper_levels",
    "bulk_load",
    "collect_stats",
    "measure_range_scan",
]
