"""repro — On-line Reorganization of Sparsely-populated B+-trees.

A from-scratch Python reproduction of Salzberg & Zou (SIGMOD 1996): the
three-pass on-line reorganization algorithm, the R/RX/RS lock protocol,
forward recovery, the side-file catch-up protocol, and the switch to the new
tree — together with the substrates they run on (simulated disk, buffer pool
with careful writing, write-ahead log, lock manager, discrete-event
transaction scheduler) and a Tandem-style baseline for comparison.

Quickstart::

    from repro import Database, Record, Reorganizer, ReorgConfig, TreeConfig

    db = Database(TreeConfig(leaf_capacity=64))
    tree = db.bulk_load_tree([Record(k, f"v{k}") for k in range(10_000)])
    # ... workload degrades the tree ...
    report = Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run()

See README.md for a tour and DESIGN.md for the system inventory.
"""

from repro.btree.stats import (
    ScanCost,
    TreeStats,
    collect_stats,
    measure_range_scan,
)
from repro.btree.tree import BPlusTree
from repro.config import (
    DEFAULT_REORG_CONFIG,
    DEFAULT_TREE_CONFIG,
    FreeSpacePolicy,
    ReorgConfig,
    SidePointerKind,
    TreeConfig,
)
from repro.db import Database
from repro.errors import ReproError
from repro.locks.modes import LockMode
from repro.reorg.reorganizer import Reorganizer, ReorgReport
from repro.storage.page import Record

__version__ = "1.0.0"

__all__ = [
    "BPlusTree",
    "DEFAULT_REORG_CONFIG",
    "DEFAULT_TREE_CONFIG",
    "Database",
    "FreeSpacePolicy",
    "LockMode",
    "Record",
    "ReorgConfig",
    "ReorgReport",
    "Reorganizer",
    "ReproError",
    "ScanCost",
    "SidePointerKind",
    "TreeConfig",
    "TreeStats",
    "collect_stats",
    "measure_range_scan",
    "__version__",
]
