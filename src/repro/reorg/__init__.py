"""The reorganizer: the paper's three-pass on-line reorganization."""

from repro.reorg.compact import LeafCompactor, Pass1Stats
from repro.reorg.daemon import (
    DaemonStats,
    DaemonTarget,
    ReorgDaemon,
)
from repro.reorg.parallel import (
    ParallelReorgProtocol,
    build_parallel_pass1,
    partition_base_pages,
)
from repro.reorg.freespace import find_free_page, resolve_preference
from repro.reorg.placement import (
    PlacementPolicy,
    TreeShape,
    bfs_to_veb,
    fill_count,
    gapped_leaf_fill_count,
    make_policy,
    post_reorg_shape,
    veb_order,
)
from repro.reorg.reorganizer import Reorganizer, ReorgReport
from repro.reorg.shrink import Pass3Stats, SCAN_DONE_KEY, TreeShrinker
from repro.reorg.sidefile import SideFile
from repro.reorg.swap import Pass2Stats
from repro.reorg.switch import SwitchStats, Switcher
from repro.reorg.unit import UnitEngine, UnitResult

__all__ = [
    "DaemonStats",
    "DaemonTarget",
    "LeafCompactor",
    "ReorgDaemon",
    "ParallelReorgProtocol",
    "PlacementPolicy",
    "Pass1Stats",
    "Pass2Stats",
    "Pass3Stats",
    "Reorganizer",
    "ReorgReport",
    "SCAN_DONE_KEY",
    "SideFile",
    "SwitchStats",
    "Switcher",
    "TreeShape",
    "TreeShrinker",
    "UnitEngine",
    "UnitResult",
    "build_parallel_pass1",
    "bfs_to_veb",
    "fill_count",
    "gapped_leaf_fill_count",
    "find_free_page",
    "make_policy",
    "post_reorg_shape",
    "resolve_preference",
    "veb_order",
    "partition_base_pages",
]
