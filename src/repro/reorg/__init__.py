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
from repro.reorg.freespace import find_free_page
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
    "Pass1Stats",
    "Pass2Stats",
    "Pass3Stats",
    "Reorganizer",
    "ReorgReport",
    "SCAN_DONE_KEY",
    "SideFile",
    "SwitchStats",
    "Switcher",
    "TreeShrinker",
    "UnitEngine",
    "UnitResult",
    "build_parallel_pass1",
    "find_free_page",
    "partition_base_pages",
]
