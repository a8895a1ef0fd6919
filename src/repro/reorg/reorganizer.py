"""The reorganizer: three passes plus forward recovery, orchestrated.

This is the paper's headline artifact (Figure 1): compact the leaves,
optionally swap/move them into disk order, then rebuild the upper levels
and switch.  :class:`Reorganizer` is the synchronous ordering of the unit,
pass-3 and switch steps; :mod:`repro.reorg.protocols` runs the same step
bodies on the DES with the lock waits made real, and forward recovery of
pass 3 is :meth:`Reorganizer.run_pass3` resumed at the last stable key.

Typical use::

    reorg = Reorganizer(db, tree, ReorgConfig(target_fill=0.9))
    report = reorg.run()

Crash handling::

    db.crash()
    recovery = db.recover()
    reorg = Reorganizer(db, db.tree(), config)
    reorg.forward_recover(recovery)     # finishes an interrupted unit,
                                        # restarts pass 3 from its stable
                                        # point, or does nothing
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.btree.tree import BPlusTree
from repro.config import ReorgConfig
from repro.db import Database
from repro.reorg.compact import LeafCompactor, Pass1Stats
from repro.reorg.shrink import Pass3Stats, SCAN_DONE_KEY, TreeShrinker
from repro.reorg.swap import Pass2Stats, SwapMovePass
from repro.reorg.switch import SwitchStats, Switcher
from repro.reorg.unit import UnitEngine, UnitResult
from repro.txn.transaction import Transaction
from repro.wal.recovery import RecoveryReport


@dataclass
class ReorgReport:
    """Everything one full reorganization produced."""

    pass1: Pass1Stats | None = None
    pass2: Pass2Stats | None = None
    pass3: Pass3Stats | None = None
    switch: SwitchStats | None = None
    forward_recovered_unit: UnitResult | None = None
    pass3_resumed_from: int | None = None


class Reorganizer:
    """Synchronous driver for the full three-pass reorganization."""

    def __init__(
        self,
        db: Database,
        tree: BPlusTree,
        config: ReorgConfig | None = None,
    ):
        self.db = db
        self.tree = tree
        self.config = config or ReorgConfig()
        self.engine = UnitEngine(db, tree)
        self.txn = Transaction("reorganizer", is_reorganizer=True)

    # -- passes -----------------------------------------------------------------

    def run_pass1(self) -> Pass1Stats:
        """Compact the leaves (Figure 2)."""
        compactor = LeafCompactor(self.db, self.tree, self.config, self.engine)
        return compactor.run()

    def run_pass2(self) -> Pass2Stats:
        """Swap/move leaves into contiguous key order on disk (optional)."""
        return SwapMovePass(self.db, self.tree, self.engine).run()

    def run_pass3(
        self,
        *,
        during_scan: Callable[[TreeShrinker], None] | None = None,
        during_catchup: Callable[[TreeShrinker], None] | None = None,
        resume_from: int | None = None,
        shrinker: TreeShrinker | None = None,
    ) -> tuple[Pass3Stats, SwitchStats]:
        """Rebuild the upper levels new-place and switch (section 7);
        ``resume_from`` and ``shrinker`` are forward recovery's."""
        shrinker = shrinker or TreeShrinker(self.db, self.tree, self.config)
        try:
            shrinker.scan(during_scan, resume_from=resume_from)
            shrinker.build_upper()
            shrinker.catch_up(during_catchup)
            switcher = Switcher(self.db, self.tree, shrinker, reorg_txn=self.txn)
            switch_stats = switcher.run()
        finally:
            shrinker.detach_listener()
        return shrinker.stats, switch_stats

    def run(
        self,
        *,
        during_scan: Callable[[TreeShrinker], None] | None = None,
        during_catchup: Callable[[TreeShrinker], None] | None = None,
        skip_pass3: bool = False,
    ) -> ReorgReport:
        """Run the full three-pass reorganization."""
        from repro.storage.page import PageKind

        report = ReorgReport()
        report.pass1 = self.run_pass1()
        if self.config.do_swap_pass:
            report.pass2 = self.run_pass2()
        root = self.db.store.get(self.tree.root_id)
        if not skip_pass3 and root.kind is PageKind.INTERNAL:
            report.pass3, report.switch = self.run_pass3(
                during_scan=during_scan, during_catchup=during_catchup
            )
        return report

    # -- forward recovery ------------------------------------------------------------

    def forward_recover(self, recovery: RecoveryReport) -> ReorgReport:
        """Resume reorganization after a crash (section 5.1 / 7.3).

        * An in-flight leaf unit is *finished*, never rolled back.
        * If pass 3 was running (reorg bit set), its orphaned allocations
          are reclaimed and the scan restarts from the last stable key.

        Returns a partial report describing what was recovered; the caller
        decides whether to continue with the remaining passes (see
        :meth:`resume_after_crash` for the all-in-one variant).
        """
        report = ReorgReport()
        for pending in recovery.pending_units:
            # One unit under the paper's single-process configuration;
            # several with the parallel extension — each finished forward.
            report.forward_recovered_unit = self.engine.finish_unit(pending)
        if recovery.reorg_bit and recovery.switch_pending is not None:
            # The switch had begun: finish it forward; no rebuilding.
            shrinker = TreeShrinker(self.db, self.tree, self.config)
            switcher = Switcher(self.db, self.tree, shrinker, reorg_txn=self.txn)
            report.switch = switcher.finish_pending_switch(*recovery.switch_pending)
            return report
        if recovery.reorg_bit:
            shrinker = TreeShrinker(self.db, self.tree, self.config)
            resume = shrinker.restart_after_crash(
                allocs_after_stable=list(recovery.allocs_after_stable)
            )
            scan_done = resume is not None and resume >= SCAN_DONE_KEY
            report.pass3_resumed_from = None if scan_done else resume
            report.pass3, report.switch = self.run_pass3(
                resume_from=resume, shrinker=shrinker
            )
        return report
