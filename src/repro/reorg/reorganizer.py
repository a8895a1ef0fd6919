"""The reorganizer: three passes plus forward recovery, orchestrated.

This is the paper's headline artifact (Figure 1): compact the leaves,
optionally swap/move them into disk order, then rebuild the upper levels
and switch.  Each pass is written once, as a generator of
:mod:`repro.reorg.protocols`: :class:`Reorganizer` drives it alone
(:func:`repro.txn.scheduler.run_alone`, passes 1 and 2 on a tree it owns),
the DES runs it among users with the lock waits made real.  Forward
recovery drives the same pass-3 generator from the last stable key, or
the same switch from the flip a logged ``TreeSwitchRecord`` promises.

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

from dataclasses import dataclass, fields

from repro.btree.tree import BPlusTree
from repro.config import ReorgConfig
from repro.db import Database
from repro.errors import ReorgError
from repro.reorg.compact import Pass1Stats
from repro.reorg.protocols import ReorgProtocol
from repro.reorg.shrink import Pass3Stats, SCAN_DONE_KEY, TreeShrinker
from repro.reorg.swap import Pass2Stats
from repro.reorg.switch import SwitchStats, Switcher
from repro.reorg.unit import UnitEngine, UnitResult
from repro.txn.scheduler import run_alone
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
        #: The three passes are the DES protocol's, run on this tree handle
        #: and engine.
        self.protocol = ReorgProtocol(db, tree.name, self.config)
        self.protocol.tree, self.protocol.engine = tree, self.engine

    # -- passes -----------------------------------------------------------------

    def run_pass1(self) -> Pass1Stats:
        """Compact the leaves (Figure 2)."""
        leaves_before = self.tree.leaf_count()
        with self.engine.owning_tree():
            counts = run_alone(self.protocol.pass1())
            return Pass1Stats(
                **{f.name: counts[f.name] for f in fields(Pass1Stats) if f.name in counts},
                leaves_before=leaves_before,
                leaves_after=self.tree.leaf_count(),
            )

    def run_pass2(self) -> Pass2Stats:
        """Swap/move leaves into contiguous key order on disk (optional)."""
        with self.engine.owning_tree():
            counts = run_alone(self.protocol.pass2())
        if counts["skipped"]:
            # The pass owns the tree: every slot is a leaf's or free.
            raise ReorgError(f"slots of leaves {counts['skipped']} hold other pages")
        return Pass2Stats(counts["swaps"], counts["moves"], counts["already_placed"])

    def run_pass3(
        self, *, resume_from: int | None = None, shrinker: TreeShrinker | None = None
    ) -> tuple[Pass3Stats, SwitchStats]:
        """Rebuild the upper levels new-place and switch (section 7);
        ``resume_from`` and ``shrinker`` are forward recovery's."""
        shrinker = shrinker or TreeShrinker(self.db, self.tree, self.config)
        counts = run_alone(self.protocol.pass3(shrinker, resume_from))
        if not shrinker.scanning:
            raise ReorgError("tree has no internal levels to rebuild")
        switch = SwitchStats(**{f.name: counts[f.name] for f in fields(SwitchStats)})
        return shrinker.stats, switch

    def run(self) -> ReorgReport:
        """Run the full three-pass reorganization; a tree whose root is a
        leaf has no upper levels, so pass 3 is skipped."""
        from repro.storage.page import PageKind

        report = ReorgReport()
        report.pass1 = self.run_pass1()
        if self.config.do_swap_pass:
            report.pass2 = self.run_pass2()
        root = self.db.store.get(self.tree.root_id)
        if root.kind is PageKind.INTERNAL:
            report.pass3, report.switch = self.run_pass3()
        return report

    # -- forward recovery ------------------------------------------------------------

    def forward_recover(self, recovery: RecoveryReport) -> ReorgReport:
        """Resume reorganization after a crash (section 5.1 / 7.3).

        * An in-flight leaf unit is *finished*, never rolled back, and
          leaves ``recovery.pending_units``: the reorganizers of a forest
          can each be handed the same report.
        * If pass 3 was running on this tree (its reorg bit set), its
          orphaned allocations are reclaimed and the scan restarts from
          the last stable key.

        Returns a partial report describing what was recovered; the caller
        decides whether to continue with the remaining passes.
        """
        report = ReorgReport()
        pending = recovery.pending_units
        while pending:
            # One unit under the paper's single-process configuration;
            # several with the parallel extension.  Unit ids are unique
            # across trees, so each is finished forward once, by the first
            # reorganizer handed the report.
            report.forward_recovered_unit = self.engine.finish_unit(pending.pop(0))
        state = recovery.pass3.get(self.tree.name)
        if state is None or not state.reorg_bit:
            return report
        shrinker = TreeShrinker(self.db, self.tree, self.config)
        if state.switch_pending is not None:
            # The switch had begun: finish it forward; no rebuilding.
            switcher = Switcher(self.db, self.tree, shrinker)
            run_alone(self.protocol._switch_protocol(switcher, state.switch_pending))
            report.switch = switcher.stats
            return report
        resume = shrinker.restart_after_crash()
        scan_done = resume is not None and resume >= SCAN_DONE_KEY
        report.pass3_resumed_from = None if scan_done else resume
        report.pass3, report.switch = self.run_pass3(resume_from=resume, shrinker=shrinker)
        return report
