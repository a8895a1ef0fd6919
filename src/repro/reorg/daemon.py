"""Fragmentation-aware auto-reorg daemon: the paper's algorithm as a
background service.

The paper designs the three-pass reorganizer to run *on-line*, yet the
reproduction historically ran it only when a test invoked it.  This module
closes that gap: :class:`ReorgDaemon` is a discrete-event process that
polls each watched tree's live :class:`repro.metrics.FragmentationStats`
and, when fragmentation (``1 - fill_factor``) crosses
:attr:`repro.config.DaemonConfig.frag_high`, runs the full compact → swap
→ shrink sequence (:func:`repro.reorg.protocols.full_reorganization`) for
that tree under the normal lock choreography — concurrent readers and
updaters interleave with it exactly as with a manually started reorg.
Bender et al.'s fragmentation bounds under batched insertions (PAPERS.md)
are what make a measured fill-factor threshold a sound trigger.

Trigger policy (all knobs on :class:`~repro.config.DaemonConfig`):

* **threshold** — fragmentation >= ``frag_high`` arms a reorg;
* **hysteresis** — after a triggered reorg the shard must first drop to
  ``frag_low`` or below before it can fire again (one reorg per
  crossing, not one per poll);
* **cooldown** — at least ``cooldown`` simulated time between triggers
  of the same shard, independent of hysteresis;
* **deferral** — a tree whose pass-3 reorg bit is already set (a
  manual reorganizer owns it) is skipped for this poll, as is every
  shard when the process-wide optimistic-read counters moved more than
  ``optimistic_burst_threshold`` since the previous poll (a reorg in the
  middle of a latch-free read burst turns every read into a locked
  fallback).

The daemon is deliberately *one* process even over a sharded forest: it
reorganizes crossed shards one after another inside its own transaction,
which keeps it strictly background — bulk parallel reorganization stays
the job of :class:`repro.shard.ParallelReorganizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.btree.protocols import OPTIMISTIC_STATS
from repro.config import DaemonConfig, ReorgConfig
from repro.metrics import FragmentationStats
from repro.reorg.parallel import _SharedUnitIds
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.txn.ops import Think
from repro.txn.scheduler import Scheduler
from repro.txn.transaction import Transaction

if TYPE_CHECKING:
    from repro.db import Database
    from repro.shard.database import ShardedDatabase


@dataclass
class DaemonTarget:
    """One watched tree: a Database-shaped owner, its name, its metrics."""

    db: Any  #: Database or ShardHandle (duck-typed: tree()/pass3_state()/locks...)
    tree_name: str
    frag: FragmentationStats

    def sync(self) -> None:
        self.frag.sync_from_tree(self.db.tree(self.tree_name))


@dataclass
class DaemonStats:
    """What the daemon did, for tests and the bench report."""

    polls: int = 0
    triggers: int = 0
    hysteresis_holds: int = 0
    deferred_manual: int = 0
    deferred_cooldown: int = 0
    deferred_optimistic: int = 0
    skipped_small: int = 0


@dataclass
class _TargetState:
    armed: bool = True
    last_trigger: float | None = None
    triggers: int = 0


class ReorgDaemon:
    """Background auto-reorg DES process over one or more trees."""

    def __init__(
        self,
        targets: Sequence[DaemonTarget],
        config: DaemonConfig | None = None,
        reorg_config: ReorgConfig | None = None,
        *,
        unit_pause: float = 0.0,
        scan_pause: float = 0.0,
        op_duration: float = 0.0,
    ):
        if not targets:
            raise ValueError("daemon needs at least one target tree")
        self.targets = list(targets)
        self.config = config or DaemonConfig()
        self.reorg_config = reorg_config or ReorgConfig()
        self.unit_pause = unit_pause
        self.scan_pause = scan_pause
        self.op_duration = op_duration
        self.stats = DaemonStats()
        #: (simulated time, tree name, action) per per-target poll step;
        #: actions: idle / hold-hysteresis / skip-small / defer-manual /
        #: defer-cooldown / defer-optimistic / trigger.
        self.history: list[tuple[float, str, str]] = []
        #: Pass stats of every triggered reorg, per tree name in order.
        self.results: dict[str, list[dict]] = {t.tree_name: [] for t in targets}
        self._state = {t.tree_name: _TargetState() for t in targets}
        self._unit_ids = _SharedUnitIds()
        self._last_optimistic: int | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def for_database(
        cls,
        db: Database,
        config: DaemonConfig | None = None,
        reorg_config: ReorgConfig | None = None,
        *,
        tree_name: str = "primary",
        **des_pauses,
    ) -> "ReorgDaemon":
        target = DaemonTarget(db, tree_name, db.frag_stats(tree_name))
        return cls([target], config, reorg_config, **des_pauses)

    @classmethod
    def for_shards(
        cls,
        sdb: ShardedDatabase,
        config: DaemonConfig | None = None,
        reorg_config: ReorgConfig | None = None,
        **des_pauses,
    ) -> "ReorgDaemon":
        targets = [
            DaemonTarget(handle, handle.tree_name, handle.frag_stats())
            for handle in sdb.handles
        ]
        return cls(targets, config, reorg_config, **des_pauses)

    # -- the DES process -----------------------------------------------------

    def spawn(
        self, scheduler: Scheduler, *, horizon: float, at: float = 0.0
    ) -> Transaction:
        """Register the daemon on ``scheduler``; it polls until ``horizon``."""
        return scheduler.spawn(
            self.run(scheduler, horizon=horizon),
            name="reorg-daemon",
            at=at,
            is_reorganizer=True,
        )

    def run(
        self, scheduler: Scheduler, *, horizon: float
    ) -> Generator[Any, Any, DaemonStats]:
        """Poll loop: sample metrics, decide per target, maybe reorganize.

        Runs until the next poll would land past ``horizon`` (simulated
        time) — a DES scheduler drains its heap, so an unbounded daemon
        would never let ``scheduler.run()`` return.
        """
        for target in self.targets:
            if not target.frag.synced:
                target.sync()
        poll = self.config.poll_interval
        while scheduler.now + poll <= horizon + 1e-9:
            yield Think(poll)
            self.stats.polls += 1
            burst = self._optimistic_burst()
            for target in self.targets:
                action = self._decide(target, scheduler.now, burst)
                self.history.append((scheduler.now, target.tree_name, action))
                if action == "trigger":
                    yield from self._reorganize(target, scheduler)
        return self.stats

    # -- decision logic ------------------------------------------------------

    def _optimistic_burst(self) -> bool:
        """True when optimistic reads since the previous poll exceed the
        configured burst threshold (0 disables the deferral)."""
        current = OPTIMISTIC_STATS.searches + OPTIMISTIC_STATS.scans
        previous, self._last_optimistic = self._last_optimistic, current
        if self.config.optimistic_burst_threshold <= 0 or previous is None:
            return False
        return current - previous > self.config.optimistic_burst_threshold

    def _decide(self, target: DaemonTarget, now: float, burst: bool) -> str:
        cfg = self.config
        state = self._state[target.tree_name]
        frag = target.frag
        if cfg.max_triggers and self.stats.triggers >= cfg.max_triggers:
            return "idle"
        if frag.leaves < cfg.min_leaves:
            self.stats.skipped_small += 1
            return "skip-small"
        if not state.armed and frag.fragmentation <= cfg.frag_low:
            state.armed = True
        split_hot = (
            cfg.split_trigger > 0
            and frag.splits_since_sync >= cfg.split_trigger
        )
        fill_hot = frag.fragmentation >= cfg.frag_high
        if fill_hot and not state.armed and not split_hot:
            # The fill threshold re-fires only after dropping to frag_low;
            # the split path re-arms itself (sync zeroes the split count).
            self.stats.hysteresis_holds += 1
            return "hold-hysteresis"
        if not split_hot and not (fill_hot and state.armed):
            return "idle"
        if target.db.pass3_state(target.tree_name).reorg_bit:
            # A manual reorganizer owns this tree's reorg bit right now.
            self.stats.deferred_manual += 1
            return "defer-manual"
        if (
            state.last_trigger is not None
            and now - state.last_trigger < cfg.cooldown
        ):
            self.stats.deferred_cooldown += 1
            return "defer-cooldown"
        if burst:
            self.stats.deferred_optimistic += 1
            return "defer-optimistic"
        return "trigger"

    # -- the reorg itself ----------------------------------------------------

    def protocol_for(
        self, target: DaemonTarget, scheduler: Scheduler
    ) -> ReorgProtocol:
        proto = ReorgProtocol(
            target.db,
            target.tree_name,
            self.reorg_config,
            unit_pause=self.unit_pause,
            scan_pause=self.scan_pause,
            op_duration=self.op_duration,
            abort_hook=lambda txns: [
                scheduler.abort_transaction(t) for t in txns
            ],
        )
        proto.engine._unit_ids = self._unit_ids
        return proto

    def _reorganize(
        self, target: DaemonTarget, scheduler: Scheduler
    ) -> Generator[Any, Any, dict]:
        proto = self.protocol_for(target, scheduler)
        stats = yield from full_reorganization(proto)
        state = self._state[target.tree_name]
        state.last_trigger = scheduler.now
        state.triggers += 1
        state.armed = False  # re-arm only once frag drops to frag_low
        self.stats.triggers += 1
        target.frag.reorgs_triggered += 1
        # The passes moved records and freed pages below the tree API;
        # re-baseline the incremental counters from the switched tree.
        target.sync()
        self.results[target.tree_name].append(stats)
        return stats
