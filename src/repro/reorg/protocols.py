"""The reorganizer's protocols: the three passes as generators.

Each pass is a generator of :mod:`repro.txn.ops` with the paper's locking
made explicit (section 4.1.1)::

    IX lock the tree lock.
    S lock-couple down the tree until it reaches the base pages.
    R lock the base page(s) and then RX lock the leaf pages that are going
    to be reorganized.
    Move records between leaf pages.
    Upgrade its lock on base pages to X mode.
    Modify necessary keys and pointers in the base pages.
    Release locks.

That choreography is written once, in :meth:`ReorgProtocol._run_unit`;
compaction into one or several pages, pass-2 moves and swaps (and the
parallel workers of :mod:`repro.reorg.parallel`) each hand it a
:class:`_Unit` naming their pages and their two :class:`UnitEngine` calls.

The three passes are written only here.  The DES scheduler runs them
among user transactions; :meth:`repro.reorg.reorganizer.Reorganizer.
run_pass1` / ``run_pass2`` / ``run_pass3`` drive the same generators alone
through :func:`repro.txn.scheduler.run_alone`, which runs every ``Call``
and skips the lock and think ops (passes 1 and 2 on a tree
:meth:`UnitEngine.owning_tree` holds).  Forward recovery drives them too:
:meth:`ReorgProtocol.pass3` from a restarted shrinker's stable key, and
:meth:`ReorgProtocol._switch_protocol` from a logged switch.

Deadlock handling follows the paper's policy: "Whenever the reorganizer
gets in a deadlock, we always force the reorganizer to give up its lock" —
a :class:`~repro.errors.DeadlockError` thrown in at any lock yield makes
the protocol drop every lock and retry the unit after a pause.  Because all
R and RX locks are taken *before* any record moves, giving up normally
costs no work; a deadlock at the R->X conversion after moving records
triggers the section 5.2 undo (:meth:`UnitEngine.undo_unit`).

Pass 3's protocol holds an S lock on exactly one base page at a time while
scanning (section 7.5), and the switch performs the section 7.4 lock dance:
X on the side file, root flip, then X on the *old* tree lock name to drain
old transactions — with the configurable wait limit and forced aborts via
an ``abort_hook`` the simulation driver arms.  The step bodies are
:class:`~repro.reorg.shrink.TreeShrinker`'s and
:class:`~repro.reorg.switch.Switcher`'s; their one ordering is here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Generator

from repro.btree.protocols import _s_couple_to_base
from repro.config import ReorgConfig, SidePointerKind
from repro.db import Database
from repro.errors import DeadlockError, ReorgError, SwitchTimeoutError
from repro.locks.modes import LockMode
from repro.locks.resources import current_lock_name, page_lock, sidefile_lock, tree_lock
from repro.reorg.compact import LeafCompactor
from repro.reorg.shrink import TreeShrinker
from repro.reorg.swap import KeyOrderCursor, SeekAwareCursor
from repro.reorg.switch import Switcher
from repro.reorg.unit import UnitEngine
from repro.storage.page import PageId, PageKind
from repro.txn.ops import (
    Acquire, AcquireSet, Call, Convert, Release, ReleaseAll, ReleaseSet, Think,
)
from repro.txn.transaction import Transaction
from repro.wal.records import ReorgUnitType

IX, S, X, R, RX = LockMode.IX, LockMode.S, LockMode.X, LockMode.R, LockMode.RX

#: Pause before retrying a unit whose locks were given up at a deadlock.
_RETRY_PAUSE = 0.5
_MAX_UNIT_RETRIES = 50


@dataclass(slots=True)
class _Unit:
    """What one kind of reorganization unit (compact, move, swap)
    supplies to :meth:`ReorgProtocol._run_unit`: its page lists
    and the two :class:`UnitEngine` calls around the R->X conversion."""

    #: The leaves being reorganized (RX locked), in key order.  The
    #: S-coupling descends by the first one's smallest key.
    leaves: list[PageId]
    #: Free pages the unit builds into (RX locked with the leaves); their
    #: number is the unit's output size.
    new_pages: list[PageId]
    #: ``begin(bases) -> unit id``: BEGIN plus the record movement, run
    #: under R on the base pages; None skips the unit with nothing logged.
    begin: Callable[[list[PageId]], int | None]
    #: ``complete(unit_id, bases)``: the MODIFYs through END, run under X
    #: on the base pages.
    complete: Callable[[int, list[PageId]], Any]
    #: Pass 1 plans its groups before locking: under R, re-check that the
    #: leaves are still children of the base page, else skip the unit.
    planned_ahead: bool = False
    #: A swap's two leaves may sit under two base pages: lock each leaf's
    #: own parent rather than only the base page the S-coupling reached.
    own_parents: bool = False


class ReorgProtocol:
    """Builds the reorganizer's generator protocols for one tree."""

    def __init__(
        self,
        db: Database,
        tree_name: str,
        config: ReorgConfig | None = None,
        *,
        unit_pause: float = 0.0,
        scan_pause: float = 0.0,
        op_duration: float = 0.0,
        abort_hook: Callable[[list[Transaction]], None] | None = None,
    ):
        self.db = db
        self.tree_name = tree_name
        self.config = config or ReorgConfig()
        self.tree = db.tree(tree_name)
        self.engine = UnitEngine(db, self.tree)
        #: Simulated time consumed between units / between scanned base
        #: pages — models the background pacing of the reorganizer.
        self.unit_pause = unit_pause
        self.scan_pause = scan_pause
        #: Simulated time the record movement of one unit takes while the
        #: RX locks are held — the window during which readers/updaters
        #: back off to RS waits.
        self.op_duration = op_duration
        #: Called with the transactions still holding the old tree lock
        #: when the switch's wait limit expires; the driver wires this to
        #: Scheduler.abort_transaction.
        self.abort_hook = abort_hook

    # -- helpers ----------------------------------------------------------------

    def _lock_name(self) -> str:
        return current_lock_name(self.db, self.tree_name)

    # -- the reorganization unit (sections 4.1.1, 4.3, 5.2) -----------------------

    def _run_unit(
        self, describe: Callable[[], _Unit | None], stats: dict
    ) -> Generator[Any, Any, bool | None]:
        """One reorganization unit with full locking; True when executed.

        The choreography is the same for every kind of unit and is stated
        only here; ``describe`` supplies the pages and the engine calls,
        and is asked afresh on every attempt (a retried compaction re-runs
        Find-Free-Space).  None — as opposed to False, a unit skipped —
        when ``describe`` has no unit to offer.
        """
        for _attempt in range(_MAX_UNIT_RETRIES):
            unit = describe()
            if unit is None:
                return None
            unit_id = None
            try:
                parents = (yield Call(
                    lambda: [self.engine.parent_of(leaf) for leaf in unit.leaves]
                )) if unit.own_parents else []
                probe_key = yield Call(lambda: self._probe_key(unit))
                if probe_key is None:
                    return False
                held, _leaf = yield from _s_couple_to_base(
                    self.db, self.tree, probe_key
                )
                if held is None:
                    return False  # tree shrank to a leaf root meanwhile
                bases = list(dict.fromkeys(parents)) or [held]
                # R lock the base page(s) (S from coupling is then released).
                yield Acquire(page_lock(bases[0]), R)
                yield Release(page_lock(held), S)
                for base in bases[1:]:
                    yield Acquire(page_lock(base), R)
                if unit.planned_ahead:
                    valid = yield Call(
                        lambda: self._group_still_valid(held, unit.leaves)
                    )
                    if not valid:
                        stats["stale_groups"] += 1
                        yield Release(page_lock(held), R)
                        return False
                # RX lock every leaf in the unit (and its new pages), plus X
                # on side-pointer neighbours outside the unit (section 4.3,
                # found only if performed) — all before any record moves.
                rx_pages = unit.leaves + unit.new_pages
                yield AcquireSet(rx_pages, RX)
                neighbours = yield AcquireSet(
                    lambda: self._side_pointer_neighbours(bases, unit.leaves), X
                )
                # Move records between leaf pages (None: nothing moved, as
                # a pass-2 move's free target is taken).
                unit_id = yield Call(lambda: unit.begin(bases))
                if unit_id is None:
                    yield ReleaseSet(bases, R)
                else:
                    if self.op_duration:
                        # Movement time scales with the unit's output size
                        # (section 6: more pages built, locks held longer).
                        yield Think(self.op_duration * max(1, len(unit.new_pages)))
                    # Upgrade the base-page lock(s) to X mode (short window).
                    for base in bases:
                        yield Convert(page_lock(base), X)
                    # Modify keys and pointers in the base page(s).
                    yield Call(lambda: unit.complete(unit_id, bases))
                    yield ReleaseSet(bases, X)
                yield ReleaseSet(rx_pages, RX)
                yield ReleaseSet(neighbours, X)
                return unit_id is not None
            except DeadlockError:
                # The reorganizer always yields: give up the unit's locks.
                stats["retries"] += 1
                if unit_id is not None:
                    # Records were already moved: section 5.2 undo.
                    stats["undone"] += 1
                    yield Call(lambda u=unit_id: self.engine.undo_unit(u))
                yield ReleaseAll()
                yield Think(_RETRY_PAUSE)
                yield Acquire(tree_lock(self._lock_name()), IX)
        raise ReorgError(f"unit over leaves {unit.leaves} starved after retries")

    def _probe_key(self, unit: _Unit) -> int | None:
        """A key to S-couple down by: the smallest of the unit's first
        leaf.  None when a group planned ahead has lost that leaf since."""
        store, first = self.db.store, unit.leaves[0]
        if unit.planned_ahead and store.free_map.is_free(first):
            return None
        leaf = store.get_leaf(first)
        if unit.planned_ahead and leaf.is_empty:
            return None
        return leaf.min_key()

    def _side_pointer_neighbours(
        self, bases: list[PageId], leaves: list[PageId]
    ) -> list[PageId]:
        """Leaves outside the unit whose side pointers the unit will edit,
        in key order (``leaves`` are, so their neighbours are too): the leaf
        cursor's steps from the leaves' places in ``bases``.

        Section 4.3: "the reorganizer has to RX lock some number of leaf
        pages (X lock for those leaf pages that are not children of the
        same base page as the leaf pages being reorganized) to make the
        side-pointer changes ... the reorganizer [must] acquire all the
        necessary locks before it starts moving records."
        """
        if self.tree.side_pointers is SidePointerKind.NONE:
            return []
        get, beside = self.db.store.get_internal, self.engine.leaf_beside
        around = [
            at[2]
            for base, index, _leaf in self.engine.leaf_places(bases, leaves)
            for side in (-1, 1)
            if (at := beside(get(base), index, side)) is not None
        ]
        # A compaction group's inner neighbours are its own leaves.
        return [pid for pid in dict.fromkeys(around) if pid not in leaves]

    def _group_still_valid(self, base_id: PageId, group: list[PageId]) -> bool:
        """Concurrent splits may have moved children to a sibling base
        page between planning and locking; such groups are skipped (the
        paper likewise leaves split-created disorder for a later pass)."""
        if self.db.store.free_map.is_free(base_id):
            return False
        base = self.db.store.get_internal(base_id)
        return all(base.index_of_child(leaf) >= 0 for leaf in group)

    # -- pass 1 ------------------------------------------------------------------

    def pass1(self) -> Generator[Any, Any, dict]:
        """Compaction under the section 4.1.1 unit protocol (Figure 2)."""
        yield Acquire(tree_lock(self._lock_name()), IX)
        compactor = LeafCompactor(self.db, self.tree, self.config)
        stats = {"units": 0, "in_place_units": 0, "new_place_units": 0,
                 "records_moved": 0, "results": [], "retries": 0, "undone": 0,
                 "stale_groups": 0}
        target = compactor._target_records_per_page()
        for base_id in self._pass1_base_pages(compactor):
            groups = yield Call(lambda b=base_id: compactor._plan_groups(b, target))
            for group in groups:
                if len(group) < 2:
                    compactor.mark_finished(group[0])
                    continue
                if (yield from self._compact(compactor, group, target, stats)) is None:
                    # No free run for the pages the group needs: one single-
                    # output unit per chunk (those can always fall back to
                    # in-place).
                    for sub in compactor.chunk_by_records(group, target):
                        if len(sub) < 2:
                            compactor.mark_finished(sub[0])
                        else:
                            yield from self._compact(compactor, sub, target, stats)
                if self.unit_pause:
                    yield Think(self.unit_pause)
        yield ReleaseAll()
        return stats

    def _pass1_base_pages(self, compactor: LeafCompactor) -> list[PageId]:
        return compactor._base_page_ids_in_key_order()

    def _compact(self, compactor, group, target, stats):
        """One compaction unit over ``group``: :meth:`_run_unit` itself (no
        generator frame of its own), None when there are no pages to pick."""
        return self._run_unit(self._compaction(compactor, group, target, stats), stats)

    def _compaction(self, compactor, group, target, stats) -> Callable[[], _Unit | None]:
        """Figure 2 for one group, as a ``describe``: the destinations are
        picked afresh on every attempt — section 6's trade-off is in their
        number, one page per unit or several and the locks held that much
        longer — and None when there are none to pick."""

        def describe() -> _Unit | None:
            dests = compactor.pick_dests(group, target)
            if dests is None:
                return None

            def complete(unit_id, bases):
                result = self.engine.complete_compact(unit_id, bases[0], group, dests)
                compactor.mark_finished(max(dests))
                place = "in_place_units" if result.dest_page in group else "new_place_units"
                stats["units"] += 1
                stats[place] += 1
                stats["records_moved"] += result.records_moved
                stats["results"].append(result)
                return result

            return _Unit(
                leaves=group,
                new_pages=[dest for dest in dests if dest not in group],
                begin=lambda bases: self.engine.begin_compact(
                    bases[0], group, dests, target
                ),
                complete=complete,
                planned_ahead=True,
            )

        return describe

    # -- pass 2 ------------------------------------------------------------------

    def pass2(self) -> Generator[Any, Any, dict]:
        """Swap/move under unit locking; section 4.1 + section 6.  The
        planner is the configured schedule's (key order or seek-aware)."""
        yield Acquire(tree_lock(self._lock_name()), IX)
        stats = {"swaps": 0, "moves": 0, "already_placed": 0, "skipped": [],
                 "retries": 0, "undone": 0}
        planner = SeekAwareCursor if self.db.config.seek_aware_pass2 else KeyOrderCursor
        cursor = planner(self.tree)
        plan = yield Call(cursor.next_misplaced)
        leaves = cursor.leaves
        for _step in range(4 * leaves + 8):
            if plan is None:
                break
            current, target, occupied = plan
            if occupied:
                kind, unit = "swaps", self._swap_unit(current, target)
            else:
                kind, unit = "moves", self._move_unit(current, target)
            if (yield from self._run_unit(lambda: unit, stats)):
                stats[kind] += 1
            if self.unit_pause:
                yield Think(self.unit_pause)
            plan = yield Call(cursor.next_misplaced)
        else:
            raise ReorgError("ordering did not converge")
        stats["already_placed"] = leaves - stats["swaps"] - stats["moves"]
        stats["skipped"] = sorted(cursor.skipped)
        yield ReleaseAll()
        return stats

    def _move_unit(self, source, target) -> _Unit:
        """A pass-2 move, which begins only if its target is still free: a
        user split may have taken the page since it was planned."""
        return _Unit(
            leaves=[source],
            new_pages=[target],
            begin=lambda bases: self.engine.begin_compact(
                bases[0], [source], [target], unit_type=ReorgUnitType.MOVE
            ) if self.db.store.free_map.is_free(target) else None,
            complete=lambda unit_id, bases: self.engine.complete_compact(
                unit_id, bases[0], [source], [target]
            ),
        )

    def _swap_unit(self, leaf_a, leaf_b) -> _Unit:
        return _Unit(
            leaves=[leaf_a, leaf_b],
            new_pages=[],
            begin=lambda bases: self.engine.begin_swap(
                bases[0], leaf_a, bases[-1], leaf_b
            ),
            complete=lambda unit_id, bases: self.engine.complete_swap(
                unit_id, bases[0], leaf_a, bases[-1], leaf_b
            ),
            own_parents=True,
        )

    # -- pass 3 ------------------------------------------------------------------

    def pass3(
        self, shrinker: TreeShrinker | None = None, resume_from: int | None = None
    ) -> Generator[Any, Any, dict]:
        """Internal reorganization: S one base page at a time, side file,
        and the section 7.4 switch.  The step bodies are TreeShrinker's and
        Switcher's; stated here is where the reorganizer locks and waits.

        Forward recovery passes the ``shrinker`` it rolled back to the last
        stable point and the stable key to ``resume_from``."""
        yield Acquire(tree_lock(self._lock_name()), IX)
        shrinker = shrinker or TreeShrinker(self.db, self.tree, self.config)
        switcher = Switcher(self.db, self.tree, shrinker)
        try:
            first = yield Call(lambda: shrinker.begin_scan(resume_from))
            # A leaf root has no upper levels: nothing was attached.  A
            # resumed scan that had finished goes straight to build_upper.
            if shrinker.scanning:
                if first is not None:
                    yield from self._scan_protocol(shrinker, first.page_id)
                yield Call(shrinker.build_upper)
                # Catch-up (no locks): loop until the side file drains.
                while True:
                    yield Call(shrinker.apply_side_file_once)
                    if shrinker.caught_up():
                        break
                    yield Think(self.scan_pause or 0.1)
                yield from self._switch_protocol(switcher)
        finally:
            shrinker.detach_listener()
        yield ReleaseAll()
        result = asdict(shrinker.stats) | asdict(switcher.stats)
        return result | {"base_pages": result["base_pages_read"]}

    def _scan_protocol(self, shrinker: TreeShrinker, base_id: PageId | None):
        """Sections 7.1/7.5: S on exactly one base page at a time."""
        # Anchor a stable point at scan start so a crash at any later
        # moment always has a well-defined (stable key, built pages) pair
        # to roll back to.
        yield Call(shrinker.stable_point)
        while base_id is not None:
            # "The reorganizer only holds an S lock on the base page
            # that it is reading, so other readers could also access
            # that page" (section 7.1).
            yield Acquire(page_lock(base_id), S)
            # The page is fetched afresh under the S lock: it may have been
            # written and evicted since Get_Next named it.
            next_base = yield Call(
                lambda b=base_id: shrinker.scan_base(self.db.store.get_internal(b))
            )
            if shrinker.stable_point_due:
                yield Call(shrinker.stable_point)
            if self.scan_pause:
                # Reading time, charged while the S lock is held.
                yield Think(self.scan_pause)
            yield Release(page_lock(base_id), S)
            base_id = next_base.page_id if next_base is not None else None

    def _switch_protocol(
        self, switcher: Switcher, pending: tuple[PageId, PageId, str] | None = None
    ):
        """Section 7.4 with the waits made explicit.  ``pending`` is a
        logged ``TreeSwitchRecord``'s (old root, new root, old lock name):
        forward recovery finishes that switch, and the log proves the final
        catch-up and the record itself already ran."""
        sidefile = sidefile_lock(self.tree_name)
        yield Acquire(sidefile, X)
        if pending is None:
            yield Call(switcher.final_catch_up)
            yield Call(switcher.log_switch)
        else:
            switcher.stats.old_root, switcher.stats.new_root, switcher.old_lock_name = pending
        yield Call(switcher.flip_root)
        old_tree = tree_lock(switcher.old_lock_name)
        # Drain old-tree transactions: X on the old lock name.  With a
        # wait limit, poll and force stragglers to abort (section 7.4).
        limit = self.config.switch_wait_limit
        if limit is not None:
            waited = 0.0
            poll = max(limit / 10.0, 0.01)
            while True:
                holders = yield Call(
                    lambda: [
                        owner
                        for owner in self.db.locks.holders_of(old_tree)
                        # The reorganizer's own IX on the old tree does not
                        # count as a straggler.
                        if not getattr(owner, "is_reorganizer", False)
                    ]
                )
                if not holders:
                    break
                if waited >= limit:
                    if not self.config.abort_old_transactions_on_timeout:
                        raise SwitchTimeoutError(
                            f"old tree still in use after {limit} time units"
                        )
                    if self.abort_hook is not None:
                        yield Call(lambda h=holders: self.abort_hook(h))
                        switcher.stats.aborted_stragglers += len(holders)
                    else:
                        raise SwitchTimeoutError(
                            "forced abort requested but no abort_hook is wired"
                        )
                yield Think(poll)
                waited += poll
        yield Acquire(old_tree, X)
        yield Call(switcher.discard_old)
        yield Call(switcher.finish)
        yield Release(old_tree, X)
        yield Release(sidefile, X)


def full_reorganization(protocol: ReorgProtocol) -> Generator[Any, Any, dict]:
    """All three passes as one background process."""
    stats: dict = {}
    stats["pass1"] = yield from protocol.pass1()
    if protocol.config.do_swap_pass:
        stats["pass2"] = yield from protocol.pass2()
    root = protocol.db.store.get(protocol.tree.root_id)
    if root.kind is PageKind.INTERNAL:
        stats["pass3"] = yield from protocol.pass3()
    return stats
