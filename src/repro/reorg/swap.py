"""Pass 2: swapping and moving leaves into contiguous key order on disk.

Paper section 6: "Finally we are going to swap leaf pages to make them
contiguous in the key order."  The pass is optional — "the user can decide
not to do swapping"; "One scenario we envision is choosing to do swapping
only when range query performance falls below some acceptable level."

The implementation walks the leaves in key order and drives each one to the
target slot assigned by the configured placement policy
(:mod:`repro.reorg.placement`; under the default ``key_order`` policy the
i-th leaf belongs at the i-th page of the leaf extent, and every built-in
policy either keeps that assignment or skips the pass):

* target slot free           -> **Moving** (a MOVE unit, new-place; cheaper:
  one base page, and careful writing keeps the log small);
* target slot holds a leaf   -> **Swapping** (a SWAP unit; "swapping usually
  involves two distinct base pages" and always logs a full page image).

Benchmark E1 counts the swaps this pass needs under each pass-1 empty-page
policy.

Version-stamp coverage (optimistic read path): every move and swap funnels
through log-apply -> ``BufferPool.mark_dirty`` for *both* pages of the
unit, so a lock-free reader that validated either page before the unit
restarts afterwards; no extra bumping is needed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.db import Database
from repro.errors import ReorgError
from repro.reorg.placement import PlacementPolicy, make_policy
from repro.reorg.unit import LeafChain, UnitEngine
from repro.storage.page import NO_PAGE, PageId, PageKind
from repro.storage.store import LEAF_EXTENT


@dataclass
class Pass2Stats:
    """Outcome of the swap/move pass."""

    swaps: int = 0
    moves: int = 0
    already_placed: int = 0

    @property
    def operations(self) -> int:
        return self.swaps + self.moves


def leaf_slots(
    tree: BPlusTree, placement: PlacementPolicy, n_leaves: int
) -> list[PageId] | None:
    """Policy-assigned target page per leaf rank (None: leaves stay put),
    in the tree's shard lease when it has one, else in the leaf extent."""
    lease = getattr(tree.store, "leaf_lease", None)
    window = lease if lease is not None else tree.store.disk.extent(LEAF_EXTENT)
    return placement.leaf_slots(n_leaves, window.start)


class KeyOrderCursor:
    """Pass 2's one planner (synchronous, DES, [Smi90]): the first leaf in
    key order not yet in its slot.

    It resumes at the rank of its previous plan — executing a plan changes
    that rank and later ones only — and restarts at rank 0 whenever the
    chain re-seeds, which is where a walk on every step starts.  A slot held
    by a page that is not a later leaf (under concurrency, a fresh split)
    is left alone and its leaf *skipped*; slots being distinct, an occupied
    target is a later leaf exactly when it is chained and not skipped.
    """

    def __init__(self, tree: BPlusTree, chain: LeafChain, placement: PlacementPolicy):
        self.tree, self.chain, self.placement = tree, chain, placement
        self._epoch = -1
        self._slots: list[PageId] | None = None
        self._rank, self._before = 0, NO_PAGE  # _before: the page at _rank - 1
        self.skipped: set[PageId] = set()

    def next_misplaced(self) -> tuple[PageId, PageId, bool] | None:
        """``(leaf, target slot, slot occupied?)``, or None once every leaf
        is placed or skipped (or the root is the one leaf)."""
        chain = self.chain
        epoch = chain.epoch()
        if epoch != self._epoch:
            self._epoch, self._rank, self._before, self.skipped = epoch, 0, NO_PAGE, set()
            self._slots = (
                None if self.tree.root_id in chain
                else leaf_slots(self.tree, self.placement, len(chain))
            )
        slots = self._slots or ()
        is_free = self.tree.store.free_map.is_free
        rank, before = self._rank, self._before
        while rank < len(slots):
            leaf, target = chain.neighbours(before)[1], slots[rank]
            if leaf != target:
                occupied = not is_free(target)
                if not occupied or (target in chain and target not in self.skipped):
                    self._rank, self._before = rank, before
                    return leaf, target, occupied
                self.skipped.add(leaf)
            rank, before = rank + 1, leaf
        self._rank, self._before = rank, before
        return None


class SwapMovePass:
    """Runs pass 2 synchronously against one tree."""

    def __init__(
        self,
        db: Database,
        tree: BPlusTree,
        engine: UnitEngine | None = None,
    ):
        self.db = db
        self.tree = tree
        self.engine = engine or UnitEngine(db, tree)
        #: Placement policy: supplies the target slot of every leaf (or
        #: declines to place leaves at all, making this pass a no-op).
        self.placement = make_policy(db.config.placement_policy)

    def run(self) -> Pass2Stats:
        stats = Pass2Stats()
        if not self.placement.places_leaves:
            return stats  # the `none` policy: leaves stay where pass 1 left them
        root = self.db.store.get(self.tree.root_id)
        if root.kind is PageKind.LEAF:
            return stats  # a single-leaf tree is trivially in order
        with self.engine.owning_tree() as chain:
            if self.db.config.seek_aware_pass2:
                self._run_seek_aware(chain, stats)
            else:
                self._run_key_order(chain, stats)
        return stats

    def _run_key_order(self, chain: LeafChain, stats: Pass2Stats) -> None:
        """The paper's ordering: drive leaf i to slot i, for i ascending
        (the pass owns the tree, so no leaf may be skipped)."""
        cursor = KeyOrderCursor(self.tree, chain, self.placement)
        while (plan := cursor.next_misplaced()) is not None:
            current, target, occupied = plan
            if occupied:
                self._swap(current, target)
                stats.swaps += 1
            else:
                self._move(current, target)
                stats.moves += 1
        if cursor.skipped:
            raise ReorgError(f"slots of leaves {sorted(cursor.skipped)} hold other pages")
        stats.already_placed += len(chain) - stats.operations

    def _run_seek_aware(self, chain: LeafChain, stats: Pass2Stats) -> None:
        """Seek-minimizing ordering: the same placement, elevator-style.

        The key-order schedule jumps the disk head around — leaf ``i`` may
        live anywhere in the extent, so consecutive units touch distant
        pages.  This variant keeps the *placement* invariant (leaf ``i``
        ends at its policy-assigned slot) but picks the order of units to
        sweep ascending over the **source** page ids:

        1. repeatedly sweep the still-misplaced leaves in ascending order
           of their current page, MOVE-ing any whose target slot is free
           (each move can free another leaf's target, so sweep until a
           full pass makes no progress);
        2. when no move is possible every remaining leaf's target is held
           by another remaining leaf (the misplaced leaves form cycles) —
           break one with a SWAP at the smallest pending index, then go
           back to sweeping.

        Every step places at least one leaf, so the pass terminates with
        exactly the same final layout as the key-order schedule — but not
        the same units: moving first empties slots key order would have
        swapped into, so swaps remain only for true cycles and the log
        volume changes with the mix.
        """
        slots = leaf_slots(self.tree, self.placement, len(chain)) or []
        #: page holding a misplaced leaf -> (the leaf's rank, its target).
        pending = {
            pid: (rank, slot)
            for rank, (pid, slot) in enumerate(zip(chain, slots))
            if pid != slot
        }
        stats.already_placed += len(chain) - len(pending)
        while pending:
            # 1. Elevator sweeps of MOVEs, ascending source page id.
            progressed = True
            while progressed and pending:
                progressed = False
                for source in sorted(pending):
                    target = pending[source][1]
                    if not self.db.store.free_map.is_free(target):
                        continue
                    self._move(source, target)
                    del pending[source]
                    stats.moves += 1
                    progressed = True
            if not pending:
                break
            # 2. All remaining targets are occupied by pending leaves:
            # break a cycle with one swap at the smallest pending index.
            source = min(pending, key=pending.__getitem__)
            target = pending.pop(source)[1]
            occupant = pending.pop(target, None)
            if occupant is None:
                raise ReorgError(
                    f"page {target} is allocated but not a misplaced leaf "
                    f"of this tree; cannot place leaf {source}"
                )
            self._swap(source, target)
            if occupant[1] != source:
                # No 2-cycle closed: the occupant's leaf now waits in ``source``.
                pending[source] = occupant
            stats.swaps += 1

    def _move(self, source: PageId, dest: PageId) -> None:
        self.engine.move_unit(self.engine.parent_of(source), source, dest)

    def _swap(self, leaf_a: PageId, leaf_b: PageId) -> None:
        parent_of = self.engine.parent_of
        self.engine.swap_unit(parent_of(leaf_a), leaf_a, parent_of(leaf_b), leaf_b)
