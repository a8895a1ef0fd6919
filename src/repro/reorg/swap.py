"""Pass 2: swapping and moving leaves into contiguous key order on disk.

Paper section 6: "Finally we are going to swap leaf pages to make them
contiguous in the key order."  The pass is optional — "the user can decide
not to do swapping"; "One scenario we envision is choosing to do swapping
only when range query performance falls below some acceptable level."

The pass drives every leaf to its key-order slot: the i-th leaf belongs at
the i-th page of the leaf extent (or of the shard's leased slice of it):

* target slot free           -> **Moving** (a MOVE unit, new-place; cheaper:
  one base page, and careful writing keeps the log small);
* target slot holds a leaf   -> **Swapping** (a SWAP unit; "swapping usually
  involves two distinct base pages" and always logs a full page image).

This module holds the planners — :class:`KeyOrderCursor`, the paper's leaf
order, and :class:`SeekAwareCursor`, the elevator order — behind one
``next_misplaced()``.  The loop that runs their plans is written once, as
the generator :meth:`repro.reorg.protocols.ReorgProtocol.pass2`, which the
DES schedules among users and
:meth:`repro.reorg.reorganizer.Reorganizer.run_pass2` drives alone.
Benchmark E1 counts the swaps the pass needs under each pass-1 empty-page
policy.

Version-stamp coverage (the waiter's test of ROADMAP item 1(a)): every move
and swap funnels through log-apply -> ``BufferPool.mark_dirty`` for *both*
pages of the unit, so a stamp captured on either page before the unit no
longer matches afterwards; no extra bumping is needed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.btree.tree import BPlusTree
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


class _Planner:
    """The two planners' shared state.  They plan from rank 0 again on
    their first plan and whenever a user split or freed a leaf since, as
    the tree's leaf-order counter shows (always on a bare tree, which has
    none): their own units change no base page's child count."""

    def __init__(self, tree: BPlusTree):
        self.tree = tree
        self._order: int | None = None
        #: Leaves whose slot holds a page that is not a later leaf.
        self.skipped: set[PageId] = set()
        #: Plans from rank 0 so far, and the tree's leaves at the last one.
        self.restarts = self.leaves = 0

    def _restart(self) -> list[PageId] | None:
        """The target slot per leaf rank when a restart is due, else None;
        ``[]`` when the root is the one leaf.  Leaf ``i``'s slot is page
        ``i`` of the tree's shard lease when it has one, else of the leaf
        extent."""
        tree = self.tree
        order = tree.leaf_order()
        if self.restarts and order is not None and order == self._order:
            return None
        self._order, self.skipped = order, set()
        self.restarts += 1
        self.leaves = tree.leaf_count()
        if tree.store.get(tree.root_id).kind is PageKind.LEAF:
            return []
        lease = getattr(tree.store, "leaf_lease", None)
        window = lease if lease is not None else tree.store.disk.extent(LEAF_EXTENT)
        return list(range(window.start, window.start + self.leaves))


class KeyOrderCursor(_Planner):
    """Pass 2's key-order planner (also [Smi90]'s): the first leaf in key
    order not yet in its slot.

    It steps the tree's leaf cursor (:meth:`BPlusTree.leaf_neighbour`)
    and holds the place of its previous plan across the unit that runs it:
    a move re-inserts one base entry under the same key and a swap
    exchanges two child pointers, so the place then holds the leaf of the
    same rank.  It restarts at rank 0 when a user split or freed a leaf,
    which is where a walk on every step starts.  A slot held by a page that
    is not a later leaf is left alone and its leaf *skipped*; slots being
    distinct and every earlier rank placed or skipped, an occupied target
    is a later leaf exactly when it is not skipped.
    """

    def __init__(self, tree: BPlusTree):
        super().__init__(tree)
        self._slots: list[PageId] = []
        self._rank = 0
        self._place: tuple[PageId, int] | None = None  # of the leaf at _rank

    def next_misplaced(self) -> tuple[PageId, PageId, bool] | None:
        """``(leaf, target slot, slot occupied?)``, or None once every leaf
        is placed or skipped (or the root is the one leaf)."""
        tree = self.tree
        if (slots := self._restart()) is not None:
            self._slots, self._rank = slots, 0
            self._place = tree.first_leaf_place() if slots else None
        slots, get = self._slots, tree.store.get_internal
        is_free, step = tree.store.free_map.is_free, tree.leaf_neighbour
        rank, place = self._rank, self._place
        while place is not None and rank < len(slots):
            leaf = get(place[0]).child_at(place[1])
            # NO_PAGE: a moved empty leaf dropped its base page's last entry.
            if leaf != NO_PAGE:
                target = slots[rank]
                if leaf != target:
                    occupied = not is_free(target)
                    if not occupied or target not in self.skipped:
                        self._rank, self._place = rank, place
                        return leaf, target, occupied
                    self.skipped.add(leaf)
                rank += 1
            beside = step(*place, 1)
            place = None if beside is None else beside[:2]
        self._rank, self._place = rank, place
        return None


class SeekAwareCursor(_Planner):
    """Pass 2's seek-minimizing planner (``TreeConfig.seek_aware_pass2``):
    the same placement, scheduled elevator-style.

    The key-order schedule jumps the disk head around — leaf ``i`` may live
    anywhere in the extent, so consecutive units touch distant pages.  This
    planner keeps the *placement* invariant (leaf ``i`` ends at its
    ``i``-th slot) but orders the units to sweep ascending over the
    **source** page ids:

    1. repeatedly sweep the still-misplaced leaves in ascending order of
       their current page, MOVE-ing any whose target slot is free (each
       move can free another leaf's target, so sweep until a full pass
       makes no progress);
    2. when no move is possible every remaining leaf's target is held by
       another remaining leaf (the misplaced leaves form cycles) — break one
       with a SWAP at the smallest pending rank, then go back to sweeping.

    Every step places at least one leaf, so the pass ends at the key-order
    schedule's layout — but not through the same units: moving first
    empties slots key order would have swapped into, so swaps remain only
    for true cycles and the log volume changes with the mix.  Like
    :class:`KeyOrderCursor` it re-plans from one walk of the leaf cursor
    when a user split or freed a leaf, and a leaf whose slot holds a page
    that is not a misplaced leaf is *skipped*.
    """

    def __init__(self, tree: BPlusTree):
        super().__init__(tree)
        #: page holding a misplaced leaf -> (the leaf's rank, its target).
        self._pending: dict[PageId, tuple[int, PageId]] = {}
        self._sweep: Iterator[PageId] = iter(())
        self._moved = False  # by the current sweep

    def next_misplaced(self) -> tuple[PageId, PageId, bool] | None:
        """``(leaf's page, target slot, slot occupied?)``, or None once
        every leaf is placed or skipped (or the root is the one leaf)."""
        if (slots := self._restart()) is not None:
            self._pending = {
                pid: (rank, slot)
                for rank, (pid, slot) in enumerate(zip(self.tree.leaf_ids_from(), slots))
                if pid != slot
            }
            self._sweep, self._moved = iter(sorted(self._pending)), False
        pending, is_free = self._pending, self.tree.store.free_map.is_free
        while pending:
            # 1. Elevator sweeps of MOVEs, ascending source page id.
            for source in self._sweep:
                target = pending[source][1]
                if is_free(target):
                    del pending[source]
                    self._moved = True
                    return source, target, False
            if self._moved:  # the sweep made progress: sweep again
                self._sweep, self._moved = iter(sorted(pending)), False
                continue
            # 2. Every remaining target is occupied: break a cycle with one
            # swap at the smallest pending rank, then sweep again.
            source = min(pending, key=pending.__getitem__)
            target = pending.pop(source)[1]
            occupant = pending.pop(target, None)
            if occupant is not None and occupant[1] != source:
                # No 2-cycle closed: the occupant's leaf now waits in ``source``.
                pending[source] = occupant
            self._sweep = iter(sorted(pending))
            if occupant is not None:
                return source, target, True
            self.skipped.add(source)
        return None
