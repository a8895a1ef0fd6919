"""The Tandem-style baseline reorganizer ([Smi90], paper section 8).

Reimplemented from the paper's description of Gary Smith's on-line
reorganization of key-sequenced tables (the Franco Putzolu algorithm):

* four operations — **block move**, **block merge**, **block swap**, and
  **block split** — each run as an individual database transaction;
* "No matter what the new page fill factor is, each transaction in [Smi90]
  will only deal with two blocks (pages)";
* "[Smi90] prevents user transactions from accessing the entire file
  (B+-tree)" for the duration of each operation — modelled as an X lock on
  the tree lock per operation;
* interrupted operations are **rolled back**, not forward-recovered.

The data movement itself reuses :class:`~repro.reorg.unit.UnitEngine`
(merge = a two-source compact, move = a MOVE unit, swap = a SWAP unit), so
the comparison against the paper's method isolates exactly the properties
section 8 claims: locking granularity, units of work, transaction count,
and recovery policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.btree.tree import BPlusTree
from repro.config import ReorgConfig
from repro.db import Database
from repro.errors import ReorgError
from repro.locks.modes import LockMode
from repro.locks.resources import tree_lock
from repro.reorg.placement import KeyOrderPolicy
from repro.reorg.swap import KeyOrderCursor
from repro.reorg.switch import current_lock_name
from repro.reorg.unit import UnitEngine, UnitResult
from repro.storage.page import PageId, PageKind
from repro.txn.ops import Acquire, Call, Release, Think
from repro.wal.recovery import PendingReorgUnit


@dataclass
class Smith90Stats:
    """Work accounting for the granularity/overhead comparison (E5)."""

    merges: int = 0
    moves: int = 0
    swaps: int = 0
    #: One whole-file lock acquisition per operation.
    file_locks: int = 0
    #: Each operation is its own transaction.
    transactions: int = 0
    results: list[UnitResult] = field(default_factory=list)

    @property
    def operations(self) -> int:
        return self.merges + self.moves + self.swaps


class Smith90Reorganizer:
    """Synchronous engine: pairwise merges, then swap/move ordering."""

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
        self.stats = Smith90Stats()
        #: Ordering plans leaf i to page i of the leaf extent.
        self.cursor = KeyOrderCursor(tree, self.engine.chain, KeyOrderPolicy())

    # -- planning ----------------------------------------------------------------

    def _target(self) -> int:
        capacity = self.db.store.config.leaf_capacity
        return max(1, math.floor(capacity * self.config.target_fill + 1e-9))

    def next_merge(self) -> tuple[PageId, PageId, PageId] | None:
        """First adjacent same-parent pair that fits in one page:
        (base page, left leaf, right leaf)."""
        target = self._target()
        root = self.db.store.get(self.tree.root_id)
        if root.kind is PageKind.LEAF:
            return None
        stack = [self.tree.root_id]
        while stack:
            page = self.db.store.get(stack.pop())
            if page.kind is not PageKind.INTERNAL:
                continue
            if page.level > 1:  # type: ignore[union-attr]
                stack.extend(reversed(page.children()))  # type: ignore[union-attr]
                continue
            children = page.children()  # type: ignore[union-attr]
            for left, right in zip(children, children[1:]):
                left_n = self.db.store.get_leaf(left).num_items
                right_n = self.db.store.get_leaf(right).num_items
                if 0 < left_n + right_n <= target:
                    return page.page_id, left, right
        return None

    # -- operations (each one "transaction") ----------------------------------------

    def block_merge(self, base: PageId, left: PageId, right: PageId) -> UnitResult:
        """Merge the contents of two leaf pages into the left one."""
        result = self.engine.compact_unit(base, [left, right], [left])
        self.stats.merges += 1
        self._account()
        self.stats.results.append(result)
        return result

    def block_move(self, leaf: PageId, target: PageId) -> UnitResult:
        result = self.engine.move_unit(self.engine.parent_of(leaf), leaf, target)
        self.stats.moves += 1
        self._account()
        self.stats.results.append(result)
        return result

    def block_swap(self, leaf_a: PageId, leaf_b: PageId) -> UnitResult:
        parent_of = self.engine.parent_of
        result = self.engine.swap_unit(
            parent_of(leaf_a), leaf_a, parent_of(leaf_b), leaf_b
        )
        self.stats.swaps += 1
        self._account()
        self.stats.results.append(result)
        return result

    def _account(self) -> None:
        self.stats.transactions += 1
        self.stats.file_locks += 1

    # -- full run (synchronous) -------------------------------------------------------

    def run_compaction(self) -> int:
        """Merge adjacent pairs until no pair fits; returns merge count."""
        merges = 0
        while True:
            pair = self.next_merge()
            if pair is None:
                return merges
            self.block_merge(*pair)
            merges += 1

    def run_ordering(self) -> int:
        """Move/swap leaves into contiguous key order; returns op count."""
        ops = 0
        for _ in range(4 * len(self.cursor.chain) + 8):
            plan = self.cursor.next_misplaced()
            if plan is None:
                return ops
            leaf, target, occupied = plan
            if occupied:
                self.block_swap(leaf, target)
            else:
                self.block_move(leaf, target)
            ops += 1
        raise ReorgError("ordering did not converge")

    def run(self) -> Smith90Stats:
        self.run_compaction()
        self.run_ordering()
        return self.stats

    # -- recovery policy ----------------------------------------------------------

    def recover_interrupted(self, pending: PendingReorgUnit) -> bool:
        """Rollback, not forward recovery: the baseline's crash policy.

        Returns True when the interrupted operation was rolled back (its
        work is lost and must be redone by a fresh operation).
        """
        return self.engine.rollback_unit(pending)


class Smith90Protocol:
    """DES protocol: each block operation X-locks the whole file.

    "[Smi90] prevents user transactions from accessing the entire file" —
    every user transaction IS/IX-locks the tree, so the per-operation X
    lock blocks all of them for the operation's duration.
    """

    def __init__(
        self,
        db: Database,
        tree_name: str,
        config: ReorgConfig | None = None,
        *,
        op_pause: float = 0.0,
        op_duration: float = 0.3,
    ):
        self.db = db
        self.tree_name = tree_name
        self.config = config or ReorgConfig()
        self.tree = db.tree(tree_name)
        self.reorganizer = Smith90Reorganizer(db, self.tree, self.config)
        self.op_pause = op_pause
        #: Simulated time the file stays locked per block operation.
        self.op_duration = op_duration

    def run(self) -> Generator[Any, Any, dict]:
        stats = {"merges": 0, "placements": 0}
        name = current_lock_name(self.db, self.tree_name)
        while True:
            pair = yield Call(self.reorganizer.next_merge)
            if pair is None:
                break
            yield Acquire(tree_lock(name), LockMode.X)
            yield Think(self.op_duration)
            yield Call(lambda p=pair: self.reorganizer.block_merge(*p))
            yield Release(tree_lock(name), LockMode.X)
            stats["merges"] += 1
            if self.op_pause:
                yield Think(self.op_pause)
        while True:
            plan = yield Call(self.reorganizer.cursor.next_misplaced)
            if plan is None:
                break
            leaf, target, occupied = plan
            yield Acquire(tree_lock(name), LockMode.X)
            yield Think(self.op_duration)
            if occupied:
                yield Call(lambda: self.reorganizer.block_swap(leaf, target))
            else:
                yield Call(lambda: self.reorganizer.block_move(leaf, target))
            yield Release(tree_lock(name), LockMode.X)
            stats["placements"] += 1
            if self.op_pause:
                yield Think(self.op_pause)
        stats["smith"] = self.reorganizer.stats
        return stats
