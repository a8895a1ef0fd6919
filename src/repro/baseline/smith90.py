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
from typing import Any, Callable, Generator, Hashable

from repro.btree.tree import BPlusTree
from repro.config import ReorgConfig
from repro.db import Database
from repro.errors import ReorgError
from repro.locks.modes import LockMode
from repro.locks.resources import current_lock_name, tree_lock
from repro.reorg.placement import KeyOrderPolicy
from repro.reorg.swap import KeyOrderCursor
from repro.reorg.unit import UnitEngine, UnitResult
from repro.storage.page import PageId, PageKind
from repro.txn.ops import Acquire, Call, Release, Think
from repro.txn.scheduler import run_alone
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
    """Pairwise merges, then swap/move ordering: each loop one generator,
    which :class:`Smith90Protocol` paces on the DES and ``run_*`` drive
    alone."""

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
        self.cursor = KeyOrderCursor(tree, KeyOrderPolicy())

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

    # -- the operation loops: one generator each, driven alone or on the DES ------

    def merges(
        self, *, op_duration: float = 0.0, op_pause: float = 0.0
    ) -> Generator[Any, Any, int]:
        """Block merges until no adjacent same-parent pair fits in one page;
        returns the merge count."""
        file_lock = tree_lock(current_lock_name(self.db, self.tree.name))
        merges = 0
        while (pair := (yield Call(self.next_merge))) is not None:
            yield from _operation(
                file_lock, lambda p=pair: self.block_merge(*p), op_duration, op_pause
            )
            merges += 1
        return merges

    def placements(
        self, *, op_duration: float = 0.0, op_pause: float = 0.0
    ) -> Generator[Any, Any, int]:
        """Block moves/swaps into contiguous key order; returns the count."""
        file_lock = tree_lock(current_lock_name(self.db, self.tree.name))
        plan = yield Call(self.cursor.next_misplaced)
        for placed in range(4 * self.cursor.leaves + 8):
            if plan is None:
                return placed
            leaf, target, occupied = plan
            block = self.block_swap if occupied else self.block_move
            yield from _operation(
                file_lock, lambda: block(leaf, target), op_duration, op_pause
            )
            plan = yield Call(self.cursor.next_misplaced)
        raise ReorgError("ordering did not converge")

    def run_compaction(self) -> int:
        return run_alone(self.merges())

    def run_ordering(self) -> int:
        return run_alone(self.placements())

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
        self.reorganizer = Smith90Reorganizer(db, db.tree(tree_name), config)
        self.op_pause = op_pause
        #: Simulated time the file stays locked per block operation.
        self.op_duration = op_duration

    def run(self) -> Generator[Any, Any, dict]:
        smith = self.reorganizer
        pace = {"op_duration": self.op_duration, "op_pause": self.op_pause}
        merges = yield from smith.merges(**pace)
        placements = yield from smith.placements(**pace)
        return {"merges": merges, "placements": placements, "smith": smith.stats}


def _operation(
    file_lock: Hashable, block: Callable[[], Any], op_duration: float, op_pause: float
) -> Generator[Any, Any, None]:
    """One block operation as its own transaction: the whole file X-locked
    for ``op_duration``, then ``op_pause`` before the next."""
    yield Acquire(file_lock, LockMode.X)
    yield Think(op_duration)
    yield Call(block)
    yield Release(file_lock, LockMode.X)
    if op_pause:
        yield Think(op_pause)
