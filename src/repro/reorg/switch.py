"""Switching from the old B+-tree to the new one (paper section 7.4).

"A detailed description of switching from the old B+-tree to the new
B+-tree is described for the first time" — the paper's own headline.  The
protocol:

1. X-lock the **side file**.  "This will prevent any further updates on
   base pages of either the new or the old tree" (updaters must IX the side
   file before a base-page change while the reorg bit is set), while plain
   readers and non-structural updaters proceed.
2. Final catch-up: apply the handful of side-file entries appended while
   waiting for the X lock, and log those changes.
3. Flip the root: "we change the information about the location of the
   root of the old B+-tree to that of the new B+-tree.  This information is
   usually on a special place on the disk."  The new tree also gets a lock
   name distinct from the old one, so new transactions lock the new name.
4. X-lock the **old tree** (its old lock name).  Every transaction using
   the old tree holds an IS/IX intention lock on it, so this grant means
   they have all drained.  An optional wait limit aborts stragglers
   ("we might set a time limit ... then it will force the on-going
   transactions that use the old tree to abort").
5. Discard the old upper levels and reclaim their disk space; clear the
   reorganization bit; release the X locks.

Every step that touches state — 2, the forced ``TreeSwitchRecord`` that lets
a crash finish the switch forward, 3, and the two halves of 5 — is one
:class:`Switcher` method.  Its callers differ only in how they take the
locks of steps 1 and 4 around those calls: :meth:`Switcher.run` requests
them outright (a synchronous caller holds no tree lock),
:meth:`Switcher.finish_pending_switch` is the same sequence minus what the
log proves was done, and the DES protocol in :mod:`repro.reorg.protocols`
yields them to the scheduler and waits out step 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.btree.tree import BPlusTree
from repro.db import Database
from repro.errors import ReorgError
from repro.locks.modes import LockMode
from repro.locks.resources import sidefile_lock, tree_lock
from repro.reorg.shrink import TreeShrinker
from repro.storage.page import PageId, PageKind
from repro.txn.transaction import Transaction
from repro.wal.records import FreeRecord, ReorgDoneRecord, TreeSwitchRecord


@dataclass
class SwitchStats:
    """Outcome of the switch."""

    final_catchup_entries: int = 0
    old_internal_freed: int = 0
    #: Old-tree transactions the drain's time limit forced to abort.
    aborted_stragglers: int = 0
    old_root: PageId = -1
    new_root: PageId = -1


def current_lock_name(db: Database, tree_name: str) -> str:
    """The tree's current lock name; distinct per tree incarnation."""
    name = db.store.disk.get_meta(f"lockname:{tree_name}")
    return name if name is not None else f"{tree_name}@0"  # type: ignore[return-value]


def sidefile_resource(db: Database) -> tuple:
    """The lock resource of the side file ``db``'s trees post to: a shard
    handle names its own side file, a plain database has the global one."""
    return sidefile_lock(getattr(db, "sidefile_name", ""))


def _bump_lock_name(db: Database, tree_name: str) -> None:
    epoch = int(current_lock_name(db, tree_name).rsplit("@", 1)[1]) + 1
    db.store.disk.set_meta(f"lockname:{tree_name}", f"{tree_name}@{epoch}")


class Switcher:
    """Performs the switch for a finished :class:`TreeShrinker`."""

    def __init__(
        self,
        db: Database,
        tree: BPlusTree,
        shrinker: TreeShrinker,
        *,
        reorg_txn: Transaction | None = None,
    ):
        self.db = db
        self.tree = tree
        self.shrinker = shrinker
        self.reorg_txn = reorg_txn or Transaction("switcher", is_reorganizer=True)
        self.stats = SwitchStats()
        #: What old-tree transactions hold; set with the switch record.
        self.old_lock_name = ""

    # -- the steps (section 7.4), each written once ------------------------------------

    def final_catch_up(self) -> None:
        """Step 2: apply the stragglers appended while the side-file X
        lock was being acquired."""
        self.stats.final_catchup_entries = self.shrinker.apply_side_file_once()

    def log_switch(self) -> None:
        """Force the switch record to the log *before* anything flips, so
        a crash anywhere from here on can finish the switch forward (both
        roots and the old lock name are known)."""
        if self.shrinker.new_root < 0:
            raise ReorgError("new upper levels are not built; run pass 3 first")
        self.stats.old_root = self.tree.root_id
        self.stats.new_root = self.shrinker.new_root
        self.old_lock_name = current_lock_name(self.db, self.tree.name)
        self.db.log.append(
            TreeSwitchRecord(
                old_root=self.stats.old_root,
                new_root=self.stats.new_root,
                old_lock_name=self.old_lock_name,
            )
        )
        self.db.log.flush()

    def flip_root(self) -> None:
        """Step 3: the root pointer and the tree lock name move to the new
        tree.  A no-op on a tree a crashed switch already flipped."""
        if self.tree.root_id == self.stats.old_root:
            _bump_lock_name(self.db, self.tree.name)
            self.tree.set_root(self.stats.new_root)
            # Invalidate in-flight optimistic descents anchored at the old
            # root: bump its version stamp so their next validation fails
            # and they restart against the new access path.  (An internal
            # old root is bumped again by the discard below; a *leaf* old
            # root is shared with the new tree and would otherwise never
            # change, leaving lock-free readers pinned to the old route.)
            self.db.store.buffer.bump_version(self.stats.old_root)
        self.db.store.disk.del_meta(f"root:{self.tree.name}.new")

    def discard_old(self) -> None:
        """Step 5, under X on the old lock name: free the old tree's
        internal pages, children before parents so an interrupted discard
        stays walkable.  Already-freed pages (a previous attempt got
        partway) are skipped."""
        store = self.db.store
        post_order: list[PageId] = []

        def walk(page_id: PageId) -> None:
            if store.free_map.is_free(page_id):
                return
            page = store.get(page_id)
            if page.kind is not PageKind.INTERNAL:
                return
            for child in page.children():  # type: ignore[union-attr]
                walk(child)
            post_order.append(page_id)

        walk(self.stats.old_root)
        for page_id in post_order:
            self.db.log.append(FreeRecord(page_id=page_id))
            store.deallocate(page_id)
        self.stats.old_internal_freed = len(post_order)

    def finish(self) -> None:
        """Step 5, the rest: log the end of the reorganization, clear the
        reorganization bit and the pass-3 bookkeeping, stop listening."""
        self.db.log.append(ReorgDoneRecord())
        self.db.log.flush()
        self.db.pass3.reorg_bit = False
        self.db.pass3.stable_key = None
        self.db.pass3.new_root = -1
        self.db.pass3.side_file_entries.clear()
        self.shrinker.built_entries.clear()
        self.shrinker.detach_listener()

    # -- the synchronous orderings ------------------------------------------------------

    def run(self) -> SwitchStats:
        return self._switch(self.final_catch_up, self.log_switch)

    def finish_pending_switch(
        self, old_root: PageId, new_root: PageId, old_lock_name: str
    ) -> SwitchStats:
        """Forward-complete a switch interrupted by a crash.

        Recovery saw the TreeSwitchRecord but no ReorgDoneRecord: the final
        catch-up and the record are in the log, the root flip and/or the
        old-tree discard may or may not have happened.  Both are
        idempotent, so simply redo them.
        """
        self.stats.old_root, self.stats.new_root = old_root, new_root
        self.old_lock_name = old_lock_name
        return self._switch()

    def _switch(self, *before_flip: Callable[[], None]) -> SwitchStats:
        locks, sidefile = self.db.locks, sidefile_resource(self.db)
        # 1. X lock the side file: stops base-page updaters on both trees.
        locks.request(self.reorg_txn, sidefile, LockMode.X)
        try:
            for step in before_flip:
                step()
            self.flip_root()
            # 4. Drain old-tree transactions by X-locking the old lock name.
            #    (Synchronous callers hold no tree locks, so this grants at
            #    once; the DES protocol version waits here, with the
            #    configured time limit and abort policy.)
            old_tree = tree_lock(self.old_lock_name)
            locks.request(self.reorg_txn, old_tree, LockMode.X)
            self.discard_old()
            self.finish()
            locks.release(self.reorg_txn, old_tree, LockMode.X)
        finally:
            locks.release(self.reorg_txn, sidefile, LockMode.X)
        return self.stats
