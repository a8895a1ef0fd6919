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
:class:`Switcher` method.  The one ordering of them, with the locks of
steps 1 and 4 yielded to the scheduler, is the DES protocol's
(:meth:`repro.reorg.protocols.ReorgProtocol._switch_protocol`).  The
synchronous reorganizer and forward recovery drive that same generator
alone; a switch the log shows had begun resumes at step 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.db import Database
from repro.errors import ReorgError
from repro.locks.resources import bump_lock_name, current_lock_name
from repro.reorg.shrink import TreeShrinker, internal_post_order
from repro.storage.page import PageId
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


class Switcher:
    """Performs the switch for a finished :class:`TreeShrinker`."""

    def __init__(self, db: Database, tree: BPlusTree, shrinker: TreeShrinker):
        self.db = db
        self.tree = tree
        self.shrinker = shrinker
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
                tree_name=self.tree.name,
            )
        )
        self.db.log.flush()

    def flip_root(self) -> None:
        """Step 3: the root pointer and the tree lock name move to the new
        tree.  A no-op on a tree a crashed switch already flipped."""
        if self.tree.root_id == self.stats.old_root:
            bump_lock_name(self.db, self.tree.name)
            self.tree.set_root(self.stats.new_root)
            # Bump the old root's version stamp, so a waiter that captured
            # it (ROADMAP item 1(a)) sees the access path moved.  (An
            # internal old root is bumped again by the discard below; a
            # *leaf* old root is shared with the new tree and would
            # otherwise never change.)
            self.db.store.buffer.bump_version(self.stats.old_root)
        self.db.store.disk.del_meta(f"root:{self.tree.name}.new")

    def discard_old(self) -> None:
        """Step 5, under X on the old lock name: free the old tree's
        internal pages, children before parents so an interrupted discard
        stays walkable.  Already-freed pages (a previous attempt got
        partway) are skipped."""
        post_order = internal_post_order(self.db.store, self.stats.old_root)
        for page_id in post_order:
            self.db.log.append(FreeRecord(page_id=page_id))
            self.db.store.deallocate(page_id)
        self.stats.old_internal_freed = len(post_order)

    def finish(self) -> None:
        """Step 5, the rest: log the end of the reorganization, clear the
        reorganization bit and the pass-3 bookkeeping, stop listening."""
        self.db.log.append(ReorgDoneRecord(tree_name=self.tree.name))
        self.db.log.flush()
        self.shrinker.state.clear()
        self.shrinker.detach_listener()

    # bench/trace.py wraps these two names by ``Switcher.__dict__`` lookup
    # and bench/ does not change with the library.  Nothing calls them; they
    # leave with the next change to ``bench/trace.py::_targets()``.
    run = finish_pending_switch = finish
