"""Pass 3: rebuilding the upper levels of the tree (paper section 7).

The reorganizer reads the *old* base pages left to right — "we read the
keys in ascending order" — and streams their (key, leaf pointer) entries
into freshly allocated **new base pages**, filled to the configured fill
factor ([Sal88] bottom-up construction, one
:class:`~repro.btree.bulkload.LevelBuilder` fed across the scan).  The
leaves are never touched.  Once the base level is complete, the upper
levels are built over it and the side file is caught up;
:mod:`repro.reorg.switch` then moves the world to the new tree.

:class:`TreeShrinker` holds the step bodies only.  Their one ordering —
with the S lock on each base page, the catch-up loop and the switch — is
:meth:`repro.reorg.protocols.ReorgProtocol.pass3`, which the DES
schedules and the synchronous reorganizer and forward recovery drive
alone.

Scan-position protocol (section 7.1):

* ``CK``, the low mark of the base page currently being reorganized, is
  exposed through :meth:`TreeShrinker.get_current` (the paper's
  ``Get_Current()``), and is advanced to the *next* base page's low mark
  before the reorganizer "gives up the S lock on the base page it just
  finished reading".
* Concurrent base-page changes are observed through the tree's
  ``base_change_listener``; a change whose key is below CK "has been
  inserted into one of the base pages that we have already read", so it is
  appended to the side file; keys at or above CK will be read normally.

Stable points (section 7.3): every ``stable_point_interval`` new base
pages, the open page is closed, all new pages are forced to disk, and a
``StableKeyRecord`` is logged carrying the next key to read plus the new
base pages built so far.  A crash rolls pass 3 back to the last stable
point only: internal pages allocated afterwards are deallocated, side-file
entries at or beyond the stable key are dropped (the scan will re-read
them), and the scan resumes at the stable key.

Deviation from the paper, recorded in DESIGN.md: the paper pipelines upper-
level construction with the base-level scan; we build the upper levels once
the base level is complete.  The paper itself assumes "the internal pages
above the base page level should be in memory", and the observable
restart/stability behaviour (bounded rework from the last stable key,
orphan deallocation) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.bulkload import LevelBuilder, build_upper_levels
from repro.btree.tree import BPlusTree
from repro.config import ReorgConfig
from repro.db import Database
from repro.errors import ReorgError
from repro.reorg.placement import (
    TreeShape,
    fill_count,
    make_policy,
    post_reorg_shape,
    predict_base_width,
)
from repro.reorg.sidefile import SideFile
from repro.storage.page import InternalPage, PageId, PageKind
from repro.storage.store import StorageManager
from repro.wal.records import FreeRecord, StableKeyRecord

#: CK sentinel once every base page has been read: above every real key.
SCAN_DONE_KEY = 2**62

#: Catch-up rounds after which a side file still refilling fails pass 3.
MAX_CATCHUP_ROUNDS = 100


@dataclass
class Pass3Stats:
    """Outcome of the upper-level rebuild (excluding the switch)."""

    base_pages_read: int = 0
    entries_scanned: int = 0
    new_base_pages: int = 0
    new_internal_pages: int = 0
    stable_points: int = 0
    sidefile_appended: int = 0
    sidefile_applied: int = 0
    catchup_rounds: int = 0
    restarted_from_key: int | None = None
    orphans_freed: int = 0


def internal_post_order(store: StorageManager, root: PageId) -> list[PageId]:
    """The internal pages of the tree under ``root``, children before
    parents.  Freed pages are skipped, and the walk stops at level 1, so no
    leaf is read."""
    order: list[PageId] = []

    def walk(page_id: PageId) -> None:
        if store.free_map.is_free(page_id):
            return
        page = store.get(page_id)
        if page.kind is not PageKind.INTERNAL:
            return
        if page.level > 1:  # type: ignore[union-attr]
            for child in page.children():  # type: ignore[union-attr]
                walk(child)
        order.append(page_id)

    walk(root)
    return order


class TreeShrinker:
    """Builds the new upper levels beside the old tree."""

    def __init__(
        self,
        db: Database,
        tree: BPlusTree,
        config: ReorgConfig,
    ):
        self.db = db
        self.tree = tree
        self.config = config
        #: This tree's entry in the database's pass-3 state.
        self.state = db.pass3_state(tree.name)
        self.side_file = SideFile(db, tree.name)
        self.stats = Pass3Stats()
        #: Closed new base pages so far: (low key, page id).
        self.built_entries: list[tuple[int, PageId]] = self.state.built_entries
        self._pages_since_stable = 0
        self._unforced_pages: list[PageId] = []
        #: CK — low mark of the base page currently being reorganized.
        self._current_key: int | None = None
        #: A resumed scan's first page: entries below this were emitted before.
        self._first_page_floor: int | None = None
        self.new_root: PageId = -1
        #: Placement policy for the new internal pages.  Only a policy that
        #: plans internals (vEB) pays for the shape prediction and window
        #: reservation; the default first-fit path does no extra work, so
        #: key-order runs stay byte-identical to the historical behaviour.
        self.placement = make_policy(db.config.placement_policy)
        self._plan = None
        if self.placement.plans_internals:
            self._plan = self.placement.pass3_plan(db.store, self._predicted_shape())
        #: The new base level, streamed across :meth:`scan_base` calls.
        self._base = LevelBuilder(
            db.store, db.log, 1, self._per_page(), closed=self.built_entries,
            place=self._place_internal, on_close=self._base_page_closed,
        )

    def _predicted_shape(self) -> TreeShape:
        """Shape of the tree this pass is about to build.

        The upper levels are perfect-fill chunked, but the base level must
        account for stable points closing the open page early — so its
        width is simulated from the old base level's entry counts
        (:func:`predict_base_width`).  The walk reads only pages pass 3 is
        about to scan anyway; it runs once, and only for policies that plan
        internals.  Concurrent updates during the scan can still grow the
        tree past the prediction — those nodes fall outside the plan and
        take the default allocation.
        """
        per_page = self._per_page()
        n_leaves = len(self.tree.leaf_ids_in_key_order())
        root = self.db.store.get(self.tree.root_id)
        if root.kind is PageKind.LEAF:
            return post_reorg_shape(n_leaves, per_page)
        entry_counts: list[int] = []
        base = self.tree.base_page_for(self._smallest_key())
        while base is not None:
            entry_counts.append(base.num_items)
            base = self.tree.next_base_page_after(base.key_at(-1))
        base_width = predict_base_width(
            entry_counts, per_page, self.config.stable_point_interval
        )
        return post_reorg_shape(n_leaves, per_page, base_width=base_width)

    # -- the paper's utilities ---------------------------------------------------

    def get_current(self) -> int:
        """``Get_Current()``: the scan's current low-mark key."""
        if self._current_key is None:
            raise ReorgError("pass 3 is not scanning")
        return self._current_key

    @property
    def scanning(self) -> bool:
        return self._current_key is not None

    # -- listener: section 7.2 updater logic ------------------------------------------

    def _on_base_change(self, op: str, base_page: PageId, key: int, child: PageId) -> None:
        """Called for every base-entry change on the old tree during pass 3.

        "If it is greater, then we don't need to append it, because it must
        have been inserted in a base page we haven't read yet. ... If it is
        smaller, then we know it has been inserted into one of the base
        pages that we have already read."
        """
        if self._current_key is None:
            return
        if key < self._current_key:
            self.side_file.append(key, child, op)
            self.stats.sidefile_appended += 1

    def attach_listener(self) -> None:
        self.state.reorg_bit = True
        self.tree.base_change_listener = self._on_base_change

    def detach_listener(self) -> None:
        self.tree.base_change_listener = None

    # -- scanning the old base level -----------------------------------------------------

    def begin_scan(self, resume_from: int | None = None) -> InternalPage | None:
        """Set the reorganization bit, start listening and put CK on the
        first base page to read, which is returned.  None when there is
        none: the root is a leaf — checked *before* anything is attached,
        so the bit stays clear and :attr:`scanning` false — or the crashed
        scan being resumed had finished (nothing is fetched, so recovery's
        read order stays the switch's alone)."""
        if resume_from is not None and resume_from >= SCAN_DONE_KEY:
            self.attach_listener()
            self._current_key = SCAN_DONE_KEY
            return None
        root = self.db.store.get(self.tree.root_id)
        if root.kind is PageKind.LEAF:
            return None
        self.attach_listener()
        base = self.tree.base_page_for(
            resume_from if resume_from is not None else self._smallest_key()
        )
        self._current_key = self._low_mark_of(base)
        # Filter already-emitted entries only on the first (resumed) page,
        # and only when earlier stable work actually exists — resuming at
        # the very first page must not drop entries lowered below the low
        # mark by under-minimum inserts.
        self._first_page_floor = (
            resume_from if resume_from is not None and self.built_entries else None
        )
        return base

    def scan_base(self, base: InternalPage) -> InternalPage | None:
        """Emit one old base page's entries and advance CK to ``Get_Next``,
        the base page returned (None after the last).  One synchronous
        step, so page content and CK move together with respect to the S
        lock the DES reorganizer holds around it."""
        entries = list(base.entries)
        probe_key = entries[-1][0]
        if self._first_page_floor is not None:
            entries = [e for e in entries if e[0] >= self._first_page_floor]
            self._first_page_floor = None
        for key, child in entries:
            self._base.add(key, child)
        self.stats.base_pages_read += 1
        self.stats.entries_scanned += len(entries)
        next_base = self._next_base_after(probe_key)
        # "The value of CK is changed by the reorganizer to
        # Get_Next(CK) before it gives up the S lock on the base page
        # it just finished reading."
        self._current_key = (
            self._low_mark_of(next_base) if next_base is not None else SCAN_DONE_KEY
        )
        return next_base

    def _smallest_key(self) -> int:
        leaf = self.db.store.get_leaf(self.tree.leftmost_leaf_id())
        base = self.tree.base_page_for(
            leaf.min_key() if not leaf.is_empty else 0
        )
        assert base is not None
        return base.min_key()

    def _next_base_after(self, key: int) -> InternalPage | None:
        """``Get_Next(k)``: the base page after the one covering ``key``.

        With readahead configured, the upcoming sibling base pages are
        batch-read along the way — pass 3's read stream is exactly this
        key-order sweep of the base level.
        """
        return self.tree.next_base_page_after(key, prefetch_siblings=True)

    @staticmethod
    def _low_mark_of(base: InternalPage) -> int:
        return base.low_mark if base.low_mark is not None else base.min_key()

    # -- emitting new base pages ------------------------------------------------------

    def _per_page(self) -> int:
        return fill_count(
            self.db.store.config.internal_capacity, self.config.internal_fill
        )

    def _place_internal(self, level: int, index: int) -> PageId | None:
        """Policy-preferred free page for internal node (level, index), or
        None for the store's default (first-fit) allocation."""
        if self._plan is None:
            return None
        return self._plan.resolve(self.db.store, level=level, index=index)

    def _base_page_closed(self, page_id: PageId) -> None:
        self._unforced_pages.append(page_id)
        self._pages_since_stable += 1
        self.stats.new_base_pages += 1
        self.stats.new_internal_pages += 1

    @property
    def stable_point_due(self) -> bool:
        return self._pages_since_stable >= self.config.stable_point_interval

    def stable_point(self) -> None:
        """Force recent pages and log the restart point (section 7.3)."""
        self._base.close()
        self.db.store.force(self._unforced_pages)
        self._unforced_pages = []
        record = StableKeyRecord(
            stable_key=self._current_key if self._current_key is not None else SCAN_DONE_KEY,
            new_root=self.new_root,
            built_entries=tuple(self.built_entries),
            tree_name=self.tree.name,
        )
        self.state.stable_lsn = self.db.log.append(record)
        self.db.log.flush()
        self.state.stable_key = record.stable_key
        self._pages_since_stable = 0
        self.stats.stable_points += 1

    # -- upper levels --------------------------------------------------------------

    def build_upper(self) -> PageId:
        """Build levels 2+ over the finished new base level, force them,
        and record the new root.  A pass 3 restarted at its final stable
        point has them already (:meth:`restart_after_crash`)."""
        self._base.close()
        if self.new_root < 0:
            self._build_levels()
        # Register the new tree under a scratch name so catch-up can use
        # ordinary tree machinery against it.
        self.db.store.disk.set_meta(self._scratch_name(), self.new_root)
        return self.new_root

    def _build_levels(self) -> None:
        if not self.built_entries:
            raise ReorgError("no new base pages were built")
        if len(self.built_entries) == 1:
            self.new_root = self.built_entries[0][1]
        else:
            built: list[PageId] = []
            self.new_root = build_upper_levels(
                self.db.store,
                self.db.log,
                self.built_entries,
                fill=self.config.internal_fill,
                start_level=2,
                on_page_built=built.append,
                place=self._place_internal,
            )
            self.stats.new_internal_pages += len(built)
            self._unforced_pages.extend(built)
        # "We have to make the new B+-tree durable before we make the
        # switch" (section 7.3).
        self.db.store.force(self._unforced_pages)
        self._unforced_pages = []
        final = StableKeyRecord(
            stable_key=SCAN_DONE_KEY,
            new_root=self.new_root,
            built_entries=tuple(self.built_entries),
            tree_name=self.tree.name,
        )
        self.state.stable_lsn = self.db.log.append(final)
        self.db.log.flush()
        self.state.stable_key = SCAN_DONE_KEY
        self.state.new_root = self.new_root

    def _scratch_name(self) -> str:
        return f"root:{self.tree.name}.new"

    def new_tree_handle(self) -> BPlusTree:
        handle = BPlusTree(self.db.store, self.db.log, name=f"{self.tree.name}.new")
        if self.db.store.disk.get_meta(self._scratch_name()) is None:
            raise ReorgError("new tree is not built yet")
        return handle

    # -- catch-up -------------------------------------------------------------------

    def apply_side_file_once(self) -> int:
        """Apply every entry currently in the side file to the new tree.

        "As each side file record is applied to the new tree, that record
        is deleted from the side file.  The actions of changing the new
        base page and of removing the side file record are logged."
        Returns the number applied.
        """
        new_tree = self.new_tree_handle()
        applied = 0
        while not self.side_file.is_empty():
            entry = self.side_file.pop_front()
            key, child, op = entry
            if op == "insert":
                new_tree.insert_base_entry(key, child)
            else:
                new_tree.delete_base_entry(key, child)
            base_id = new_tree.path_to_base(key)[-1]
            self.side_file.log_applied(entry, base_id)
            applied += 1
        # The root may have moved if catch-up split new base pages.
        self.new_root = new_tree.root_id
        self.state.new_root = self.new_root
        self.stats.sidefile_applied += applied
        return applied

    # bench/trace.py wraps these two names by ``TreeShrinker.__dict__``
    # lookup and bench/ does not change with the library.  Nothing calls
    # them; they leave with the next change to ``bench/trace.py::_targets()``.
    scan = scan_base
    catch_up = apply_side_file_once

    def caught_up(self) -> bool:
        """Close one catch-up round: True once the side file is empty.

        After :data:`MAX_CATCHUP_ROUNDS` rounds that did not drain it,
        pass 3 gives up loudly rather than switch with changes left behind.
        """
        self.stats.catchup_rounds += 1
        if self.side_file.is_empty():
            return True
        if self.stats.catchup_rounds >= MAX_CATCHUP_ROUNDS:
            raise ReorgError(
                f"side file did not converge in {MAX_CATCHUP_ROUNDS} rounds"
            )
        return False

    # -- crash restart ----------------------------------------------------------------

    def restart_after_crash(self) -> int | None:
        """Roll pass 3 back to the last stable point (section 7.3).

        Deallocates new-tree pages allocated after the tree's most recent
        stable point ("Space which is allocated after the most recent
        force-write log record can be deallocated during recovery"), drops
        side-file entries the restarted scan will re-read, and returns the
        stable key to resume from (None = start over).  The final stable
        point forced the new upper levels, so a restart there keeps them —
        grown by any catch-up since — instead of building them twice.
        """
        stable_key = self.state.stable_key
        keep = set(internal_post_order(self.db.store, self.tree.root_id))
        if stable_key == SCAN_DONE_KEY and self.state.new_root >= 0:
            root = self.db.store.disk.get_meta(self._scratch_name(), self.state.new_root)
            assert isinstance(root, int)
            self.new_root = root
            keep.update(internal_post_order(self.db.store, self.new_root))
        # A shard allocates only inside its lease: pages outside it are
        # other trees' (the alloc records name no tree).
        lease = getattr(self.db.store, "internal_lease", None)
        freed = 0
        for pid in self.state.allocs_after_stable:
            if lease is not None and not lease.contains(pid):
                continue
            if pid in keep:
                continue  # the old tree's (a concurrent split) or the kept new tree's
            if self.db.store.free_map.is_free(pid):
                continue
            self.db.log.append(FreeRecord(page_id=pid))
            self.db.store.deallocate(pid)
            freed += 1
        self.stats.orphans_freed = freed
        if stable_key is not None:
            self.side_file.drop_after_key(stable_key)
            self.stats.restarted_from_key = stable_key
        return stable_key
