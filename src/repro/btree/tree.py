"""The primary B+-tree.

The tree of the paper (section 2): leaves hold the data records (primary
index), an internal node with n keys has n children (each entry key is a
lower bound for its child's subtree), and the **free-at-empty** policy
[JS93] governs deletions — sparse nodes are never consolidated, but a node
that becomes completely empty is deallocated and its parent updated.

All mutating operations follow the do-equals-redo discipline: compose a log
record, append it, and apply it through :func:`repro.wal.apply.apply_record`
so recovery replays the identical code path.  Locking is *not* done here —
the tree's methods are the synchronous engine; the lock choreography of
sections 4.1.2/4.1.3 lives in :mod:`repro.btree.protocols` as generator
protocols for the discrete-event scheduler.

Side pointers (section 4.3) are optional per
:class:`~repro.config.TreeConfig`: NONE, ONE_WAY (next only) or TWO_WAY.
"""

from __future__ import annotations

from typing import Iterator

from repro.config import SidePointerKind, TreeConfig, gapped_leaf_fill
from repro.perf import PERF
from repro.errors import (
    BTreeError,
    KeyNotFoundError,
    TreeInvariantError,
)
from repro.storage.page import (
    InternalPage,
    LeafPage,
    NO_PAGE,
    Page,
    PageId,
    PageKind,
    Record,
)
from repro.storage.store import StorageManager
from repro.txn.transaction import Transaction
from repro.wal.apply import apply_record, is_redoable
from repro.wal.log import LogManager
from repro.wal.records import (
    AllocRecord,
    BaseEntryDeleteRecord,
    BaseEntryInsertRecord,
    BaseEntryUpdateRecord,
    FreeRecord,
    InternalFormatRecord,
    LeafDeleteRecord,
    LeafFormatRecord,
    LeafInsertRecord,
    SidePointerRecord,
    TxnRecord,
)

#: A key below every key: it routes to the leftmost child at every level.
_BELOW_ALL: int = float("-inf")  # type: ignore[assignment]


class BPlusTree:
    """Handle over a tree rooted at the page named in the disk metadata."""

    def __init__(self, store: StorageManager, log: LogManager, *, name: str = "primary"):
        self.store = store
        self.log = log
        self.name = name
        self._root_key = f"root:{name}"
        #: Optional observer called as ``listener(op, base_page_id, key,
        #: child)`` with op in {"insert", "delete"} whenever a *base page*
        #: (level-1) entry changes.  Pass 3 of the reorganizer registers
        #: the section 7.2 updater logic here: a change behind the scan's
        #: current key must also be appended to the side file.
        self.base_change_listener = None
        #: Optional :class:`repro.metrics.FragmentationStats` bag this
        #: tree's insert/delete/split/free paths feed.  Database.tree()
        #: and ShardHandle.tree() wire the owner's per-tree instance here
        #: so live fill-factor metrics survive the throwaway tree handles.
        self.frag_stats = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(
        cls, store: StorageManager, log: LogManager, *, name: str = "primary"
    ) -> "BPlusTree":
        """Create an empty tree: the root is a single empty leaf."""
        tree = cls(store, log, name=name)
        if store.disk.get_meta(tree._root_meta_key()) is not None:
            raise BTreeError(f"tree {name!r} already exists")
        root = store.allocate_leaf()
        tree._log_apply(AllocRecord(page_id=root.page_id, kind="leaf"))
        tree._log_apply(LeafFormatRecord(page_id=root.page_id, records=()))
        tree.set_root(root.page_id)
        return tree

    @classmethod
    def attach(
        cls, store: StorageManager, log: LogManager, *, name: str = "primary"
    ) -> "BPlusTree":
        """Re-open an existing tree (e.g. after crash recovery)."""
        tree = cls(store, log, name=name)
        if store.disk.get_meta(tree._root_meta_key()) is None:
            raise BTreeError(f"no tree named {name!r} on this disk")
        return tree

    def _root_meta_key(self) -> str:
        return self._root_key

    @property
    def root_id(self) -> PageId:
        root = self.store.disk.get_meta(self._root_key)
        if root is None:
            raise BTreeError(f"tree {self.name!r} has no root")
        return root  # type: ignore[return-value]

    def set_root(self, page_id: PageId) -> None:
        """Durably record a new root location ("a special place on the
        disk", section 7.4).  Used by tree creation, bulk load, splits of
        the root and the switch.

        The location is written to disk at once, so the log is forced
        first (the write-ahead rule): the records that build the new root
        page must be stable before anything on disk names it, or a crash
        would leave the root pointer naming a page redo cannot rebuild.
        """
        self.log.flush()
        self.store.disk.set_meta(self._root_meta_key(), page_id)

    @property
    def config(self) -> TreeConfig:
        return self.store.config

    @property
    def side_pointers(self) -> SidePointerKind:
        return self.config.side_pointers

    def leaf_order(self) -> int | None:
        """:attr:`FragmentationStats.leaf_order`; None on a bare tree."""
        return None if self.frag_stats is None else self.frag_stats.leaf_order

    def leaf_order_changed(self) -> None:
        """Count a leaf a split adds or a free-at-empty removes (the
        empty-root restore adds one too)."""
        if self.frag_stats is not None:
            self.frag_stats.leaf_order += 1

    # -- logging helper ------------------------------------------------------------

    def _log_apply(self, record: TxnRecord, txn: Transaction | None = None):
        """Append a record (chained to ``txn`` if given) and apply it."""
        if txn is not None:
            record.txn_id = txn.txn_id
            record.prev_lsn = txn.last_lsn
        lsn = self.log.append(record)
        if txn is not None:
            txn.last_lsn = lsn
        if is_redoable(record):
            apply_record(self.store, record)
        return record

    # -- descent ----------------------------------------------------------------

    def path_to_leaf(self, key: int) -> list[PageId]:
        """Page ids from the root down to the leaf responsible for ``key``."""
        get = self.store.get
        path = [self.root_id]
        page = get(path[-1])
        while page.kind is PageKind.INTERNAL:
            child = page.child_for(key)  # type: ignore[union-attr]
            path.append(child)
            page = get(child)
        return path

    def leaf_for(self, key: int) -> LeafPage:
        get = self.store.get
        page = get(self.root_id)
        while page.kind is PageKind.INTERNAL:
            page = get(page.child_for(key))  # type: ignore[union-attr]
        return page  # type: ignore[return-value]

    def base_page_for(self, key: int) -> InternalPage | None:
        """The parent-of-leaf ("base") page responsible for ``key``, or
        None when the root itself is a leaf."""
        path = self.path_to_leaf(key)
        if len(path) < 2:
            return None
        return self.store.get_internal(path[-2])

    def leftmost_leaf_id(self) -> PageId:
        return self.path_to_leaf(_BELOW_ALL)[-1]

    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        return len(self.path_to_leaf(_BELOW_ALL))

    # -- queries -----------------------------------------------------------------

    def search(self, key: int) -> Record | None:
        return self.leaf_for(key).find(key)

    def range_scan(self, low: int, high: int) -> list[Record]:
        """All records with low <= key <= high, in key order: one descent,
        then the leaf cursor (:meth:`leaf_ids_from`) for every side-pointer
        kind.  The disk I/O counters capture the motivating cost (section 1).

        With ``readahead_pages`` > 0 each base page the cursor enters
        batch-reads the leaves it names (the parent level is in memory, as
        section 6 assumes): in a degraded tree the scattered leaves cost one
        sweep instead of a seek each; after reorganization the batch
        degenerates to the sequential reads the scan pays anyway.
        """
        out: list[Record] = []
        if high < low:
            return out
        get = self.store.get
        for leaf_id in self.leaf_ids_from(low, prefetch=True):
            leaf = get(leaf_id)
            out.extend(leaf.records_in_range(low, high))  # type: ignore[union-attr]
            if not leaf.is_empty and leaf.max_key() > high:  # type: ignore[union-attr]
                break
        return out

    def leaf_ids_from(
        self, key: int = _BELOW_ALL, *, prefetch: bool = False
    ) -> Iterator[PageId]:
        """The key-order leaf cursor: ids of the leaf for ``key`` (the first
        leaf by default) and of every leaf after it, empty ones included.

        One descent keeps ``[page id, child index]`` per level.  The next
        leaf is the base page's next child; past a parent's last child the
        cursor climbs to the next child up and descends its leftmost path.
        Parents are re-read by id, not held, so they stay young in the LRU.
        ``prefetch`` batch-reads each base page's leaves on entry (gated on
        ``readahead_pages``).  The tree must not change structure while the
        cursor is suspended.
        """
        get = self.store.get
        page = get(self.root_id)
        if page.kind is PageKind.LEAF:
            yield page.page_id
            return
        path: list[list[int]] = []  # above the base level, root first
        while page.level > 1:  # type: ignore[union-attr]
            index = page.child_index_for(key)  # type: ignore[union-attr]
            path.append([page.page_id, index])
            page = get(page.child_at(index))  # type: ignore[union-attr]
        index = page.child_index_for(key)  # type: ignore[union-attr]
        while True:
            if prefetch:
                self.store.prefetch(page.children()[index:])  # type: ignore[union-attr]
            child = page.child_at(index)  # type: ignore[union-attr]
            while child != NO_PAGE:
                yield child
                index += 1
                child = get(page.page_id).child_at(index)  # type: ignore[union-attr]
            depth = len(path)
            while child == NO_PAGE:
                depth -= 1
                if depth < 0:
                    return
                entry = path[depth]
                entry[1] += 1
                child = get(entry[0]).child_at(entry[1])  # type: ignore[union-attr]
            for entry in path[depth + 1 :]:
                entry[0], entry[1] = child, 0
                child = get(child).child_at(0)  # type: ignore[union-attr]
            page, index = get(child), 0

    # A leaf's *place* is ``(base page id, child index)``: the cursor's
    # position, which reads the parent level only, never a leaf.

    def first_leaf_place(self) -> tuple[PageId, int] | None:
        """The first leaf's place; None when the root is the one leaf."""
        page = self.store.get(self.root_id)
        if page.kind is PageKind.LEAF:
            return None
        while page.level > 1:  # type: ignore[union-attr]
            page = self.store.get(page.child_at(0))  # type: ignore[union-attr]
        return page.page_id, 0

    def leaf_neighbour(
        self, base_id: PageId, index: int, step: int
    ) -> tuple[PageId, int, PageId] | None:
        """The cursor's step back (``step`` -1) or forth (+1) from the child
        at ``index`` of base page ``base_id`` (``index`` may be one past the
        last child): the leaf beside it as ``(base page, index, leaf id)``;
        None past either end.

        Past the base page's first or last child it descends once to the
        base page, by its smallest key, climbs to the nearest ancestor with
        a child on that side and descends that child's near edge.
        """
        base = self.store.get_internal(base_id)
        if 0 <= index + step < base.num_items:
            return base_id, index + step, base.child_at(index + step)
        get = self.store.get
        path: list[tuple[InternalPage, int]] = []  # root first
        page = get(self.root_id)
        while page.level > 1:  # type: ignore[union-attr]
            at = page.child_index_for(base.min_key())  # type: ignore[union-attr]
            path.append((page, at))  # type: ignore[arg-type]
            page = get(page.child_at(at))  # type: ignore[union-attr]
        if page.page_id != base_id:
            raise TreeInvariantError(
                f"base page {base_id}: its smallest key routes to {page.page_id}"
            )
        for parent, at in reversed(path):
            if 0 <= at + step < parent.num_items:
                page = get(parent.child_at(at + step))
                while page.level > 1:  # type: ignore[union-attr]
                    edge = 0 if step > 0 else page.num_items - 1
                    page = get(page.child_at(edge))  # type: ignore[union-attr]
                index = 0 if step > 0 else page.num_items - 1
                return page.page_id, index, page.child_at(index)  # type: ignore[union-attr]
        return None

    def items(self) -> Iterator[Record]:
        """Every record, in key order.  The tree must not change structure
        while the iterator is suspended (see :meth:`leaf_ids_from`)."""
        get_leaf = self.store.get_leaf
        for leaf_id in self.leaf_ids_from(_BELOW_ALL):
            yield from get_leaf(leaf_id).records

    def leaf_ids_in_key_order(self) -> list[PageId]:
        """All leaf page ids in key order, via a tree walk (robust to empty
        leaves and independent of side-pointer configuration).

        Only internal pages are fetched: base pages (level 1) list their
        leaf children directly, so the walk costs O(#internal) page reads
        instead of O(#leaves).
        """
        root = self.store.get(self.root_id)
        if root.kind is PageKind.LEAF:
            return [root.page_id]
        ids: list[PageId] = []
        stack: list[PageId] = [root.page_id]
        while stack:
            page = self.store.get_internal(stack.pop())
            if page.level == 1:
                ids.extend(page.children())
            else:
                stack.extend(reversed(page.children()))
        return ids

    def leaf_count(self) -> int:
        """Number of leaves, by the walk of :meth:`leaf_ids_in_key_order`."""
        return len(self.leaf_ids_in_key_order())

    def next_base_page_after(
        self, key: int, *, prefetch_siblings: bool = False
    ) -> InternalPage | None:
        """The base (level-1) page after the one covering ``key``, or None
        at the end of the tree / when the root is a leaf.

        The paper's ``Get_Next(k)`` (section 7.1): descend towards ``key``
        remembering the nearest right-sibling subtree, then take that
        subtree's leftmost level-1 descendant.  Pass 3's scan uses it to
        find the next run of pages.

        ``prefetch_siblings`` batch-reads the base pages that follow the
        returned one (the level-2 node already lists them), so a key-order
        sweep of the base level — pass 3's read stream — pays one batch
        instead of a seek per base page.  Gated on ``readahead_pages``.
        """
        page = self.store.get(self.root_id)
        candidate: PageId | None = None
        while page.kind is PageKind.INTERNAL and page.level > 1:  # type: ignore[union-attr]
            index = page.child_index_for(key)  # type: ignore[union-attr]
            children = page.children()  # type: ignore[union-attr]
            if index + 1 < len(children):
                candidate = children[index + 1]
            if prefetch_siblings and page.level == 2:  # type: ignore[union-attr]
                self.store.prefetch(children[index + 1 :])
            page = self.store.get(children[index])
        if page.kind is PageKind.LEAF or candidate is None:
            return None
        # Leftmost level-1 descendant of the candidate subtree.
        page = self.store.get(candidate)
        while page.kind is PageKind.INTERNAL and page.level > 1:  # type: ignore[union-attr]
            if prefetch_siblings and page.level == 2:  # type: ignore[union-attr]
                self.store.prefetch(page.children())  # type: ignore[union-attr]
            page = self.store.get(page.children()[0])  # type: ignore[union-attr]
        return page  # type: ignore[return-value]

    def successor_leaf_id(self, leaf: LeafPage) -> PageId:
        """Next leaf in key order (NO_PAGE at the end) for the DES scans,
        which re-find their place after every yield: the side pointer, or
        the leftmost leaf of the nearest right-sibling subtree on a descent
        by the leaf's largest key.  Without side pointers an empty leaf has
        no such key (BTreeError); the DES scans step past it on
        :meth:`leaf_ids_from`."""
        if self.side_pointers is not SidePointerKind.NONE:
            return leaf.next_leaf
        probe = leaf.max_key()
        get = self.store.get
        page = get(self.root_id)
        candidate: PageId = NO_PAGE
        while page.kind is PageKind.INTERNAL:
            index = page.child_index_for(probe)  # type: ignore[union-attr]
            if (sibling := page.child_at(index + 1)) != NO_PAGE:  # type: ignore[union-attr]
                candidate = sibling
            page = get(page.child_at(index))  # type: ignore[union-attr]
        if candidate == NO_PAGE:
            return NO_PAGE
        page = get(candidate)
        while page.kind is PageKind.INTERNAL:
            page = get(page.child_at(0))  # type: ignore[union-attr]
        return page.page_id

    def record_count(self) -> int:
        """Total records, summing per-leaf counts along the leaf walk
        instead of materializing every record through :meth:`items`."""
        get_leaf = self.store.get_leaf
        return sum(
            get_leaf(leaf_id).num_items
            for leaf_id in self.leaf_ids_in_key_order()
        )

    # -- insertion ---------------------------------------------------------------

    def insert(self, record: Record, txn: Transaction | None = None) -> None:
        """Insert a record, splitting pages as needed."""
        path, leaf = self._descend_for_insert(record.key)
        if leaf.is_full:
            leaf = self._split_leaf(path, record.key)
        elif (
            self.config.leaf_gap_fraction > 0.0
            and leaf.num_items >= gapped_leaf_fill(self.config, 1.0)
        ):
            # The insert lands in slack the gapped build reserved: a
            # gapless layout would have had this leaf full and split.
            PERF.gap.absorbed_inserts += 1
            if self.frag_stats is not None:
                self.frag_stats.absorbed_inserts += 1
        self._log_apply(
            LeafInsertRecord(
                page_id=leaf.page_id, record=record, tree_name=self.name
            ),
            txn,
        )
        if self.frag_stats is not None:
            self.frag_stats.inserts += 1
            self.frag_stats.records += 1

    def _descend_for_insert(self, key: int) -> tuple[list[PageId], LeafPage]:
        """Path from the root to the leaf responsible for ``key``, plus the
        leaf page itself (already fetched — the caller needs it next, and
        refetching the MRU frame is pure overhead on the hottest path),
        maintaining *entry key = minimum of child subtree* along the way.

        Free-at-empty deallocation leaves entry keys that are only lower
        bounds, so ``key`` can arrive below a page's first entry key at any
        level — not just below the tree minimum.  Under-minimum keys route
        to the leftmost child, so the descent lowers the first entry key
        wherever needed; doing it while building the path keeps insert to a
        single descent instead of a lowering walk plus
        :meth:`path_to_leaf`.
        """
        get = self.store.get
        root = self.root_id
        path = [root]
        page = get(root)
        while page.kind is PageKind.INTERNAL:
            first_key, child = page.route_for(key)  # type: ignore[union-attr]
            if key < first_key:
                self._log_apply(
                    BaseEntryUpdateRecord(
                        page_id=page.page_id,
                        org_key=first_key,
                        org_child=child,
                        new_key=key,
                        new_child=child,
                    )
                )
            path.append(child)
            page = get(child)
        return path, page  # type: ignore[return-value]

    def _split_leaf(self, path: list[PageId], pending_key: int) -> LeafPage:
        """Split the leaf at the end of ``path``; return the leaf that
        should now receive ``pending_key``."""
        PERF.gap.leaf_splits += 1
        if self.frag_stats is not None:
            self.frag_stats.leaf_splits += 1
            self.frag_stats.leaves += 1
            self.leaf_order_changed()
        leaf = self.store.get_leaf(path[-1])
        records = list(leaf.records)
        # Keep the majority on the lower (left) side: under ascending-key
        # workloads the growing right side then starts with the most free
        # space, which keeps split cascades geometric instead of linear.
        mid = (len(records) + 1) // 2
        lower, upper = records[:mid], records[mid:]
        new_leaf = self.store.allocate_leaf()
        self._log_apply(AllocRecord(page_id=new_leaf.page_id, kind="leaf"))
        next_ptr = leaf.next_leaf
        two_way = self.side_pointers is SidePointerKind.TWO_WAY
        one_way = self.side_pointers is SidePointerKind.ONE_WAY
        self._log_apply(
            LeafFormatRecord(
                page_id=new_leaf.page_id,
                records=tuple(upper),
                next_leaf=next_ptr if (one_way or two_way) else NO_PAGE,
                prev_leaf=leaf.page_id if two_way else NO_PAGE,
            )
        )
        self._log_apply(
            LeafFormatRecord(
                page_id=leaf.page_id,
                records=tuple(lower),
                next_leaf=new_leaf.page_id if (one_way or two_way) else NO_PAGE,
                prev_leaf=leaf.prev_leaf if two_way else NO_PAGE,
            )
        )
        if two_way and next_ptr != NO_PAGE:
            neighbour = self.store.get_leaf(next_ptr)
            self._log_apply(
                SidePointerRecord(
                    page_id=next_ptr,
                    next_leaf=neighbour.next_leaf,
                    prev_leaf=new_leaf.page_id,
                )
            )
        separator = upper[0].key
        self._insert_into_parent(path[:-1], leaf.page_id, separator, new_leaf.page_id)
        return new_leaf if pending_key >= separator else self.store.get_leaf(leaf.page_id)

    def _insert_into_parent(
        self,
        ancestors: list[PageId],
        left_child: PageId,
        separator: int,
        right_child: PageId,
    ) -> None:
        if not ancestors:
            self._grow_new_root(left_child, separator, right_child)
            return
        parent = self.store.get_internal(ancestors[-1])
        if parent.is_full:
            parent = self._split_internal(ancestors, separator)
        self._log_apply(
            BaseEntryInsertRecord(
                page_id=parent.page_id, key=separator, child=right_child
            )
        )
        if parent.level == 1 and self.base_change_listener is not None:
            self.base_change_listener(
                "insert", parent.page_id, separator, right_child
            )

    def _split_internal(self, ancestors: list[PageId], pending_key: int) -> InternalPage:
        PERF.gap.internal_splits += 1
        page = self.store.get_internal(ancestors[-1])
        entries = list(page.entries)
        mid = (len(entries) + 1) // 2
        lower, upper = entries[:mid], entries[mid:]
        new_page = self.store.allocate_internal(level=page.level)
        self._log_apply(
            AllocRecord(page_id=new_page.page_id, kind="internal", level=page.level)
        )
        self._log_apply(
            InternalFormatRecord(
                page_id=new_page.page_id,
                level=page.level,
                entries=tuple(upper),
                low_mark=upper[0][0],
            )
        )
        self._log_apply(
            InternalFormatRecord(
                page_id=page.page_id,
                level=page.level,
                entries=tuple(lower),
                low_mark=page.low_mark,
            )
        )
        separator = upper[0][0]
        self._insert_into_parent(
            ancestors[:-1], page.page_id, separator, new_page.page_id
        )
        if pending_key >= separator:
            return self.store.get_internal(new_page.page_id)
        return self.store.get_internal(page.page_id)

    def _grow_new_root(
        self, left_child: PageId, separator: int, right_child: PageId
    ) -> None:
        left = self.store.get(left_child)
        left_key = left.min_key()  # both page kinds expose their minimum key
        level = 1 if left.kind is PageKind.LEAF else left.level + 1  # type: ignore[union-attr]
        new_root = self.store.allocate_internal(level=level)
        self._log_apply(
            AllocRecord(page_id=new_root.page_id, kind="internal", level=level)
        )
        self._log_apply(
            InternalFormatRecord(
                page_id=new_root.page_id,
                level=level,
                entries=((left_key, left_child), (separator, right_child)),
                low_mark=left_key,
            )
        )
        self.set_root(new_root.page_id)

    # -- deletion (free-at-empty) ------------------------------------------------------

    def delete(self, key: int, txn: Transaction | None = None) -> Record:
        """Delete ``key``; deallocate the leaf if it becomes empty [JS93]."""
        path = self.path_to_leaf(key)
        leaf = self.store.get_leaf(path[-1])
        record = leaf.find(key)
        if record is None:
            raise KeyNotFoundError(f"key {key} not in tree {self.name!r}")
        self._log_apply(
            LeafDeleteRecord(
                page_id=leaf.page_id, record=record, tree_name=self.name
            ),
            txn,
        )
        if self.frag_stats is not None:
            self.frag_stats.deletes += 1
            self.frag_stats.records -= 1
        if leaf.is_empty and len(path) > 1:
            self._free_at_empty(path)
        return record

    def _free_at_empty(self, path: list[PageId]) -> None:
        """Deallocate the empty leaf at path end, updating parents upward."""
        leaf = self.store.get_leaf(path[-1])
        self._unlink_side_pointers(leaf)
        child = leaf.page_id
        self._log_apply(FreeRecord(page_id=child))
        self.store.deallocate(child)
        if self.frag_stats is not None:
            self.frag_stats.leaves -= 1
            self.leaf_order_changed()
        for depth in range(len(path) - 2, -1, -1):
            parent = self.store.get_internal(path[depth])
            entry_key = parent.key_at(parent.index_of_child(child))
            self._log_apply(
                BaseEntryDeleteRecord(
                    page_id=parent.page_id, key=entry_key, child=child
                )
            )
            if parent.level == 1 and self.base_change_listener is not None:
                self.base_change_listener(
                    "delete", parent.page_id, entry_key, child
                )
            if not parent.is_empty or depth == 0:
                break
            child = parent.page_id
            self._log_apply(FreeRecord(page_id=child))
            self.store.deallocate(child)
        else:
            return
        # If the root lost all entries the tree is empty: restore the
        # empty-leaf-root form.
        root = self.store.get(self.root_id)
        if root.kind is PageKind.INTERNAL and root.is_empty:
            self._log_apply(FreeRecord(page_id=root.page_id))
            self.store.deallocate(root.page_id)
            new_root = self.store.allocate_leaf()
            self._log_apply(AllocRecord(page_id=new_root.page_id, kind="leaf"))
            self._log_apply(LeafFormatRecord(page_id=new_root.page_id, records=()))
            self.set_root(new_root.page_id)
            if self.frag_stats is not None:
                self.frag_stats.leaves += 1
                self.leaf_order_changed()

    def _unlink_side_pointers(self, leaf: LeafPage) -> None:
        if self.side_pointers is SidePointerKind.NONE:
            return
        prev_id = self._previous_leaf_id(leaf)
        if prev_id != NO_PAGE:
            prev = self.store.get_leaf(prev_id)
            self._log_apply(
                SidePointerRecord(
                    page_id=prev_id,
                    next_leaf=leaf.next_leaf,
                    prev_leaf=prev.prev_leaf,
                )
            )
        if (
            self.side_pointers is SidePointerKind.TWO_WAY
            and leaf.next_leaf != NO_PAGE
        ):
            nxt = self.store.get_leaf(leaf.next_leaf)
            self._log_apply(
                SidePointerRecord(
                    page_id=nxt.page_id,
                    next_leaf=nxt.next_leaf,
                    prev_leaf=leaf.prev_leaf,
                )
            )

    def _previous_leaf_id(self, leaf: LeafPage) -> PageId:
        if self.side_pointers is SidePointerKind.TWO_WAY:
            return leaf.prev_leaf
        # One-way pointers: walk from the leftmost leaf.
        cursor = self.leftmost_leaf_id()
        if cursor == leaf.page_id:
            return NO_PAGE
        while cursor != NO_PAGE:
            page = self.store.get_leaf(cursor)
            if page.next_leaf == leaf.page_id:
                return cursor
            cursor = page.next_leaf
        return NO_PAGE

    # -- base-entry operations (pass-3 catch-up surface) -----------------------------

    def path_to_base(self, key: int) -> list[PageId]:
        """Page ids from the root down to the base page for ``key``.

        Descends internal levels only — the leaf the base entry points at
        may already be deallocated (a free-at-empty deletion travelling
        through the side file), so it must not be fetched.
        """
        root = self.store.get(self.root_id)
        if root.kind is PageKind.LEAF:
            raise BTreeError(f"tree {self.name!r} has no base level")
        path = [self.root_id]
        page = root
        while page.level > 1:  # type: ignore[union-attr]
            child = page.child_for(key)  # type: ignore[union-attr]
            path.append(child)
            page = self.store.get(child)
        return path

    def insert_base_entry(self, key: int, child: PageId) -> None:
        """Insert a (key, child) entry at the base level, splitting as
        needed.  Used when applying side-file insertions to the new tree
        (section 7.2): the entry points at an existing leaf page.
        """
        path = self.path_to_base(key)
        base = self.store.get_internal(path[-1])
        if base.is_full:
            base = self._split_internal(path, key)
        self._log_apply(
            BaseEntryInsertRecord(page_id=base.page_id, key=key, child=child)
        )

    def delete_base_entry(self, key: int, child: PageId) -> None:
        """Remove a (key, child) base entry (side-file deletion replay)."""
        path = self.path_to_base(key)
        base = self.store.get_internal(path[-1])
        index = base.index_of_child(child)
        if index < 0:
            raise KeyNotFoundError(
                f"base entry for child {child} not under key {key}"
            )
        entry_key = base.key_at(index)
        self._log_apply(
            BaseEntryDeleteRecord(
                page_id=base.page_id, key=entry_key, child=child
            )
        )
        if base.is_empty:
            # Free-at-empty propagates up exactly as for leaves.
            self._free_empty_internal(path)

    def _free_empty_internal(self, path: list[PageId]) -> None:
        child = path[-1]
        self._log_apply(FreeRecord(page_id=child))
        self.store.deallocate(child)
        for depth in range(len(path) - 2, -1, -1):
            parent = self.store.get_internal(path[depth])
            entry_key = parent.key_at(parent.index_of_child(child))
            self._log_apply(
                BaseEntryDeleteRecord(
                    page_id=parent.page_id, key=entry_key, child=child
                )
            )
            if not parent.is_empty or depth == 0:
                return
            child = parent.page_id
            self._log_apply(FreeRecord(page_id=child))
            self.store.deallocate(child)

    # -- invariants ----------------------------------------------------------------

    def validate(self) -> None:
        """Full structural check; raises TreeInvariantError on any breach."""
        root = self.store.get(self.root_id)
        leaves: list[PageId] = []
        if root.kind is PageKind.LEAF:
            leaves = [root.page_id]
        else:
            self._validate_internal(root, None, None, leaves)  # type: ignore[arg-type]
        # Record ordering across leaves.
        previous_max: int | None = None
        for leaf_id in leaves:
            leaf = self.store.get_leaf(leaf_id)
            if leaf.num_items > leaf.capacity:
                raise TreeInvariantError(f"leaf {leaf_id} over capacity")
            if not leaf.is_empty:
                if previous_max is not None and leaf.min_key() <= previous_max:
                    raise TreeInvariantError(
                        f"leaf {leaf_id} min {leaf.min_key()} <= previous max "
                        f"{previous_max}"
                    )
                previous_max = leaf.max_key()
            if self.store.free_map.is_free(leaf_id):
                raise TreeInvariantError(f"leaf {leaf_id} is reachable but free")
        self._validate_side_pointers(leaves)

    def _validate_internal(
        self,
        page: Page,
        low: int | None,
        high: int | None,
        leaves: list[PageId],
    ) -> None:
        if page.kind is PageKind.LEAF:
            leaf = page
            for record in leaf.records:  # type: ignore[union-attr]
                if low is not None and record.key < low:
                    raise TreeInvariantError(
                        f"leaf {page.page_id} key {record.key} below bound {low}"
                    )
                if high is not None and record.key >= high:
                    raise TreeInvariantError(
                        f"leaf {page.page_id} key {record.key} >= bound {high}"
                    )
            leaves.append(page.page_id)
            return
        internal = page
        entries = internal.entries  # type: ignore[union-attr]
        if not entries:
            raise TreeInvariantError(f"internal page {page.page_id} is empty")
        keys = [k for k, _ in entries]
        if keys != sorted(set(keys)):
            raise TreeInvariantError(
                f"internal page {page.page_id} keys not strictly sorted"
            )
        if self.store.free_map.is_free(page.page_id):
            raise TreeInvariantError(f"page {page.page_id} reachable but free")
        for index, (key, child) in enumerate(entries):
            # The leftmost child may hold keys below its entry key (routing
            # sends under-minimum keys to it), so it inherits the parent's
            # lower bound; every other child is bounded by its entry key.
            child_low = key if index > 0 else low
            child_high = entries[index + 1][0] if index + 1 < len(entries) else high
            child_page = self.store.get(child)
            expected_level = internal.level - 1  # type: ignore[union-attr]
            if child_page.kind is PageKind.INTERNAL:
                if child_page.level != expected_level:  # type: ignore[union-attr]
                    raise TreeInvariantError(
                        f"page {child}: level {child_page.level} != "  # type: ignore[union-attr]
                        f"expected {expected_level}"
                    )
            elif expected_level != 0:
                raise TreeInvariantError(
                    f"leaf {child} under level-{internal.level} parent"  # type: ignore[union-attr]
                )
            self._validate_internal(child_page, child_low, child_high, leaves)

    def _validate_side_pointers(self, leaves: list[PageId]) -> None:
        if self.side_pointers is SidePointerKind.NONE or len(leaves) < 1:
            return
        for here, there in zip(leaves, leaves[1:]):
            page = self.store.get_leaf(here)
            if page.next_leaf != there:
                raise TreeInvariantError(
                    f"leaf {here}.next_leaf = {page.next_leaf}, expected {there}"
                )
        last = self.store.get_leaf(leaves[-1])
        if last.next_leaf != NO_PAGE:
            raise TreeInvariantError(
                f"last leaf {leaves[-1]} has dangling next {last.next_leaf}"
            )
        if self.side_pointers is SidePointerKind.TWO_WAY:
            for prev, here in zip(leaves, leaves[1:]):
                page = self.store.get_leaf(here)
                if page.prev_leaf != prev:
                    raise TreeInvariantError(
                        f"leaf {here}.prev_leaf = {page.prev_leaf}, expected {prev}"
                    )
            first = self.store.get_leaf(leaves[0])
            if first.prev_leaf != NO_PAGE:
                raise TreeInvariantError("first leaf has a prev pointer")
