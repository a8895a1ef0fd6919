"""Per-shard storage view: the shared StorageManager seen through leases.

A :class:`ShardStore` shares the disk, free-space map and buffer pool of
the one underlying :class:`~repro.storage.store.StorageManager` but owns
an :class:`~repro.storage.allocator.ExtentLease` on a slice of the leaf
extent and one on the internal extent.  Every allocation it performs —
leaf splits, pass-1 new-place targets, pass-3 upper levels — lands inside
its leases, so concurrent shard reorganizers can run Find-Free-Space
without their targets ever colliding (the lease bounds are also consulted
directly by :func:`repro.reorg.freespace.find_free_page`).
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.storage.allocator import ExtentLease
from repro.storage.buffer import WALHook
from repro.storage.page import InternalPage, LeafPage, Page, PageId, PageKind
from repro.storage.store import INTERNAL_EXTENT, LEAF_EXTENT, StorageManager


class ShardStore:
    """A lease-constrained view over one shared :class:`StorageManager`."""

    def __init__(
        self,
        base: StorageManager,
        leaf_lease: ExtentLease,
        internal_lease: ExtentLease,
    ):
        if leaf_lease.extent != LEAF_EXTENT:
            raise StorageError("leaf_lease must cover the leaf extent")
        if internal_lease.extent != INTERNAL_EXTENT:
            raise StorageError("internal_lease must cover the internal extent")
        self._base = base
        self.config = base.config
        self.disk = base.disk
        self.free_map = base.free_map
        self.buffer = base.buffer
        self.leaf_lease = leaf_lease
        self.internal_lease = internal_lease
        # Same hot-path shadowing as StorageManager: reads are unrestricted,
        # and version stamps live on the one shared buffer pool, so
        # optimistic readers validate identically through either facade.
        self.get = base.buffer.fetch
        self.mark_dirty = base.buffer.mark_dirty
        self.version_of = base.buffer.version_of

    # -- allocation (lease-constrained) --------------------------------------

    def allocate_leaf(self, page_id: PageId | None = None) -> LeafPage:
        pid = self.free_map.allocate_in_lease(self.leaf_lease, page_id)
        page = LeafPage(pid, self.config.leaf_capacity)
        self.buffer.put_new(page)
        return page

    def allocate_internal(
        self, level: int, page_id: PageId | None = None
    ) -> InternalPage:
        pid = self.free_map.allocate_in_lease(self.internal_lease, page_id)
        page = InternalPage(pid, self.config.internal_capacity, level=level)
        self.buffer.put_new(page)
        return page

    def deallocate(self, page_id: PageId) -> None:
        self._base.deallocate(page_id)

    # -- access (delegated; reads cross lease bounds freely) -----------------

    def get_leaf(self, page_id: PageId) -> LeafPage:
        page = self.buffer.fetch(page_id)
        if page.kind is not PageKind.LEAF:
            raise StorageError(f"page {page_id} is not a leaf page")
        return page  # type: ignore[return-value]

    def get_internal(self, page_id: PageId) -> InternalPage:
        page = self.buffer.fetch(page_id)
        if page.kind is not PageKind.INTERNAL:
            raise StorageError(f"page {page_id} is not an internal page")
        return page  # type: ignore[return-value]

    def prefetch(self, page_ids) -> int:
        return self._base.prefetch(page_ids)

    # -- durability (delegated) ----------------------------------------------

    def set_wal(self, wal: WALHook) -> None:
        self._base.set_wal(wal)

    def flush_all(self) -> None:
        self._base.flush_all()

    def force(self, page_ids: list[PageId]) -> None:
        self._base.force(page_ids)

    def crash(self) -> None:
        self._base.crash()

    def rebuild_free_map_from_disk(self) -> None:
        self._base.rebuild_free_map_from_disk()
        self.free_map = self._base.free_map
