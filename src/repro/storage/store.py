"""Storage facade: disk + free-space map + buffer pool as one object.

:class:`StorageManager` wires the three storage pieces together with the
standard two-extent layout ("leaf" and "internal" — paper section 6 assumes
they live in different parts of the disk) and exposes the small API the
B+-tree and the reorganizer use.
"""

from __future__ import annotations

from repro.config import TreeConfig
from repro.errors import StorageError
from repro.storage.allocator import FreeSpaceMap
from repro.storage.buffer import BufferPool, WALHook
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.page import InternalPage, LeafPage, PageId, PageKind

LEAF_EXTENT = "leaf"
INTERNAL_EXTENT = "internal"


class StorageManager:
    """Owns a simulated disk, its free-space map, and a buffer pool."""

    def __init__(self, config: TreeConfig | None = None):
        self.config = config or TreeConfig()
        self.disk = SimulatedDisk(
            [
                Extent(LEAF_EXTENT, 0, self.config.leaf_extent_pages),
                Extent(
                    INTERNAL_EXTENT,
                    self.config.leaf_extent_pages,
                    self.config.internal_extent_pages,
                ),
            ],
            seek_cost=self.config.seek_cost,
        )
        self.free_map = FreeSpaceMap(self.disk, [LEAF_EXTENT, INTERNAL_EXTENT])
        self.buffer = BufferPool(
            self.disk,
            self.config.buffer_pool_pages,
            careful_writing=self.config.careful_writing,
        )
        # The hottest calls in every workload are the pool's own bound
        # methods, with no wrapper frame: `get` (BufferPool.fetch) and
        # `mark_dirty` (one per applied log record).
        self.get = self.buffer.fetch
        self.mark_dirty = self.buffer.mark_dirty

    # -- wiring ---------------------------------------------------------------

    def set_wal(self, wal: WALHook) -> None:
        """Attach the log manager so page writes respect WAL."""
        self.buffer.set_wal(wal)

    # -- allocation --------------------------------------------------------------

    def allocate_leaf(self, page_id: PageId | None = None) -> LeafPage:
        """Allocate a leaf page (optionally a specific free id) and buffer it."""
        pid = self.free_map.allocate(LEAF_EXTENT, page_id)
        page = LeafPage(pid, self.config.leaf_capacity)
        self.buffer.put_new(page)
        return page

    def allocate_internal(
        self, level: int, page_id: PageId | None = None
    ) -> InternalPage:
        """Allocate an internal page (optionally a specific free id), by
        default the first free page of the internal extent."""
        pid = self.free_map.allocate(INTERNAL_EXTENT, page_id)
        page = InternalPage(pid, self.config.internal_capacity, level=level)
        self.buffer.put_new(page)
        return page

    def deallocate(self, page_id: PageId) -> None:
        """Free a page: drop from the pool (honouring careful writing) and
        return it to the free map, erasing its stable image."""
        self.buffer.drop(page_id)
        self.free_map.free(page_id)

    # -- access -----------------------------------------------------------------

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
        """Readahead: batch-admit upcoming pages, gated on the config flag.

        Batches are capped at ``readahead_pages``; with the flag at 0 this
        is a no-op, so callers can request readahead unconditionally.
        """
        limit = self.config.readahead_pages
        if limit <= 0:
            return 0
        return self.buffer.prefetch(page_ids, max_batch=limit)

    # -- durability -----------------------------------------------------------

    def flush_all(self) -> None:
        self.buffer.flush_all()

    def force(self, page_ids: list[PageId]) -> None:
        self.buffer.force(page_ids)

    def crash(self) -> None:
        """Discard volatile storage state (buffer pool contents)."""
        self.buffer.crash()

    # -- rebuilding after a crash -------------------------------------------------

    def rebuild_free_map_from_disk(self) -> None:
        """Resynchronize the free map with the stable images on disk.

        After a crash the free map (volatile in a real system, though we
        keep it in this object) is reconstructed: every page with a stable
        image is allocated, everything else is free.  Recovery then applies
        ALLOC/FREE log records on top (paper section 7.3: space allocated
        after the most recent force-write can be deallocated).
        """
        self.free_map = FreeSpaceMap(self.disk, [LEAF_EXTENT, INTERNAL_EXTENT])
        for pid in self.disk.stable_page_ids():
            self.free_map.mark_allocated(pid)
