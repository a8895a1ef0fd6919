"""Free-space map: page allocation within disk extents.

The paper assumes "there are also some free pages available in the database,
which are not connected to the B+-tree" (section 2).  The reorganizer's pass
1 consumes such pages for new-place compaction and its pass 3 allocates
internal pages for the new upper levels.

The map keeps, per extent, a sorted list of free page ids.  Sorted order is
what the Find-Free-Space heuristic of section 6.1 needs: *the first empty
page after the largest finished leaf page id L and before the current leaf
C*.  :meth:`FreeSpaceMap.first_free_in_range` answers exactly that query in
O(log n).

Two implementation details keep the map off the profile:

* extents are looked up by bisecting a sorted list of extent start offsets
  instead of scanning every extent;
* each free list carries a *head offset* so allocating the smallest free
  page is O(1) instead of ``list.pop(0)``'s O(n); the consumed prefix is
  compacted away once it outgrows the live tail.

Allocation state is considered stable (it survives crashes); the paper logs
space allocation so that "space which is allocated after the most recent
force-write log record can be deallocated during recovery" (section 7.3).
The write-ahead log layer emits those records; recovery reconciles via
:meth:`free`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.errors import (
    ExtentFullError,
    PageAlreadyFreeError,
    PageNotAllocatedError,
    StorageError,
)
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.page import PageId

#: Compact a free list's consumed prefix once it exceeds this many slots
#: and the live tail (amortizes the O(n) deletion over O(n) allocations).
_COMPACT_THRESHOLD = 64


@dataclass(frozen=True)
class ExtentLease:
    """An exclusive sub-range ``[start, end)`` of one extent.

    Shards lease disjoint slices of the shared leaf/internal extents so
    their Find-Free-Space targets can never collide: every allocation a
    shard makes goes through its lease, and leases are validated to be
    non-overlapping at grant time.
    """

    extent: str
    start: PageId
    end: PageId

    def contains(self, page_id: PageId) -> bool:
        return self.start <= page_id < self.end

    @property
    def size(self) -> int:
        return self.end - self.start


class FreeSpaceMap:
    """Tracks which page ids in each extent are free vs. allocated."""

    def __init__(self, disk: SimulatedDisk, extent_names: list[str]):
        self._disk = disk
        #: Per extent: sorted free page ids; only ``[head:]`` is live.
        self._free: dict[str, list[PageId]] = {}
        self._head: dict[str, int] = {}
        self._extents: dict[str, Extent] = {}
        for name in extent_names:
            extent = disk.extent(name)
            self._extents[name] = extent
            self._free[name] = list(range(extent.start, extent.end))
            self._head[name] = 0
        #: Extent bounds, sorted, and the names in the same order: a page id
        #: lies in an extent exactly when it bisects to an odd index of
        #: ``_bounds``, and half that index is the extent's.
        by_start = sorted(
            (extent.start, extent.end, name) for name, extent in self._extents.items()
        )
        self._bounds = [bound for start, end, _ in by_start for bound in (start, end)]
        self._names_by_start = [name for _, _, name in by_start]
        #: Granted per-shard leases, per extent (disjoint by construction).
        self._leases: dict[str, list[ExtentLease]] = {}

    # -- queries ------------------------------------------------------------

    def extent_for(self, page_id: PageId) -> str:
        at = bisect.bisect_right(self._bounds, page_id)
        if not at & 1:
            raise StorageError(f"page id {page_id} not in any managed extent")
        return self._names_by_start[at >> 1]

    def is_free(self, page_id: PageId) -> bool:
        name = self.extent_for(page_id)
        free = self._free[name]
        i = bisect.bisect_left(free, page_id, self._head[name])
        return i < len(free) and free[i] == page_id

    def free_count(self, extent_name: str) -> int:
        return len(self._free[extent_name]) - self._head[extent_name]

    def allocated_count(self, extent_name: str) -> int:
        return self._extents[extent_name].size - self.free_count(extent_name)

    def free_page_ids(self, extent_name: str) -> list[PageId]:
        """Sorted free page ids of the extent (copy)."""
        return self._free[extent_name][self._head[extent_name] :]

    def allocated_page_ids(self, extent_name: str) -> list[PageId]:
        """Sorted allocated page ids of the extent."""
        free = set(self.free_page_ids(extent_name))
        extent = self._extents[extent_name]
        return [pid for pid in range(extent.start, extent.end) if pid not in free]

    def first_free_in_range(
        self, extent_name: str, after: PageId, before: PageId
    ) -> PageId | None:
        """Smallest free page id p with ``after < p < before``.

        This is the query behind the paper's empty-page heuristic
        (section 6.1): ``after`` is L, the largest finished leaf page id,
        and ``before`` is C, the page being reorganized.
        """
        free = self._free[extent_name]
        i = bisect.bisect_right(free, after, self._head[extent_name])
        if i < len(free) and free[i] < before:
            return free[i]
        return None

    def first_free(self, extent_name: str) -> PageId | None:
        """Smallest free page id in the extent, or None if full."""
        free = self._free[extent_name]
        head = self._head[extent_name]
        return free[head] if head < len(free) else None

    # ROADMAP item 4(b): bench/trace.py wraps these two names by
    # ``FreeSpaceMap.__dict__`` lookup and bench/ does not change with the
    # library.  Nothing calls them; they leave with the next change to
    # ``bench/trace.py::_targets()``.
    first_free_run = nearest_free = first_free_in_range

    # -- leases -------------------------------------------------------------

    def grant_lease(self, extent_name: str, start: PageId, end: PageId) -> ExtentLease:
        """Grant an exclusive ``[start, end)`` slice of ``extent_name``.

        Validates that the slice lies inside the extent and overlaps no
        previously granted lease — this is the static half of the per-shard
        Find-Free-Space arbitration (the dynamic half is that every shard
        allocation goes through :meth:`allocate_in_lease`).
        """
        extent = self._extents[extent_name]
        if not (extent.start <= start < end <= extent.end):
            raise StorageError(
                f"lease [{start}, {end}) outside extent {extent_name!r} "
                f"[{extent.start}, {extent.end})"
            )
        for other in self._leases.get(extent_name, ()):
            if start < other.end and other.start < end:
                raise StorageError(
                    f"lease [{start}, {end}) overlaps existing lease "
                    f"[{other.start}, {other.end}) in extent {extent_name!r}"
                )
        lease = ExtentLease(extent_name, start, end)
        self._leases.setdefault(extent_name, []).append(lease)
        return lease

    def drop_leases(self, extent_name: str | None = None) -> None:
        """Forget granted leases (all extents by default)."""
        if extent_name is None:
            self._leases.clear()
        else:
            self._leases.pop(extent_name, None)

    def first_free_in_lease(self, lease: ExtentLease) -> PageId | None:
        """Smallest free page id within the lease, or None if exhausted."""
        return self.first_free_in_range(lease.extent, lease.start - 1, lease.end)

    def allocate_in_lease(
        self, lease: ExtentLease, page_id: PageId | None = None
    ) -> PageId:
        """Allocate within the lease (smallest free page by default)."""
        if page_id is None:
            page_id = self.first_free_in_lease(lease)
            if page_id is None:
                raise ExtentFullError(
                    f"lease [{lease.start}, {lease.end}) of extent "
                    f"{lease.extent!r} has no free pages"
                )
        elif not lease.contains(page_id):
            raise StorageError(
                f"page {page_id} outside lease [{lease.start}, {lease.end}) "
                f"of extent {lease.extent!r}"
            )
        return self.allocate(lease.extent, page_id)

    # -- mutations ----------------------------------------------------------

    def allocate(self, extent_name: str, page_id: PageId | None = None) -> PageId:
        """Allocate a specific free page, or the smallest free one.

        Returns the allocated page id.  Raises :class:`ExtentFullError` when
        the extent has no free pages, or :class:`PageNotAllocatedError`-style
        errors for invalid explicit requests.
        """
        free = self._free[extent_name]
        head = self._head[extent_name]
        if page_id is None:
            if head >= len(free):
                raise ExtentFullError(f"extent {extent_name!r} has no free pages")
            page_id = free[head]
            self._advance_head(extent_name, head + 1)
            return page_id
        i = bisect.bisect_left(free, page_id, head)
        if i >= len(free) or free[i] != page_id:
            raise StorageError(
                f"page {page_id} is not free in extent {extent_name!r}"
            )
        if i == head:
            self._advance_head(extent_name, head + 1)
        else:
            free.pop(i)
        return page_id

    def free(self, page_id: PageId) -> None:
        """Return a page to the free pool and erase its stable image."""
        name = self.extent_for(page_id)
        free = self._free[name]
        i = bisect.bisect_left(free, page_id, self._head[name])
        if i < len(free) and free[i] == page_id:
            raise PageAlreadyFreeError(f"page {page_id} is already free")
        free.insert(i, page_id)
        self._disk.erase(page_id)

    def mark_allocated(self, page_id: PageId) -> None:
        """Force a page into the allocated state (recovery bootstrap)."""
        name = self.extent_for(page_id)
        free = self._free[name]
        head = self._head[name]
        i = bisect.bisect_left(free, page_id, head)
        if i < len(free) and free[i] == page_id:
            if i == head:
                self._advance_head(name, head + 1)
            else:
                free.pop(i)

    # -- internals ----------------------------------------------------------

    def _advance_head(self, extent_name: str, head: int) -> None:
        free = self._free[extent_name]
        if head > _COMPACT_THRESHOLD and head > len(free) - head:
            del free[:head]
            head = 0
        self._head[extent_name] = head
