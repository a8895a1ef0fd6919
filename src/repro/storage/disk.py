"""Simulated disk: stable page images, extents, and I/O accounting.

The disk is the *stable* half of the storage model.  Pages written here
survive a simulated crash; everything else (buffer pool, lock table,
in-memory tree handles) is volatile and discarded by
:meth:`repro.sim.crash.CrashHarness`.

The paper assumes "the leaf pages and internal pages are in a different part
of the disk or in different disks" (section 6), so the disk is divided into
named **extents**, each a contiguous range of page ids.  Pass 1's
Find-Free-Space heuristic reasons about page ids *within* the leaf extent.

I/O accounting implements the motivation of section 1: a range query over
leaves that are contiguous and in key order costs sequential reads; leaves
scattered by splits cost a seek per jump.  :meth:`SimulatedDisk.read` charges
``1.0`` for a sequential read (page id = previous id + 1) and
``TreeConfig.seek_cost`` otherwise, accumulating into
:attr:`IOStats.read_cost`.

Reads and writes share a single head-position model: an access is
sequential exactly when it targets the page after the previous access,
whatever kind that access was.  Writes charge :attr:`IOStats.write_cost`
under the same rule, so a write interleaved between two reads breaks their
sequentiality just like a real head movement would.
:meth:`SimulatedDisk.read_batch` models one coalesced multi-page request:
the first page is charged through the head model and every further page
costs ``1.0`` — "one seek plus N-1 sequential reads".

**Reads share, writes snapshot, the pool's first change copies**: a read
returns the stable image object itself, a write stores a ``clone``, and
:meth:`SimulatedDisk.unshare` swaps in a private copy before the buffer pool
lets anyone change a page that still *is* its image.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PageNotAllocatedError, StorageError
from repro.metrics import StatsDeltaMixin
from repro.storage.page import Page, PageId


@dataclass(frozen=True)
class Extent:
    """A named, contiguous range of page ids: [start, start + size)."""

    name: str
    start: PageId
    size: int

    @property
    def end(self) -> PageId:
        """One past the last page id of the extent."""
        return self.start + self.size

    def contains(self, page_id: PageId) -> bool:
        return self.start <= page_id < self.end


@dataclass
class IOStats(StatsDeltaMixin):
    """Mutable I/O counters, resettable between benchmark phases.

    ``seeks``/``sequential_reads`` classify reads; writes are classified by
    ``sequential_writes`` (the remainder, ``writes - sequential_writes``,
    paid full seek cost).  ``batch_reads``/``batch_read_pages`` count
    coalesced :meth:`SimulatedDisk.read_batch` requests and the pages they
    delivered (those pages are included in ``reads`` too).
    """

    reads: int = 0
    writes: int = 0
    sequential_reads: int = 0
    seeks: int = 0
    read_cost: float = 0.0
    sequential_writes: int = 0
    write_cost: float = 0.0
    batch_reads: int = 0
    batch_read_pages: int = 0


class SimulatedDisk:
    """Array of stable page images divided into extents.

    Reads share the stable image and writes store clones; with the pool's
    :meth:`unshare` before a first change, in-memory mutation never leaks
    into the stable state without an explicit write — exactly the
    property crash simulation needs.
    """

    def __init__(self, extents: list[Extent], *, seek_cost: float = 10.0):
        if not extents:
            raise StorageError("disk needs at least one extent")
        self._extents: dict[str, Extent] = {}
        cursor = 0
        for extent in extents:
            if extent.name in self._extents:
                raise StorageError(f"duplicate extent name {extent.name!r}")
            if extent.start != cursor:
                raise StorageError(
                    f"extent {extent.name!r} must start at {cursor}, got {extent.start}"
                )
            self._extents[extent.name] = extent
            cursor = extent.end
        self._total_pages = cursor
        self._images: dict[PageId, Page] = {}
        self._seek_cost = seek_cost
        #: Head position — page id of the last access, read *or* write.
        self._head: PageId | None = None
        #: Stable key/value metadata — the paper's "special place on the
        #: disk" holding e.g. the root location (section 7.4).  Writes are
        #: immediately durable (they survive crashes).
        self._meta: dict[str, object] = {}
        self.stats = IOStats()

    # -- stable metadata ---------------------------------------------------

    def set_meta(self, key: str, value: object) -> None:
        """Durably record a metadata value (e.g. the tree root location)."""
        self._meta[key] = value

    def get_meta(self, key: str, default: object = None) -> object:
        return self._meta.get(key, default)

    def del_meta(self, key: str) -> None:
        self._meta.pop(key, None)

    # -- extents --------------------------------------------------------------

    def extent(self, name: str) -> Extent:
        try:
            return self._extents[name]
        except KeyError:
            raise StorageError(f"no extent named {name!r}") from None

    def extent_of(self, page_id: PageId) -> Extent:
        for extent in self._extents.values():
            if extent.contains(page_id):
                return extent
        raise StorageError(f"page id {page_id} is outside every extent")

    @property
    def total_pages(self) -> int:
        return self._total_pages

    def _check_page_id(self, page_id: PageId) -> None:
        if not 0 <= page_id < self._total_pages:
            raise StorageError(
                f"page id {page_id} out of range [0, {self._total_pages})"
            )

    # -- stable image access ----------------------------------------------------

    def has_image(self, page_id: PageId) -> bool:
        """Whether a stable image exists for the page id."""
        return page_id in self._images

    def read(self, page_id: PageId) -> Page:
        """Read (share) the stable image, charging sequential-vs-seek cost."""
        image = self._images.get(page_id)
        if image is None:
            self._check_page_id(page_id)
            raise PageNotAllocatedError(
                f"page {page_id} has no stable image on disk"
            )
        self.stats.reads += 1
        if self._head is not None and page_id == self._head + 1:
            self.stats.sequential_reads += 1
            self.stats.read_cost += 1.0
        else:
            self.stats.seeks += 1
            self.stats.read_cost += self._seek_cost
        self._head = page_id
        return image

    def read_batch(self, page_ids: list[PageId]) -> list[Page]:
        """Read several stable images as one coalesced request.

        ``page_ids`` must be strictly ascending (one sweep direction — the
        request models a single scheduled pass over the platter).  The
        first page is charged through the shared head model; every further
        page costs ``1.0``, i.e. "one seek plus N-1 sequential reads",
        regardless of gaps — the gap pages stream past the head without a
        repositioning delay.
        """
        if not page_ids:
            return []
        images: list[Page] = []
        previous: PageId | None = None
        for page_id in page_ids:
            if previous is not None and page_id <= previous:
                raise StorageError(
                    f"read_batch page ids must be strictly ascending, got "
                    f"{page_id} after {previous}"
                )
            previous = page_id
            image = self._images.get(page_id)
            if image is None:
                self._check_page_id(page_id)
                raise PageNotAllocatedError(
                    f"page {page_id} has no stable image on disk"
                )
            images.append(image)
        stats = self.stats
        first = page_ids[0]
        if self._head is not None and first == self._head + 1:
            stats.sequential_reads += 1
            stats.read_cost += 1.0
        else:
            stats.seeks += 1
            stats.read_cost += self._seek_cost
        rest = len(page_ids) - 1
        stats.sequential_reads += rest
        stats.read_cost += float(rest)
        stats.reads += len(page_ids)
        stats.batch_reads += 1
        stats.batch_read_pages += len(page_ids)
        self._head = page_ids[-1]
        return images

    def write(self, page: Page) -> None:
        """Store a clone of ``page`` as the new stable image.

        Writes charge the same sequential-vs-seek model as reads and move
        the shared head, so interleaved writes break read sequentiality.
        """
        self._check_page_id(page.page_id)
        self._images[page.page_id] = page.clone()
        stats = self.stats
        stats.writes += 1
        if self._head is not None and page.page_id == self._head + 1:
            stats.sequential_writes += 1
            stats.write_cost += 1.0
        else:
            stats.write_cost += self._seek_cost
        self._head = page.page_id

    def unshare(self, page: Page) -> None:
        """``page``, read from here, is about to change: a private copy
        becomes the stable image instead.  Charges no I/O."""
        self._images[page.page_id] = page.clone()

    def erase(self, page_id: PageId) -> None:
        """Drop the stable image (page deallocation reached the disk)."""
        self._check_page_id(page_id)
        self._images.pop(page_id, None)

    def reset_read_position(self) -> None:
        """Forget the head position (e.g. between benchmark phases), so the
        next access — read or write — is charged as a seek."""
        self._head = None

    # -- introspection for tests and metrics -------------------------------------

    def stable_page_ids(self) -> list[PageId]:
        return sorted(self._images)

    def peek(self, page_id: PageId) -> Page:
        """Read a stable image *without* charging I/O (test/metrics helper)."""
        image = self._images.get(page_id)
        if image is None:
            raise PageNotAllocatedError(f"page {page_id} has no stable image")
        return image.clone()
