"""Buffer pool with WAL and careful-writing enforcement.

The buffer pool caches mutable :class:`~repro.storage.page.Page` objects in
front of the :class:`~repro.storage.disk.SimulatedDisk`.  It enforces two
write-ordering disciplines the paper depends on:

* **Write-ahead logging** (section 5): a dirty page may not reach disk until
  the log records that dirtied it are flushed.  The pool calls
  ``wal.flush(up_to_lsn)`` before any page write.

* **Careful writing** (section 5, citing [LT95]): when records are copied
  from a source page to a destination page, the *source* "cannot be written
  to disk until the new page is written to disk", and a page to be
  deallocated "cannot be deallocated until the new page where its contents
  was copied is on disk".  :meth:`BufferPool.add_write_dependency` records a
  *dest-before-source* edge; flushing the source first flushes its pending
  destinations (recursively).  This is what lets MOVE log records carry keys
  only instead of full record contents.

**Copy on write, one miss path.**  A miss admits the disk's stable image
*shared* — the frame holds the disk's own object, so reads copy nothing.
:meth:`BufferPool.fetch_for_update` is the one way to a page about to
change: the disk takes a private copy first, and :meth:`BufferPool.mark_dirty`
on a frame that skipped it raises.  A full pool evicts its LRU unpinned
frame (written back first if dirty, so no update is lost) and reuses it;
the walk to it parks each pinned frame it passes at the MRU end, so a
pinned frame is passed at most once per cycle of the pool.

**Write-back order** is the pool's business and there is one: ascending
page id.  ``flush_all``/``force`` drain dirty frames in one sweep of the
head, and eviction pressure writes back a short sweep (the victim plus its
unpinned dirty followers in page-id order, :data:`WRITEBACK_BATCH` at most)
instead of a single page, so bulk write-back pays mostly sequential write
cost.  A sorted index of the dirty page ids makes that sweep a ``bisect``
plus the batch rather than a scan of the pool.  Careful-writing edges still
flush destinations first *within* the sweep — a dependency pointing against
the sweep direction simply costs the extra head movement it implies.

**Prefetch frames** (``TreeConfig.readahead_pages``, default off):
:meth:`BufferPool.prefetch` batch-reads upcoming non-resident pages before
they are demanded — safe, as such a page's latest contents are always its
stable image.  Hit/waste counters record whether the gamble paid off.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from typing import Iterable, Protocol

from repro.errors import (
    BufferPoolError,
    CarefulWriteViolation,
    PagePinnedError,
)
from repro.perf import PERF
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageId

#: Module-level alias: PERF.reset() clears counters in place, so the bound
#: object stays valid and the hot paths save an attribute load per event.
_COUNTERS = PERF.counters

#: Most frames one eviction-pressure sweep writes back, victim included.
WRITEBACK_BATCH = 8


class WALHook(Protocol):
    """The slice of the log manager the buffer pool needs."""

    def flush(self, up_to_lsn: int) -> None:
        """Make all log records with LSN <= ``up_to_lsn`` stable."""

    @property
    def flushed_lsn(self) -> int:
        """Largest LSN known to be stable."""


class _NullWAL:
    """Default hook for tests that exercise the pool without a log."""

    flushed_lsn = 0

    def flush(self, up_to_lsn: int) -> None:  # noqa: D102 - trivial
        pass


class _Frame:
    __slots__ = ("page", "dirty", "pins", "prefetched", "shared")

    def __init__(self, page: Page, shared: bool):
        self.page = page
        self.dirty = False
        self.pins = 0
        #: Admitted by prefetch and not yet demanded by a fetch.
        self.prefetched = False
        #: ``page`` is the disk's stable image itself: read, never changed.
        self.shared = shared


class BufferPool:
    """LRU page cache enforcing WAL and careful-writing order."""

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int,
        *,
        wal: WALHook | None = None,
        careful_writing: bool = True,
    ):
        if capacity < 1:
            raise BufferPoolError("buffer pool capacity must be positive")
        self._disk = disk
        self._capacity = capacity
        self._wal: WALHook = wal if wal is not None else _NullWAL()
        self._careful_writing = careful_writing
        #: LRU order: oldest first.  Maps page id -> frame.
        self._frames: OrderedDict[PageId, _Frame] = OrderedDict()
        #: Ids of the dirty frames, ascending: the write-back sweep order.
        #: Maintained at the clean<->dirty edges only (`put_new`,
        #: `mark_dirty`, `_flush_page`, `drop`, `crash`).
        self._dirty_ids: list[PageId] = []
        #: Invariant: either None or the key currently last in ``_frames``.
        #: Lets repeat fetches of the hottest page skip ``move_to_end``.
        self._mru_id: PageId | None = None
        # Bound dict methods for `contains(page_id)` (is it resident?) and
        # the `fetch` hit path: the DES charges a residency-dependent cost
        # per FetchPage, so these run once per simulated page access.
        # `_frames` is cleared in place on crash, never rebound, so the
        # bound methods stay valid.
        self.contains = self._frames.__contains__
        self._frames_get = self._frames.get
        self._frames_move_to_end = self._frames.move_to_end
        #: Per-page version stamps: the waiter's "did it change while I
        #: slept" test of ROADMAP item 1(a).  Bumped on every mutation
        #: funnel — `mark_dirty` (all log-applied changes: insert, split,
        #: swap, side-file apply), `put_new` (allocation) and
        #: `drop` (deallocation, including the pass-3 switch discarding the
        #: old internal levels).  Entries survive `drop` on purpose: keeping
        #: the stamp monotonic across free/realloc defeats ABA, where a
        #: waiter compares against a *new* page that reused the id.
        self._versions: dict[PageId, int] = {}
        self._versions_get = self._versions.get
        #: source page id -> set of destination page ids that must be
        #: durable before the source may be written or deallocated.
        self._write_before: dict[PageId, set[PageId]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.page_writes = 0
        #: Prefetch accounting: batches issued, pages admitted, pages later
        #: demanded by a fetch (hits), pages evicted/dropped undemanded
        #: (waste), and eviction-pressure write-back sweeps performed.
        self.prefetch_batches = 0
        self.prefetched_pages = 0
        self.prefetch_hits = 0
        self.prefetch_wasted = 0
        self.writeback_sweeps = 0

    # -- configuration -----------------------------------------------------

    def set_wal(self, wal: WALHook) -> None:
        """Attach the log manager after construction (breaks an init cycle)."""
        self._wal = wal

    @property
    def careful_writing(self) -> bool:
        return self._careful_writing

    # -- core access --------------------------------------------------------

    def fetch(self, page_id: PageId, *, pin: bool = False) -> Page:
        """Return the in-pool page object, reading from disk on a miss."""
        frame = self._frames_get(page_id)
        if frame is not None:
            self.hits += 1
            _COUNTERS.buffer_hits += 1
            if frame.prefetched:
                frame.prefetched = False
                self.prefetch_hits += 1
            if page_id != self._mru_id:
                self._frames_move_to_end(page_id)
                self._mru_id = page_id
            else:
                # Already the newest entry; move_to_end would be a no-op.
                _COUNTERS.buffer_mru_hits += 1
        else:
            self.misses += 1
            _COUNTERS.buffer_misses += 1
            frame = self._admit(self._disk.read(page_id), True)
        if pin:
            frame.pins += 1
        return frame.page

    def fetch_for_update(
        self, page_id: PageId, lsn: int | None = None
    ) -> Page | None:
        """The one way to a page a caller may change (then `mark_dirty`):
        a frame sharing its stable image gives the disk a private copy and
        keeps its object, so references already held see the change.  With
        ``lsn`` (redo's page-LSN test), a page already at it returns None."""
        page = self.fetch(page_id)
        if lsn is not None and page.page_lsn >= lsn:
            return None
        frame = self._frames_get(page_id)
        if frame.shared:
            frame.shared = False
            self._disk.unshare(page)
        return page

    def put_new(self, page: Page, *, pin: bool = False) -> Page:
        """Register a freshly allocated page that has no stable image yet."""
        if page.page_id in self._frames:
            raise BufferPoolError(f"page {page.page_id} already buffered")
        frame = self._admit(page, False)
        frame.dirty = True
        insort(self._dirty_ids, page.page_id)
        self._versions[page.page_id] = self._versions_get(page.page_id, 0) + 1
        if pin:
            frame.pins += 1
        return frame.page

    def prefetch(
        self, page_ids, *, max_batch: int | None = None
    ) -> int:
        """Admit upcoming pages ahead of demand via batch reads.

        Candidates are deduplicated and sorted ascending (batch reads are
        one sweep direction), then filtered to pages that are not resident
        and have a stable image — for everything else the pool or the
        allocator, not the disk, is authoritative.  One batch of at most
        ``max_batch`` pages is issued (one readahead window; callers refill
        as the scan consumes it), further capped at what the pool can admit
        without evicting pinned frames.  Returns the number of pages
        admitted; best-effort, never raises for lack of room.
        """
        wanted = sorted(
            pid
            for pid in set(page_ids)
            if pid not in self._frames and self._disk.has_image(pid)
        )
        if not wanted:
            return 0
        if max_batch is not None:
            wanted = wanted[:max_batch]
        # Never force out pinned frames for a speculative read.
        room = self._capacity - len(self._frames)
        room += sum(1 for f in self._frames.values() if f.pins == 0)
        wanted = wanted[: max(0, room)]
        if not wanted:
            return 0
        pages = self._disk.read_batch(wanted)
        self.prefetch_batches += 1
        for page in pages:
            frame = self._admit(page, True)
            frame.prefetched = True
        self.prefetched_pages += len(pages)
        return len(pages)

    def pin(self, page_id: PageId) -> None:
        frame = self._require_frame(page_id)
        frame.pins += 1

    def unpin(self, page_id: PageId) -> None:
        frame = self._require_frame(page_id)
        if frame.pins == 0:
            raise BufferPoolError(f"page {page_id} is not pinned")
        frame.pins -= 1

    def mark_dirty(self, page_id: PageId, lsn: int | None = None) -> None:
        """Mark a buffered page dirty, optionally stamping its page LSN."""
        # One call per applied log record; inline the frame lookup rather
        # than going through `_require_frame`.
        frame = self._frames_get(page_id)
        if frame is None:
            raise BufferPoolError(f"page {page_id} is not buffered")
        if not frame.dirty:
            if frame.shared:
                raise BufferPoolError(f"page {page_id} was not fetched for update")
            frame.dirty = True
            insort(self._dirty_ids, page_id)
        self._versions[page_id] = self._versions_get(page_id, 0) + 1
        if lsn is not None:
            frame.page.page_lsn = lsn

    def version_of(self, page_id: PageId) -> int:
        """Current version stamp of a page (0 if never mutated).

        Valid for resident and non-resident pages alike: stamps track
        logical mutations, not residency, so a waiter can capture a stamp,
        sleep, and compare (ROADMAP item 1(a)) even if the frame was
        evicted in between.
        """
        return self._versions_get(page_id, 0)

    def bump_version(self, page_id: PageId) -> None:
        """Change ``page_id``'s stamp without a content mutation.  The
        pass-3 switch uses this on the old root after the flip, so a waiter
        that captured the old root's stamp (ROADMAP item 1(a)) sees that the
        access path moved to the new tree.
        """
        self._versions[page_id] = self._versions_get(page_id, 0) + 1

    def is_dirty(self, page_id: PageId) -> bool:
        return self._require_frame(page_id).dirty

    # -- careful writing --------------------------------------------------------

    def add_write_dependency(self, source: PageId, dest: PageId) -> None:
        """Require ``dest`` to be durable before ``source`` is written/freed.

        No-op when careful writing is disabled (callers then log full record
        contents instead, see :mod:`repro.wal.records`).
        """
        if not self._careful_writing:
            return
        if source == dest:
            raise CarefulWriteViolation("a page cannot depend on itself")
        self._write_before.setdefault(source, set()).add(dest)

    def pending_dependencies(self, source: PageId) -> set[PageId]:
        return set(self._write_before.get(source, ()))

    def remove_write_dependency(self, source: PageId, dest: PageId) -> None:
        """Cancel a write-before edge.

        Used when the action that created the edge is *undone* (section
        5.2): once the records are moved back, full contents having been
        logged for the reverse move, neither write order can lose data.
        """
        dests = self._write_before.get(source)
        if dests is not None:
            dests.discard(dest)
            if not dests:
                del self._write_before[source]

    def _clear_dependencies_on(self, dest: PageId) -> None:
        """``dest`` became durable; drop edges pointing at it."""
        if not self._write_before:
            return
        empty_sources = []
        for source, dests in self._write_before.items():
            dests.discard(dest)
            if not dests:
                empty_sources.append(source)
        for source in empty_sources:
            del self._write_before[source]

    # -- writing ---------------------------------------------------------------

    def flush_page(self, page_id: PageId) -> None:
        """Write one page to disk, honouring WAL and careful-writing order.

        Pending destination pages are flushed first, recursively.  A
        dependency cycle (impossible under the reorganizer's protocols, but
        conceivable from buggy callers) raises
        :class:`~repro.errors.CarefulWriteViolation`.
        """
        self._flush_page(page_id)

    def _flush_page(
        self, page_id: PageId, *, in_progress: set[PageId] | None = None
    ) -> None:
        if in_progress is not None and page_id in in_progress:
            raise CarefulWriteViolation(
                f"careful-writing dependency cycle involving page {page_id}"
            )
        frame = self._frames.get(page_id)
        if frame is None or not frame.dirty:
            # Clean or unbuffered pages are already stable; still clear any
            # edges that point at them so sources can make progress.
            self._clear_dependencies_on(page_id)
            return
        # `sorted` snapshots the dependency set before any recursive flush
        # can mutate it via `_clear_dependencies_on`; no defensive copy
        # (or cycle bookkeeping) is needed when there are no edges at all,
        # which is every flush outside a reorganization.
        deps = self._write_before.get(page_id)
        if deps:
            if in_progress is None:
                in_progress = set()
            in_progress.add(page_id)
            for dest in sorted(deps):
                self._flush_page(dest, in_progress=in_progress)
            in_progress.discard(page_id)
        if frame.page.page_lsn <= self._wal.flushed_lsn:
            _COUNTERS.wal_flush_skips += 1
        else:
            self._wal.flush(frame.page.page_lsn)
        self._disk.write(frame.page)
        frame.dirty = False
        self._forget_dirty(page_id)
        self.page_writes += 1
        self._clear_dependencies_on(page_id)

    def flush_all(self) -> None:
        """Write every dirty page (checkpoint / shutdown helper), in
        ascending page-id order — one sweep of the head."""
        self.force(self._frames)

    def force(self, page_ids: Iterable[PageId]) -> None:
        """Force-write specific pages now (pass 3 stable points, §7.3)."""
        for page_id in sorted(page_ids):
            self._flush_page(page_id)

    # -- deallocation -------------------------------------------------------------

    def drop(self, page_id: PageId) -> None:
        """Remove a page from the pool as part of deallocation.

        Careful writing: the page's destination pages are made durable
        first, so the copied-out contents cannot be lost.  The caller is
        responsible for returning the id to the
        :class:`~repro.storage.allocator.FreeSpaceMap` (which erases the
        stable image).
        """
        frame = self._frames.get(page_id)
        for dest in sorted(self.pending_dependencies(page_id)):
            self._flush_page(dest)
        self._write_before.pop(page_id, None)
        if frame is not None:
            if frame.pins > 0:
                raise PagePinnedError(f"cannot drop pinned page {page_id}")
            if frame.prefetched:
                self.prefetch_wasted += 1
            if frame.dirty:
                self._forget_dirty(page_id)
            del self._frames[page_id]
            if page_id == self._mru_id:
                self._mru_id = None
        # Deallocation is a mutation from a reader's point of view: a stamp
        # captured before it must no longer match (and the bumped-not-
        # deleted entry makes a later reallocation of this id visible too).
        self._versions[page_id] = self._versions_get(page_id, 0) + 1

    # -- crash simulation ----------------------------------------------------------

    def crash(self) -> None:
        """Discard all volatile state (buffered pages, dependency edges)."""
        self._frames.clear()
        self._dirty_ids.clear()
        self._mru_id = None
        self._write_before.clear()

    # -- internals -------------------------------------------------------------

    def _require_frame(self, page_id: PageId) -> _Frame:
        frame = self._frames.get(page_id)
        if frame is None:
            raise BufferPoolError(f"page {page_id} is not buffered")
        return frame

    def _admit(self, page: Page, shared: bool) -> _Frame:
        """The one miss path: evict if full, reusing the victim's frame."""
        if len(self._frames) < self._capacity:
            frame = _Frame(page, shared)
        else:
            frame = self._evict_one()
            frame.page = page
            frame.shared = shared
        self._frames[page.page_id] = frame
        self._mru_id = page.page_id
        return frame

    def _evict_one(self) -> _Frame:
        """Evict the LRU unpinned frame (written back if dirty); return it."""
        frames = self._frames
        passed = 0
        for page_id, frame in frames.items():
            if not frame.pins:
                break
            passed += 1
        else:
            raise BufferPoolError("all buffer frames are pinned; cannot evict")
        if passed:
            for _ in range(passed):
                self._frames_move_to_end(next(iter(frames)))
            self._mru_id = None
        if frame.dirty:
            self._writeback_sweep(page_id)
        if frame.prefetched:
            self.prefetch_wasted += 1
            frame.prefetched = False
        del frames[page_id]
        if page_id == self._mru_id:
            self._mru_id = None
        self.evictions += 1
        return frame

    def _forget_dirty(self, page_id: PageId) -> None:
        """A dirty frame became clean or left the pool."""
        del self._dirty_ids[bisect_left(self._dirty_ids, page_id)]

    def _writeback_sweep(self, victim_id: PageId) -> None:
        """Eviction-pressure write-back: a short run of unpinned dirty
        frames in ascending page-id order, starting at the eviction victim.

        One dirty victim usually means many dirty frames are queued behind
        it; draining a sweep of them now converts the coming burst of
        single-page seeks into one mostly-sequential pass, and leaves clean
        frames for the next few evictions.
        """
        # Choose the batch before writing: a flush removes ids from the
        # index, and a careful-writing dependency may clean a later member
        # early (its turn is then a no-op).
        dirty_ids = self._dirty_ids
        batch: list[PageId] = []
        i = bisect_left(dirty_ids, victim_id)
        while i < len(dirty_ids) and len(batch) < WRITEBACK_BATCH:
            if self._frames[dirty_ids[i]].pins == 0:
                batch.append(dirty_ids[i])
            i += 1
        for page_id in batch:
            self._flush_page(page_id)
        self.writeback_sweeps += 1
