"""Unit tests for the buffer pool: LRU, pins, WAL hook, careful writing."""

import pytest

from repro.errors import (
    BufferPoolError,
    CarefulWriteViolation,
    PagePinnedError,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.page import LeafPage, Record
from repro.wal.log import LogManager
from repro.wal.records import LeafFormatRecord


class RecordingWAL:
    """WAL hook that records flush calls for assertions."""

    def __init__(self):
        self.flushed_lsn = 0
        self.calls = []

    def flush(self, up_to_lsn):
        self.calls.append(up_to_lsn)
        self.flushed_lsn = max(self.flushed_lsn, up_to_lsn)


def make_pool(capacity=4, careful=True, wal=None):
    disk = SimulatedDisk([Extent("leaf", 0, 64)])
    pool = BufferPool(disk, capacity, wal=wal, careful_writing=careful)
    return disk, pool


def new_leaf(pool, pid, keys=()):
    page = LeafPage(pid, 8)
    for k in keys:
        page.insert(Record(k))
    pool.put_new(page)
    return page


class TestBasics:
    def test_put_new_then_fetch_hits(self):
        _, pool = make_pool()
        new_leaf(pool, 0, [1])
        page = pool.fetch(0)
        assert page.keys() == [1]
        assert pool.hits == 1
        assert pool.misses == 0

    def test_fetch_miss_reads_from_disk(self):
        disk, pool = make_pool()
        disk.write(LeafPage(3, 8))
        page = pool.fetch(3)
        assert page.page_id == 3
        assert pool.misses == 1

    def test_put_new_duplicate_raises(self):
        _, pool = make_pool()
        new_leaf(pool, 0)
        with pytest.raises(BufferPoolError):
            new_leaf(pool, 0)

    def test_capacity_must_be_positive(self):
        disk = SimulatedDisk([Extent("leaf", 0, 4)])
        with pytest.raises(BufferPoolError):
            BufferPool(disk, 0)

    def test_mark_dirty_requires_buffered_page(self):
        _, pool = make_pool()
        with pytest.raises(BufferPoolError):
            pool.mark_dirty(5)

    def test_mark_dirty_stamps_page_lsn(self):
        _, pool = make_pool()
        page = new_leaf(pool, 0)
        pool.mark_dirty(0, lsn=17)
        assert page.page_lsn == 17
        assert pool.is_dirty(0)


class TestEviction:
    def test_lru_evicts_oldest_unpinned(self):
        disk, pool = make_pool(capacity=2)
        new_leaf(pool, 0)
        new_leaf(pool, 1)
        new_leaf(pool, 2)  # evicts page 0 (dirty -> written to disk first)
        assert not pool.contains(0)
        assert disk.has_image(0)
        assert pool.evictions == 1

    def test_fetch_refreshes_lru_position(self):
        _, pool = make_pool(capacity=2)
        new_leaf(pool, 0)
        new_leaf(pool, 1)
        pool.fetch(0)  # page 0 becomes most recent
        new_leaf(pool, 2)  # so page 1 is evicted
        assert pool.contains(0)
        assert not pool.contains(1)

    def test_pinned_pages_are_not_evicted(self):
        _, pool = make_pool(capacity=2)
        new_leaf(pool, 0)
        pool.pin(0)
        new_leaf(pool, 1)
        new_leaf(pool, 2)  # must evict 1, not pinned 0
        assert pool.contains(0)

    def test_all_pinned_raises(self):
        _, pool = make_pool(capacity=2)
        new_leaf(pool, 0)
        new_leaf(pool, 1)
        pool.pin(0)
        pool.pin(1)
        with pytest.raises(BufferPoolError):
            new_leaf(pool, 2)

    def test_unpin_below_zero_raises(self):
        _, pool = make_pool()
        new_leaf(pool, 0)
        with pytest.raises(BufferPoolError):
            pool.unpin(0)

    def test_fetch_with_pin(self):
        _, pool = make_pool()
        new_leaf(pool, 0)
        pool.fetch(0, pin=True)
        pool.unpin(0)  # balanced


class TestWAL:
    def test_flush_page_flushes_log_first(self):
        wal = RecordingWAL()
        _, pool = make_pool(wal=wal)
        new_leaf(pool, 0)
        pool.mark_dirty(0, lsn=99)
        pool.flush_page(0)
        assert wal.calls == [99]

    def test_eviction_also_respects_wal(self):
        wal = RecordingWAL()
        _, pool = make_pool(capacity=1, wal=wal)
        new_leaf(pool, 0)
        pool.mark_dirty(0, lsn=7)
        new_leaf(pool, 1)  # evicts page 0
        assert 7 in wal.calls

    @pytest.mark.parametrize("window", [0, 8])
    def test_stable_page_flush_reaches_the_log_only_under_group_commit(
        self, window
    ):
        """A page whose LSN is already stable needs no log flush; only
        group commit wants the request, to count it as absorbed."""
        log = LogManager(group_commit_window=window)
        _, pool = make_pool(wal=log)
        new_leaf(pool, 0)
        pool.mark_dirty(0, log.append(LeafFormatRecord(page_id=0)))
        log.flush()
        calls = []
        real_flush = log.flush
        log.flush = lambda up_to=None: (calls.append(up_to), real_flush(up_to))[1]
        pool.flush_page(0)
        assert len(calls) == (1 if window else 0)
        assert log.stats.absorbed_flushes == (1 if window else 0)

    def test_clean_page_flush_is_noop(self):
        wal = RecordingWAL()
        disk, pool = make_pool(wal=wal)
        disk.write(LeafPage(0, 8))
        pool.fetch(0)
        pool.flush_page(0)
        assert wal.calls == []
        assert disk.stats.writes == 1  # only the setup write


class TestCarefulWriting:
    def test_source_flush_writes_destination_first(self):
        disk, pool = make_pool()
        new_leaf(pool, 0, [1])  # source
        new_leaf(pool, 1)  # destination of a copy
        pool.add_write_dependency(source=0, dest=1)
        order = []
        original = disk.write

        def spy(page):
            order.append(page.page_id)
            original(page)

        disk.write = spy
        pool.flush_page(0)
        assert order == [1, 0]

    def test_drop_flushes_destinations_before_deallocation(self):
        disk, pool = make_pool()
        new_leaf(pool, 0, [1])
        new_leaf(pool, 1)
        pool.add_write_dependency(source=0, dest=1)
        pool.drop(0)
        assert disk.has_image(1)  # copied-out contents are durable
        assert not pool.contains(0)

    def test_dependency_chain_flushes_transitively(self):
        disk, pool = make_pool()
        new_leaf(pool, 0)
        new_leaf(pool, 1)
        new_leaf(pool, 2)
        pool.add_write_dependency(source=0, dest=1)
        pool.add_write_dependency(source=1, dest=2)
        pool.flush_page(0)
        assert disk.has_image(2)
        assert disk.has_image(1)
        assert disk.has_image(0)

    def test_dependency_cycle_detected(self):
        _, pool = make_pool()
        new_leaf(pool, 0)
        new_leaf(pool, 1)
        pool.add_write_dependency(source=0, dest=1)
        pool.add_write_dependency(source=1, dest=0)
        with pytest.raises(CarefulWriteViolation):
            pool.flush_page(0)

    def test_self_dependency_rejected(self):
        _, pool = make_pool()
        with pytest.raises(CarefulWriteViolation):
            pool.add_write_dependency(source=0, dest=0)

    def test_dependencies_cleared_once_destination_durable(self):
        _, pool = make_pool()
        new_leaf(pool, 0)
        new_leaf(pool, 1)
        pool.add_write_dependency(source=0, dest=1)
        pool.flush_page(1)
        assert pool.pending_dependencies(0) == set()

    def test_disabled_careful_writing_records_nothing(self):
        _, pool = make_pool(careful=False)
        pool.add_write_dependency(source=0, dest=1)
        assert pool.pending_dependencies(0) == set()

    def test_drop_pinned_page_raises(self):
        _, pool = make_pool()
        new_leaf(pool, 0)
        pool.pin(0)
        with pytest.raises(PagePinnedError):
            pool.drop(0)


class TestCrash:
    def test_crash_discards_buffered_state(self):
        disk, pool = make_pool()
        new_leaf(pool, 0, [1])
        pool.crash()
        assert not pool.contains(0)
        assert not disk.has_image(0)  # never flushed; data lost as expected

    def test_flush_all_writes_everything(self):
        disk, pool = make_pool()
        new_leaf(pool, 0)
        new_leaf(pool, 1)
        pool.flush_all()
        assert disk.has_image(0) and disk.has_image(1)


def test_eviction_parks_the_pinned_frames_it_passes_at_the_mru_end():
    disk = SimulatedDisk([Extent("leaf", 0, 16)])
    for pid in range(8):
        disk.write(LeafPage(pid, 4))
    pool = BufferPool(disk, 5)
    for pid in range(5):
        pool.fetch(pid, pin=pid < 3)  # pages 0, 1, 2 pinned, at the LRU head
    pool.fetch(5)
    # One walk evicted page 3 and left the pinned frames behind page 4, in
    # their order: the next walk starts at an unpinned frame.
    assert list(pool._frames) == [4, 0, 1, 2, 5]
    pool.fetch(6)
    assert list(pool._frames) == [0, 1, 2, 5, 6]
    assert pool.evictions == 2
