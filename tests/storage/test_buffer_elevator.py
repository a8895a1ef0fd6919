"""Write-back order and prefetch vs the careful-writing order.

The pool writes back in ascending page-id sweeps (its one order); the
careful-writing protocol demands each copy destination be durable before
its source.  These tests pin down the composition: the sweep chooses who
drains *next*, but every drain still runs the recursive dest-before-source
flush, so dependencies that point backwards against the sweep direction
jump the queue.  Readahead's prefetched frames add a third party: they are
clean on arrival, may be dirtied later, and must then obey the same rules
when evicted.
"""

import pytest

from repro.errors import StorageError
from repro.storage.buffer import WRITEBACK_BATCH, BufferPool
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.page import LeafPage, Record


def make_pool(capacity=8, *, wal=None):
    disk = SimulatedDisk([Extent("leaf", 0, 64)])
    pool = BufferPool(disk, capacity, wal=wal, careful_writing=True)
    return disk, pool


def new_leaf(pool, pid, keys=()):
    page = LeafPage(pid, 8)
    for k in keys:
        page.insert(Record(k))
    pool.put_new(page)
    return page


def spy_writes(disk):
    order = []
    original = disk.write

    def spy(page):
        order.append(page.page_id)
        original(page)

    disk.write = spy
    return order


class TestElevatorOrder:
    def test_flush_all_sweeps_ascending(self):
        disk, pool = make_pool()
        for pid in (5, 1, 3):  # dirtied in non-sweep order
            new_leaf(pool, pid, [pid])
        order = spy_writes(disk)
        pool.flush_all()
        assert order == [1, 3, 5]

    def test_force_sweeps_ascending(self):
        disk, pool = make_pool()
        for pid in (6, 2, 4):
            new_leaf(pool, pid, [pid])
        order = spy_writes(disk)
        pool.force([6, 2, 4])
        assert order == [2, 4, 6]


class TestElevatorVsCarefulWriting:
    def test_backwards_dependency_jumps_the_sweep(self):
        """dest 5 must be written before source 1, against sweep order."""
        disk, pool = make_pool()
        new_leaf(pool, 1, [1])  # source (copied out of)
        new_leaf(pool, 3, [3])  # unrelated dirty page
        new_leaf(pool, 5, [5])  # destination of the copy
        pool.add_write_dependency(source=1, dest=5)
        order = spy_writes(disk)
        pool.flush_all()
        assert order.index(5) < order.index(1)
        assert sorted(order) == [1, 3, 5]

    def test_recursive_chain_flushes_dest_first_under_elevator(self):
        """A chain 0 -> 4 -> 2 drains leaves-first however the sweep runs."""
        disk, pool = make_pool()
        for pid in (0, 2, 4):
            new_leaf(pool, pid, [pid])
        pool.add_write_dependency(source=0, dest=4)
        pool.add_write_dependency(source=4, dest=2)
        order = spy_writes(disk)
        pool.flush_all()
        assert order.index(2) < order.index(4) < order.index(0)

    def test_eviction_sweep_honours_dependencies(self):
        """The eviction-pressure sweep is still a careful-writing flush."""
        disk, pool = make_pool(capacity=3)
        new_leaf(pool, 1, [1])
        new_leaf(pool, 2, [2])
        new_leaf(pool, 3, [3])
        pool.add_write_dependency(source=1, dest=3)
        order = spy_writes(disk)
        new_leaf(pool, 4, [4])  # overflows the pool -> evicts page 1's frame
        assert order.index(3) < order.index(1)
        assert pool.writeback_sweeps == 1
        assert not pool.is_dirty(2)  # swept along with the victim

    def test_eviction_sweep_respects_batch_limit(self):
        pids = list(range(1, WRITEBACK_BATCH + 3))
        disk, pool = make_pool(capacity=len(pids))
        for pid in pids:  # LRU victim is page 1
            new_leaf(pool, pid, [pid])
        order = spy_writes(disk)
        new_leaf(pool, 40, [40])
        # Victim + its followers up to the batch, not the whole pool.
        assert order == pids[:WRITEBACK_BATCH]
        assert all(pool.is_dirty(pid) for pid in pids[WRITEBACK_BATCH:])

    def test_eviction_sweep_skips_pinned_and_starts_at_the_victim(self):
        disk, pool = make_pool(capacity=5)
        for pid in (4, 2, 9, 6, 7):  # LRU victim is 4
            new_leaf(pool, pid, [pid])
        pool.pin(6)
        order = spy_writes(disk)
        new_leaf(pool, 11, [11])
        assert order == [4, 7, 9]  # not 2 (below the victim), not pinned 6
        assert pool.is_dirty(2) and pool.is_dirty(6)


class TestPrefetch:
    def _seed_disk(self, disk, pids):
        for pid in pids:
            page = LeafPage(pid, 8)
            page.insert(Record(pid))
            disk.write(page)

    def test_prefetch_issues_one_batch_read(self):
        disk, pool = make_pool()
        self._seed_disk(disk, [2, 3, 4])
        assert pool.prefetch([4, 2, 3]) == 3
        assert disk.stats.batch_reads == 1
        assert disk.stats.batch_read_pages == 3
        assert pool.prefetched_pages == 3

    def test_prefetch_skips_resident_and_imageless_pages(self):
        disk, pool = make_pool()
        self._seed_disk(disk, [2, 3])
        pool.fetch(2)
        # 2 is resident, 9 has no stable image; only 3 is worth reading.
        assert pool.prefetch([2, 3, 9]) == 1
        assert pool.contains(3)
        assert not pool.contains(9)

    def test_demand_fetch_counts_prefetch_hit(self):
        disk, pool = make_pool()
        self._seed_disk(disk, [2])
        pool.prefetch([2])
        assert pool.prefetch_hits == 0
        pool.fetch(2)
        assert pool.prefetch_hits == 1
        pool.fetch(2)  # only the first demand counts
        assert pool.prefetch_hits == 1

    def test_evicting_undemanded_prefetch_counts_waste(self):
        disk, pool = make_pool(capacity=2)
        self._seed_disk(disk, [2, 3])
        pool.prefetch([2, 3])
        pool.fetch(2)
        new_leaf(pool, 5)  # evicts LRU frame 3, never demanded
        assert pool.prefetch_wasted == 1
        assert pool.prefetch_hits == 1

    def test_dirty_prefetched_frame_evicts_legally(self):
        """Dirtying a prefetched frame makes it a normal citizen: its WAL
        and careful-writing obligations hold when eviction pressure hits."""
        disk, pool = make_pool(capacity=2)
        self._seed_disk(disk, [2, 4])
        pool.prefetch([2, 4])
        pool.fetch_for_update(2)
        pool.mark_dirty(2, lsn=9)
        new_leaf(pool, 6, [6])  # evicts 4, undemanded -> waste
        pool.add_write_dependency(source=2, dest=6)
        order = spy_writes(disk)
        new_leaf(pool, 7)  # overflow -> evict 2 (LRU, dirty) via sweep
        assert order.index(6) < order.index(2)
        assert disk.peek(2).keys() == [2]
        assert pool.prefetch_wasted == 1

    def test_prefetch_never_evicts_pinned_overflow(self):
        disk, pool = make_pool(capacity=2)
        self._seed_disk(disk, [1, 2, 3, 4])
        pool.fetch(1, pin=True)
        pool.fetch(2, pin=True)
        # No unpinned room at all: prefetch declines rather than raising.
        assert pool.prefetch([3, 4]) == 0

    def test_prefetch_window_capped_by_max_batch(self):
        disk, pool = make_pool()
        self._seed_disk(disk, [1, 2, 3, 4, 5])
        assert pool.prefetch([1, 2, 3, 4, 5], max_batch=2) == 2
        assert pool.contains(1) and pool.contains(2)
        assert not pool.contains(5)


class TestBatchReadContract:
    def test_batch_read_requires_ascending_ids(self):
        disk, _ = make_pool()
        for pid in (1, 2):
            disk.write(LeafPage(pid, 8))
        with pytest.raises(StorageError):
            disk.read_batch([2, 1])

    def test_batch_read_charges_one_seek_plus_sequential(self):
        disk, _ = make_pool()
        for pid in (10, 11, 12, 13):
            disk.write(LeafPage(pid, 8))
        disk.reset_read_position()
        before = disk.stats.snapshot()
        disk.read_batch([10, 11, 12, 13])
        spent = disk.stats.delta(before)
        assert spent["reads"] == 4
        assert spent["seeks"] == 1
        assert spent["sequential_reads"] == 3
        assert spent["read_cost"] == 10.0 + 3.0  # default seek cost + 3 seq
