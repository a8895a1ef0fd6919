"""Copy-on-write between the simulated disk and the buffer pool.

A clean frame shares the disk's stable image; the first change to it goes
through :meth:`BufferPool.fetch_for_update`, which hands the disk a private
copy and keeps the frame's object.  These tests pin the ownership rule:
reads copy nothing, a change reaches the stable image only by a write (or
by redo after a crash), and a change that skips the funnel fails loudly.
"""

import random

import pytest

from repro.config import TreeConfig
from repro.db import Database
from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.page import InternalPage, LeafPage, Record


def image(page):
    """Everything a stable image holds, as one comparable value."""
    if isinstance(page, LeafPage):
        return (page.page_lsn, page.records, page.next_leaf, page.prev_leaf)
    return (page.page_lsn, page.level, page.entries, page.low_mark)


def stable_images(disk):
    return {pid: image(disk.peek(pid)) for pid in disk.stable_page_ids()}


@pytest.fixture
def clone_calls(monkeypatch):
    """Count every Page.clone from here on."""
    calls = []
    for cls in (LeafPage, InternalPage):
        original = cls.clone

        def spy(self, _original=original):
            calls.append(self.page_id)
            return _original(self)

        monkeypatch.setattr(cls, "clone", spy)
    return calls


def make_pool(capacity=2):
    """A pool over a disk holding empty leaves 1-4."""
    disk = SimulatedDisk([Extent("leaf", 0, 16)])
    for pid in (1, 2, 3, 4):
        disk.write(LeafPage(pid, 4))
    return disk, BufferPool(disk, capacity)


class TestReadsShare:
    def test_read_only_scans_over_a_spilled_tree_copy_nothing(
        self, clone_calls
    ):
        db = Database(
            TreeConfig(
                leaf_capacity=8,
                internal_capacity=8,
                leaf_extent_pages=512,
                internal_extent_pages=128,
                buffer_pool_pages=16,
            )
        )
        tree = db.bulk_load_tree([Record(k, f"v{k}") for k in range(2000)])
        db.flush()
        disk, pool = db.store.disk, db.store.buffer
        before = stable_images(disk)
        misses = pool.misses
        del clone_calls[:]
        scanned = tree.range_scan(0, 1999)
        keys = random.Random(5).sample(range(2000), 300)
        found = [tree.search(k) for k in keys]
        assert clone_calls == []
        assert [r.key for r in scanned] == list(range(2000))
        assert [r.key for r in found] == keys
        assert pool.misses - misses > 250  # 250 leaves through 16 frames
        assert stable_images(disk) == before

    @pytest.mark.parametrize("admit", ["fetch", "prefetch"])
    def test_mark_dirty_on_a_sharing_frame_raises(self, admit):
        disk, pool = make_pool()
        if admit == "fetch":
            pool.fetch(3)
        else:
            pool.prefetch([3])
        with pytest.raises(BufferPoolError):
            pool.mark_dirty(3, lsn=1)
        assert not pool.is_dirty(3)
        assert pool.version_of(3) == 0

    def test_fetch_for_update_copies_once_and_keeps_the_frame_object(
        self, clone_calls
    ):
        disk, pool = make_pool()
        del clone_calls[:]
        held = pool.fetch(3)
        page = pool.fetch_for_update(3)
        assert page is held
        assert clone_calls == [3]
        page.insert(Record(7))
        pool.mark_dirty(3, lsn=1)
        assert held.keys() == [7]
        assert disk.peek(3).keys() == []  # the stable image is untouched
        assert pool.fetch_for_update(3) is page
        assert clone_calls[1:] == [3]  # only peek copied since
        pool.flush_page(3)
        assert disk.peek(3).keys() == [7]
        assert disk.peek(3).page_lsn == 1

    def test_a_page_already_at_the_lsn_is_skipped_without_a_copy(
        self, clone_calls
    ):
        disk, pool = make_pool()
        page = pool.fetch_for_update(3)
        page.insert(Record(7))
        pool.mark_dirty(3, lsn=5)
        pool.flush_page(3)
        pool.crash()
        del clone_calls[:]
        assert pool.fetch_for_update(3, 5) is None
        assert pool.fetch_for_update(3, 4) is None
        assert clone_calls == []
        with pytest.raises(BufferPoolError):
            pool.mark_dirty(3, lsn=5)
        assert pool.fetch_for_update(3, 6) is pool.fetch(3)
        assert clone_calls == [3]


class TestDurability:
    def test_a_logged_change_reaches_disk_only_by_write_or_redo(self):
        db = Database(
            TreeConfig(
                leaf_capacity=8,
                internal_capacity=8,
                leaf_extent_pages=256,
                internal_extent_pages=64,
            )
        )
        db.bulk_load_tree(
            [Record(k, f"v{k}") for k in range(0, 400, 2)], leaf_fill=0.5
        )
        db.flush()
        db.checkpoint()
        db.crash()
        db.recover()
        disk, pool = db.store.disk, db.store.buffer
        tree = db.tree()
        leaf_id = tree.path_to_leaf(41)[-1]  # now a frame sharing its image
        before = image(disk.peek(leaf_id))
        tree.insert(Record(41, "new"))
        assert pool.is_dirty(leaf_id)
        assert pool.fetch(leaf_id).find(41) == Record(41, "new")
        assert image(disk.peek(leaf_id)) == before
        db.log.flush()
        db.crash()
        assert image(disk.peek(leaf_id)) == before
        db.recover()
        assert db.tree().search(41) == Record(41, "new")
        db.tree().validate()


class TestMissPath:
    def test_a_reused_victim_frame_starts_clean(self):
        disk, pool = make_pool(capacity=2)
        writes = []
        disk_write = disk.write

        def spy(page):
            writes.append(page.page_id)
            disk_write(page)

        disk.write = spy
        pool.prefetch([1, 2])
        page = pool.fetch_for_update(2)
        page.insert(Record(5))
        pool.mark_dirty(2, lsn=1)
        pool.fetch(3)  # evicts 1: prefetched, never demanded
        assert (pool.evictions, pool.prefetch_wasted) == (1, 1)
        pool.fetch(3)
        assert pool.prefetch_hits == 1  # the demand fetch of 2, not of 3
        pool.fetch(4)  # evicts dirty 2: written back first
        assert (pool.evictions, pool.prefetch_wasted) == (2, 1)
        assert writes == [2]
        assert disk.peek(2).keys() == [5]
        assert not pool.is_dirty(4)
        with pytest.raises(BufferPoolError):
            pool.unpin(4)
        with pytest.raises(BufferPoolError):
            pool.mark_dirty(4, lsn=2)  # shares its image like any read
        pool.flush_all()
        assert writes == [2]
        assert pool.page_writes == 1
