"""Property-based tests for the buffer pool.

Invariant under any interleaving of page updates, flushes, evictions and
crashes: the stable image of a page is always some *prefix* of its logged
update history (never a torn or reordered state), and careful-writing
dependencies are never violated on disk.  The pool's one write-back order
(ascending page id, a bounded sweep under eviction pressure) is held to a
scan-and-sort reference after every step.
"""

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.storage.buffer import WRITEBACK_BATCH, BufferPool
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.page import LeafPage, Record


class CountingWAL:
    def __init__(self):
        self.flushed_lsn = 0

    def flush(self, up_to_lsn):
        self.flushed_lsn = max(self.flushed_lsn, up_to_lsn)


ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["update", "flush", "fetch", "crash_check"]),
        st.integers(min_value=0, max_value=5),  # page index
    ),
    min_size=1,
    max_size=100,
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(actions=ACTIONS, capacity=st.integers(min_value=2, max_value=8))
def test_stable_images_are_update_prefixes(actions, capacity):
    disk = SimulatedDisk([Extent("leaf", 0, 16)])
    wal = CountingWAL()
    pool = BufferPool(disk, capacity, wal=wal)
    n_pages = 6
    lsn = 0
    #: Per page: number of updates applied in memory.
    applied = [0] * n_pages
    live_pages = {}

    def page_of(index):
        """The page to update: new, or fetched for update (the one way to
        change a page the pool may share with the disk)."""
        if index not in live_pages:
            page = LeafPage(index, capacity=200)
            pool.put_new(page)
            live_pages[index] = page
        else:
            live_pages[index] = pool.fetch_for_update(index)
        return live_pages[index]

    for action, index in actions:
        if action == "update":
            lsn += 1
            page = page_of(index)
            page.insert(Record(applied[index], payload=str(lsn)))
            applied[index] += 1
            pool.mark_dirty(index, lsn=lsn)
        elif action == "flush":
            if index in live_pages and pool.contains(index):
                pool.flush_page(index)
        elif action == "fetch":
            if index in live_pages:
                live_pages[index] = pool.fetch(index)
        elif action == "crash_check":
            # The stable image must be a prefix of the update history:
            # exactly its first `k` records for some k <= applied count,
            # and its page_lsn consistent with the WAL flush point.
            for pid in range(n_pages):
                if not disk.has_image(pid):
                    continue
                stable = disk.peek(pid)
                keys = stable.keys()
                assert keys == list(range(len(keys)))  # prefix of history
                assert len(keys) <= applied[pid]
                assert stable.page_lsn <= wal.flushed_lsn

    # Final full flush: disk must converge to memory exactly.
    for index, page in live_pages.items():
        if pool.contains(index):
            pool.flush_page(index)
            assert disk.peek(index).keys() == page.keys()


@settings(max_examples=60, deadline=None)
@given(
    chain=st.lists(
        st.integers(min_value=0, max_value=7), min_size=2, max_size=8,
        unique=True,
    )
)
def test_careful_writing_chain_order_always_respected(chain):
    """For any dependency chain p0 <- p1 <- ... (each must be durable
    before its successor), flushing any member writes its transitive
    dependencies first."""
    disk = SimulatedDisk([Extent("leaf", 0, 16)])
    pool = BufferPool(disk, capacity=16, careful_writing=True)
    for pid in chain:
        pool.put_new(LeafPage(pid, 4))
    for earlier, later in zip(chain, chain[1:]):
        # `later` holds records copied from `earlier`... the paper's rule:
        # source must not be written before dest; here dest=earlier.
        pool.add_write_dependency(source=later, dest=earlier)
    writes = []
    original = disk.write

    def spy(page):
        writes.append(page.page_id)
        original(page)

    disk.write = spy
    pool.flush_page(chain[-1])
    # Every dependency precedes its dependent in the write order.
    positions = {pid: i for i, pid in enumerate(writes)}
    for earlier, later in zip(chain, chain[1:]):
        assert positions[earlier] < positions[later]


POOL_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            # "write" is listed thrice so the pool fills with dirty frames.
            ["write", "write", "write", "fetch", "pin", "unpin", "flush",
             "drop", "depend", "crash"]
        ),
        st.integers(min_value=0, max_value=19),  # page id
        st.integers(min_value=0, max_value=19),  # dependency destination
    ),
    min_size=10,
    max_size=120,
)


def reference_sweep(victim, dirty, pinned, edges):
    """The write order of one eviction sweep, from a scan and a sort: the
    victim and its unpinned dirty followers in page-id order, at most
    WRITEBACK_BATCH, each preceded by its still-dirty destinations."""
    written = []

    def flush(pid):
        if pid in dirty and pid not in written:
            for dest in sorted(edges.get(pid, ())):
                flush(dest)
            written.append(pid)

    batch = [pid for pid in sorted(dirty) if pid >= victim and pid not in pinned]
    for pid in batch[:WRITEBACK_BATCH]:
        flush(pid)
    return written


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=POOL_STEPS,
    capacity=st.integers(min_value=3, max_value=12),
    first=st.permutations(range(20)),
)
def test_dirty_index_and_sweep_match_a_scan_and_sort(steps, capacity, first):
    disk = SimulatedDisk([Extent("leaf", 0, 20)])
    pool = BufferPool(disk, capacity, careful_writing=True)
    frames = pool._frames
    writes = []
    disk_write = disk.write

    def spy_write(page):
        writes.append(page.page_id)
        disk_write(page)

    disk.write = spy_write
    real_sweep = pool._writeback_sweep

    def checked_sweep(victim):
        dirty = {pid for pid, frame in frames.items() if frame.dirty}
        pinned = {pid for pid, frame in frames.items() if frame.pins}
        edges = {src: set(dests) for src, dests in pool._write_before.items()}
        start = len(writes)
        real_sweep(victim)
        order = writes[start:]
        assert order == reference_sweep(victim, dirty, pinned, edges)
        # Stated on its own, not only through the reference: careful writing.
        for src, dests in edges.items():
            for dest in dests & dirty:
                if src in order:
                    assert order.index(dest) < order.index(src)
        event(f"sweep of {len(order)}")

    pool._writeback_sweep = checked_sweep

    def reaches(start, goal):
        stack, seen = [start], set()
        while stack:
            pid = stack.pop()
            if pid == goal:
                return True
            if pid not in seen:
                seen.add(pid)
                stack.extend(pool._write_before.get(pid, ()))
        return False

    def all_pinned_but_one():
        return sum(1 for f in frames.values() if f.pins) >= capacity - 1

    # Start full of dirty frames, so the first admission already sweeps.
    steps = [("write", pid, 0) for pid in first[:capacity]] + steps
    for action, pid, other in steps:
        resident = pid in frames
        if action == "write":
            if not resident and not disk.has_image(pid):
                pool.put_new(LeafPage(pid, 4))
            else:
                pool.fetch_for_update(pid)
                pool.mark_dirty(pid)
        elif action == "pin":
            if resident and not frames[pid].pins and not all_pinned_but_one():
                pool.pin(pid)
        elif action == "unpin":
            if resident and frames[pid].pins:
                pool.unpin(pid)
        elif action == "flush":
            pool.flush_page(pid)
        elif action == "drop":
            if not (resident and frames[pid].pins):
                pool.drop(pid)
        elif action == "fetch":
            if resident or disk.has_image(pid):
                pool.fetch(pid)
        elif action == "depend":
            if (resident and other in frames and pid != other
                    and not reaches(other, pid)):
                pool.add_write_dependency(source=pid, dest=other)
        elif action == "crash":
            pool.crash()
        assert pool._dirty_ids == sorted(
            pid for pid, frame in frames.items() if frame.dirty
        )


LRU_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["fetch", "fetch", "fetch", "pin", "pin", "unpin"]),
        st.integers(min_value=0, max_value=5),  # page id
    ),
    min_size=30,
    max_size=150,
)


class LRUModel:
    """Reference LRU by use stamps: the victim is the unpinned frame with
    the oldest stamp.  With ``park``, an eviction also counts as a use of
    each pinned frame older than its victim — the frames the pool's walk
    passes over and parks at the MRU end."""

    def __init__(self, capacity, *, park):
        self.capacity, self.park = capacity, park
        self.stamps, self.pins, self.clock = {}, {}, 0

    def use(self, pid):
        self.clock += 1
        self.stamps[pid] = self.clock

    def fetch(self, pid):
        """A fetch; returns the page it evicted, or None."""
        victim = None
        if pid not in self.stamps and len(self.stamps) == self.capacity:
            unpinned = [p for p in self.stamps if not self.pins.get(p)]
            victim = min(unpinned, key=self.stamps.__getitem__)
            if self.park:
                passed = [
                    p for p in self.stamps
                    if self.pins.get(p) and self.stamps[p] < self.stamps[victim]
                ]
                for p in sorted(passed, key=self.stamps.__getitem__):
                    self.use(p)
            del self.stamps[victim]
        self.use(pid)
        return victim


def _drive_lru(steps, capacity, *, park, touch_on_unpin):
    """Run ``steps`` on a pool and on the model; returns both victim lists."""
    disk = SimulatedDisk([Extent("leaf", 0, 6)])
    for pid in range(6):
        disk.write(LeafPage(pid, 4))
    pool = BufferPool(disk, capacity)
    model = LRUModel(capacity, park=park)
    pool_victims, model_victims = [], []

    def fetch(pid):
        before = set(pool._frames)
        pool.fetch(pid)
        pool_victims.extend(before - set(pool._frames))
        victim = model.fetch(pid)
        if victim is not None:
            model_victims.append(victim)

    for action, pid in steps:
        pinned = sum(1 for count in model.pins.values() if count)
        if action == "fetch":
            fetch(pid)
        elif action == "pin" and pid in model.stamps and pinned < capacity - 1:
            pool.pin(pid)
            model.pins[pid] = model.pins.get(pid, 0) + 1
        elif action == "unpin" and model.pins.get(pid):
            pool.unpin(pid)
            model.pins[pid] -= 1
            if touch_on_unpin:
                fetch(pid)
        assert set(pool._frames) == set(model.stamps)
    return pool_victims, model_victims


@settings(max_examples=150, deadline=None)
@given(steps=LRU_STEPS, capacity=st.integers(min_value=2, max_value=5))
def test_victims_match_lru_with_pinned_frames_ineligible(steps, capacity):
    """The pool's only pinning caller (``UnitEngine.owning_tree``) fetches
    a page again as it unpins it.  Under that contract the victims are
    those of plain LRU in which a pinned frame is simply not eligible:
    parking a pinned frame changes the order of no unpinned one."""
    pool_victims, model_victims = _drive_lru(
        steps, capacity, park=False, touch_on_unpin=True
    )
    assert pool_victims == model_victims


@settings(max_examples=300, deadline=None)
@given(steps=LRU_STEPS, capacity=st.integers(min_value=2, max_value=5))
def test_victims_match_lru_that_parks_passed_pinned_frames(steps, capacity):
    """Any pin/unpin order: a pinned frame an eviction passes over counts
    as used by that eviction."""
    pool_victims, model_victims = _drive_lru(
        steps, capacity, park=True, touch_on_unpin=False
    )
    assert pool_victims == model_victims
