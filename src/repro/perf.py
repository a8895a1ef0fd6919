"""Near-zero-overhead performance counters.

The related B+-tree performance literature (FB+-tree, arXiv:2503.23397;
BS-tree, arXiv:2505.01180) locates most index time on *uncontended* hot
paths: in-node key search, latch acquisition that never blocks, and cache
lookups that hit.  This module makes those paths visible in the simulator:
the lock manager, buffer pool and discrete-event scheduler each bump a
couple of plain integer slots here, and the repo benchmark
(``python3 -m bench``, ``bench/runner.py``) snapshots them into its
per-layer metrics.

:class:`PerfCounters` holds integer event counts.  These are a pure
function of the workload and its seeds, so identical seeded runs produce
identical snapshots (asserted by ``tests/perf/test_perf_counters.py``).
Cost per event is one attribute increment on a ``__slots__`` object.

A single module-level registry :data:`PERF` is shared by every Database in
the process (the simulator is single-threaded); ``PERF.reset()`` between
measured phases scopes the numbers.

Counters that describe one object's behaviour live on that object instead
(``IOStats.batch_reads``/``write_cost``, ``LogStats.units_ended``,
``BufferPool.prefetch_hits``, :class:`repro.metrics.ShardStats`, ...), so
each is scoped to the database that owns it rather than to the process.
"""

from __future__ import annotations


class PerfCounters:
    """Deterministic event counters for the four hot subsystems."""

    __slots__ = (
        #: Scheduler heap events executed by :meth:`Scheduler.run`.
        "des_events",
        #: Generator resume calls (:meth:`Scheduler._step` invocations).
        "des_steps",
        #: Lock requests granted by the uncontended-acquire fast path.
        "lock_fast_grants",
        #: Lock requests granted immediately by the full conflict scan.
        "lock_slow_grants",
        #: Lock requests that had to enqueue and wait.
        "lock_waits",
        #: Buffer pool fetches served from a resident frame.
        "buffer_hits",
        #: Buffer pool fetches that went to the simulated disk.
        "buffer_misses",
        #: Hits on the most-recently-used frame (LRU bookkeeping skipped).
        "buffer_mru_hits",
        #: Page flushes that skipped the WAL call (page_lsn <= flushed_lsn).
        "wal_flush_skips",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Copy of every counter; deterministic under fixed seeds."""
        return {name: getattr(self, name) for name in self.__slots__}


class GapStats:
    """Leaf split / gap-absorption counters for the gapped-leaf layout.

    ``leaf_splits``/``internal_splits`` are bumped unconditionally (they
    are what the gapped and ungapped runs are compared on);
    ``absorbed_inserts`` counts inserts that landed in slack a gapless
    layout would not have had, and ``gapped_leaves_built`` counts leaves
    built with a non-zero reserved gap.
    """

    __slots__ = (
        "leaf_splits",
        "internal_splits",
        "absorbed_inserts",
        "gapped_leaves_built",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class PerfRegistry:
    """The process-wide hot-path counters and gapped-leaf counters."""

    def __init__(self) -> None:
        self.counters = PerfCounters()
        self.gap = GapStats()

    def reset(self) -> None:
        self.counters.reset()
        self.gap.reset()


#: Process-wide registry; the simulator is single-threaded, so one is enough.
PERF = PerfRegistry()
