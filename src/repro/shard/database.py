"""The sharded database facade.

A :class:`ShardedDatabase` owns one underlying :class:`repro.db.Database`
whose storage, log, lock manager, progress table and per-tree pass-3 state
are *shared* by every shard, plus N :class:`~repro.shard.handle.ShardHandle`
views with disjoint extent leases.  Durability is that database's: one
checkpoint, one crash and one recovery, keyed by each shard's tree name.  Keys route through a :class:`~repro.shard.router.ShardRouter`;
cross-shard range scans concatenate per-shard scans (range partitioning
keeps shard outputs contiguous and ordered, and each per-shard scan reuses
the readahead path of the underlying tree).

With ``n_shards=1`` the forest degenerates to a single tree whose leaf
layout is byte-identical to an unsharded database bulk-loaded from the
same records — the full-extent lease makes every allocation decision
identical (asserted by ``tests/shard/test_sharded_database.py``, and
after a full reorganization by ``benchmarks/test_bench_features.py``).
"""

from __future__ import annotations

from repro.config import ShardConfig, TreeConfig
from repro.db import Database
from repro.shard.handle import ShardHandle
from repro.shard.router import ShardRouter
from repro.shard.store import ShardStore
from repro.storage.page import Record
from repro.storage.store import INTERNAL_EXTENT, LEAF_EXTENT
from repro.wal.recovery import RecoveryReport


class ShardedDatabase:
    """Range-partitioned forest of B+-trees behind a key router."""

    def __init__(
        self,
        config: TreeConfig | None = None,
        shard_config: ShardConfig | None = None,
    ):
        self.config = config or TreeConfig()
        self.shard_config = shard_config or ShardConfig()
        self._db = Database(self.config)
        self.store = self._db.store
        self.log = self._db.log
        self.locks = self._db.locks
        self.progress = self._db.progress
        self.handles: list[ShardHandle] = []
        #: Built by :meth:`bulk_load` (or :meth:`set_separators`).
        self.router: ShardRouter | None = None
        self._build_handles()

    # -- construction --------------------------------------------------------

    def _build_handles(self) -> None:
        base = self._db.store
        n = self.shard_config.n_shards
        free_map = base.free_map
        for i in range(n):
            leaf = self._slice(base.disk.extent(LEAF_EXTENT), i, n)
            internal = self._slice(base.disk.extent(INTERNAL_EXTENT), i, n)
            store = ShardStore(
                base,
                free_map.grant_lease(LEAF_EXTENT, *leaf),
                free_map.grant_lease(INTERNAL_EXTENT, *internal),
            )
            handle = ShardHandle(
                index=i,
                tree_name=f"shard{i}",
                config=self.config,
                store=store,
                db=self._db,
            )
            self.handles.append(handle)

    @staticmethod
    def _slice(extent, i: int, n: int) -> tuple[int, int]:
        start = extent.start + i * extent.size // n
        end = extent.start + (i + 1) * extent.size // n
        return start, end

    def handle(self, index: int) -> ShardHandle:
        return self.handles[index]

    def tree(self, name: str):
        """Attach one shard's tree by its shard tree name.

        Exists for tooling that duck-types ``Database`` (e.g. the model
        checker's ``World``); shard-internal code and applications route
        through the handles / the facade operations instead.
        """
        for handle in self.handles:
            if handle.tree_name == name:
                return handle.tree()
        raise KeyError(f"no shard owns tree {name!r}")

    def set_separators(self, separators: tuple[int, ...]) -> None:
        """Install partition bounds explicitly (before any loading)."""
        self.router = ShardRouter(tuple(separators), self.shard_config.n_shards)

    # -- loading -------------------------------------------------------------

    def bulk_load(
        self,
        records: list[Record],
        *,
        leaf_fill: float = 1.0,
        internal_fill: float = 1.0,
    ) -> None:
        """Partition sorted records across shards and bulk-load each tree.

        Separators come from :class:`~repro.config.ShardConfig` when given,
        else are derived equi-populated from the records themselves.
        """
        records = sorted(records, key=lambda r: r.key)
        if self.router is None:
            if self.shard_config.separators:
                self.set_separators(self.shard_config.separators)
            else:
                self.set_separators(self._derive_separators(records))
        router = self.router
        buckets: list[list[Record]] = [[] for _ in self.handles]
        for record in records:
            buckets[router.shard_for(record.key)].append(record)
        for handle, bucket in zip(self.handles, buckets):
            handle.bulk_load_tree(
                bucket, leaf_fill=leaf_fill, internal_fill=internal_fill
            )

    def _derive_separators(self, records: list[Record]) -> tuple[int, ...]:
        n = self.shard_config.n_shards
        if n == 1:
            return ()
        if len(records) < n:
            raise ValueError(f"need at least {n} records to derive separators")
        seps = []
        for i in range(1, n):
            seps.append(records[i * len(records) // n].key)
        if any(b <= a for a, b in zip(seps, seps[1:])):
            raise ValueError(
                "records too skewed to derive distinct separators; pass "
                "ShardConfig.separators explicitly"
            )
        return tuple(seps)

    def _routed(self, key: int) -> ShardHandle:
        if self.router is None:
            raise RuntimeError("no router yet: bulk_load or set_separators first")
        return self.handles[self.router.shard_for(key)]

    # -- point operations ----------------------------------------------------

    def insert(self, record: Record) -> None:
        handle = self._routed(record.key)
        handle.stats.routed_inserts += 1
        handle.tree().insert(record)

    def delete(self, key: int) -> Record:
        handle = self._routed(key)
        handle.stats.routed_deletes += 1
        return handle.tree().delete(key)

    def search(self, key: int) -> Record | None:
        handle = self._routed(key)
        handle.stats.routed_lookups += 1
        return handle.tree().search(key)

    # -- scans ---------------------------------------------------------------

    def range_scan(self, low: int, high: int) -> list[Record]:
        """Merged cross-shard scan: per-shard scans concatenate in shard
        order (range partitioning keeps them disjoint and sorted).

        The shard-boundary check is hoisted out of the per-leaf work: each
        shard's scan bounds are clamped *once* against the router's
        partition bounds, so routing costs O(#shards) probes per scan —
        never one per leaf step — and a fully covered middle shard scans
        under its own tighter bounds instead of the global ones.
        """
        if self.router is None:
            raise RuntimeError("no router yet: bulk_load or set_separators first")
        router = self.router
        out: list[Record] = []
        for index in router.shards_for_range(low, high):
            handle = self.handles[index]
            shard_low, shard_high = router.key_range_of(index)
            lo = low if shard_low is None else max(low, shard_low)
            hi = high if shard_high is None else min(high, shard_high - 1)
            part = handle.tree().range_scan(lo, hi)
            handle.stats.scan_fragments += 1
            handle.stats.scan_records += len(part)
            out.extend(part)
        return out

    def record_count(self) -> int:
        return sum(h.tree().record_count() for h in self.handles)

    def validate(self) -> None:
        for handle in self.handles:
            handle.tree().validate()

    # -- durability ----------------------------------------------------------

    def checkpoint(self, active_txns: dict[int, int] | None = None) -> int:
        """Sharp checkpoint carrying every shard tree's pass-3 state; cuts
        the shared log below the low-water mark of :meth:`Database.checkpoint`."""
        return self._db.checkpoint(active_txns)

    def flush(self) -> None:
        self._db.flush()

    # -- crash / recovery ----------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state, then re-grant every shard's leases."""
        self._db.crash()
        free_map = self._db.store.free_map
        for handle in self.handles:
            store = handle.store
            store.free_map = free_map
            # The rebuilt free map has no lease bookkeeping; re-granting
            # re-validates disjointness and keeps the lease objects fresh.
            store.leaf_lease = free_map.grant_lease(
                LEAF_EXTENT, store.leaf_lease.start, store.leaf_lease.end
            )
            store.internal_lease = free_map.grant_lease(
                INTERNAL_EXTENT,
                store.internal_lease.start,
                store.internal_lease.end,
            )

    def recover(self, *, undo: bool = True) -> RecoveryReport:
        """Redo + undo, restoring every shard tree's pass-3 state."""
        return self._db.recover(undo=undo)
