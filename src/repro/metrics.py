"""Snapshot/delta arithmetic shared by the mutable stats dataclasses.

:class:`~repro.storage.disk.IOStats` and :class:`~repro.wal.log.LogStats`
are plain mutable counter bags that benchmarks sample before and after a
measured phase.  Hand-copying each field at every sample site proved
error-prone (a new counter silently drops out of every existing
measurement), so both inherit :class:`StatsDeltaMixin`:

    before = disk.stats.snapshot()
    ...measured work...
    spent = disk.stats.delta(before)     # {"reads": 412, ...}

``snapshot`` returns every dataclass field by name; ``delta`` subtracts a
prior snapshot field-wise, so adding a counter automatically threads it
through every measurement.
"""

from __future__ import annotations

import dataclasses


class StatsDeltaMixin:
    """snapshot()/delta() over all dataclass fields of the subclass."""

    def snapshot(self) -> dict[str, int | float]:
        """Current value of every counter field, by name."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)  # type: ignore[arg-type]
        }

    def delta(self, since: dict[str, int | float]) -> dict[str, int | float]:
        """Field-wise difference against an earlier :meth:`snapshot`.

        Fields added since the snapshot was taken (e.g. a snapshot loaded
        from an old JSON file) are treated as starting from zero.
        """
        now = self.snapshot()
        return {name: value - since.get(name, 0) for name, value in now.items()}

    def reset(self) -> None:
        """Set every counter field back to its default."""
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            setattr(self, f.name, f.default)


@dataclasses.dataclass
class ShardStats(StatsDeltaMixin):
    """Per-shard routing and reorganization counters.

    One instance lives on each :class:`repro.shard.ShardHandle`; the
    sharded facade aggregates them.  Deliberately *not* part of the
    process-wide :class:`repro.perf.PerfCounters`: like the batched-I/O
    counters they live on the object that owns the behaviour, so each
    forest counts only its own shards.
    """

    routed_inserts: int = 0
    routed_deletes: int = 0
    routed_lookups: int = 0
    scan_fragments: int = 0
    scan_records: int = 0
    reorg_units: int = 0
    reorg_makespan: float = 0.0


@dataclasses.dataclass
class FragmentationStats(StatsDeltaMixin):
    """Live fill-factor / split-rate tracker for one tree (or shard).

    One instance lives on each :class:`repro.shard.ShardHandle` (and on
    :class:`repro.db.Database` for the unsharded case); the tree accessor
    wires it onto every :class:`repro.btree.tree.BPlusTree` it hands out,
    and the tree's insert/delete/split/free paths bump the counters with
    plain attribute arithmetic — no I/O, so tracking moves no simulated
    cost.

    ``records``/``leaves`` are maintained incrementally and are exact for
    ordinary insert/delete traffic, but the reorganization passes move
    records and free pages *below* the tree API, so consumers that need an
    absolute fill factor (the auto-reorg daemon, tests) call
    :meth:`sync_from_tree` after a build or a reorg to re-baseline.  Until
    the first sync both are deltas from zero and ``fill_factor`` is
    meaningless; ``synced`` says which regime the instance is in.
    """

    inserts: int = 0
    deletes: int = 0
    leaf_splits: int = 0
    absorbed_inserts: int = 0
    records: int = 0
    leaves: int = 0
    #: Slots counted per leaf by :attr:`fill_factor` — the *packed*
    #: capacity (``gapped_leaf_fill(config, 1.0)``), so a gapped layout's
    #: intended slack does not read as fragmentation: a freshly built
    #: gapped tree has fill 1.0, and inserts absorbed into the gap push
    #: it (harmlessly) above 1.0.  Equals ``leaf_capacity`` when the gap
    #: is 0.
    leaf_capacity: int = 0
    reorgs_triggered: int = 0
    synced: bool = False
    #: ``leaf_splits`` at the last :meth:`sync_from_tree`; every split
    #: since then allocated a leaf out of key order, so
    #: :attr:`splits_since_sync` is the live disk-order-scatter signal
    #: (fill factor alone cannot see scatter).
    splits_at_sync: int = 0
    #: Moves with every leaf a user split adds or a free-at-empty removes:
    #: the pass-2 planners restart at rank 0 when it moved (the
    #: reorganizer's own units change no base page's child count, so they
    #: leave it).  Never reset.
    leaf_order: int = 0

    @property
    def fill_factor(self) -> float:
        """Live records / (leaves * packed capacity); 1.0 when unknowable."""
        slots = self.leaves * self.leaf_capacity
        return self.records / slots if slots > 0 else 1.0

    @property
    def fragmentation(self) -> float:
        """1 - fill_factor: the daemon's trigger metric."""
        return 1.0 - self.fill_factor

    @property
    def split_rate(self) -> float:
        """Leaf splits per insert since the last reset."""
        return self.leaf_splits / self.inserts if self.inserts else 0.0

    @property
    def splits_since_sync(self) -> int:
        """Leaf splits since the last re-baseline (scatter proxy)."""
        return self.leaf_splits - self.splits_at_sync

    def sync_from_tree(self, tree) -> None:
        """Re-baseline ``records``/``leaves`` from the tree itself.

        Walks the tree (buffer-pool reads — deterministic, but *not* free:
        never called on the default path, only by the daemon and tests).
        """
        from repro.config import gapped_leaf_fill

        leaf_ids = tree.leaf_ids_in_key_order()
        self.leaves = len(leaf_ids)
        self.records = sum(
            tree.store.get_leaf(page_id).num_items for page_id in leaf_ids
        )
        self.leaf_capacity = gapped_leaf_fill(tree.config, 1.0)
        self.splits_at_sync = self.leaf_splits
        self.synced = True

    def reset(self) -> None:
        for f in dataclasses.fields(self):
            if f.name != "leaf_order":
                setattr(self, f.name, type(f.default)())
