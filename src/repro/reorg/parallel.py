"""Parallel leaf compaction — the paper's future work (section 9).

"Future work includes ... exploration of parallelism in reorganization."

This extension runs pass 1 as K cooperating reorganizer processes, each
compacting a *disjoint, contiguous range of base pages*.  Disjointness is
what makes it safe under the paper's own machinery:

* units never span base pages (section 3), so two workers never lock the
  same base page or reorganize the same leaves.  The one place their lock
  sets meet is a partition boundary of a tree with side pointers: a unit's
  section 4.3 X lock on its key-order neighbour may fall on the other worker's
  edge leaf.  The workers then wait for each other like any two lock
  holders, and a cycle is broken by the protocol's give-up-and-retry arm;
* the progress table already generalizes to one (begin LSN, recent LSN)
  row per in-flight unit — "whenever a new reorganization unit starts, it
  puts the LSN of its BEGIN log record into this table" (section 5) —
  so crash recovery simply finds *several* pending units and forward-
  recovers each;
* unit ids come from one shared counter, staying globally monotonic.

The only shared mutable resource is the free-space map: a worker reserves
its new-place destination pages — one or several per unit — *atomically
with choosing them*, so two workers can never adopt the same empty page.
Each worker maintains its own L (largest finished page id) over its own
partition; placements therefore interleave across partitions, which costs
some pass-2 moves — the classic parallelism-vs-placement trade-off the
benchmark quantifies.
"""

from __future__ import annotations

import itertools

from repro.config import ReorgConfig
from repro.db import Database
from repro.reorg.compact import LeafCompactor
from repro.reorg.protocols import ReorgProtocol
from repro.storage.page import PageId
from repro.txn.ops import Call


class _SharedUnitIds:
    """One monotonically increasing unit-id stream for all workers."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def __next__(self) -> int:
        return next(self._counter)


class ParallelReorgProtocol(ReorgProtocol):
    """A worker over one contiguous base-page partition."""

    def __init__(self, *args, base_partition: list[PageId], shared_ids, **kwargs):
        super().__init__(*args, **kwargs)
        self.base_partition = base_partition
        self.engine._unit_ids = shared_ids

    def _pass1_base_pages(self, compactor: LeafCompactor) -> list[PageId]:
        return self.base_partition

    def _compact(self, compactor, group, target, stats):
        """As in the base class, but the unit is described once, and every
        new-place destination reserved (allocated + formatted) inside the
        same atomic Call that picks it, so workers never race for the same
        empty page; the unit keeps its reservation across retries."""
        describe = self._compaction(compactor, group, target, stats)

        def pick_and_reserve():
            unit = describe()
            for dest in unit.new_pages if unit is not None else ():
                self.engine._materialize_dest(dest)
            return unit

        unit = yield Call(pick_and_reserve)
        if unit is None:
            return None
        done = yield from self._run_unit(lambda: unit, stats)

        def release():
            for dest in unit.new_pages:
                self.engine._free_if_empty(dest)

        if not done and unit.new_pages:
            # The group went stale before we could use the pages; return them.
            yield Call(release)
        return done


def partition_base_pages(
    db: Database, tree_name: str, n_workers: int
) -> list[list[PageId]]:
    """Contiguous key-order partitions of the tree's base pages."""
    tree = db.tree(tree_name)
    compactor = LeafCompactor(db, tree, ReorgConfig())
    base_ids = compactor._base_page_ids_in_key_order()
    n_workers = max(1, min(n_workers, len(base_ids)))
    size = (len(base_ids) + n_workers - 1) // n_workers
    return [base_ids[i : i + size] for i in range(0, len(base_ids), size)]


def build_parallel_pass1(
    db: Database,
    tree_name: str,
    config: ReorgConfig,
    n_workers: int,
    *,
    unit_pause: float = 0.0,
    op_duration: float = 0.0,
) -> list[ParallelReorgProtocol]:
    """One protocol object per worker, sharing a unit-id stream."""
    partitions = partition_base_pages(db, tree_name, n_workers)
    shared_ids = _SharedUnitIds()
    return [
        ParallelReorgProtocol(
            db,
            tree_name,
            config,
            base_partition=partition,
            shared_ids=shared_ids,
            unit_pause=unit_pause,
            op_duration=op_duration,
        )
        for partition in partitions
    ]
