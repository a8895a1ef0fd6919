"""Sharded tree forest: range-partitioned B+-trees (paper section 9).

"Future work includes ... exploration of parallelism in reorganization."
This package scales that idea *out*: a :class:`ShardedDatabase` is a
forest of N B+-trees behind a :class:`ShardRouter`, each shard owning an
exclusive lease on a slice of the shared leaf and internal extents, all
shards sharing the one log, lock manager, deterministic scheduler and the
one database's checkpoint and recovery, keyed by shard tree name.
:class:`ParallelReorganizer` runs the full three-pass algorithm (compact,
swap, shrink — including side-file capture and the section 7.4 switch)
concurrently across shards as interleaved scheduler processes.

See ``docs/sharding.md`` for the design notes and determinism guarantees.
"""

from repro.shard.database import ShardedDatabase
from repro.shard.handle import ShardHandle
from repro.shard.reorganizer import ParallelReorganizer
from repro.shard.router import ShardRouter
from repro.shard.store import ShardStore

__all__ = [
    "ParallelReorganizer",
    "ShardHandle",
    "ShardRouter",
    "ShardStore",
    "ShardedDatabase",
]
