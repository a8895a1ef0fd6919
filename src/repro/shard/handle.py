"""Shard handles: one Database-shaped view per shard.

A :class:`ShardHandle` duck-types the slice of
:class:`repro.db.Database` that the tree protocols, the reorganizer
(:class:`~repro.reorg.protocols.ReorgProtocol`,
:class:`~repro.reorg.shrink.TreeShrinker`, ...) and the daemon consume:
``config``, ``store``, ``log``, ``locks``, ``progress``, ``tree()``,
``pass3_state()`` and ``frag_stats()``.  The store is the shard's leased
:class:`~repro.shard.store.ShardStore`; everything else is the one
underlying :class:`~repro.db.Database`'s, and the pass-3 state and
fragmentation tracker are that database's entries for the shard's tree.

All tree access goes through the shard's own store view — never through
``Database.tree()`` (enforced statically by the ``shard-router-only``
reprolint rule), so a handle can only ever reach its own tree.
"""

from __future__ import annotations

from repro.btree.tree import BPlusTree
from repro.config import TreeConfig
from repro.db import Database, Pass3State
from repro.metrics import FragmentationStats, ShardStats
from repro.shard.store import ShardStore
from repro.storage.page import Record


class ShardHandle:
    """Database-shaped facade over one shard of the forest."""

    def __init__(
        self,
        *,
        index: int,
        tree_name: str,
        config: TreeConfig,
        store: ShardStore,
        db: Database,
    ):
        self.shard_index = index
        self.tree_name = tree_name
        self.config = config
        self.store = store
        self.log = db.log
        self.locks = db.locks
        self.progress = db.progress
        self._db = db
        self.stats = ShardStats()

    def _own(self, name: str | None) -> str:
        if name is not None and name != self.tree_name:
            raise ValueError(
                f"shard {self.shard_index} owns tree {self.tree_name!r}, "
                f"not {name!r} — route through the ShardedDatabase instead"
            )
        return self.tree_name

    def pass3_state(self, name: str | None = None) -> Pass3State:
        return self._db.pass3_state(self._own(name))

    def frag_stats(self, name: str | None = None) -> FragmentationStats:
        return self._db.frag_stats(self._own(name))

    # -- tree access ---------------------------------------------------------

    def tree(self, name: str | None = None) -> BPlusTree:
        tree = BPlusTree.attach(self.store, self.log, name=self._own(name))
        tree.frag_stats = self.frag_stats()
        return tree

    def has_tree(self, name: str | None = None) -> bool:
        target = name if name is not None else self.tree_name
        return (
            target == self.tree_name
            and self.store.disk.get_meta(f"root:{target}") is not None
        )

    def create_tree(self) -> BPlusTree:
        return BPlusTree.create(self.store, self.log, name=self.tree_name)

    def bulk_load_tree(
        self,
        records: list[Record],
        *,
        leaf_fill: float = 1.0,
        internal_fill: float = 1.0,
    ) -> BPlusTree:
        from repro.btree.bulkload import bulk_load

        tree = bulk_load(
            self.store,
            self.log,
            records,
            name=self.tree_name,
            leaf_fill=leaf_fill,
            internal_fill=internal_fill,
        )
        tree.frag_stats = self.frag_stats()
        return tree

    def __repr__(self) -> str:
        return (
            f"<ShardHandle {self.shard_index} {self.tree_name!r} "
            f"leaf=[{self.store.leaf_lease.start},{self.store.leaf_lease.end})>"
        )
