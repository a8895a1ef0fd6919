"""The `Database` facade: storage + log + locks + recovery in one object.

This is the object most users touch first (see README quickstart)::

    db = Database(TreeConfig(leaf_capacity=64))
    tree = db.bulk_load_tree(records)
    ...
    db.crash()          # simulate a failure
    report = db.recover()

It owns the storage manager, the write-ahead log (wired into the buffer
pool for WAL enforcement), the lock manager, and the reorganization
progress table, and it carries the system state the paper's checkpoint
record must include: the progress table (section 5) and, per tree name,
the pass-3 state — reorganization bit, side file, last stable key,
new-root location (sections 7.2-7.3).  A
:class:`~repro.shard.ShardedDatabase` wraps one of these, so a forest's
shards keep their pass-3 state here too, one entry per shard tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.btree.bulkload import bulk_load
from repro.btree.tree import BPlusTree
from repro.config import TreeConfig, gapped_leaf_fill
from repro.locks.manager import LockManager
from repro.metrics import FragmentationStats
from repro.storage.page import PageId, Record
from repro.storage.store import StorageManager
from repro.wal.log import LogManager
from repro.wal.progress import ReorgProgressTable
from repro.wal.recovery import RecoveryManager, RecoveryReport, take_checkpoint


@dataclass
class Pass3State:
    """One tree's pass-3 bookkeeping, checkpointed and recovered by tree
    name (section 7.3)."""

    reorg_bit: bool = False
    stable_key: int | None = None
    new_root: PageId = -1
    #: Live side-file entries (key, child, op); the tree's SideFile object
    #: shares this list, so checkpoints see it.
    side_file_entries: list[tuple[int, PageId, str]] = field(default_factory=list)
    #: New base pages closed so far by pass 3: (low key, page id).
    built_entries: list[tuple[int, PageId]] = field(default_factory=list)
    #: Set by recovery only — internal pages allocated after this tree's
    #: last stable point, which a restart may deallocate (section 7.3) ...
    allocs_after_stable: list[PageId] = field(default_factory=list)
    #: ... and a logged switch's (old root, new root, old lock name).
    switch_pending: tuple[PageId, PageId, str] | None = None
    #: LSN of this tree's last ``StableKeyRecord`` (0 before the first):
    #: a checkpoint keeps the log from here, and recovery replays from it.
    #: Not in the repr, which shows the state a restart resumes; this only
    #: says where the log holds it.
    stable_lsn: int = field(default=0, repr=False)

    def checkpointed(self) -> tuple:
        """What a checkpoint carries (section 7.3), in field order."""
        return (self.reorg_bit, self.stable_key, self.new_root,
                tuple(self.side_file_entries), tuple(self.built_entries))

    def clear(self) -> None:
        "Back to idle in place: the side file and the shrinker share the lists."
        self.reorg_bit, self.stable_key, self.new_root = False, None, -1
        self.switch_pending, self.stable_lsn = None, 0
        for entries in (self.side_file_entries, self.built_entries, self.allocs_after_stable):
            entries.clear()

    @property
    def idle(self) -> bool:
        """No pass 3 runs on this tree: nothing to checkpoint."""
        return self == Pass3State()


class Database:
    """One simulated database instance."""

    def __init__(self, config: TreeConfig | None = None):
        self.config = config or TreeConfig()
        self.store = StorageManager(self.config)
        self.log = LogManager(
            group_commit_window=self.config.group_commit_window
        )
        self.store.set_wal(self.log)
        self.locks = LockManager()
        self.progress = ReorgProgressTable()
        #: Per-tree-name pass-3 state, created lazily by :meth:`pass3_state`.
        self.pass3_states: dict[str, Pass3State] = {}
        #: Count of simulated crashes, for tests/metrics.
        self.crashes = 0
        #: Per-tree-name live fragmentation trackers
        #: (:class:`repro.metrics.FragmentationStats`), created lazily by
        #: :meth:`frag_stats` and wired onto every handle :meth:`tree`
        #: returns so the throwaway tree objects share one counter bag.
        self.frag_trackers: dict[str, FragmentationStats] = {}

    # -- tree management ---------------------------------------------------------

    def create_tree(self, name: str = "primary") -> BPlusTree:
        tree = BPlusTree.create(self.store, self.log, name=name)
        tree.frag_stats = self.frag_stats(name)
        return tree

    def bulk_load_tree(
        self,
        records: list[Record],
        *,
        name: str = "primary",
        leaf_fill: float = 1.0,
        internal_fill: float = 1.0,
    ) -> BPlusTree:
        tree = bulk_load(
            self.store,
            self.log,
            records,
            name=name,
            leaf_fill=leaf_fill,
            internal_fill=internal_fill,
        )
        tree.frag_stats = self.frag_stats(name)
        return tree

    def frag_stats(self, name: str = "primary") -> FragmentationStats:
        """The live fragmentation tracker for ``name`` (created on demand).

        Counters are deltas until :meth:`FragmentationStats.sync_from_tree`
        baselines them — the auto-reorg daemon and the metrics tests sync;
        the default path never pays the tree walk.
        """
        tracker = self.frag_trackers.get(name)
        if tracker is None:
            tracker = FragmentationStats(
                leaf_capacity=gapped_leaf_fill(self.config, 1.0)
            )
            self.frag_trackers[name] = tracker
        return tracker

    def pass3_state(self, name: str = "primary") -> Pass3State:
        """The pass-3 state of tree ``name`` (created idle on demand)."""
        state = self.pass3_states.get(name)
        if state is None:
            state = self.pass3_states[name] = Pass3State()
        return state

    def tree(self, name: str = "primary") -> BPlusTree:
        tree = BPlusTree.attach(self.store, self.log, name=name)
        tree.frag_stats = self.frag_stats(name)
        return tree

    def has_tree(self, name: str = "primary") -> bool:
        return self.store.disk.get_meta(f"root:{name}") is not None

    def drop_tree_name(self, name: str) -> None:
        """Forget a tree's root pointer (used when discarding the old tree
        after the switch, section 7.4)."""
        self.store.disk.del_meta(f"root:{name}")

    # -- durability -----------------------------------------------------------

    def checkpoint(self, active_txns: dict[int, int] | None = None) -> int:
        """Take a sharp checkpoint including all paper-mandated state, then
        cut the log below the section 5 low-water mark; returns the
        checkpoint's LSN.

        ``active_txns`` maps each active transaction to its last LSN.  The
        mark is the lowest LSN a recovery from this checkpoint reads:

        * the checkpoint itself, where redo starts;
        * each active transaction's *first* LSN: undo walks the whole
          prev-LSN chain, and the checkpoint carries only the last LSN;
        * every in-flight unit's BEGIN LSN (the progress table's, one per
          unit with the parallel extension): recovery rebuilds the unit's
          chain from it and forward recovery finishes the unit;
        * each running pass 3's last stable point: recovery replays the
          built base pages and the allocations since it (section 7.3).
        """
        lsn = take_checkpoint(
            self.store,
            self.log,
            active_txns=active_txns,
            progress=self.progress,
            pass3=self.pass3_states,
        )
        txn_low_water = min(
            [lsn] + [record.lsn for last in (active_txns or {}).values()
                     for record in self.log.walk_chain(last)]
        )
        stable_lsns = [s.stable_lsn for s in self.pass3_states.values() if s.stable_lsn]
        self.log.truncate(min([self.progress.low_water_lsn(txn_low_water), *stable_lsns]))
        return lsn

    def flush(self) -> None:
        """Force log and all dirty pages to stable storage."""
        self.log.flush()
        self.store.flush_all()

    # -- crash / recovery ---------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state: buffer pool, lock table, progress
        table, pass-3 bookkeeping, and the unflushed log tail."""
        self.log.crash()
        self.store.crash()
        self.locks.crash()
        self.progress.crash()
        self.pass3_states = {}
        self.store.rebuild_free_map_from_disk()
        self.crashes += 1

    def recover(self, *, undo: bool = True) -> RecoveryReport:
        """Run redo + undo; restore the progress table and every tree's
        pass-3 state.

        Forward recovery of an in-flight reorganization unit is *not* done
        here — the report's ``pending_units`` are handed to
        :meth:`repro.reorg.reorganizer.Reorganizer.forward_recover`.
        """
        report = RecoveryManager(self.store, self.log, Pass3State).run(undo=undo)
        from repro.wal.progress import ProgressSnapshot

        units = tuple(
            (unit.unit_id, unit.records[0].lsn, unit.records[-1].lsn)
            for unit in report.pending_units
        )
        begin = min((b for _, b, _ in units), default=0)
        recent = units[0][2] if len(units) == 1 else 0
        self.progress.restore(
            ProgressSnapshot(report.largest_finished_key, begin, recent, units)
        )
        self.pass3_states = report.pass3
        return report
