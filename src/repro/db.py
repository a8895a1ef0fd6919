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
record must include: the progress table (section 5) and the pass-3 state —
reorganization bit, side file, last stable key, new-root location
(sections 7.2-7.3).
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
    """Volatile pass-3 bookkeeping mirrored into checkpoints (section 7.3)."""

    reorg_bit: bool = False
    stable_key: int | None = None
    new_root: PageId = -1
    #: Live side-file entries (key, child, op); owned by the reorganizer's
    #: SideFile object, mirrored here for checkpointing.
    side_file_entries: list[tuple[int, PageId, str]] = field(default_factory=list)
    #: New base pages closed so far by pass 3: (low key, page id).
    built_entries: list[tuple[int, PageId]] = field(default_factory=list)


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
        self.pass3 = Pass3State()
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
        """Take a sharp checkpoint including all paper-mandated state."""
        return take_checkpoint(
            self.store,
            self.log,
            active_txns=active_txns,
            progress=self.progress,
            stable_key=self.pass3.stable_key,
            new_root=self.pass3.new_root,
            reorg_bit=self.pass3.reorg_bit,
            side_file=self.pass3.side_file_entries,
            pass3_built=self.pass3.built_entries,
        )

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
        self.pass3 = Pass3State()
        self.store.rebuild_free_map_from_disk()
        self.crashes += 1

    def recover(self, *, undo: bool = True) -> RecoveryReport:
        """Run redo + undo; restore the progress table and pass-3 state.

        Forward recovery of an in-flight reorganization unit is *not* done
        here — the report's ``pending_unit`` is handed to
        :meth:`repro.reorg.reorganizer.Reorganizer.forward_recover`.
        """
        report = RecoveryManager(self.store, self.log).run(undo=undo)
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
        self.pass3 = Pass3State(
            reorg_bit=report.reorg_bit,
            stable_key=report.stable_key,
            new_root=report.new_root,
            side_file_entries=list(report.side_file),
            built_entries=list(report.built_entries),
        )
        return report
