"""Crash recovery: redo, transaction undo, and forward-recovery analysis.

The paper assumes a [GR93]-style recovery substrate: "a redo pass is run
first ... After the redo pass, all forward operations from the log will
have been installed in the database", then incomplete transactions are
undone — and, the paper's novelty, an incomplete *reorganization unit* is
**not** undone: recovery gathers "all the information about the one
possible incomplete reorganization unit ... One finds out what remains to
be done and what locks must be obtained to do it" (section 5.1).  Finishing
the unit is the reorganizer's job (:mod:`repro.reorg.unit`); this module
performs redo + undo and reports everything forward recovery needs.

The redo pass analyses as it installs, looking each record's class up once
in one exact-type table: its redo handler from :data:`repro.wal.apply.HANDLERS`
and its analysis action (a transaction update or unit-chain record, done
inline; an ``_Analysis`` method for the infrequent classes; or no effect).
Every concrete record class is listed exactly once; a record of any other
class raises :class:`~repro.errors.LogError` rather than being skipped.

Checkpoints here are *sharp*: :func:`take_checkpoint` flushes all dirty
pages first, so redo starts at the last checkpoint record.  The checkpoint
carries the reorg progress table (section 5), the active-transaction
table and, per tree name, the pass-3 state: stable key and new-root
location (section 7.3) and side-file contents (section 7.2).  Every pass-3
record names its tree, so analysis replays the log tail into the same
per-tree map the checkpoint seeds.  A pass 3 checkpointed between stable
points is rolled back to its last one by replaying the log from that
stable point, which the checkpoint's low-water mark keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import LogError
from repro.storage.page import PageId
from repro.storage.store import StorageManager
from repro.wal.apply import HANDLERS, MoveStash, apply_record
from repro.wal.log import LogManager
from repro.wal.progress import NO_KEY_YET, ProgressSnapshot, ReorgProgressTable
from repro.wal.records import (
    AbortRecord,
    AllocRecord,
    BaseEntryDeleteRecord,
    BaseEntryInsertRecord,
    BaseEntryUpdateRecord,
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    EndRecord,
    FreeRecord,
    InternalFormatRecord,
    LeafDeleteRecord,
    LeafFormatRecord,
    LeafInsertRecord,
    LogRecord,
    ReorgBeginRecord,
    ReorgDoneRecord,
    ReorgEndRecord,
    ReorgModifyRecord,
    ReorgMoveInRecord,
    ReorgMoveOutRecord,
    ReorgRecord,
    ReorgSwapRecord,
    ReorgUnitType,
    SideFileApplyRecord,
    SideFileInsertRecord,
    SidePointerRecord,
    StableKeyRecord,
    SYSTEM_TXN,
    TreeSwitchRecord,
)

if TYPE_CHECKING:
    from repro.db import Pass3State


@dataclass
class PendingReorgUnit:
    """Everything forward recovery needs about the in-flight unit.

    "We know what type it is by looking at the Type field of the BEGIN log
    record" (section 5.1); the record chain tells how far the unit got.
    """

    unit_id: int
    unit_type: ReorgUnitType
    base_pages: tuple[PageId, ...]
    leaf_pages: tuple[PageId, ...]
    dest_page: PageId
    #: All destinations (multi-output extension); (dest_page,) otherwise.
    dest_pages: tuple[PageId, ...] = ()
    #: The unit's log records in log order (BEGIN first).
    records: list[ReorgRecord] = field(default_factory=list)

    @classmethod
    def begun_by(cls, begin: ReorgBeginRecord) -> PendingReorgUnit:
        """The unit a BEGIN record describes, with no records yet."""
        return cls(begin.unit_id, begin.unit_type, begin.base_pages,
                   begin.leaf_pages, begin.dest_page, begin.all_dest_pages())


@dataclass
class RecoveryReport:
    """Outcome of one recovery run."""

    redo_scanned: int = 0
    redo_applied: int = 0
    undone_txns: list[int] = field(default_factory=list)
    #: In-flight reorganization units to be finished by forward recovery
    #: (one under the paper's single-process configuration; several with
    #: the parallel extension), in unit-id order.
    pending_units: list[PendingReorgUnit] = field(default_factory=list)
    largest_finished_key: int = NO_KEY_YET
    #: Tree name -> pass-3 state (reorg bit, stable key, new root, side
    #: file, built base pages, orphan candidates, pending switch), seeded
    #: from the checkpoint and replayed from each pass-3 record's tree.
    pass3: dict[str, Pass3State] = field(default_factory=dict)

    @property
    def pending_unit(self) -> PendingReorgUnit | None:
        "The single in-flight unit, if any (the paper's base configuration)."
        return self.pending_units[0] if self.pending_units else None


def take_checkpoint(
    store: StorageManager,
    log: LogManager,
    *,
    active_txns: dict[int, int] | None = None,
    progress: ReorgProgressTable | None = None,
    pass3: dict[str, Pass3State] | None = None,
) -> int:
    """Take a sharp checkpoint; returns its LSN."""
    store.flush_all()
    snapshot = (
        progress.snapshot()
        if progress is not None
        else ProgressSnapshot(NO_KEY_YET, 0, 0)
    )
    running = [(name, state) for name, state in sorted((pass3 or {}).items())
               if not state.idle]
    record = CheckpointRecord(
        active_txns=tuple((active_txns or {}).items()),
        progress=(
            snapshot.largest_finished_key,
            snapshot.begin_lsn,
            snapshot.recent_lsn,
        ),
        progress_units=snapshot.units,
        pass3=tuple((name, *state.checkpointed()) for name, state in running),
        stable_lsns=tuple(
            (name, state.stable_lsn) for name, state in running if state.stable_lsn
        ),
    )
    lsn = log.append(record)
    log.flush()
    return lsn


class RecoveryManager:
    """Runs redo + undo over the stable log after a crash."""

    def __init__(
        self,
        store: StorageManager,
        log: LogManager,
        new_state: Callable[..., Pass3State],
    ):
        self.store = store
        self.log = log
        #: Makes one tree's pass-3 state (the database's own type).
        self.new_state = new_state

    def run(self, *, undo: bool = True) -> RecoveryReport:
        """Perform recovery; returns the report for forward recovery.

        The caller must already have discarded volatile state (buffer pool,
        lock table) and truncated the log to its stable prefix — the crash
        harness in :mod:`repro.sim.crash` does both.
        """
        report = RecoveryReport()
        analysis = _Analysis(report, self.new_state)
        units, active, committed = analysis.units, analysis.active, analysis.committed
        checkpoint = self._load_checkpoint()
        if checkpoint is not None:
            active.update(dict(checkpoint.active_txns))
            report.largest_finished_key = checkpoint.progress[0]
            for name, bit, stable_key, new_root, side, built in checkpoint.pass3:
                report.pass3[name] = self.new_state(
                    bit, stable_key, new_root, list(side), list(built)
                )
            for name, stable_lsn in checkpoint.stable_lsns:
                self._replay_since_stable(analysis, name, stable_lsn, checkpoint.lsn)
            for _uid, unit_begin, unit_recent in checkpoint.progress_units:
                unit = self._reconstruct_unit_from(unit_begin, unit_recent)
                units[unit.unit_id] = unit
        start_lsn = (checkpoint.lsn + 1) if checkpoint is not None else 1

        # A MoveOut whose matching MoveIn never reached the stable log must
        # not be redone: applying it would strand the moved records in the
        # stash.  Careful writing guarantees the org page cannot be on disk
        # without the dest being durable (which implies the MoveIn record
        # was flushed), so skipping is consistent — forward recovery simply
        # re-moves the records.
        matched_move_outs = {
            record.move_out_lsn
            for record in self.log.records_from(start_lsn)
            if record.__class__ is ReorgMoveInRecord
        }
        store = self.store
        stash: MoveStash = {}
        scanned = applied = 0
        for record in self.log.records_from(start_lsn):
            scanned += 1
            cls = record.__class__
            try:
                redo, action = _DISPATCH[cls]
            except KeyError:
                raise LogError(f"recovery has no action for {cls.__name__}") from None
            if redo is not None:
                if cls is ReorgMoveOutRecord and record.lsn not in matched_move_outs:
                    continue
                redo(store, record, True, stash)
                applied += 1
            if action is _UPDATE:
                txn_id = record.txn_id
                if txn_id != SYSTEM_TXN and txn_id not in committed:
                    active[txn_id] = record.lsn
            elif action is _CHAIN:
                unit = units.get(record.unit_id)
                if unit is not None:
                    unit.records.append(record)
            elif action is not None:
                action(analysis, record)
        report.redo_scanned = scanned
        report.redo_applied = applied
        report.pending_units = [units[k] for k in sorted(units)]

        if undo:
            report.undone_txns = self._undo_incomplete(active, committed)
        return report

    # -- analysis helpers --------------------------------------------------------

    def _load_checkpoint(self) -> CheckpointRecord | None:
        lsn = self.log.last_checkpoint_lsn
        if lsn <= 0:
            return None
        record = self.log.get(lsn)
        assert isinstance(record, CheckpointRecord)
        return record

    def _replay_since_stable(
        self, analysis: _Analysis, name: str, stable_lsn: int, checkpoint_lsn: int
    ) -> None:
        """Roll a checkpointed pass 3 back to its last stable point.

        The checkpoint carries the live pass-3 state, but a restart resumes
        at the stable point (section 7.3).  It needs the base pages built by
        then, not those closed since, which the restarted scan emits again;
        every internal page allocated since, to free the orphans; and a
        switch logged since.  All three are in the log between the stable
        point and the checkpoint, which the checkpoint's low-water mark kept.
        """
        analysis.stable_key(self.log.get(stable_lsn))
        state = analysis.state(name)
        for lsn in range(stable_lsn + 1, checkpoint_lsn):
            record = self.log.get(lsn)
            cls = record.__class__
            if cls is AllocRecord and record.kind == "internal":
                state.allocs_after_stable.append(record.page_id)
            elif cls is TreeSwitchRecord and record.tree_name == name:
                analysis.tree_switch(record)

    def _reconstruct_unit_from(
        self, begin_lsn: int, recent_lsn: int
    ) -> PendingReorgUnit:
        """Rebuild a unit in flight at checkpoint time.

        Its pre-checkpoint records are not re-scanned by redo, so they are
        recovered here by walking the unit's prev-LSN chain backwards from
        the checkpointed recent LSN (section 5: "the chain of prev LSNs can
        be used to find log records" of a unit).
        """
        begin = self.log.get(begin_lsn)
        assert isinstance(begin, ReorgBeginRecord)
        unit = PendingReorgUnit.begun_by(begin)
        chain: list[ReorgRecord] = []
        cursor = max(recent_lsn, begin_lsn)
        while cursor >= begin_lsn and cursor > 0:
            record = self.log.get(cursor)
            if isinstance(record, ReorgRecord) and record.unit_id == begin.unit_id:
                chain.append(record)
            if cursor == begin_lsn:
                break
            cursor = record.prev_lsn
        unit.records.extend(reversed(chain))
        return unit

    # -- undo -----------------------------------------------------------------

    def _undo_incomplete(
        self, active: dict[int, int], committed: set[int]
    ) -> list[int]:
        """Roll back every incomplete user transaction with CLRs."""
        undone = []
        for txn_id, last_lsn in sorted(active.items()):
            if txn_id in committed:
                continue
            self._undo_one(txn_id, last_lsn)
            undone.append(txn_id)
        return undone

    def _undo_one(self, txn_id: int, last_lsn: int) -> None:
        cursor = last_lsn
        clr_prev = last_lsn
        while cursor > 0:
            record = self.log.get(cursor)
            if isinstance(record, CompensationRecord):
                # Crash during a previous rollback: skip what is already
                # compensated.
                cursor = record.undo_next_lsn
                continue
            if isinstance(record, (LeafInsertRecord, LeafDeleteRecord)):
                clr_prev = self._undo_leaf_action(txn_id, record, clr_prev)
            cursor = record.prev_lsn
        end = EndRecord(txn_id=txn_id, prev_lsn=clr_prev)
        self.log.append(end)

    def _undo_leaf_action(self, txn_id: int, record, clr_prev: int) -> int:
        """Logically undo one leaf insert/delete.

        The record may have been moved off its original page by a split or
        a reorganization unit before the rollback runs, so undo locates the
        key by descending the tree named in the record, then compensates on
        the page it actually finds (a CLR there), or — for a re-insert into
        a now-full page — through the ordinary insert path.
        """
        from repro.btree.tree import BPlusTree
        from repro.errors import BTreeError

        is_insert_undo = isinstance(record, LeafInsertRecord)
        key = record.record.key
        try:
            tree = BPlusTree.attach(self.store, self.log, name=record.tree_name)
        except BTreeError:
            return clr_prev  # the tree itself is gone; nothing to undo
        leaf = tree.leaf_for(key)
        if leaf.contains(key) != is_insert_undo:
            # Already undone: the key is gone (e.g. page freed + rebuilt) or
            # already compensated / re-inserted.
            return clr_prev
        if not is_insert_undo and leaf.is_full:
            # The leaf filled up meanwhile: logical undo goes through the
            # ordinary insert path (which may split; structure changes are
            # never themselves undone).
            tree.insert(record.record)
            return clr_prev
        clr = CompensationRecord(
            txn_id=txn_id,
            prev_lsn=clr_prev,
            page_id=leaf.page_id,
            undone_lsn=record.lsn,
            undo_next_lsn=record.prev_lsn,
            is_insert=not is_insert_undo,
            record=record.record,
        )
        self.log.append(clr)
        apply_record(self.store, clr)
        if is_insert_undo and leaf.is_empty and leaf.page_id != tree.root_id:
            # Free-at-empty applies to compensating deletes too.
            tree._free_at_empty(tree.path_to_leaf(key))
        return clr.lsn


# -- analysis --------------------------------------------------------------------


@dataclass(slots=True)
class _Analysis:
    """What the redo pass learns besides page effects: the transaction table
    undo needs and what forward recovery needs (section 5.1).  Each
    infrequent record class has a method here."""

    report: RecoveryReport
    new_state: Callable[..., Pass3State]
    units: dict[int, PendingReorgUnit] = field(default_factory=dict)
    #: txn id -> last LSN, for every user transaction not yet committed.
    active: dict[int, int] = field(default_factory=dict)
    committed: set[int] = field(default_factory=set)

    def state(self, tree_name: str) -> Pass3State:
        "The named tree's pass-3 state, created idle on its first record."
        pass3 = self.report.pass3
        state = pass3.get(tree_name)
        if state is None:
            state = pass3[tree_name] = self.new_state()
        return state

    def commit(self, record: CommitRecord) -> None:
        if record.txn_id != SYSTEM_TXN:
            self.committed.add(record.txn_id)
            self.active.pop(record.txn_id, None)

    def end(self, record: EndRecord) -> None:
        if record.txn_id != SYSTEM_TXN:
            self.active.pop(record.txn_id, None)

    def side_file_insert(self, record: SideFileInsertRecord) -> None:
        # A user transaction's update, and an entry pass 3 has yet to apply.
        if record.txn_id != SYSTEM_TXN and record.txn_id not in self.committed:
            self.active[record.txn_id] = record.lsn
        self.state(record.tree_name).side_file_entries.append(
            (record.key, record.child, record.op)
        )

    def side_file_apply(self, record: SideFileApplyRecord) -> None:
        entries = self.state(record.tree_name).side_file_entries
        entry = (record.key, record.child, record.op)
        if entry in entries:
            entries.remove(entry)

    def unit_begin(self, record: ReorgBeginRecord) -> None:
        unit = PendingReorgUnit.begun_by(record)
        unit.records.append(record)
        self.units[record.unit_id] = unit

    def unit_end(self, record: ReorgEndRecord) -> None:
        report = self.report
        report.largest_finished_key = max(
            report.largest_finished_key, record.largest_key
        )
        self.units.pop(record.unit_id, None)

    def alloc(self, record: AllocRecord) -> None:
        # The record names no tree: every tree in pass 3 counts the page,
        # and a restart frees only pages its own store could have allocated.
        if record.kind == "internal":
            for state in self.report.pass3.values():
                if state.reorg_bit:
                    state.allocs_after_stable.append(record.page_id)

    def stable_key(self, record: StableKeyRecord) -> None:
        # The scan anchors a stable point at its very start, so seeing one
        # means internal-page reorganization is in progress — the
        # reorganization bit is re-derived from the log even when no
        # checkpoint captured it.
        state = self.state(record.tree_name)
        state.reorg_bit = True
        state.stable_key = record.stable_key
        state.new_root = record.new_root
        state.built_entries = list(record.built_entries)
        state.allocs_after_stable.clear()
        state.stable_lsn = record.lsn

    def tree_switch(self, record: TreeSwitchRecord) -> None:
        self.state(record.tree_name).switch_pending = (
            record.old_root, record.new_root, record.old_lock_name
        )

    def reorg_done(self, record: ReorgDoneRecord) -> None:
        self.report.pass3.pop(record.tree_name, None)


#: The two frequent actions, done inline by ``RecoveryManager.run``: a user
#: transaction's update, and the next record of a reorganization unit's chain.
_UPDATE, _CHAIN = "update", "chain"

#: What analysis does with each concrete record class: an inline action, an
#: ``_Analysis`` method, or None for no effect.  Every class is listed
#: exactly once; recovery refuses a record of any other class.
_ANALYSIS: tuple[tuple[object, tuple[type[LogRecord], ...]], ...] = (
    (_UPDATE, (LeafInsertRecord, LeafDeleteRecord, CompensationRecord, AbortRecord)),
    (_CHAIN, (ReorgMoveOutRecord, ReorgMoveInRecord, ReorgSwapRecord,
              ReorgModifyRecord)),
    (_Analysis.commit, (CommitRecord,)),
    (_Analysis.end, (EndRecord,)),
    (_Analysis.side_file_insert, (SideFileInsertRecord,)),
    (_Analysis.side_file_apply, (SideFileApplyRecord,)),
    (_Analysis.unit_begin, (ReorgBeginRecord,)),
    (_Analysis.unit_end, (ReorgEndRecord,)),
    (_Analysis.alloc, (AllocRecord,)),
    (_Analysis.stable_key, (StableKeyRecord,)),
    (_Analysis.tree_switch, (TreeSwitchRecord,)),
    (_Analysis.reorg_done, (ReorgDoneRecord,)),
    (None, (LeafFormatRecord, InternalFormatRecord, BaseEntryInsertRecord,
            BaseEntryUpdateRecord, BaseEntryDeleteRecord, SidePointerRecord,
            FreeRecord, CheckpointRecord)),
)

#: Record class -> (redo handler or None, analysis action): the one lookup
#: the redo pass makes per record.
_DISPATCH = {
    cls: (HANDLERS.get(cls), action) for action, group in _ANALYSIS for cls in group
}
