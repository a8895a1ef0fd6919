"""Reorganization units: the leaf-level operations of passes 1 and 2.

A *reorganization unit* is the paper's atom of leaf reorganization
(section 5): a compaction of several children of one base page, a move of
one leaf to an empty page, or a swap of two leaves.  Each unit logs

    BEGIN -> (MOVE | SWAP)* -> MODIFY* -> END

chained through ``prev_lsn`` and mirrored in the in-memory progress table,
exactly as section 5 prescribes.

Compaction has one shape, ``(base page, sources, destinations, target per
page)``: the sources' records are repacked in key order into the
destinations, every destination but the last filled to the target and the
last taking the rest.  It is *in-place* when the one destination is itself
a source (section 4.1) and *new-place* when the destinations are free pages
(section 4.2); the paper builds one page per unit, several is section 6's
lock-hold-time trade-off, and a pass-2 move is the same unit with one
source and one new page.  Fresh execution and forward recovery run the same
two idempotent phases — move records, then post them in the base page.  The BEGIN record "is only written after
all leaf page locks for the reorganization unit are acquired" — the engine
assumes its caller (the synchronous driver or the DES protocol generator)
has done the locking; the engine performs data movement and logging only.

**Careful writing** (section 5): when the buffer manager enforces
write-before dependencies, MOVE records carry only the keys of the moved
records; otherwise full record contents are logged.  Swaps always log at
least one full page image.

**Forward recovery** (section 5.1): :meth:`UnitEngine.finish_unit` takes
the :class:`~repro.wal.recovery.PendingReorgUnit` recovered after a crash
and completes the unit *by inspecting current page state* — every step is
idempotent, so "the reorganization unit will be able to finish the work
instead of rolling back and wasting the work that has already been done."

**Undo at deadlock** (section 5.2): :meth:`UnitEngine.undo_unit` moves
already-moved records back and exchanges a swap's contents back, for the
rare case where the reorganizer deadlocks after data movement (e.g. while
upgrading R to X).

**Side pointers** (section 4.3): a unit's key-order neighbours are the
tree's leaf cursor's steps from its leaves' places in their base pages
(:meth:`~repro.btree.tree.BPlusTree.leaf_neighbour`), which reads the
parent level only — the level the paper assumes in memory (section 6).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.config import SidePointerKind
from repro.db import Database
from repro.errors import ReorgError
from repro.btree.tree import BPlusTree
from repro.storage.page import InternalPage, LeafPage, NO_PAGE, PageId, PageKind, Record
from repro.wal.apply import MoveStash, apply_record
from repro.wal.records import (
    AllocRecord,
    FreeRecord,
    LeafFormatRecord,
    ReorgBeginRecord,
    ReorgEndRecord,
    ReorgModifyRecord,
    ReorgMoveInRecord,
    ReorgMoveOutRecord,
    ReorgRecord,
    ReorgSwapRecord,
    ReorgUnitType,
    SidePointerRecord,
    TxnRecord,
)
from repro.wal.recovery import PendingReorgUnit

#: The absent side of a base-page MODIFY that inserts or removes an entry.
_NO_ENTRY: tuple[int, PageId] = (0, -1)


@dataclass(frozen=True)
class UnitResult:
    """Summary of one executed unit."""

    unit_id: int
    unit_type: ReorgUnitType
    dest_page: PageId
    sources_freed: tuple[PageId, ...]
    largest_key: int
    records_moved: int


class UnitEngine:
    """Executes reorganization units against one tree."""

    def __init__(self, db: Database, tree: BPlusTree):
        self.db = db
        self.tree = tree
        self.store = db.store
        self.log = db.log
        self._unit_ids = itertools.count(1)
        #: Stash for keys-only MOVE records within the current unit.
        self._stash: MoveStash = {}

    @contextmanager
    def owning_tree(self) -> Iterator[None]:
        """Scope of one synchronous pass (1 or 2), which owns the tree.

        Keeps the index resident: every unit reads its base page(s), the
        leaf cursor that plans pass 2 and finds side-pointer neighbours
        reads the parent level, and pass 2 descends from the root, so
        otherwise the leaf traffic of a few units evicts internal pages the
        next ones re-read.  They are pinned root-down, level by level,
        while the pool keeps the frames a unit needs for itself — its group
        (at most one base page's children), as many destinations, two base
        pages, two side-pointer neighbours — and on exit left most recently
        used, base level last in key order: pass 3 starts by scanning
        exactly those pages.
        """
        buffer, config = self.store.buffer, self.store.config
        budget = config.buffer_pool_pages - 2 * config.internal_capacity - 4
        held: list[PageId] = []
        try:
            # Breadth-first (the queue grows as it is read); no index to
            # hold when the root is itself the one leaf.
            root = buffer.fetch(self.tree.root_id)
            queue = [] if root.kind is PageKind.LEAF else [root.page_id]
            for pid in itertools.islice(queue, max(0, budget)):
                page = buffer.fetch(pid, pin=True)
                held.append(pid)
                if page.level > 1:  # type: ignore[union-attr]
                    queue.extend(page.children())  # type: ignore[union-attr]
            yield
        finally:
            for pid in held:
                buffer.unpin(pid)
                buffer.fetch(pid)

    # -- logging plumbing -----------------------------------------------------

    def _next_unit_id(self) -> int:
        return next(self._unit_ids)

    def resume_unit_ids_after(self, unit_id: int) -> None:
        """After forward recovery, keep unit ids monotonic (section 5:
        "Unit m is a monotonically increasing integer")."""
        self._unit_ids = itertools.count(unit_id + 1)

    def _log_unit(self, record: ReorgRecord) -> ReorgRecord:
        """Append a unit record, maintaining the chain + progress table.

        Chains are per unit (BEGIN starts at prev_lsn 0), so several units
        may be in flight at once — the parallel-reorganization extension.
        """
        progress, cls = self.db.progress, record.__class__
        if cls is ReorgBeginRecord:
            record.prev_lsn = 0
            progress.unit_started(record.unit_id, self.log.append(record))
            return record
        record.prev_lsn = progress.recent_lsn_of(record.unit_id)
        lsn = self.log.append(record)
        if cls is ReorgEndRecord:
            progress.unit_finished(record.largest_key, unit_id=record.unit_id)
        else:
            progress.unit_logged(lsn, unit_id=record.unit_id)
        return record

    def _log_structural(self, record: TxnRecord) -> TxnRecord:
        """Append and apply a structural record that belongs to the unit's
        work but uses the system-transaction family (Alloc/Free/Format/
        SidePointer)."""
        self.log.append(record)
        apply_record(self.store, record)
        return record

    # -- compact / move units -----------------------------------------------------

    def compact_unit(
        self,
        base_page: PageId,
        sources: list[PageId],
        dests: list[PageId],
        *,
        target_per_page: int = 0,
    ) -> UnitResult:
        """Compact ``sources`` (children of ``base_page``) into ``dests``.

        In-place when the one destination is itself a source (paper section
        4.1); new-place copy-and-switch when ``dests`` are free pages the
        caller picked with Find-Free-Space (section 4.2).  The records are
        repacked in key order: every destination but the last is filled to
        ``target_per_page`` and the last takes the rest, so one destination
        — what the paper builds per unit — never reads the target.  Several
        make one BEGIN..END and one base-page X window for all of them:
        section 6's "While we could construct more than one page, it would
        require the reorganization unit to hold locks longer", the
        trade-off the A3 ablation measures.
        """
        unit_id = self.begin_compact(base_page, sources, dests, target_per_page)
        return self.complete_compact(unit_id, base_page, sources, dests)

    def begin_compact(
        self,
        base_page: PageId,
        sources: list[PageId],
        dests: list[PageId],
        target_per_page: int = 0,
        *,
        unit_type: ReorgUnitType = ReorgUnitType.COMPACT,
    ) -> int:
        """First half of a compact/move unit: BEGIN plus record movement.

        The DES protocol calls this while holding R on the base page and RX
        on the leaves; it then converts R to X and calls
        :meth:`complete_compact`.  "Our new locking protocol only holds an
        X lock on base pages for a short period of time, after the records
        in the leaf pages have been reorganized" (section 4.1).

        Raises :class:`ReorgError`, with nothing logged and no record
        moved, when the unit is malformed or its records cannot fit.
        """
        unit_id = self._next_unit_id()
        pending = self._sources_to_drain(unit_id, sources, dests, target_per_page)
        begin = ReorgBeginRecord(
            unit_id=unit_id,
            unit_type=unit_type,
            base_pages=(base_page,),
            leaf_pages=tuple(sources),
            dest_page=dests[0],
            # Empty for one destination: the record's bytes are what every
            # unit has always logged.
            dest_pages=tuple(dests) if len(dests) > 1 else (),
        )
        self._log_unit(begin)
        self._move_phase(unit_id, sources, dests, target_per_page, pending)
        return unit_id

    def complete_compact(
        self,
        unit_id: int,
        base_page: PageId,
        sources: list[PageId],
        dests: list[PageId],
    ) -> UnitResult:
        """Second half: base-page MODIFYs, side pointers, frees, END.

        The caller holds X on the base page for exactly this call.
        (:meth:`finish_unit` runs the same phase without coming through
        this name, so a traced run counts a recovered unit once.)
        """
        return self._finish_phase(unit_id, base_page, sources, dests)

    # bench/trace.py wraps these three names by ``UnitEngine.__dict__``
    # lookup and bench/ does not change in a library PR.  Nothing calls
    # them; they leave with the next change to ``bench/trace.py::_targets()``.
    compact_unit_multi = compact_unit
    begin_compact_multi = begin_compact
    complete_compact_multi = complete_compact

    def move_unit(self, base_page: PageId, source: PageId, dest: PageId) -> UnitResult:
        """Move one leaf into an empty page (pass-2 Moving, section 6): the
        compaction of one source into one new page."""
        unit_id = self.begin_compact(
            base_page, [source], [dest], unit_type=ReorgUnitType.MOVE
        )
        return self.complete_compact(unit_id, base_page, [source], [dest])

    def _sources_to_drain(
        self,
        unit_id: int,
        sources: list[PageId],
        dests: list[PageId],
        target: int,
    ) -> list[PageId]:
        """The sources that still hold records to move out, in key order.

        Also the one place a unit is refused, before it has logged or moved
        anything: several destinations must be distinct new pages with a
        target to fill them to, and the group — it may have grown between
        planning and locking — must fit when every destination but the last
        holds ``target`` records and the last a full page.
        """
        if len(dests) > 1 and (
            target < 1
            or len(set(dests)) < len(dests)
            or not set(dests).isdisjoint(sources)
        ):
            raise ReorgError(
                f"unit {unit_id}: several destinations {dests} must be distinct "
                f"new pages (sources {sources}) filled to a target >= 1"
            )
        is_free, get_leaf = self.store.free_map.is_free, self.store.get_leaf
        total = 0
        pending: list[tuple[int, PageId]] = []
        for source in sources:
            if is_free(source):
                continue  # already drained and freed (recovery re-entry)
            leaf = get_leaf(source)
            if leaf.num_items:
                total += leaf.num_items
                if source not in dests:
                    pending.append((leaf.min_key(), source))
        room = (len(dests) - 1) * target + self.store.config.leaf_capacity
        if total > room:
            raise ReorgError(
                f"unit {unit_id}: the {total} records of leaves {sources} do "
                f"not fit destinations {dests} ({room} slots)"
            )
        # The caller supplies sources in key order; sorting by smallest key
        # keeps the appends valid on recovery re-entry too.
        pending.sort()
        return [source for _min_key, source in pending]

    def _move_phase(
        self,
        unit_id: int,
        sources: list[PageId],
        dests: list[PageId],
        target: int,
        pending: list[PageId],
    ) -> None:
        """Allocate the new destinations and repack ``pending`` into
        ``dests``.  Idempotent: on recovery re-entry a destination already
        at the target is passed over and a partly filled one resumes."""
        for dest in dests:
            if dest not in sources:
                self._materialize_dest(dest)
        get_leaf = self.store.get_leaf
        last = len(dests) - 1
        frontier = 0
        for source in pending:
            while frontier < last and get_leaf(source).num_items:
                room = target - get_leaf(dests[frontier]).num_items
                if room <= 0:
                    frontier += 1
                    continue
                keys = tuple(get_leaf(source).keys()[:room])
                self._move_some_records(unit_id, source, dests[frontier], keys)
            keys = tuple(get_leaf(source).keys())
            if keys:
                self._move_some_records(unit_id, source, dests[last], keys)

    def _finish_phase(
        self,
        unit_id: int,
        base_page: PageId,
        sources: list[PageId],
        dests: list[PageId],
    ) -> UnitResult:
        """Post the moves in the base page, fix pointers, free the drained
        sources, END.  Idempotent up to the END record."""
        built = self._fix_base(unit_id, base_page, sources, dests)
        self._fix_side_pointers_around([base_page], built)
        freed = tuple(s for s in sources if s not in dests)
        for source in freed:
            self._free_if_empty(source)
        largest = moved = 0
        for dest in built:
            leaf = self.store.get_leaf(dest)
            largest = max(largest, leaf.max_key())
            moved += leaf.num_items
        self._log_unit(ReorgEndRecord(unit_id=unit_id, largest_key=largest))
        unit_type = ReorgUnitType.MOVE if (
            len(sources) == 1 and freed
        ) else ReorgUnitType.COMPACT
        return UnitResult(unit_id, unit_type, dests[0], freed, largest, moved)

    def _move_some_records(
        self, unit_id: int, source: PageId, dest: PageId, keys: tuple[int, ...],
        records: tuple[Record, ...] | None = None,
    ) -> None:
        """One MOVE pair for ``keys`` of the source page: org-page half
        first, then dest-page half; ``records`` given are logged as such."""
        if records is None and self.store.buffer.careful_writing:
            # Source must not reach disk (or be freed) before dest does;
            # the MOVE records then carry keys only.
            self.store.buffer.add_write_dependency(source=source, dest=dest)
            records = ()
        elif records is None:
            source_leaf = self.store.get_leaf(source)
            records = tuple(source_leaf.get(k) for k in keys)
        out = ReorgMoveOutRecord(
            unit_id=unit_id, org_page=source, dest_page=dest,
            keys=keys, records=records,
        )
        self._log_unit(out)
        apply_record(self.store, out, stash=self._stash)
        into = ReorgMoveInRecord(
            unit_id=unit_id, org_page=source, dest_page=dest,
            keys=keys, records=records, move_out_lsn=out.lsn,
        )
        self._log_unit(into)
        apply_record(self.store, into, stash=self._stash)

    def parent_of(self, leaf_id: PageId) -> PageId:
        """The base page pointing at ``leaf_id``."""
        leaf = self.store.get_leaf(leaf_id)
        base = None if leaf.is_empty else self.tree.base_page_for(leaf.min_key())
        if base is None or base.index_of_child(leaf_id) < 0:
            raise ReorgError(f"leaf {leaf_id} has no parent")
        return base.page_id

    def _free_if_empty(self, page_id: PageId) -> None:
        """Return a drained (or never filled) leaf page to the free pool."""
        if self.store.free_map.is_free(page_id):
            return
        if self.store.get_leaf(page_id).is_empty:
            self._log_structural(FreeRecord(page_id=page_id))
            self.store.deallocate(page_id)

    def _materialize_dest(self, dest: PageId) -> None:
        """Ensure a new-place destination page exists and is formatted.

        Idempotent across every crash window: the page may be (a) still
        free (fresh run, or its Alloc record never reached the stable log),
        (b) allocated by redo of the Alloc record but never formatted (the
        crash fell between Alloc and Format), or (c) fully present.
        """
        store = self.store
        fresh = store.free_map.is_free(dest)
        if fresh:
            store.free_map.allocate(store.free_map.extent_for(dest), dest)
        elif store.buffer.contains(dest) or store.disk.has_image(dest):
            return
        store.buffer.put_new(LeafPage(dest, store.config.leaf_capacity))
        if fresh:
            self._log_structural(AllocRecord(page_id=dest, kind="leaf"))
        self._log_structural(LeafFormatRecord(page_id=dest, records=()))

    def _modify(
        self,
        unit_id: int,
        base_page: PageId,
        org: tuple[int, PageId],
        new: tuple[int, PageId],
    ) -> None:
        """Log and apply one base-page MODIFY turning the ``(key, child)``
        entry ``org`` into ``new``; ``_NO_ENTRY`` on either side makes it an
        insertion or a removal."""
        modify = ReorgModifyRecord(
            unit_id=unit_id, base_page=base_page,
            org_key=org[0], org_child=org[1],
            new_key=new[0], new_child=new[1],
        )
        self._log_unit(modify)
        apply_record(self.store, modify)

    def _fix_base(
        self,
        unit_id: int,
        base_page: PageId,
        sources: list[PageId],
        dests: list[PageId],
    ) -> list[PageId]:
        """Make the base page map the group's key range to the destinations
        and return those it now points at.  A new page the repack left
        empty (an over-provisioned unit) goes back to the free pool."""
        base = self.store.get_internal(base_page)
        # Remove entries of compacted-away sources.
        for source in sources:
            if source in dests:
                continue
            index = base.index_of_child(source)
            if index < 0:
                continue  # already removed (recovery re-entry)
            self._modify(
                unit_id, base_page, (base.key_at(index), source), _NO_ENTRY
            )
        # Point the base at each destination under the right key.
        built: list[PageId] = []
        for dest in dests:
            leaf = self.store.get_leaf(dest)
            if leaf.is_empty and dest not in sources:
                self._free_if_empty(dest)
                continue
            built.append(dest)
            new_key = leaf.min_key()
            index = base.index_of_child(dest)
            if index < 0:
                self._modify(unit_id, base_page, _NO_ENTRY, (new_key, dest))
            elif base.key_at(index) != new_key:
                self._modify(
                    unit_id, base_page, (base.key_at(index), dest), (new_key, dest)
                )
        return built

    # -- side pointers ----------------------------------------------------------

    def leaf_places(
        self, bases: list[PageId], leaves: list[PageId]
    ) -> list[tuple[PageId, int, PageId]]:
        """``(base page, child index, leaf)`` of each of ``leaves`` that is
        a child of one of ``bases``, in the order of ``leaves``."""
        places = []
        for leaf in leaves:
            for base_id in bases:
                index = self.store.get_internal(base_id).index_of_child(leaf)
                if index >= 0:
                    places.append((base_id, index, leaf))
                    break
        return places

    def leaf_beside(
        self, base: InternalPage, index: int, side: int
    ) -> tuple[PageId, int, PageId] | None:
        """:meth:`~repro.btree.tree.BPlusTree.leaf_neighbour`, reading a
        step inside ``base`` from its child list."""
        if 0 <= index + side < base.num_items:
            return base.page_id, index + side, base.child_at(index + side)
        return self.tree.leaf_neighbour(base.page_id, index, side)

    def _fix_side_pointers_around(self, bases: list[PageId], leaves: list[PageId]) -> None:
        """Recompute side pointers of ``leaves`` (children of ``bases``)
        and their key-order neighbours from the (already corrected) tree
        structure.

        Computing from the post-MODIFY tree makes the fix idempotent: on
        forward-recovery re-entry the neighbours are the leaf cursor's steps
        over base pages, never possibly half-updated pointers.  Only pages
        whose pointers actually change are logged — exactly the extra pages
        the reorganizer must lock for side-pointer maintenance (section
        4.3).
        """
        kind = self.tree.side_pointers
        if kind is SidePointerKind.NONE:
            return
        two_way = kind is SidePointerKind.TWO_WAY
        get, beside = self.store.get_internal, self.leaf_beside
        pointers: dict[PageId, tuple[PageId, PageId]] = {}
        for place in self.leaf_places(bases, leaves):
            # Two leaves either side: the neighbours' own neighbours too,
            # but the one before ``before`` only feeds a TWO_WAY prev.
            base = get(place[0])
            before, after = beside(base, place[1], -1), beside(base, place[1], 1)
            run = [
                two_way and before and beside(get(before[0]), before[1], -1),
                before, place, after, after and beside(get(after[0]), after[1], 1),
            ]
            ids = [at[2] if at else NO_PAGE for at in run]
            for i in (1, 2, 3):
                if ids[i] != NO_PAGE:
                    pointers[ids[i]] = (ids[i - 1] if two_way else NO_PAGE, ids[i + 1])
        for pid in sorted(pointers):
            prev_leaf, next_leaf = pointers[pid]
            self._set_pointers(pid, next_leaf=next_leaf, prev_leaf=prev_leaf)

    def _set_pointers(self, page_id: PageId, *, next_leaf: PageId, prev_leaf: PageId) -> None:
        leaf = self.store.get_leaf(page_id)
        if leaf.next_leaf == next_leaf and leaf.prev_leaf == prev_leaf:
            return
        self._log_structural(
            SidePointerRecord(
                page_id=page_id, next_leaf=next_leaf, prev_leaf=prev_leaf
            )
        )

    # -- swap units ---------------------------------------------------------------

    def swap_unit(
        self,
        base_a: PageId,
        leaf_a: PageId,
        base_b: PageId,
        leaf_b: PageId,
    ) -> UnitResult:
        """Swap the contents of two leaves (pass 2, sections 4.1 and 6).

        "Swapping two leaf pages under one or two base pages."
        """
        unit_id = self.begin_swap(base_a, leaf_a, base_b, leaf_b)
        return self.complete_swap(unit_id, base_a, leaf_a, base_b, leaf_b)

    def begin_swap(
        self, base_a: PageId, leaf_a: PageId, base_b: PageId, leaf_b: PageId
    ) -> int:
        """BEGIN plus the content exchange (held under RX on both leaves)."""
        if leaf_a == leaf_b:
            raise ReorgError("cannot swap a leaf with itself")
        unit_id = self._next_unit_id()
        bases = (base_a, base_b) if base_a != base_b else (base_a,)
        begin = ReorgBeginRecord(
            unit_id=unit_id,
            unit_type=ReorgUnitType.SWAP,
            base_pages=bases,
            leaf_pages=(leaf_a, leaf_b),
            dest_page=leaf_a,
        )
        self._log_unit(begin)
        self._swap_contents(unit_id, leaf_a, leaf_b)
        return unit_id

    def complete_swap(
        self, unit_id: int, base_a: PageId, leaf_a: PageId,
        base_b: PageId, leaf_b: PageId,
    ) -> UnitResult:
        """Base MODIFYs (under X on both parents), side pointers, END (the
        phase :meth:`finish_unit` runs too, not under this traced name)."""
        return self._finish_swap(unit_id, base_a, leaf_a, base_b, leaf_b)

    def _finish_swap(
        self, unit_id: int, base_a: PageId, leaf_a: PageId,
        base_b: PageId, leaf_b: PageId,
    ) -> UnitResult:
        self._fix_bases_after_swap(unit_id, base_a, leaf_a, base_b, leaf_b)
        self._fix_side_pointers_around([base_a, base_b], [leaf_a, leaf_b])
        largest = max(
            self._largest_key_of(leaf_a), self._largest_key_of(leaf_b)
        )
        self._log_unit(ReorgEndRecord(unit_id=unit_id, largest_key=largest))
        return UnitResult(
            unit_id,
            ReorgUnitType.SWAP,
            leaf_a,
            (),
            largest,
            self.store.get_leaf(leaf_a).num_items
            + self.store.get_leaf(leaf_b).num_items,
        )

    def _swap_contents(self, unit_id: int, leaf_a: PageId, leaf_b: PageId) -> None:
        page_a = self.store.get_leaf(leaf_a)
        page_b = self.store.get_leaf(leaf_b)
        careful = self.store.buffer.careful_writing
        if careful:
            # A must be durable before B may be written: makes the
            # keys-only B side of the swap record redoable.
            self.store.buffer.add_write_dependency(source=leaf_b, dest=leaf_a)
        swap = ReorgSwapRecord(
            unit_id=unit_id,
            page_a=leaf_a,
            page_b=leaf_b,
            records_a=tuple(page_a.records),
            keys_b=tuple(page_b.keys()),
            records_b=() if careful else tuple(page_b.records),
        )
        self._log_unit(swap)
        apply_record(self.store, swap)

    def _fix_bases_after_swap(
        self,
        unit_id: int,
        base_a: PageId,
        leaf_a: PageId,
        base_b: PageId,
        leaf_b: PageId,
    ) -> None:
        """MODIFY the base entries after a swap by exchanging the *child
        pointers* (the slot keys keep describing the same key ranges; the
        leaves holding those ranges exchanged identities).

        "Swapping ... update both their parents to reflect the change"
        (section 4.1).  Exchanging pointers rather than keys avoids a
        transient duplicate-separator state when both leaves share one base
        page, and makes each MODIFY independently idempotent: a slot is
        fixed exactly when its child's minimum key lies in the slot's
        range.
        """
        for base_id in dict.fromkeys((base_a, base_b)):
            base = self.store.get_internal(base_id)
            for slot, (slot_key, child) in enumerate(base.entries):
                if child not in (leaf_a, leaf_b):
                    continue
                correct = self._correct_child_for_slot(
                    base_id, slot, (leaf_a, leaf_b)
                )
                if correct == child:
                    continue
                self._modify(
                    unit_id, base_id, (slot_key, child), (slot_key, correct)
                )

    def _correct_child_for_slot(
        self, base_id: PageId, slot: int, candidates: tuple[PageId, PageId]
    ) -> PageId:
        """Which of the two swapped leaves belongs in the base slot: the
        one whose records fall inside the slot's key range."""
        base = self.store.get_internal(base_id)
        low = base.key_at(slot)
        high = base.key_at(slot + 1) if slot + 1 < base.num_items else None
        fitting: list[tuple[int, PageId]] = []
        for pid in candidates:
            leaf = self.store.get_leaf(pid)
            if leaf.is_empty:
                continue
            if leaf.min_key() >= low and (high is None or leaf.min_key() < high):
                fitting.append((leaf.min_key(), pid))
        if not fitting:
            raise ReorgError(
                f"neither swapped leaf fits base {base_id} slot {slot}"
            )
        # When the slot is the last of its base page (high unbounded) both
        # leaves may "fit"; the slot's true range starts at ``low``, so the
        # leaf with the smaller minimum key is the one that belongs here.
        return min(fitting)[1]

    # -- forward recovery & undo ---------------------------------------------------

    def finish_unit(self, pending: PendingReorgUnit) -> UnitResult:
        """Forward recovery: complete an interrupted unit from page state.

        All sub-steps of unit execution are idempotent (they test current
        state before acting), so re-running the remainder after redo has
        installed the logged prefix completes the unit exactly once.
        """
        self.resume_unit_ids_after(pending.unit_id)
        unit_id = pending.unit_id
        if pending.unit_type in (ReorgUnitType.COMPACT, ReorgUnitType.MOVE):
            sources, dests = list(pending.leaf_pages), _dests_of(pending)
            target = self._recovered_target(sources, dests)
            drain = self._sources_to_drain(unit_id, sources, dests, target)
            self._move_phase(unit_id, sources, dests, target, drain)
            return self._finish_phase(
                unit_id, pending.base_pages[0], sources, dests
            )
        if pending.unit_type is ReorgUnitType.SWAP:
            leaf_a, leaf_b = pending.leaf_pages
            if not any(isinstance(r, ReorgSwapRecord) for r in pending.records):
                self._swap_contents(unit_id, leaf_a, leaf_b)
            return self._finish_swap(
                unit_id, pending.base_pages[0], leaf_a,
                pending.base_pages[-1], leaf_b,
            )
        raise ReorgError(f"unknown unit type {pending.unit_type!r}")

    def _recovered_target(self, sources: list[PageId], dests: list[PageId]) -> int:
        """The per-page target of an interrupted unit, from page state.

        A destination followed by one that holds records was filled to the
        target before the repack went on, so the first one's fill is the
        target.  With records in the first destination only, the exact
        target is unrecoverable; any target from its fill up that spreads
        the rest preserves every record (per-page fill may differ by a
        record or two from the uncrashed run, which the paper's average-d
        framing allows).  One destination never reads it.
        """
        if len(dests) == 1:
            return 0
        filled = [self._records_in(dest) for dest in dests]
        if any(filled[1:]):
            return filled[0]
        total = filled[0] + sum(self._records_in(source) for source in sources)
        return max(filled[0], -(-total // len(dests)), 1)

    def _records_in(self, page_id: PageId) -> int:
        """Records on a page that may be free, or allocated by redo but
        never formatted (both: none)."""
        store = self.store
        if store.free_map.is_free(page_id) or not (
            store.buffer.contains(page_id) or store.disk.has_image(page_id)
        ):
            return 0
        return store.get_leaf(page_id).num_items

    def rollback_unit(self, pending: PendingReorgUnit) -> bool:
        """Roll an interrupted unit *back* — the [Smi90] baseline's policy.

        The paper's comparison point: "[Smi90] treats each leaf page
        operation as a database transaction, so it is rolled back if
        interrupted."  Inverts the unit's logged actions in reverse order.
        Returns True if the unit was rolled back; False when it had already
        freed source pages (past its effective commit point), in which case
        it is completed forward instead.
        """
        from repro.wal.progress import NO_KEY_YET

        freed_any = any(
            leaf != pending.dest_page and self.store.free_map.is_free(leaf)
            for leaf in pending.leaf_pages
        )
        if freed_any:
            self.finish_unit(pending)
            return False
        self.resume_unit_ids_after(pending.unit_id)
        unit_id = pending.unit_id
        for record in reversed(pending.records):
            if isinstance(record, ReorgMoveInRecord):
                dest_leaf = self.store.get_leaf(record.dest_page)
                present = [k for k in record.keys if dest_leaf.contains(k)]
                if present:
                    self._move_back(
                        unit_id, record.dest_page, record.org_page,
                        tuple(present),
                    )
            elif isinstance(record, ReorgModifyRecord):
                self._modify(
                    unit_id, record.base_page,
                    (record.new_key, record.new_child),
                    (record.org_key, record.org_child),
                )
            elif isinstance(record, ReorgSwapRecord):
                # A swap is its own inverse.
                self._swap_contents(unit_id, record.page_a, record.page_b)
        for dest in _dests_of(pending):
            if dest not in pending.leaf_pages:
                self._free_if_empty(dest)
        # Mark the unit closed in the log without advancing LK.
        self._log_unit(
            ReorgEndRecord(unit_id=unit_id, largest_key=NO_KEY_YET)
        )
        return True

    def undo_unit(self, unit_id: int) -> None:
        """Undo at deadlock (section 5.2): move records back where the
        prev-LSN chain says they came from, exchange a swap's contents back
        (a swap is its own inverse, as in :meth:`rollback_unit`), then clear
        the progress entry.

        No MODIFY needs inverting — a deadlock can only strike before the
        base page was X-locked, hence before any MODIFY was logged, so the
        base pages, and with them the leaf order, are as before the unit.
        """
        cursor = self.db.progress.recent_lsn_of(unit_id)
        inversions: list[tuple[PageId, PageId, tuple[int, ...]]] = []
        swaps: list[ReorgSwapRecord] = []
        begin: ReorgBeginRecord | None = None
        while cursor > 0:
            record = self.log.get(cursor)
            if isinstance(record, ReorgMoveInRecord):
                inversions.append(
                    (record.dest_page, record.org_page, record.keys)
                )
            elif isinstance(record, ReorgSwapRecord):
                swaps.append(record)
            elif isinstance(record, ReorgBeginRecord):
                begin = record
                break
            cursor = record.prev_lsn
        for dest, org, keys in inversions:
            self._move_back(unit_id, dest, org, keys)
        for swap in swaps:
            self._swap_contents(unit_id, swap.page_a, swap.page_b)
        # A new-place unit allocated fresh dest pages before the deadlock;
        # once drained they are returned to the free pool.
        for dest in _dests_of(begin) if begin is not None else ():
            if dest not in begin.leaf_pages:
                self._free_if_empty(dest)
        self.db.progress.unit_aborted(unit_id=unit_id)

    def _move_back(
        self, unit_id: int, from_page: PageId, to_page: PageId, keys: tuple[int, ...]
    ) -> None:
        """Reverse one MOVE pair during undo-at-deadlock.

        Full record contents are always logged: a keys-only reverse move
        would need a write-before edge opposite to the forward move's edge
        — a dependency cycle.  With contents logged, the forward edge is
        cancelled instead: after the undo, neither write order loses data.
        """
        source_leaf = self.store.get_leaf(from_page)
        records = tuple(source_leaf.get(k) for k in keys if source_leaf.contains(k))
        if records:
            self.store.buffer.remove_write_dependency(source=to_page, dest=from_page)
            keys = tuple(r.key for r in records)
            self._move_some_records(unit_id, from_page, to_page, keys, records)

    # -- helpers -----------------------------------------------------------------

    def _largest_key_of(self, page_id: PageId) -> int:
        leaf = self.store.get_leaf(page_id)
        return leaf.max_key() if not leaf.is_empty else 0


def _dests_of(unit: ReorgBeginRecord | PendingReorgUnit) -> list[PageId]:
    """Every destination of a compact/move unit (``dest_pages`` is only
    written for more than one)."""
    return list(unit.dest_pages or (unit.dest_page,))
