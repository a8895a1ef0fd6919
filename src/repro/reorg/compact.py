"""Pass 1: compacting the leaves (paper section 6, Figure 2) — the planner.

The pass walks the base pages in key order.  Within each base page it
greedily groups consecutive children whose records fit into one page at the
target fill factor f2 — "on average d = ceil(f2/f1) pages get compacted in
each reorganization unit" — and for each group runs Figure 2's decision::

    Find-free-space;
    If there is appropriate free space
        Copying-Switching;        # new-place, into the chosen empty page
    Else
        In-Place-Reorg;           # into one of the group's own pages

The empty-page choice implements section 6.1 (see
:mod:`repro.reorg.freespace`); L, "the largest finished leaf page ID", is
maintained across units so that compacted leaves come out in ascending disk
order, minimizing pass-2 swaps.

:class:`LeafCompactor` plans — the base pages, the groups, each group's
destinations and L; the loop that runs the units is written once, as the
generator :meth:`repro.reorg.protocols.ReorgProtocol.pass1`, which the DES
schedules among users and :meth:`repro.reorg.reorganizer.Reorganizer.run_pass1`
drives alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.btree.tree import BPlusTree
from repro.config import ReorgConfig, gapped_leaf_fill
from repro.db import Database
from repro.reorg.freespace import find_free_page
from repro.reorg.unit import UnitResult
from repro.storage.page import NO_PAGE, PageId, PageKind
from repro.storage.store import LEAF_EXTENT


@dataclass
class Pass1Stats:
    """Outcome of the compaction pass."""

    units: int = 0
    in_place_units: int = 0
    new_place_units: int = 0
    leaves_before: int = 0
    leaves_after: int = 0
    records_moved: int = 0
    results: list[UnitResult] = field(default_factory=list)


class LeafCompactor:
    """Figure 2's planner for pass 1 over one tree."""

    def __init__(self, db: Database, tree: BPlusTree, config: ReorgConfig):
        self.db = db
        self.tree = tree
        self.config = config
        lease = getattr(db.store, "leaf_lease", None)
        if lease is not None:
            start = lease.start
        else:
            start = db.store.disk.extent(LEAF_EXTENT).start
        #: L — largest finished leaf page id; starts before the extent
        #: (or before the shard's leased slice of it).
        self.largest_finished: PageId = start - 1

    def _base_page_ids_in_key_order(self) -> list[PageId]:
        """Snapshot of base-page ids (parents of leaves), in key order.

        Pass 1 only removes/renames *entries* of base pages, never base
        pages themselves (every base keeps at least its group's destination
        child), so the snapshot stays valid for the whole pass.
        """
        ids: list[PageId] = []
        stack = [self.tree.root_id]
        while stack:
            page = self.db.store.get(stack.pop())
            if page.kind is PageKind.INTERNAL:
                if page.level == 1:  # type: ignore[union-attr]
                    ids.append(page.page_id)
                else:
                    stack.extend(reversed(page.children()))  # type: ignore[union-attr]
        return ids

    def _target_records_per_page(self) -> int:
        # Gap-aware: rebuilt leaves keep the configured slack free even
        # when target_fill asks for more (identical when the gap is 0).
        return gapped_leaf_fill(self.db.store.config, self.config.target_fill)

    def _plan_groups(self, base_id: PageId, target: int) -> list[list[PageId]]:
        """Greedy grouping of a base page's children by record count.

        With ``max_unit_output_pages`` = N > 1, groups may accumulate up to
        N output pages' worth of records — one unit then constructs several
        new leaves while holding its locks longer (section 6's trade-off).
        """
        limit = target * self.config.max_unit_output_pages
        base = self.db.store.get_internal(base_id)
        # Readahead: the whole pass will read every child of this base
        # page (sizing here, compacting just after) — fetch the absent
        # ones as one sweep instead of a seek each.
        children = base.children()
        self.db.store.prefetch(children)
        return self.chunk_by_records(children, limit)

    def mark_finished(self, page_id: PageId) -> None:
        """Advance L, "the largest finished leaf page ID"."""
        self.largest_finished = max(self.largest_finished, page_id)

    def outputs_needed(self, group: list[PageId], target: int) -> int:
        """How many pages a unit over the group builds: what its records
        take at the target fill, within ``max_unit_output_pages`` (the last
        page of a unit takes what is left, up to a full page)."""
        total = sum(
            self.db.store.get_leaf(p).num_items
            for p in group
            if not self.db.store.free_map.is_free(p)
        )
        return min(self.config.max_unit_output_pages, max(1, -(-total // target)))

    def pick_dests(self, group: list[PageId], target: int) -> list[PageId] | None:
        """Figure 2's decision for one group: the pages its unit builds.

        Find-Free-Space supplies a distinct ascending free page per output,
        each chosen by the configured policy above the previous pick —
        under the section 6.1 heuristic that is "between the previous pick
        (initially L) and C" — and the unit is Copying-Switching.  Without
        them, In-Place-Reorg compacts into one of the group's own pages:
        the smallest page id beyond L (keeps ascending order when
        possible), else the smallest of the group.  That takes one output
        page; None tells the caller to split a larger group.
        """
        needed = self.outputs_needed(group, target)
        current = min(group)
        picks: list[PageId] = []
        for _ in range(needed):
            page = find_free_page(
                self.db.store,
                self.config.free_space_policy,
                largest_finished=self.largest_finished,
                current=current,
                above=picks[-1] if picks else NO_PAGE,
            )
            if page is None:
                if needed > 1:
                    return None
                beyond = [pid for pid in group if pid > self.largest_finished]
                return [min(beyond) if beyond else min(group)]
            picks.append(page)
        return picks

    def chunk_by_records(
        self, leaves: list[PageId], limit: int
    ) -> list[list[PageId]]:
        """Greedy runs of consecutive ``leaves`` holding at most ``limit``
        records each (a single fuller leaf is a run of its own).

        With ``limit`` one page's worth this also splits an oversized group
        into single-output units — the engine cannot overfill one
        destination page.  Leaves freed since planning are skipped.
        """
        chunks: list[list[PageId]] = []
        current: list[PageId] = []
        count = 0
        for leaf in leaves:
            if self.db.store.free_map.is_free(leaf):
                continue
            n = self.db.store.get_leaf(leaf).num_items
            if current and count + n > limit:
                chunks.append(current)
                current, count = [], 0
            current.append(leaf)
            count += n
        if current:
            chunks.append(current)
        return chunks
