"""Bottom-up B+-tree construction from sorted input.

"Constructing a B+-tree from sorted records in a bottom-up fashion is
described in chapter 5 section 5 of [Sal88].  Essentially, the records are
copied to newly allocated empty pages as they arrive.  When a new page is
added, no splitting is necessary.  The first page is filled to a
pre-assigned fill factor, and then the next records go in the next page.
Each new page requires a new entry in the level above." (paper section 7.1)

Every new internal page, whoever builds it, is packed by one
:class:`LevelBuilder`:

* :func:`bulk_load` — build a complete tree from sorted records (used to
  set up experiment trees and by the quickstart example): the leaves by
  :func:`build_leaf_level`, the levels above by :func:`build_upper_levels`,
  one builder per level;
* pass 3 of the reorganizer (:mod:`repro.reorg.shrink`) streams its new
  base level through one builder across the old base pages it scans,
  closing the open page early at each stable point (section 7.3), and
  builds levels 2 and up with :func:`build_upper_levels`.  The leaves stay
  in place and a new upper tree is constructed beside the old one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import BTreeError
from repro.storage.page import PageId, Record
from repro.storage.store import StorageManager
from repro.wal.apply import apply_record
from repro.wal.log import LogManager
from repro.wal.records import (
    AllocRecord,
    InternalFormatRecord,
    LeafFormatRecord,
    SidePointerRecord,
)
from repro.config import SidePointerKind, fill_count, gapped_leaf_fill, leaf_gap_slots
from repro.perf import PERF


def _log_apply(store: StorageManager, log: LogManager, record) -> None:
    log.append(record)
    apply_record(store, record)


def build_leaf_level(
    store: StorageManager,
    log: LogManager,
    records: Sequence[Record],
    *,
    fill: float,
    side_pointers: SidePointerKind = SidePointerKind.NONE,
) -> list[tuple[int, PageId]]:
    """Pack sorted records into new leaves; returns (min key, page id) pairs."""
    keys = [r.key for r in records]
    if keys != sorted(keys):
        raise BTreeError("bulk load input must be sorted by key")
    if len(set(keys)) != len(keys):
        raise BTreeError("bulk load input must not contain duplicate keys")
    # Leaf packing honours the configured gap: gapped_leaf_fill clamps the
    # fill-count so each new leaf keeps its reserved slack free (identical
    # to the historical fill arithmetic when leaf_gap_fraction is 0).
    per_page = gapped_leaf_fill(store.config, fill)
    gapped = leaf_gap_slots(store.config) > 0
    entries: list[tuple[int, PageId]] = []
    previous_id: PageId | None = None
    for start in range(0, len(records), per_page):
        chunk = records[start : start + per_page]
        leaf = store.allocate_leaf()
        _log_apply(store, log, AllocRecord(page_id=leaf.page_id, kind="leaf"))
        prev_ptr = (
            previous_id
            if side_pointers is SidePointerKind.TWO_WAY and previous_id is not None
            else -1
        )
        _log_apply(
            store,
            log,
            LeafFormatRecord(
                page_id=leaf.page_id,
                records=tuple(chunk),
                next_leaf=-1,
                prev_leaf=prev_ptr,
            ),
        )
        if previous_id is not None and side_pointers is not SidePointerKind.NONE:
            previous = store.get_leaf(previous_id)
            _log_apply(
                store,
                log,
                SidePointerRecord(
                    page_id=previous_id,
                    next_leaf=leaf.page_id,
                    prev_leaf=previous.prev_leaf,
                ),
            )
        entries.append((chunk[0].key, leaf.page_id))
        previous_id = leaf.page_id
    if gapped:
        PERF.gap.gapped_leaves_built += len(entries)
    return entries


@dataclass
class LevelBuilder:
    """Packs one new internal level left to right, a page at a time.

    A page is allocated when its first entry arrives and formatted once it
    holds ``per_page`` entries, or early on :meth:`close`.  Allocating on
    open, not at close, keeps the page ids of a level that is streamed
    while other work allocates in between.
    """

    store: StorageManager
    log: LogManager
    level: int
    per_page: int
    #: (low key, page id) of each page formatted: the level above's entries.
    closed: list[tuple[int, PageId]] = field(default_factory=list)
    #: Called with each formatted page's id.
    on_close: Callable[[PageId], None] | None = None
    _page_id: PageId | None = field(default=None, init=False)
    _entries: list[tuple[int, PageId]] = field(default_factory=list, init=False)

    def add(self, key: int, child: PageId) -> None:
        if self._page_id is None:
            page = self.store.allocate_internal(level=self.level)
            _log_apply(
                self.store, self.log,
                AllocRecord(page_id=page.page_id, kind="internal", level=self.level),
            )
            self._page_id = page.page_id
        self._entries.append((key, child))
        if len(self._entries) >= self.per_page:
            self.close()

    def close(self) -> None:
        """Format the open page, if there is one."""
        page_id = self._page_id
        if page_id is None:
            return
        low = self._entries[0][0]
        _log_apply(
            self.store, self.log,
            InternalFormatRecord(
                page_id=page_id, level=self.level, entries=tuple(self._entries), low_mark=low
            ),
        )
        self.closed.append((low, page_id))
        self._page_id, self._entries = None, []
        if self.on_close is not None:
            self.on_close(page_id)


def build_upper_levels(
    store: StorageManager,
    log: LogManager,
    entries: Sequence[tuple[int, PageId]],
    *,
    fill: float,
    on_page_built: Callable[[PageId], None] | None = None,
    start_level: int = 1,
) -> PageId:
    """Build internal levels over (key, child) entries; returns the root id.

    One :class:`LevelBuilder` per level, each fed the pages the one below
    closed, until a level is a single page.  ``start_level`` is the level
    of the first level built: 1 when the children are leaves, 2 when they
    are pass 3's new base pages.  ``on_page_built`` is each builder's
    ``on_close``.
    """
    if not entries:
        raise BTreeError("cannot build upper levels over zero entries")
    per_page = fill_count(store.config.internal_capacity, fill)
    level = start_level
    while True:
        builder = LevelBuilder(store, log, level, per_page, on_close=on_page_built)
        for key, child in entries:
            builder.add(key, child)
        builder.close()
        if len(builder.closed) == 1:
            return builder.closed[0][1]
        entries, level = builder.closed, level + 1


def bulk_load(
    store: StorageManager,
    log: LogManager,
    records: Sequence[Record],
    *,
    name: str = "primary",
    leaf_fill: float = 1.0,
    internal_fill: float = 1.0,
):
    """Build a complete tree from sorted records; returns a BPlusTree."""
    from repro.btree.tree import BPlusTree

    if store.disk.get_meta(f"root:{name}") is not None:
        raise BTreeError(f"tree {name!r} already exists")
    if not records:
        return BPlusTree.create(store, log, name=name)
    side = store.config.side_pointers
    entries = build_leaf_level(
        store, log, records, fill=leaf_fill, side_pointers=side
    )
    if len(entries) == 1:
        root_id = entries[0][1]
    else:
        root_id = build_upper_levels(store, log, entries, fill=internal_fill)
    tree = BPlusTree(store, log, name=name)
    tree.set_root(root_id)
    return tree
