"""The do/redo interpreter: one code path applies a log record to pages.

Normal operation composes a log record, appends it, and *applies* it here;
the redo pass of recovery replays the same records through the same
function.  "Do equals redo" removes a whole class of divergence bugs and is
what makes physiological redo trustworthy ([GR93], chapter 10).

Every handler reaches its page through ``BufferPool.fetch_for_update``, the
pool's copy-on-write funnel.  ``redo=True`` adds the standard page-LSN test
there (a record already reflected in the page is skipped, copying nothing)
and tolerates pages that must be re-created (allocated and logged, but the
image never reached disk before the crash: Alloc + Format rebuild it).

One exact-type table, :data:`HANDLERS`, maps each record class with page
effects to its handler ``(store, record, redo, stash)``; ``apply_record``,
``is_redoable`` and recovery's redo pass each look a record's class up once.

The MOVE records implement the paper's careful-writing optimization
(section 5): with careful writing on, only the *keys* of moved records are
logged.  Applying the out-half removes those records from the org page and
stashes them (keyed by the out-record's LSN); the in-half picks them up.
Careful writing guarantees the stash can always be populated during redo:
the org page cannot have reached disk with the records already removed
unless the dest page (with the records added) is durable too, in which case
both halves are skipped by the page-LSN test.
"""

from __future__ import annotations

from typing import Any

from repro.errors import LogError, StorageError
from repro.storage.page import InternalPage, LeafPage, Page, PageId, PageKind, Record
from repro.storage.store import StorageManager
from repro.wal.records import (
    AllocRecord,
    BaseEntryDeleteRecord,
    BaseEntryInsertRecord,
    BaseEntryUpdateRecord,
    CompensationRecord,
    FreeRecord,
    InternalFormatRecord,
    LeafDeleteRecord,
    LeafFormatRecord,
    LeafInsertRecord,
    LogRecord,
    ReorgModifyRecord,
    ReorgMoveInRecord,
    ReorgMoveOutRecord,
    ReorgSwapRecord,
    SidePointerRecord,
)

#: Stash type threading moved-record contents from a MoveOut application to
#: the matching MoveIn: {move_out_lsn: [Record, ...]}.
MoveStash = dict[int, list[Record]]


def apply_record(
    store: StorageManager,
    record: LogRecord,
    *,
    redo: bool = False,
    stash: MoveStash | None = None,
) -> Any:
    """Apply one log record's page effects.

    Returns an operation-specific value (e.g. the records a MoveOut
    removed).  In redo mode, records already reflected on the page are
    skipped and missing pages are rebuilt where the record carries a full
    image (format records) or ignored where it cannot matter.
    """
    handler = HANDLERS.get(record.__class__)
    if handler is None:
        raise LogError(f"record type {type(record).__name__} has no page effects")
    return handler(store, record, redo, stash)


def is_redoable(record: LogRecord) -> bool:
    """Whether the record type carries page effects ``apply_record`` knows."""
    return record.__class__ in HANDLERS


# -- user / structural records ------------------------------------------------


def _apply_leaf_insert(store, record: LeafInsertRecord, redo: bool, stash):
    page = _fetch(store, record.page_id, redo, record.lsn)
    if page is not None:
        page.insert(record.record)
        store.mark_dirty(page.page_id, record.lsn)


def _apply_leaf_delete(store, record: LeafDeleteRecord, redo: bool, stash):
    page = _fetch(store, record.page_id, redo, record.lsn)
    if page is not None:
        page.delete(record.record.key)
        store.mark_dirty(page.page_id, record.lsn)


def _apply_clr(store, record: CompensationRecord, redo: bool, stash):
    page = _fetch(store, record.page_id, redo, record.lsn)
    if page is not None:
        if record.is_insert:
            page.insert(record.record)
        else:
            page.delete(record.record.key)
        store.mark_dirty(page.page_id, record.lsn)


def _apply_leaf_format(store, record: LeafFormatRecord, redo: bool, stash):
    page = _fetch_or_create(store, record.page_id, redo, record.lsn, PageKind.LEAF)
    if page is not None:
        page.replace_all(list(record.records))
        page.next_leaf = record.next_leaf
        page.prev_leaf = record.prev_leaf
        store.mark_dirty(page.page_id, record.lsn)


def _apply_internal_format(store, record: InternalFormatRecord, redo: bool, stash):
    page = _fetch_or_create(
        store, record.page_id, redo, record.lsn, PageKind.INTERNAL, record.level
    )
    if page is not None:
        page.level = record.level
        page.set_entries(list(record.entries))
        page.low_mark = record.low_mark
        store.mark_dirty(page.page_id, record.lsn)


def _apply_base_insert(store, record: BaseEntryInsertRecord, redo: bool, stash):
    page = _fetch(store, record.page_id, redo, record.lsn)
    if page is not None:
        page.insert_entry(record.key, record.child)
        store.mark_dirty(page.page_id, record.lsn)


def _apply_base_delete(store, record: BaseEntryDeleteRecord, redo: bool, stash):
    page = _fetch(store, record.page_id, redo, record.lsn)
    if page is not None:
        page.remove_entry_for_child(record.child)
        store.mark_dirty(page.page_id, record.lsn)


def _apply_base_update(store, record: BaseEntryUpdateRecord, redo: bool, stash):
    page = _fetch(store, record.page_id, redo, record.lsn)
    if page is not None:
        page.update_entry(
            record.org_key, record.org_child, record.new_key, record.new_child
        )
        store.mark_dirty(page.page_id, record.lsn)


def _apply_side_pointer(store, record: SidePointerRecord, redo: bool, stash):
    page = _fetch(store, record.page_id, redo, record.lsn)
    if page is not None:
        page.next_leaf = record.next_leaf
        page.prev_leaf = record.prev_leaf
        store.mark_dirty(page.page_id, record.lsn)


def _apply_alloc(store, record: AllocRecord, redo: bool, stash):
    # Normal operation allocates through the store before logging.
    if redo and store.free_map.is_free(record.page_id):
        store.free_map.allocate(
            store.free_map.extent_for(record.page_id), record.page_id
        )


def _apply_free(store, record: FreeRecord, redo: bool, stash):
    page_id = record.page_id
    if not redo or store.free_map.is_free(page_id):
        return None
    # Reincarnation test: if the page's current image carries a later LSN,
    # the page was freed, reallocated and rewritten after this record — the
    # free is superseded and must not erase the newer incarnation.
    if _exists(store, page_id) and store.get(page_id).page_lsn > record.lsn:
        return None
    if store.buffer.contains(page_id):
        store.buffer.drop(page_id)
    store.free_map.free(page_id)


# -- reorganization records -----------------------------------------------------


def _apply_move_out(
    store, record: ReorgMoveOutRecord, redo: bool, stash: MoveStash | None
):
    page = _fetch(store, record.org_page, redo, record.lsn)
    if page is None:
        # Org freed later in the log, or — careful writing — already durable
        # without the records, so the dest is durable with them: no stash.
        return None
    if redo and not all(page.contains(key) for key in record.keys):
        # The org page's on-disk state is a *later incarnation* than this
        # record (the page was freed and reallocated further down the log;
        # page ids reincarnate, page LSNs only see the latest).  Careful
        # writing guarantees the move's downstream resting place is durable:
        # the free that ended the incarnation could only run after its
        # drop() force-flushed every write-before dependency.  Removing the
        # "present subset" would corrupt the newer incarnation, so this is
        # strictly all-or-nothing: skip entirely.
        return None
    removed = page.take_run(record.keys)
    store.mark_dirty(page.page_id, record.lsn)
    if stash is not None:
        stash[record.lsn] = removed
    return removed


def _apply_move_in(
    store, record: ReorgMoveInRecord, redo: bool, stash: MoveStash | None
):
    if redo and not record.records:
        stashed = stash is not None and record.move_out_lsn in stash
        if not stashed:
            # The matching MoveOut was skipped during redo (org page gone,
            # already-applied, or a later incarnation of its page id).
            # Careful writing implies the move's effects are durably
            # superseded: the dest was forced to disk before the org could
            # be written or freed, and if the dest was *itself* freed later
            # in the log, its own drop() force-flushed the next hop of the
            # chain first.  Whatever dest state redo is looking at —
            # durable post-move image, a rebuilt newer incarnation, or
            # nothing — this MoveIn must be skipped, never resurrected.
            return None
    page = _fetch_or_create(store, record.dest_page, redo, record.lsn, PageKind.LEAF)
    if page is None:
        return None
    if record.records:
        moved = record.records
    else:
        if stash is None or record.move_out_lsn not in stash:
            raise LogError(
                f"MoveIn at LSN {record.lsn}: keys-only record but no "
                f"stashed contents from MoveOut LSN {record.move_out_lsn}"
            )
        moved = stash.pop(record.move_out_lsn)
        if redo:
            # The write-before edge registered when the move first ran is
            # volatile and died with the crash.  Redo has just re-created
            # the same in-memory state (org dirty without the records, dest
            # dirty with them), so the same ordering constraint must be
            # re-established: the org page may not reach disk before the
            # dest, or a second crash would strand the keys-only records.
            store.buffer.add_write_dependency(
                source=record.org_page, dest=record.dest_page
            )
    page.put_run(moved)
    store.mark_dirty(page.page_id, record.lsn)


def _apply_swap(store, record: ReorgSwapRecord, redo: bool, stash):
    """Swap leaf contents.  A write-before dependency (A before B) plus the
    logged full contents of A make this redoable; see records.py."""
    # Each page is tested on its own.  During redo a page comes back None
    # when its half of the swap is already on it or superseded (the page
    # was freed later in the log).  The write-before dependency (A durable
    # before B may be written or freed) guarantees the *other* half's
    # inputs are still available whenever it needs redoing.
    page_a = _fetch(store, record.page_a, redo, record.lsn)
    page_b = _fetch(store, record.page_b, redo, record.lsn)
    if page_a is not None:
        if record.records_b:
            contents_for_a = list(record.records_b)
        elif page_b is not None:
            # Careful writing: B is unmodified whenever A needs redo.
            contents_for_a = [Record(r.key, r.payload) for r in page_b.records]
        else:
            raise LogError(
                f"swap at LSN {record.lsn}: page A needs redo but page B "
                f"is gone or swapped and its contents were not logged"
            )
        page_a.replace_all(contents_for_a)
        store.mark_dirty(page_a.page_id, record.lsn)
        if redo and not record.records_b:
            # Same volatile-edge problem as MoveIn: A's redo sourced B's
            # unlogged contents from B's pre-swap image, so B must again be
            # barred from disk until the rebuilt A is durable.
            store.buffer.add_write_dependency(
                source=record.page_b, dest=record.page_a
            )
    if page_b is not None:
        page_b.replace_all(list(record.records_a))
        store.mark_dirty(page_b.page_id, record.lsn)


def _apply_modify(store, record: ReorgModifyRecord, redo: bool, stash):
    page = _fetch(store, record.base_page, redo, record.lsn)
    if page is not None:
        if record.org_child == -1:
            page.insert_entry(record.new_key, record.new_child)
        elif record.new_child == -1:
            page.remove_entry_for_child(record.org_child)
        else:
            page.update_entry(
                record.org_key, record.org_child, record.new_key, record.new_child
            )
        store.mark_dirty(page.page_id, record.lsn)


# -- fetch helpers -----------------------------------------------------------


def _exists(store, page_id: PageId) -> bool:
    return store.buffer.contains(page_id) or store.disk.has_image(page_id)


def _fetch(store, page_id: PageId, redo: bool, lsn: int) -> Page | None:
    """The page, private to the pool and ready to change; during redo None
    for a record to skip, copying nothing: its page no longer exists (freed
    later in the log; the later Free wins) or already reflects it."""
    if redo and not _exists(store, page_id):
        return None
    return store.buffer.fetch_for_update(page_id, lsn if redo else None)


def _fetch_or_create(
    store, page_id: PageId, redo: bool, lsn: int, kind: PageKind, level: int = 0
) -> Page | None:
    """:func:`_fetch` for a page of ``kind``, creating it empty when it has
    no image anywhere (its Alloc reached the log, its image never the disk)."""
    if _exists(store, page_id):
        page = _fetch(store, page_id, redo, lsn)
        if page is not None and page.kind is not kind:
            raise StorageError(f"page {page_id} is not a {kind.value} page")
        return page
    if kind is PageKind.LEAF:
        page = LeafPage(page_id, store.config.leaf_capacity)
    else:
        page = InternalPage(page_id, store.config.internal_capacity, level=level)
    store.buffer.put_new(page)
    store.free_map.mark_allocated(page_id)
    return page


# -- dispatch table ------------------------------------------------------------

#: Record class -> handler(store, record, redo, stash).
HANDLERS = {
    LeafInsertRecord: _apply_leaf_insert,
    LeafDeleteRecord: _apply_leaf_delete,
    CompensationRecord: _apply_clr,
    LeafFormatRecord: _apply_leaf_format,
    InternalFormatRecord: _apply_internal_format,
    BaseEntryInsertRecord: _apply_base_insert,
    BaseEntryDeleteRecord: _apply_base_delete,
    BaseEntryUpdateRecord: _apply_base_update,
    SidePointerRecord: _apply_side_pointer,
    AllocRecord: _apply_alloc,
    FreeRecord: _apply_free,
    ReorgMoveOutRecord: _apply_move_out,
    ReorgMoveInRecord: _apply_move_in,
    ReorgSwapRecord: _apply_swap,
    ReorgModifyRecord: _apply_modify,
}
