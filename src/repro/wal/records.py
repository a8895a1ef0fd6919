"""Write-ahead-log record types.

Three families of records exist:

* **User-transaction records** — leaf inserts/deletes with undo information,
  plus commit/abort/end markers and ARIES-style compensation records (CLRs).
* **Structural records** — redo-only records for page splits, base-page entry
  maintenance, side-pointer updates, bulk-build page images, and space
  allocation.  Structure changes are never undone (the standard
  nested-top-action treatment; [GR93]).
* **Reorganization records** — the paper's BEGIN / MOVE / MODIFY / END unit
  records (section 5) plus pass-3 records, each naming its tree: side-file
  entries, stable keys, the switch and its end.  The checkpoint carries
  the reorg progress table and each busy tree's pass-3 state.

Every record carries an ``lsn`` assigned at append time and a ``prev_lsn``
linking it into its transaction's (or reorganization unit's) backward chain,
exactly as the paper describes: "Prev LSN is the LSN of the previous log
record for this same reorganization unit."

``log_bytes()`` returns the simulated serialized size of a record; benchmark
E4 (log-volume with vs. without careful writing) sums it.  Sizes follow a
simple costing: 8 bytes per integer field, 1 byte per payload character.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.storage.page import PageId, Record

#: Transaction id reserved for redo-only structural actions.
SYSTEM_TXN = 0

_INT_BYTES = 8
_HEADER_FIELDS = 3  # lsn, prev_lsn, txn/unit id
#: Size of the common header every record's ``log_bytes`` starts from.  A
#: module constant, not ``super().log_bytes()``: ``slots=True`` makes a new
#: class object, and a zero-argument ``super()`` in its methods then fails.
_HEADER_BYTES = _HEADER_FIELDS * _INT_BYTES


def _records_bytes(records: tuple[Record, ...]) -> int:
    """Simulated size of full record contents: key plus payload bytes."""
    return sum(_INT_BYTES + len(r.payload) for r in records)


class ReorgUnitType(enum.Enum):
    """The paper's Type field in the BEGIN log record (section 5)."""

    COMPACT = "compact"  # compacting leaf pages under the same base page
    SWAP = "swap"  # swapping two leaf pages under one or two base pages
    MOVE = "move"  # moving one leaf page to an empty page


@dataclass(slots=True)
class LogRecord:
    """Base class: every record gets an LSN and a backward chain pointer."""

    lsn: int = field(default=0, init=False)
    prev_lsn: int = 0

    #: Class flag the log manager reads instead of an isinstance check on
    #: every append (set by the ReorgRecord branch of the hierarchy).
    is_reorg = False

    def log_bytes(self) -> int:
        return _HEADER_BYTES


# ---------------------------------------------------------------------------
# User-transaction records
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TxnRecord(LogRecord):
    """Base for records belonging to a user transaction's chain."""

    txn_id: int = SYSTEM_TXN


@dataclass(slots=True)
class LeafInsertRecord(TxnRecord):
    """A record was inserted into a leaf page.

    Undo is *logical* (delete the key wherever it now lives): a split or a
    reorganization unit may have moved the record off ``page_id`` before
    the transaction rolls back, so ``tree_name`` lets undo re-descend.
    """

    page_id: PageId = 0
    record: Record = field(default_factory=lambda: Record(0))
    tree_name: str = "primary"

    def log_bytes(self) -> int:
        # == header + page_id + one record (key + payload), inlined: this
        # runs once per user insert/delete, the hottest log-size path.
        return (_HEADER_FIELDS + 2) * _INT_BYTES + len(self.record.payload)


@dataclass(slots=True)
class LeafDeleteRecord(TxnRecord):
    """A record was deleted from a leaf page.  Undo: re-insert it
    (logically — see LeafInsertRecord)."""

    page_id: PageId = 0
    record: Record = field(default_factory=lambda: Record(0))
    tree_name: str = "primary"

    def log_bytes(self) -> int:
        # == header + page_id + one record (key + payload), inlined: this
        # runs once per user insert/delete, the hottest log-size path.
        return (_HEADER_FIELDS + 2) * _INT_BYTES + len(self.record.payload)


@dataclass(slots=True)
class CompensationRecord(TxnRecord):
    """ARIES CLR: redo-only record describing one undone action.

    ``undo_next_lsn`` points at the next record of the transaction still to
    be undone, so undo never repeats work after a crash during recovery.
    """

    page_id: PageId = 0
    undone_lsn: int = 0
    undo_next_lsn: int = 0
    #: True when the compensating action re-inserts ``record``; False when
    #: it deletes it.
    is_insert: bool = False
    record: Record = field(default_factory=lambda: Record(0))

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 3 * _INT_BYTES + _records_bytes((self.record,))


@dataclass(slots=True)
class CommitRecord(TxnRecord):
    """Transaction committed; its effects must survive recovery."""


@dataclass(slots=True)
class AbortRecord(TxnRecord):
    """Transaction entered rollback (its updates will be compensated)."""


@dataclass(slots=True)
class EndRecord(TxnRecord):
    """Transaction finished (after commit or complete rollback)."""


# ---------------------------------------------------------------------------
# Structural (redo-only) records
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class LeafFormatRecord(TxnRecord):
    """Full leaf-page image: records plus side pointers.

    Used when a split populates a new right sibling, when bulk build emits a
    page, and when recovery needs an idempotent full-page redo.
    """

    page_id: PageId = 0
    records: tuple[Record, ...] = ()
    next_leaf: PageId = -1
    prev_leaf: PageId = -1

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 3 * _INT_BYTES + _records_bytes(self.records)


@dataclass(slots=True)
class InternalFormatRecord(TxnRecord):
    """Full internal-page image: entries, level, low mark."""

    page_id: PageId = 0
    level: int = 1
    entries: tuple[tuple[int, PageId], ...] = ()
    low_mark: int | None = None

    def log_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + 3 * _INT_BYTES
            + 2 * _INT_BYTES * len(self.entries)
        )


@dataclass(slots=True)
class BaseEntryInsertRecord(TxnRecord):
    """A (key, child) entry was added to an internal page (e.g. by a split)."""

    page_id: PageId = 0
    key: int = 0
    child: PageId = 0

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 3 * _INT_BYTES


@dataclass(slots=True)
class BaseEntryUpdateRecord(TxnRecord):
    """One (key, child) entry of an internal page was rewritten in place.

    Used to keep the invariant *entry key = smallest key of the child's
    subtree* when an insert arrives below the tree minimum (it routes to the
    leftmost child, whose entry key must be lowered so later splits produce
    distinct separators).
    """

    page_id: PageId = 0
    org_key: int = 0
    org_child: PageId = 0
    new_key: int = 0
    new_child: PageId = 0

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 5 * _INT_BYTES


@dataclass(slots=True)
class BaseEntryDeleteRecord(TxnRecord):
    """A (key, child) entry was removed (free-at-empty deallocation)."""

    page_id: PageId = 0
    key: int = 0
    child: PageId = 0

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 3 * _INT_BYTES


@dataclass(slots=True)
class SidePointerRecord(TxnRecord):
    """A leaf's side pointers changed (section 4.3)."""

    page_id: PageId = 0
    next_leaf: PageId = -1
    prev_leaf: PageId = -1

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 3 * _INT_BYTES


@dataclass(slots=True)
class AllocRecord(TxnRecord):
    """A page was allocated.  Section 7.3: space allocation is logged so
    that pages allocated after the most recent stable point can be
    deallocated during recovery."""

    page_id: PageId = 0
    kind: str = "leaf"
    level: int = 0

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 2 * _INT_BYTES + len(self.kind)


@dataclass(slots=True)
class FreeRecord(TxnRecord):
    """A page was deallocated (free-at-empty, or old-tree discard)."""

    page_id: PageId = 0

    def log_bytes(self) -> int:
        return _HEADER_BYTES + _INT_BYTES


# ---------------------------------------------------------------------------
# Reorganization-unit records (paper section 5)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ReorgRecord(LogRecord):
    """Base for records in a reorganization unit's chain."""

    unit_id: int = 0

    is_reorg = True


@dataclass(slots=True)
class ReorgBeginRecord(ReorgRecord):
    """(BEGIN, Unit m, Type, base pages..., leaf pages...).

    "This log record is only written after all leaf page locks for the
    reorganization unit are acquired."
    """

    unit_type: ReorgUnitType = ReorgUnitType.COMPACT
    base_pages: tuple[PageId, ...] = ()
    leaf_pages: tuple[PageId, ...] = ()
    #: Extra context forward recovery needs to finish the unit: for COMPACT
    #: and MOVE, the destination page id; for SWAP the two page ids are the
    #: leaf_pages themselves.
    dest_page: PageId = -1
    #: Multi-output units (ReorgConfig.max_unit_output_pages > 1): every
    #: destination page, in key order.  Empty means (dest_page,).
    dest_pages: tuple[PageId, ...] = ()

    def all_dest_pages(self) -> tuple[PageId, ...]:
        return self.dest_pages if self.dest_pages else (self.dest_page,)

    def log_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + 2 * _INT_BYTES
            + _INT_BYTES
            * (len(self.base_pages) + len(self.leaf_pages) + len(self.dest_pages))
        )


@dataclass(slots=True)
class ReorgMoveOutRecord(ReorgRecord):
    """(MOVE, record contents, org page, dest page) — the org-page half.

    "We will always write the MOVE log record for the org page first, then
    write the MOVE log record for the dest page."

    With careful writing only the keys are logged; redo recovers the record
    contents from the org page's stable image, which careful writing
    guarantees is still intact if this record needs redoing.
    """

    org_page: PageId = 0
    dest_page: PageId = 0
    keys: tuple[int, ...] = ()
    #: Full record contents; empty when careful writing allows keys-only.
    records: tuple[Record, ...] = ()

    def log_bytes(self) -> int:
        body = _records_bytes(self.records) if self.records else (
            _INT_BYTES * len(self.keys)
        )
        return _HEADER_BYTES + 2 * _INT_BYTES + body


@dataclass(slots=True)
class ReorgMoveInRecord(ReorgRecord):
    """(MOVE, ...) — the dest-page half of a record move."""

    org_page: PageId = 0
    dest_page: PageId = 0
    keys: tuple[int, ...] = ()
    records: tuple[Record, ...] = ()
    #: LSN of the matching ReorgMoveOutRecord; redo uses it to pick up the
    #: records stashed while redoing the out-half (keys-only logging).
    move_out_lsn: int = 0

    def log_bytes(self) -> int:
        body = _records_bytes(self.records) if self.records else (
            _INT_BYTES * len(self.keys)
        )
        return _HEADER_BYTES + 3 * _INT_BYTES + body


@dataclass(slots=True)
class ReorgSwapRecord(ReorgRecord):
    """Swap of the contents of two leaf pages.

    "When we do swapping of leaf pages there is no way to avoid logging at
    least one of the full page contents."  With careful writing we log page
    A's old contents in full and only the keys of page B; a buffer-pool
    write dependency (A must be written before B) makes that sufficient for
    redo.  Without careful writing both pages' contents are logged
    (``records_b`` non-empty) so redo never depends on write order.
    """

    page_a: PageId = 0
    page_b: PageId = 0
    records_a: tuple[Record, ...] = ()
    keys_b: tuple[int, ...] = ()
    records_b: tuple[Record, ...] = ()

    def log_bytes(self) -> int:
        b_side = (
            _records_bytes(self.records_b)
            if self.records_b
            else _INT_BYTES * len(self.keys_b)
        )
        return (
            _HEADER_BYTES
            + 2 * _INT_BYTES
            + _records_bytes(self.records_a)
            + b_side
        )


@dataclass(slots=True)
class ReorgModifyRecord(ReorgRecord):
    """(MODIFY, base page, org key, org pointer, new key, new pointer).

    "This describes the modification of the base key and base pointer after
    moving the records."  A removal (compacted-away child) is encoded with
    ``new_child = -1``; an insertion of a brand-new entry with
    ``org_child = -1``.
    """

    base_page: PageId = 0
    org_key: int = 0
    org_child: PageId = -1
    new_key: int = 0
    new_child: PageId = -1

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 5 * _INT_BYTES


@dataclass(slots=True)
class ReorgEndRecord(ReorgRecord):
    """(END, Unit m) plus LK, the largest key the unit finished."""

    largest_key: int = 0

    def log_bytes(self) -> int:
        return _HEADER_BYTES + _INT_BYTES


# ---------------------------------------------------------------------------
# Pass-3 records (sections 7.2-7.3)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SideFileInsertRecord(TxnRecord):
    """A user transaction appended an entry to the side file (section 7.2).

    ``op`` is "insert" or "delete": the base-page change being deferred.
    """

    key: int = 0
    child: PageId = -1
    op: str = "insert"
    tree_name: str = "primary"

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 2 * _INT_BYTES + len(self.op)


@dataclass(slots=True)
class SideFileApplyRecord(ReorgRecord):
    """The reorganizer applied (and removed) one side-file entry.

    "The actions of changing the new base page and of removing the side
    file record are logged."
    """

    key: int = 0
    child: PageId = -1
    op: str = "insert"
    new_base_page: PageId = -1
    tree_name: str = "primary"

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 3 * _INT_BYTES + len(self.op)


@dataclass(slots=True)
class StableKeyRecord(ReorgRecord):
    """A pass-3 stable point: the new tree is durable up to this key.

    "After these pages are forced, only the key of the next page to be read
    need be recorded in the log."  ``new_root`` is the location of the
    concurrent root of the new B+-tree (-1 while the upper levels are not
    built yet).  ``built_entries`` lists the (low key, page id) of every
    new base page closed so far, so a restart can rebuild the upper levels
    without re-reading stable work.
    """

    stable_key: int = 0
    new_root: PageId = -1
    built_entries: tuple[tuple[int, PageId], ...] = ()
    tree_name: str = "primary"

    def log_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + 2 * _INT_BYTES
            + 2 * _INT_BYTES * len(self.built_entries)
        )


@dataclass(slots=True)
class TreeSwitchRecord(ReorgRecord):
    """The switch is about to flip the root (section 7.4).

    Logged and flushed immediately *before* the root location on disk is
    changed, so recovery always knows both roots and can finish the switch
    forward (flip if not yet flipped, then discard the old upper levels)
    instead of rebuilding.
    """

    old_root: PageId = -1
    new_root: PageId = -1
    old_lock_name: str = ""
    tree_name: str = "primary"

    def log_bytes(self) -> int:
        return _HEADER_BYTES + 2 * _INT_BYTES + len(self.old_lock_name)


@dataclass(slots=True)
class ReorgDoneRecord(ReorgRecord):
    """Internal-page reorganization fully completed: the old upper levels
    were discarded and the reorganization bit cleared."""

    tree_name: str = "primary"


@dataclass(slots=True)
class CheckpointRecord(LogRecord):
    """A sharp checkpoint: all dirty pages were flushed before appending.

    Carries the reorg progress table (section 5: "It will be copied to the
    log checkpoint record"), each tree's pass-3 state (sections 7.2-7.3),
    and the set of active transactions with their most recent LSNs (for
    the undo pass).
    """

    active_txns: tuple[tuple[int, int], ...] = ()  # (txn_id, last_lsn)
    #: (LK, begin_lsn, recent_lsn) — the progress table; lsn fields are 0
    #: when no unit is in flight.
    progress: tuple[int, int, int] = (0, 0, 0)
    #: Parallel extension: every in-flight unit as (unit_id, begin, recent).
    progress_units: tuple[tuple[int, int, int], ...] = ()
    #: Per tree whose pass 3 is not idle, in name order: (tree name, reorg
    #: bit, stable key, new root, side-file (key, child, op) triples, new
    #: base pages closed so far as (low key, page id)).
    pass3: tuple[tuple, ...] = ()
    #: (tree name, LSN of its last stable point) for each tree of ``pass3``
    #: that has one: recovery rolls that tree back to it (section 7.3).
    stable_lsns: tuple[tuple[str, int], ...] = ()

    def log_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + 2 * _INT_BYTES * len(self.active_txns)
            + 3 * _INT_BYTES
            + sum(
                len(name)
                + 3 * _INT_BYTES
                + 3 * _INT_BYTES * len(side)
                + 2 * _INT_BYTES * len(built)
                for name, _bit, _sk, _nr, side, built in self.pass3
            )
            + sum(len(name) + _INT_BYTES for name, _lsn in self.stable_lsns)
        )
