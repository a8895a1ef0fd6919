"""In-memory page representations.

The simulated disk stores :class:`Page` objects.  Two concrete kinds exist:

* :class:`LeafPage` — holds the data records themselves.  The paper's tree is
  a *primary* index: "leaf pages contain the data records" (section 2).
* :class:`InternalPage` — holds ``(key, child_page_id)`` entries.  In the
  paper's B+-tree variation "an internal node with n keys has n children"
  (section 2), i.e. each entry's key is the smallest key reachable through
  that child.  Internal pages directly above the leaves are called *base
  pages*; they carry the *low mark* used by pass 3 (section 7.1).

Pages track a ``page_lsn`` — the LSN of the last log record applied to the
page — which the redo pass uses to decide whether a logged action is already
reflected in the stable image (standard physiological redo, [GR93]).

Capacity is counted in records/entries rather than bytes; this keeps the
model simple while preserving everything the reorganization algorithms
depend on (occupancy, ordering, splits, fill factors).
"""

from __future__ import annotations

import bisect
import enum
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.errors import BTreeError, DuplicateKeyError, KeyNotFoundError

PageId = int

#: Sentinel page id meaning "no page" (e.g. end of a side-pointer chain).
NO_PAGE: PageId = -1


class PageKind(enum.Enum):
    """Discriminates the two page layouts."""

    LEAF = "leaf"
    INTERNAL = "internal"


@dataclass(frozen=True, order=True, slots=True)
class Record:
    """A data record stored in a leaf page.

    Ordering is by key so records can live in ``bisect``-maintained sorted
    lists.  The payload models the non-key bytes of the record; its length
    contributes to simulated log volume when full record contents must be
    logged (paper section 5).
    """

    key: int
    payload: str = ""


class Page:
    """Common state of both page kinds."""

    __slots__ = ("page_id", "page_lsn")

    kind: PageKind

    def __init__(self, page_id: PageId):
        self.page_id = page_id
        #: LSN of the last log record applied to this page (0 = never logged).
        self.page_lsn: int = 0

    # -- abstract interface -------------------------------------------------

    def clone(self) -> "Page":
        """Deep copy: a written stable image, or the disk's private copy
        when the pool first changes a page it shared (copy on write)."""
        raise NotImplementedError

    @property
    def num_items(self) -> int:
        raise NotImplementedError

    @property
    def capacity(self) -> int:
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    @property
    def is_full(self) -> bool:
        return self.num_items >= self.capacity

    @property
    def is_empty(self) -> bool:
        return self.num_items == 0

    def fill_fraction(self) -> float:
        """Occupancy of the page in [0, 1]."""
        return self.num_items / self.capacity

    def free_slots(self) -> int:
        return self.capacity - self.num_items


class LeafPage(Page):
    """A leaf page holding sorted records plus optional side pointers."""

    __slots__ = ("_capacity", "_records", "_keys", "next_leaf", "prev_leaf")

    kind = PageKind.LEAF

    def __init__(self, page_id: PageId, capacity: int):
        super().__init__(page_id)
        if capacity < 1:
            raise ValueError("leaf capacity must be positive")
        self._capacity = capacity
        self._records: list[Record] = []
        #: Parallel list of record keys, kept in lockstep with ``_records``
        #: so in-page search can bisect without a per-probe key() lambda.
        self._keys: list[int] = []
        #: One-way side pointer to the next leaf in key order, or NO_PAGE.
        self.next_leaf: PageId = NO_PAGE
        #: Backward pointer for two-way side-pointer configurations.
        self.prev_leaf: PageId = NO_PAGE

    # -- Page interface -----------------------------------------------------

    def clone(self) -> "LeafPage":
        # Bypass __init__: clone() runs on every disk write and first change
        # of a page, and the source already satisfies the constructor's checks.
        copy = LeafPage.__new__(LeafPage)
        copy.page_id = self.page_id
        copy.page_lsn = self.page_lsn
        copy._capacity = self._capacity
        copy._records = list(self._records)
        copy._keys = list(self._keys)
        copy.next_leaf = self.next_leaf
        copy.prev_leaf = self.prev_leaf
        return copy

    @property
    def num_items(self) -> int:
        return len(self._records)

    @property
    def capacity(self) -> int:
        return self._capacity

    # Direct overrides of the base-class helpers: the generic versions
    # chain two property dispatches per call, and both run on every insert
    # and scan step.
    @property
    def is_full(self) -> bool:
        return len(self._records) >= self._capacity

    @property
    def is_empty(self) -> bool:
        return not self._records

    # -- record operations ----------------------------------------------------

    @property
    def records(self) -> tuple[Record, ...]:
        """Immutable view of the records, in key order."""
        return tuple(self._records)

    def keys(self) -> list[int]:
        return list(self._keys)

    def min_key(self) -> int:
        if not self._keys:
            raise BTreeError(f"leaf page {self.page_id} is empty; no min key")
        return self._keys[0]

    def max_key(self) -> int:
        if not self._keys:
            raise BTreeError(f"leaf page {self.page_id} is empty; no max key")
        return self._keys[-1]

    def _index_of(self, key: int) -> int:
        """Index of ``key`` in the record list, or -1 if absent."""
        keys = self._keys
        i = bisect.bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return i
        return -1

    def contains(self, key: int) -> bool:
        return self._index_of(key) >= 0

    def get(self, key: int) -> Record:
        i = self._index_of(key)
        if i < 0:
            raise KeyNotFoundError(f"key {key} not in leaf page {self.page_id}")
        return self._records[i]

    def find(self, key: int) -> Record | None:
        """The record for ``key`` or None — one probe for contains+get."""
        keys = self._keys
        i = bisect.bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self._records[i]
        return None

    def insert(self, record: Record) -> None:
        """Insert a record, keeping key order.  Duplicates are rejected."""
        if self.is_full:
            raise BTreeError(f"leaf page {self.page_id} is full")
        keys = self._keys
        i = bisect.bisect_left(keys, record.key)
        if i < len(keys) and keys[i] == record.key:
            raise DuplicateKeyError(f"key {record.key} already in page {self.page_id}")
        keys.insert(i, record.key)
        self._records.insert(i, record)

    def delete(self, key: int) -> Record:
        i = self._index_of(key)
        if i < 0:
            raise KeyNotFoundError(f"key {key} not in leaf page {self.page_id}")
        self._keys.pop(i)
        return self._records.pop(i)

    def take_run(self, keys: Sequence[int]) -> list[Record]:
        """Remove and return the records of ``keys``, in that order: keys
        side by side on the page, in key order, as one slice; any others
        one at a time by :meth:`delete` (a missing key raises there)."""
        run = list(keys)
        i = bisect.bisect_left(self._keys, run[0]) if run else 0
        j = i + len(run)
        if self._keys[i:j] != run:
            return [self.delete(key) for key in run]
        taken = self._records[i:j]
        del self._records[i:j], self._keys[i:j]
        return taken

    def put_run(self, records: Sequence[Record]) -> None:
        """Insert ``records``: a strictly ascending run that fits between two
        neighbouring keys as one slice; any others one at a time by
        :meth:`insert` (a duplicate or a full page raises there)."""
        keys = [record.key for record in records]
        page_keys = self._keys
        if keys and len(page_keys) + len(keys) <= self._capacity:
            i = bisect.bisect_left(page_keys, keys[0])
            if (i == len(page_keys) or keys[-1] < page_keys[i]) and all(
                map(operator.lt, keys, keys[1:])
            ):
                page_keys[i:i] = keys
                self._records[i:i] = records
                return
        for record in records:
            self.insert(record)

    def replace_all(self, records: list[Record]) -> None:
        """Replace the full record list (used by swaps and recovery redo)."""
        if len(records) > self._capacity:
            raise BTreeError(f"replace_all would overflow leaf page {self.page_id}")
        ordered = sorted(records, key=lambda r: r.key)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.key == earlier.key:
                raise DuplicateKeyError(f"duplicate key {later.key} in replace_all")
        self._records = ordered
        self._keys = [r.key for r in ordered]

    def iter_from(self, key: int) -> Iterator[Record]:
        """Yield records with key >= ``key`` in ascending order."""
        i = bisect.bisect_left(self._keys, key)
        yield from self._records[i:]

    def records_in_range(self, low: int, high: int) -> list[Record]:
        """Records with ``low <= key <= high`` as one slice (range scans)."""
        lo = bisect.bisect_left(self._keys, low)
        hi = bisect.bisect_right(self._keys, high)
        return self._records[lo:hi]

    def payload_bytes(self) -> int:
        """Total payload size, used to model full-content log volume."""
        return sum(len(r.payload) for r in self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = f"{self.min_key()}..{self.max_key()}" if self._records else "empty"
        return f"<LeafPage {self.page_id} [{span}] {self.num_items}/{self._capacity}>"


class InternalPage(Page):
    """An internal page of ``(key, child)`` entries; n keys, n children.

    The entry key is the smallest key in the child's subtree.  Base pages
    (internal pages whose children are leaves) additionally carry a *low
    mark*: the smallest key on the page when it was first created (paper
    section 7.1).  Pass 3 uses low marks to track its scan position.
    """

    __slots__ = ("_capacity", "level", "_keys", "_children", "low_mark")

    kind = PageKind.INTERNAL

    def __init__(self, page_id: PageId, capacity: int, *, level: int = 1):
        super().__init__(page_id)
        if capacity < 2:
            raise ValueError("internal capacity must be at least 2")
        self._capacity = capacity
        #: Height above the leaves: base pages are level 1.
        self.level = level
        self._keys: list[int] = []
        self._children: list[PageId] = []
        #: Smallest key on the page when first created; None until set.
        self.low_mark: Optional[int] = None

    # -- Page interface -----------------------------------------------------

    def clone(self) -> "InternalPage":
        # Bypass __init__ for the same reason as LeafPage.clone.
        copy = InternalPage.__new__(InternalPage)
        copy.page_id = self.page_id
        copy.page_lsn = self.page_lsn
        copy._capacity = self._capacity
        copy.level = self.level
        copy._keys = list(self._keys)
        copy._children = list(self._children)
        copy.low_mark = self.low_mark
        return copy

    @property
    def num_items(self) -> int:
        return len(self._keys)

    @property
    def capacity(self) -> int:
        return self._capacity

    # Direct overrides — see LeafPage for why.
    @property
    def is_full(self) -> bool:
        return len(self._keys) >= self._capacity

    @property
    def is_empty(self) -> bool:
        return not self._keys

    # -- entry operations -----------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[int, PageId], ...]:
        return tuple(zip(self._keys, self._children))

    def keys(self) -> list[int]:
        return list(self._keys)

    def children(self) -> list[PageId]:
        return list(self._children)

    def key_at(self, index: int) -> int:
        """The ``index``-th entry key (no tuple of every entry)."""
        return self._keys[index]

    def child_at(self, index: int) -> PageId:
        """The ``index``-th child, or NO_PAGE past the last (no list copy)."""
        return self._children[index] if index < len(self._children) else NO_PAGE

    def min_key(self) -> int:
        if not self._keys:
            raise BTreeError(f"internal page {self.page_id} is empty; no min key")
        return self._keys[0]

    def child_index_for(self, key: int) -> int:
        """Index of the child whose subtree may contain ``key``.

        This is the rightmost entry with entry-key <= ``key``.  Keys smaller
        than every entry route to the leftmost child (index 0) so searches
        for keys below the tree minimum terminate at a leaf.
        """
        if not self._keys:
            raise BTreeError(f"internal page {self.page_id} is empty")
        i = bisect.bisect_right(self._keys, key) - 1
        return i if i > 0 else 0

    def child_for(self, key: int) -> PageId:
        # Inlined `child_index_for` — one probe per level on every descent.
        keys = self._keys
        if not keys:
            raise BTreeError(f"internal page {self.page_id} is empty")
        i = bisect.bisect_right(keys, key) - 1
        return self._children[i if i > 0 else 0]

    def route_for(self, key: int) -> tuple[int, PageId]:
        """``(min entry key, child for key)`` in one probe.

        The insert descent needs both — the minimum to maintain *entry key
        = minimum of child subtree*, the child to keep descending — and a
        combined lookup halves the per-level call count on the hottest
        path in the tree.
        """
        keys = self._keys
        if not keys:
            raise BTreeError(f"internal page {self.page_id} is empty")
        i = bisect.bisect_right(keys, key) - 1
        return keys[0], self._children[i if i > 0 else 0]

    def index_of_child(self, child: PageId) -> int:
        """Index of ``child`` in the child list, or -1 if absent."""
        try:
            return self._children.index(child)
        except ValueError:
            return -1

    def insert_entry(self, key: int, child: PageId) -> None:
        if self.is_full:
            raise BTreeError(f"internal page {self.page_id} is full")
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            raise DuplicateKeyError(
                f"separator key {key} already in internal page {self.page_id}"
            )
        self._keys.insert(i, key)
        self._children.insert(i, child)
        if self.low_mark is None:
            self.low_mark = self._keys[0]

    def remove_entry_for_child(self, child: PageId) -> tuple[int, PageId]:
        i = self.index_of_child(child)
        if i < 0:
            raise KeyNotFoundError(
                f"child {child} not in internal page {self.page_id}"
            )
        return self._keys.pop(i), self._children.pop(i)

    def update_entry(
        self, old_key: int, old_child: PageId, new_key: int, new_child: PageId
    ) -> None:
        """Replace one (key, child) entry; the paper's MODIFY action.

        Used after a reorganization unit moves records: the base page entry
        for a compacted/moved leaf gets a new key and/or pointer (section 5,
        the MODIFY log record).  Matches the exact (key, child) pair — a
        child id can transiently appear under two keys midway through a
        same-base swap, so matching on the child alone is ambiguous.
        """
        keys = self._keys
        i = bisect.bisect_left(keys, old_key)  # entry keys are unique
        if i == len(keys) or keys[i] != old_key or self._children[i] != old_child:
            raise KeyNotFoundError(
                f"entry ({old_key}, {old_child}) not in page {self.page_id}"
            )
        self._keys.pop(i)
        self._children.pop(i)
        j = bisect.bisect_left(self._keys, new_key)
        if j < len(self._keys) and self._keys[j] == new_key:
            raise DuplicateKeyError(
                f"separator key {new_key} already in internal page {self.page_id}"
            )
        self._keys.insert(j, new_key)
        self._children.insert(j, new_child)

    def set_entries(self, entries: list[tuple[int, PageId]]) -> None:
        """Replace the whole entry list (recovery redo, bulk build)."""
        if len(entries) > self._capacity:
            raise BTreeError(f"set_entries would overflow page {self.page_id}")
        ordered = sorted(entries)
        for (k1, _), (k2, _) in zip(ordered, ordered[1:]):
            if k1 == k2:
                raise DuplicateKeyError(f"duplicate separator key {k1}")
        self._keys = [k for k, _ in ordered]
        self._children = [c for _, c in ordered]
        if self.low_mark is None and self._keys:
            self.low_mark = self._keys[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = f"{self._keys[0]}..{self._keys[-1]}" if self._keys else "empty"
        return (
            f"<InternalPage {self.page_id} L{self.level} [{span}] "
            f"{self.num_items}/{self._capacity}>"
        )
