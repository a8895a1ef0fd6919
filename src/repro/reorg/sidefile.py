"""The side file (paper section 7.2).

"When the internal node reorganization begins, the side file is created and
a reorganization-bit is set to one.  The side file is a system database
table."  Entries are base-level changes — leaf-split insertions and
free-at-empty deletions — that landed on *already-read* old base pages and
therefore must be replayed onto the new tree.

Every append is logged (``SideFileInsertRecord``, attributed to the user
transaction that caused it), and every application-to-the-new-tree is
logged too ("The actions of changing the new base page and of removing the
side file record are logged" — ``SideFileApplyRecord``), so recovery can
reconstruct the exact residue.

The entry list is shared with the tree's :class:`repro.db.Pass3State`, so
checkpoints capture it automatically, and every record names the tree, so
recovery replays it into that tree's state alone.

Version-stamp coverage (the waiter's test of ROADMAP item 1(a)): the side
file itself is a memory-resident table, invisible to readers; what matters
is that applying an entry to the new tree mutates base pages through
log-apply -> ``BufferPool.mark_dirty``, which bumps their version stamps.
"""

from __future__ import annotations

from repro.db import Database
from repro.storage.page import PageId
from repro.txn.transaction import Transaction
from repro.wal.records import SideFileApplyRecord, SideFileInsertRecord

Entry = tuple[int, PageId, str]  # (key, child, "insert" | "delete")


class SideFile:
    """Durable (via logging) list of deferred base-page changes."""

    def __init__(self, db: Database, tree_name: str):
        self.db = db
        self.tree_name = tree_name
        # Share the list object with Pass3State so checkpoints see it.
        self._entries: list[Entry] = db.pass3_state(tree_name).side_file_entries

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[Entry]:
        return list(self._entries)

    def is_empty(self) -> bool:
        return not self._entries

    # -- mutation -----------------------------------------------------------

    def append(
        self,
        key: int,
        child: PageId,
        op: str,
        txn: Transaction | None = None,
    ) -> None:
        """Record one deferred change; logged by the causing transaction.

        "The insertion to the side file is logged by the transaction which
        makes the insertion."
        """
        if op not in ("insert", "delete"):
            raise ValueError(f"unknown side-file op {op!r}")
        record = SideFileInsertRecord(
            key=key, child=child, op=op, tree_name=self.tree_name
        )
        if txn is not None:
            record.txn_id = txn.txn_id
            record.prev_lsn = txn.last_lsn
        lsn = self.db.log.append(record)
        if txn is not None:
            txn.last_lsn = lsn
        self._entries.append((key, child, op))

    def pop_front(self) -> Entry:
        """Take the oldest entry for application (caller logs the apply)."""
        return self._entries.pop(0)

    def log_applied(
        self, entry: Entry, new_base_page: PageId, unit_id: int = 0
    ) -> None:
        """Log that ``entry`` was applied to the new tree and removed."""
        key, child, op = entry
        self.db.log.append(
            SideFileApplyRecord(
                unit_id=unit_id,
                key=key,
                child=child,
                op=op,
                new_base_page=new_base_page,
                tree_name=self.tree_name,
            )
        )

    def restore(self, entries: list[Entry]) -> None:
        """Reload after recovery (from the checkpoint + log replay)."""
        self._entries[:] = entries

    def drop_after_key(self, stable_key: int) -> int:
        """Discard entries beyond the pass-3 restart point.

        Section 7.3: "entries in the side file which refer to records which
        come after the most recent stable key can be removed from the side
        file" — the restarted scan will re-read those base pages anyway.
        Returns the number of entries dropped.
        """
        keep = [e for e in self._entries if e[0] < stable_key]
        dropped = len(self._entries) - len(keep)
        self._entries[:] = keep
        return dropped
