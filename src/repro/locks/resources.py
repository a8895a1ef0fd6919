"""Canonical lock resource names.

Every lockable thing in the system is identified by a small tuple so that
the lock manager can stay generic.  Using constructor functions (rather than
ad-hoc tuples at call sites) keeps the namespaces straight:

* ``tree_lock(name)`` — the large-granularity tree lock of section 4.  The
  old and the new B+-tree have *distinct* lock names (section 7.4), which is
  what lets the switch protocol drain old-tree transactions by X-locking the
  old name while new work proceeds under the new name:
  ``current_lock_name(db, tree)`` is the name of the tree's current
  incarnation, and the switch moves it on with ``bump_lock_name``.
* ``page_lock(pid)`` — one lock per page (base pages and leaf pages).
* ``record_lock(key)`` — record-level locks for readers/updaters doing
  record-level locking [GR93].
* ``sidefile_lock(name)`` — one tree's side file as a table (IX by
  updaters, X by the reorganizer during the switch, section 7.2/7.4).
* ``sidefile_key(key)`` — record-level lock on one side-file entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage.page import PageId

if TYPE_CHECKING:
    from repro.db import Database

TREE = "tree"
PAGE = "page"
RECORD = "record"
SIDE_FILE = "sidefile"
SIDE_FILE_KEY = "sidefile-key"


def tree_lock(name: str) -> tuple[str, str]:
    return (TREE, name)


def page_lock(page_id: PageId) -> tuple[str, PageId]:
    return (PAGE, page_id)


def record_lock(key: int) -> tuple[str, int]:
    return (RECORD, key)


def sidefile_lock(tree_name: str) -> tuple[str, str]:
    """The side file of one tree, as a table.

    Every tree has its own side file, so a switch drains only the updaters
    of its own tree — one shard's switch never blocks another shard.
    """
    return (SIDE_FILE, tree_name)


def sidefile_key(key: int) -> tuple[str, int]:
    return (SIDE_FILE_KEY, key)


def current_lock_name(db: Database, tree_name: str) -> str:
    """The tree's current lock name; distinct per tree incarnation."""
    name = db.store.disk.get_meta(f"lockname:{tree_name}")
    return name if name is not None else f"{tree_name}@0"  # type: ignore[return-value]


def bump_lock_name(db: Database, tree_name: str) -> None:
    """Give the tree its next incarnation's lock name (the switch)."""
    epoch = int(current_lock_name(db, tree_name).rsplit("@", 1)[1]) + 1
    db.store.disk.set_meta(f"lockname:{tree_name}", f"{tree_name}@{epoch}")
