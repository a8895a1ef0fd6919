# reproflow: disable-file=lock-order -- Table 1's protocol admits these
# cycles by design (reader S lock-coupling vs. updater X descent, and
# side-file posting order): the paper resolves them at runtime with the
# waits-for deadlock detector, victim abort, undo + ReleaseAll and retry
# (section 5.2).  reprocheck explores exactly those schedules.
"""Reader and updater protocols (paper sections 4.1.2 and 4.1.3).

These are generator protocols for the discrete-event scheduler: every lock
acquisition, release, page fetch and back-off of the paper's pseudo-code is
a yield, so the scheduler can interleave them with the reorganizer and
measure blocking.

Reader (section 4.1.2)::

    IS lock the tree lock.
    S lock-couple down the tree.
    If it can't get an S lock on the leaf page, and the conflicting lock is
    RX: release the S lock on the base page, request an unconditional
    instant-duration RS lock on the parent base page, then re-request S on
    the base page and proceed.
    S lock the leaf page and read.
    Drop all locks at end of transaction.

Updater (section 4.1.3)::

    IX lock the tree lock.
    S lock-couple down the tree; X lock the leaf page (same RX back-off).
    If a split/consolidation is needed, Bayer-Schkolnick safe-node descent
    is used: restart with X lock-coupling, releasing ancestors of safe
    nodes.  "This will wait for a reorganizer when it attempts to get an
    X-lock on a base page."
    When updating a base page while internal reorganization is running,
    the section 7.2 side-file interaction applies: IX the side file first
    (an instant IX + restart if the switch holds it in X).

Both protocols re-resolve the tree's *lock name* at (re)start: after the
switch, new transactions lock the new tree's name (section 7.4).
"""

from __future__ import annotations

import itertools
from typing import Any, Generator

from repro.btree.tree import BPlusTree
from repro.config import SidePointerKind
from repro.db import Database
from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    RXConflictError,
    TransactionAborted,
)
from repro.locks.modes import LockMode
from repro.locks.resources import (
    current_lock_name,
    page_lock,
    record_lock,
    sidefile_key,
    sidefile_lock,
    tree_lock,
)
from repro.storage.page import NO_PAGE, PageId, PageKind, Record
from repro.txn.ops import (
    Acquire,
    Call,
    Downgrade,
    FetchPage,
    Release,
    ReleaseAll,
    Think,
)

IS, IX, S, X, RS = (
    LockMode.IS, LockMode.IX, LockMode.S, LockMode.X, LockMode.RS,
)

#: Retries before a protocol gives up (defensive; the paper's protocols
#: always make progress, but a pathological schedule should fail loudly).
_MAX_RESTARTS = 200


def _s_couple_to_base(db: Database, tree: BPlusTree, key: int):
    """S lock-couple from the root to the base page for ``key``.

    Yields ops; returns (base_page_id, leaf_page_id) with S held on the
    base page only (ancestors released on the way down).  If the root is a
    leaf, returns (None, root_id) holding no page lock.
    """
    root_id = tree.root_id
    root = db.store.get(root_id)
    if root.kind is PageKind.LEAF:
        return None, root_id
    yield Acquire(page_lock(root_id), S)
    held = root_id
    page = root
    while page.level > 1:  # type: ignore[union-attr]
        child = page.child_for(key)  # type: ignore[union-attr]
        yield Acquire(page_lock(child), S)
        yield Release(page_lock(held), S)
        held = child
        page = db.store.get(child)
    leaf = page.child_for(key)  # type: ignore[union-attr]
    return held, leaf


def _rx_back_off(base: PageId | None):
    """Section 4.1.2's answer to an RX lock on the leaf page:

    "If it can't get an S lock on the leaf page, and the conflicting lock
    is RX: release the S lock on the base page, request an unconditional
    instant-duration RS lock on the parent base page, then re-request S on
    the base page and proceed."

    The caller then restarts its descent from the root, so the re-granted
    S is released again here.  ``base`` is None when the root is the leaf:
    no base page lock is held and the caller simply retries.
    """
    if base is None:
        return
    yield Release(page_lock(base), S)
    yield Acquire(page_lock(base), RS, instant=True)
    yield Acquire(page_lock(base), S)
    yield Release(page_lock(base), S)


def reader_search(
    db: Database,
    tree_name: str,
    key: int,
    *,
    think: float = 0.0,
) -> Generator[Any, Any, Record | None]:
    """Point lookup under the section 4.1.2 protocol; returns the record."""
    name = current_lock_name(db, tree_name)
    yield Acquire(tree_lock(name), IS)
    for _ in range(_MAX_RESTARTS):
        tree = db.tree(tree_name)
        base, leaf = yield from _s_couple_to_base(db, tree, key)
        try:
            yield Acquire(page_lock(leaf), S)
        except RXConflictError:
            yield from _rx_back_off(base)
            continue
        if base is not None:
            yield Release(page_lock(base), S)
        page = yield FetchPage(leaf)
        if think:
            yield Think(think)
        result = page.get(key) if page.contains(key) else None
        break
    else:
        raise TransactionAborted(f"reader for key {key} starved")
    yield ReleaseAll()
    return result


def reader_search_record_locking(
    db: Database,
    tree_name: str,
    key: int,
    *,
    think: float = 0.0,
) -> Generator[Any, Any, Record | None]:
    """Point lookup with record-level locking (the section 4.1.2 aside):

    "Often an S lock is first requested on the page, then the read takes
    place, then the S lock on the page is downgraded to IS lock while an S
    lock on the read record is held to the end of transaction."
    """
    name = current_lock_name(db, tree_name)
    yield Acquire(tree_lock(name), IS)
    for _ in range(_MAX_RESTARTS):
        tree = db.tree(tree_name)
        base, leaf = yield from _s_couple_to_base(db, tree, key)
        try:
            yield Acquire(page_lock(leaf), S)
        except RXConflictError:
            yield from _rx_back_off(base)
            continue
        if base is not None:
            yield Release(page_lock(base), S)
        page = yield FetchPage(leaf)
        result = page.get(key) if page.contains(key) else None
        if result is not None:
            # Hold the record S to end of transaction; shrink the page
            # lock to IS so concurrent record-level updaters of *other*
            # records on the page can proceed.
            yield Acquire(record_lock(key), S)
            yield Downgrade(page_lock(leaf), S, LockMode.IS)
        if think:
            yield Think(think)
        break
    else:
        raise TransactionAborted(f"reader for key {key} starved")
    yield ReleaseAll()
    return result


def reader_range_scan(
    db: Database,
    tree_name: str,
    low: int,
    high: int,
    *,
    think_per_page: float = 0.0,
) -> Generator[Any, Any, list[Record]]:
    """Range scan: S lock-couple to the first leaf, then walk successors,
    S locking each leaf before reading it (locks held to end of scan to
    keep the read set stable)."""
    name = current_lock_name(db, tree_name)
    yield Acquire(tree_lock(name), IS)
    out: list[Record] = []
    for _ in range(_MAX_RESTARTS):
        out.clear()
        tree = db.tree(tree_name)
        base, leaf = yield from _s_couple_to_base(db, tree, low)
        restart = False
        passed = -1
        while True:
            try:
                yield Acquire(page_lock(leaf), S)
            except RXConflictError:
                if base is not None:
                    yield Release(page_lock(base), S)
                    yield Acquire(page_lock(base), RS, instant=True)
                restart = True
                break
            if base is not None:
                yield Release(page_lock(base), S)
                base = None
            page = yield FetchPage(leaf)
            if think_per_page:
                yield Think(think_per_page)
            done = False
            returned = len(out)
            for record in page.iter_from(low):
                if record.key > high:
                    done = True
                    break
                out.append(record)
            if done:
                break
            passed = 0 if len(out) > returned else passed + 1
            probe = out[-1].key if out else low
            next_leaf = yield Call(
                lambda leaf_id=leaf, probe=probe, passed=passed: (
                    _successor_leaf(db, tree_name, leaf_id, probe, passed)
                )
            )
            if next_leaf is None:
                break
            leaf = next_leaf
        if not restart:
            break
    else:
        raise TransactionAborted("range scan starved")
    yield ReleaseAll()
    return out


def _successor_leaf(
    db: Database, tree_name: str, leaf_id: PageId, probe: int, passed: int
) -> PageId | None:
    """The leaf a scan visits after ``leaf_id``, or None at the end.

    ``probe`` is the largest key the scan returned so far (``low`` before
    any), and ``passed`` counts the leaves it visited after the leaf
    ``probe`` routes to.  Without side pointers an empty leaf has no key
    to descend by, so its successor is the (``passed`` + 1)-th leaf after
    that one on the leaf cursor.  Sound because the scan holds an S lock
    on every leaf in between.
    """
    tree = db.tree(tree_name)
    leaf = db.store.get_leaf(leaf_id)
    if leaf.is_empty and tree.side_pointers is SidePointerKind.NONE:
        leaf_ids = tree.leaf_ids_from(probe)
        next_id = next(itertools.islice(leaf_ids, passed + 1, None), NO_PAGE)
    else:
        next_id = tree.successor_leaf_id(leaf)
    return next_id if next_id >= 0 else None


def updater_insert(
    db: Database,
    tree_name: str,
    record: Record,
    *,
    think: float = 0.0,
) -> Generator[Any, Any, bool]:
    """Insert under the section 4.1.3 protocol; returns True on success."""
    return (
        yield from _updater(db, tree_name, record.key, ("insert", record), think)
    )


def updater_delete(
    db: Database,
    tree_name: str,
    key: int,
    *,
    think: float = 0.0,
) -> Generator[Any, Any, bool]:
    """Delete under the section 4.1.3 protocol; returns True on success."""
    return (yield from _updater(db, tree_name, key, ("delete", key), think))


def _updater(db, tree_name, key, action, think):
    name = current_lock_name(db, tree_name)
    yield Acquire(tree_lock(name), IX)
    for _ in range(_MAX_RESTARTS):
        tree = db.tree(tree_name)
        base, leaf = yield from _s_couple_to_base(db, tree, key)
        try:
            yield Acquire(page_lock(leaf), X)
        except RXConflictError:
            yield from _rx_back_off(base)
            continue
        needs_structure = yield Call(
            lambda t=tree: _needs_structural_change(db, t, leaf, action)
        )
        if not needs_structure:
            if base is not None:
                yield Release(page_lock(base), S)
            if think:
                yield Think(think)
            success = yield Call(lambda t=tree: _apply_action(t, action))
            break
        # Bayer-Schkolnick: release all page locks and restart with
        # X lock-coupling down to the base page; "this will wait for a
        # reorganizer when it attempts to get an X-lock on a base page".
        yield Release(page_lock(leaf), X)
        if base is not None:
            yield Release(page_lock(base), S)
        outcome = yield from _structural_update(db, tree_name, key, action, think)
        if outcome is False:
            continue  # switch invalidated the path; retry descent
        success = bool(outcome)
        break
    else:
        raise TransactionAborted(f"updater for key {key} starved")
    yield ReleaseAll()
    return success


def _structural_update(db, tree_name, key, action, think):
    """X lock-couple to the base page and perform a split/consolidation.

    Returns True when the update was applied; False means the descent must
    be retried (switch in progress invalidated the path).
    """
    tree = db.tree(tree_name)
    root_id = tree.root_id
    root = db.store.get(root_id)
    path: list[PageId] = []
    if root.kind is not PageKind.LEAF:
        yield Acquire(page_lock(root_id), X)
        path.append(root_id)
        page = root
        while page.level > 1:  # type: ignore[union-attr]
            child = page.child_for(key)  # type: ignore[union-attr]
            yield Acquire(page_lock(child), X)
            path.append(child)
            child_page = db.store.get(child)
            # Safe-node optimization [BS77]: a non-full internal page
            # absorbs any split below it, so ancestors can be released.
            if not child_page.is_full:
                for ancestor in path[:-1]:
                    yield Release(page_lock(ancestor), X)
                path = [child]
            page = child_page
        leaf = page.child_for(key)  # type: ignore[union-attr]
        try:
            yield Acquire(page_lock(leaf), X)
        except RXConflictError:
            # Forgo and back off exactly as in the plain descent.
            base = path[-1] if path else None
            for page_id in path:
                yield Release(page_lock(page_id), X)
            if base is not None:
                yield Acquire(page_lock(base), RS, instant=True)
            return False
    # Section 7.2: while internal reorganization runs, a base-page update
    # must first IX the side file; if the side file is X-held the switch is
    # in progress -> instant IX, then restart against the new tree.
    if db.pass3_state(tree_name).reorg_bit:
        sidefile = sidefile_lock(tree_name)
        blocked = yield Call(lambda: _sidefile_switch_in_progress(db, sidefile))
        if blocked:
            yield Acquire(sidefile, IX, instant=True)
            for page_id in path:
                yield Release(page_lock(page_id), X)
            return False
        yield Acquire(sidefile, IX)
        # Record-level locking on the side-file entry being made (7.2).
        yield Acquire(sidefile_key(key), X)
    if think:
        yield Think(think)
    applied = yield Call(lambda t=tree: _apply_action(t, action))
    return True if applied else None


def _sidefile_switch_in_progress(db: Database, sidefile: tuple) -> bool:
    holders = db.locks.holders_of(sidefile)
    return any(X in modes for modes in holders.values())


def _needs_structural_change(db, tree, leaf_id, action) -> bool:
    kind, payload = action
    leaf = db.store.get_leaf(leaf_id)
    if kind == "insert":
        return leaf.is_full
    return leaf.num_items == 1 and leaf.page_id != tree.root_id


def _apply_action(tree, action) -> bool:
    kind, payload = action
    try:
        if kind == "insert":
            tree.insert(payload)
        else:
            tree.delete(payload)
        return True
    except (DuplicateKeyError, KeyNotFoundError):
        return False
