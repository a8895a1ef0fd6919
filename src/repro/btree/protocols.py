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

Optimistic read path (``TreeConfig(optimistic_reads=True)``)::

    Descend from the root without any locks.  Before each page visit,
    probe the lock manager for a held RX lock (a reorganization pass is
    working on that page): if present, *downgrade* — abandon the optimistic
    attempt and run the full Table-1 locked protocol via the single
    fallback helper, preserving the paper's give-up / instant-RS semantics
    exactly where reader and reorganizer actually collide.  Otherwise
    capture the page's buffer-pool version stamp, pay the simulated fetch,
    and validate the stamp after resuming; a mismatch restarts the descent
    (bounded by the same ``_MAX_RESTARTS``).  Range scans validate the
    whole visited-leaf set at every successor step and once more when the
    scan completes, so the result equals a locked scan of the tree at the
    final validation instant.  See ``docs/optimistic_reads.md`` for the
    correctness argument.

    The only lock-manager traffic the optimistic path generates is the
    ``rx_is_held`` probe, which is not an acquire call — hence the large
    lock-traffic reduction on read-mostly workloads
    (``benchmarks/test_bench_features.py``).
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


class OptimisticStats:
    """Counters for the optimistic read path.

    Kept apart from :class:`repro.perf.PerfCounters`, which counts the
    four hot subsystems; :data:`OPTIMISTIC_STATS` is what the auto-reorg
    daemon's optimistic-burst deferral reads.
    """

    __slots__ = ("searches", "scans", "restarts", "downgrades", "validations")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.searches = 0
        self.scans = 0
        self.restarts = 0
        self.downgrades = 0
        self.validations = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


#: Process-wide accounting for optimistic descents/scans (reset per bench).
OPTIMISTIC_STATS = OptimisticStats()

#: Sentinel returned by the scan's validated-successor step when a visited
#: leaf changed under the scan (distinct from None = end of chain).
_CONFLICT = object()


def _optimistic_enabled(db) -> bool:
    config = getattr(db, "config", None)
    return config is not None and getattr(config, "optimistic_reads", False)


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


def reader_search(
    db: Database,
    tree_name: str,
    key: int,
    *,
    think: float = 0.0,
) -> Generator[Any, Any, Record | None]:
    """Point lookup; returns the record (or None).

    Dispatches on ``TreeConfig.optimistic_reads``: off (the default) runs
    the section 4.1.2 locked protocol byte-identically to the historical
    code; on, the latch-free validated descent.
    """
    if _optimistic_enabled(db):
        return (
            yield from _optimistic_reader_search(db, tree_name, key, think=think)
        )
    return (yield from _locked_reader_search(db, tree_name, key, think=think))


def _locked_reader_search(
    db: Database,
    tree_name: str,
    key: int,
    *,
    think: float = 0.0,
) -> Generator[Any, Any, Record | None]:
    """Point lookup under the section 4.1.2 protocol; returns the record."""
    name = current_lock_name(db, tree_name)
    yield Acquire(tree_lock(name), IS)
    result: Record | None = None
    try:
        for _ in range(_MAX_RESTARTS):
            tree = db.tree(tree_name)
            base, leaf = yield from _s_couple_to_base(db, tree, key)
            try:
                yield Acquire(page_lock(leaf), S)
            except RXConflictError:
                # The conflicting lock is RX: forgo, release the base-page
                # S lock, wait via an instant-duration RS on the base page,
                # then re-request S on the base page and retry the read.
                if base is not None:
                    yield Release(page_lock(base), S)
                    yield Acquire(page_lock(base), RS, instant=True)
                    yield Acquire(page_lock(base), S)
                    yield Release(page_lock(base), S)
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
    finally:
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
    result: Record | None = None
    try:
        for _ in range(_MAX_RESTARTS):
            tree = db.tree(tree_name)
            base, leaf = yield from _s_couple_to_base(db, tree, key)
            try:
                yield Acquire(page_lock(leaf), S)
            except RXConflictError:
                if base is not None:
                    yield Release(page_lock(base), S)
                    yield Acquire(page_lock(base), RS, instant=True)
                    yield Acquire(page_lock(base), S)
                    yield Release(page_lock(base), S)
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
    finally:
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
    """Range scan [low, high]; dispatches like :func:`reader_search`."""
    if _optimistic_enabled(db):
        return (
            yield from _optimistic_reader_range_scan(
                db, tree_name, low, high, think_per_page=think_per_page
            )
        )
    return (
        yield from _locked_reader_range_scan(
            db, tree_name, low, high, think_per_page=think_per_page
        )
    )


def _locked_reader_range_scan(
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
    try:
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
    finally:
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
    that one on the leaf cursor.  Sound because every leaf in between is
    S-locked (locked scan) or in the validated read set (optimistic scan).
    """
    tree = db.tree(tree_name)
    leaf = db.store.get_leaf(leaf_id)
    if leaf.is_empty and tree.side_pointers is SidePointerKind.NONE:
        leaf_ids = tree.leaf_ids_from(probe)
        next_id = next(itertools.islice(leaf_ids, passed + 1, None), NO_PAGE)
    else:
        next_id = tree.successor_leaf_id(leaf)
    return next_id if next_id >= 0 else None


# -- optimistic read path ---------------------------------------------------


def _optimistic_downgrade(db, tree_name, locked_protocol, *args, **kwargs):
    """The single Table-1 fallback site of the optimistic read path.

    When a validating reader observes a page under RX — a pass-1 group
    move or the pass-3 switch in flight — it abandons the lock-free
    attempt and runs the full locked protocol, whose give-up / instant-RS
    handling then applies unchanged.  Every locked fallback MUST go
    through this helper (enforced by the ``optimistic-lock-free``
    reprolint rule); optimistic code never touches the lock manager
    directly except for the read-only ``rx_is_held`` probe.
    """
    OPTIMISTIC_STATS.downgrades += 1
    return (yield from locked_protocol(db, tree_name, *args, **kwargs))


def _optimistic_reader_search(
    db: Database,
    tree_name: str,
    key: int,
    *,
    think: float = 0.0,
) -> Generator[Any, Any, Record | None]:
    """Latch-free point lookup: validated descent, no lock acquisition.

    DES atomicity makes the validation airtight: the RX probe, the version
    capture and the page fetch of a ``FetchPage`` all execute in the same
    scheduler step, so the only window a mutation can slip into is the
    simulated fetch delay — exactly what the post-resume validation
    covers.  The child-pointer read after a successful validation is
    likewise atomic with the next capture.
    """
    store = db.store
    locks = db.locks
    OPTIMISTIC_STATS.searches += 1
    result: Record | None = None
    try:
        for _ in range(_MAX_RESTARTS):
            tree = db.tree(tree_name)
            pid = tree.root_id
            restart = False
            while True:
                if locks.rx_is_held(page_lock(pid)):
                    result = yield from _optimistic_downgrade(
                        db, tree_name, _locked_reader_search, key, think=think
                    )
                    return result
                ver = store.version_of(pid)
                page = yield FetchPage(pid)
                OPTIMISTIC_STATS.validations += 1
                if store.version_of(pid) != ver:
                    OPTIMISTIC_STATS.restarts += 1
                    if locks.rx_is_held(page_lock(pid)):
                        result = yield from _optimistic_downgrade(
                            db, tree_name, _locked_reader_search, key,
                            think=think,
                        )
                        return result
                    restart = True
                    break
                step = tree.descend_step(page, key)
                if step is None:
                    # Reached the leaf.  A think pause re-opens the race
                    # window, so re-validate before the read; the read
                    # itself is atomic with the validation.
                    if think:
                        yield Think(think)
                        if store.version_of(pid) != ver:
                            OPTIMISTIC_STATS.restarts += 1
                            restart = True
                            break
                    result = page.get(key) if page.contains(key) else None
                    return result
                pid = step
            if not restart:
                break
        else:
            raise TransactionAborted(f"optimistic reader for key {key} starved")
    finally:
        yield ReleaseAll()
    return result


def _optimistic_reader_range_scan(
    db: Database,
    tree_name: str,
    low: int,
    high: int,
    *,
    think_per_page: float = 0.0,
) -> Generator[Any, Any, list[Record]]:
    """Latch-free range scan over the leaf chain.

    The locked scan keeps its read set stable by holding every visited
    leaf's S lock to the end of the scan; the optimistic scan gets the
    same guarantee by *re-validating the whole visited-leaf set* — at
    every successor step (inside the synchronous ``Call``, atomic with
    the successor computation) and once more when the chain walk
    completes.  If every visited leaf still carries the version it was
    read at, the collected records equal a locked scan of the tree at
    that final instant; any interleaved mutation of a visited leaf bumps
    its stamp and restarts the scan from scratch.
    """
    store = db.store
    locks = db.locks
    OPTIMISTIC_STATS.scans += 1
    out: list[Record] = []
    try:
        for _ in range(_MAX_RESTARTS):
            out.clear()
            tree = db.tree(tree_name)
            pid = tree.root_id
            restart = False
            page = None
            ver = 0
            # Descent to the leaf containing `low`.
            while True:
                if locks.rx_is_held(page_lock(pid)):
                    out = yield from _optimistic_downgrade(
                        db, tree_name, _locked_reader_range_scan, low, high,
                        think_per_page=think_per_page,
                    )
                    return out
                ver = store.version_of(pid)
                page = yield FetchPage(pid)
                OPTIMISTIC_STATS.validations += 1
                if store.version_of(pid) != ver:
                    OPTIMISTIC_STATS.restarts += 1
                    if locks.rx_is_held(page_lock(pid)):
                        out = yield from _optimistic_downgrade(
                            db, tree_name, _locked_reader_range_scan, low,
                            high, think_per_page=think_per_page,
                        )
                        return out
                    restart = True
                    break
                step = tree.descend_step(page, low)
                if step is None:
                    break
                pid = step
            if restart:
                continue
            # Leaf-chain walk; `visited` is the optimistic read set.
            visited: list[tuple[PageId, int]] = [(pid, ver)]
            passed = -1
            while True:
                if think_per_page:
                    yield Think(think_per_page)
                    if not _versions_current(store, visited):
                        OPTIMISTIC_STATS.restarts += 1
                        restart = True
                        break
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
                    lambda leaf_id=pid, read_set=tuple(visited), probe=probe, passed=passed: (
                        _validated_successor(
                            db, tree_name, leaf_id, read_set, probe, passed
                        )
                    )
                )
                if next_leaf is _CONFLICT:
                    OPTIMISTIC_STATS.restarts += 1
                    restart = True
                    break
                if next_leaf is None:
                    break
                pid = next_leaf
                if locks.rx_is_held(page_lock(pid)):
                    out = yield from _optimistic_downgrade(
                        db, tree_name, _locked_reader_range_scan, low, high,
                        think_per_page=think_per_page,
                    )
                    return out
                ver = store.version_of(pid)
                page = yield FetchPage(pid)
                OPTIMISTIC_STATS.validations += 1
                if store.version_of(pid) != ver:
                    OPTIMISTIC_STATS.restarts += 1
                    restart = True
                    break
                visited.append((pid, ver))
            if restart:
                continue
            # Final whole-set validation: no yield between this check and
            # returning `out`, so the scan linearizes here.
            if _versions_current(store, visited):
                break
            OPTIMISTIC_STATS.restarts += 1
        else:
            raise TransactionAborted("optimistic range scan starved")
    finally:
        yield ReleaseAll()
    return out


def _versions_current(store, visited) -> bool:
    version_of = store.version_of
    return all(version_of(pid) == ver for pid, ver in visited)


def _validated_successor(db, tree_name, leaf_id, read_set, probe, passed):
    """Successor leaf id (:func:`_successor_leaf`), atomically validated
    against the scan's read set.

    Runs synchronously inside a ``Call`` — one scheduler step — so the
    whole-set validation and the successor computation cannot interleave
    with a mutation.  Returns ``_CONFLICT`` when any visited leaf changed.
    """
    if not _versions_current(db.store, read_set):
        return _CONFLICT
    return _successor_leaf(db, tree_name, leaf_id, probe, passed)


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
    success = False
    try:
        for _ in range(_MAX_RESTARTS):
            tree = db.tree(tree_name)
            base, leaf = yield from _s_couple_to_base(db, tree, key)
            try:
                yield Acquire(page_lock(leaf), X)
            except RXConflictError:
                # Same back-off as the reader, via an instant RS.
                if base is not None:
                    yield Release(page_lock(base), S)
                    yield Acquire(page_lock(base), RS, instant=True)
                    yield Acquire(page_lock(base), S)
                    yield Release(page_lock(base), S)
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
    finally:
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
