"""The pluggable invariant suite the schedule explorer checks.

Each invariant is registered with a *scope*:

* ``state``  — checked at every explored state (after every event);
* ``final``  — checked once, after the scenario's schedule has drained
  (and, for crash scenarios, after recovery);
* ``hook``   — enforced synchronously inside a lock-manager hook (the
  victim-policy check fires at the moment a deadlock victim is chosen,
  where the cycle is still observable).

Checks signal failure by raising
:class:`~repro.analysis.explorer.InvariantViolation`; the explorer
converts that into a reported violation carrying the replayable trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.explorer import InvariantViolation, World
from repro.errors import TreeInvariantError
from repro.locks.modes import LockMode, compatibility_cell
from repro.storage.page import PageKind


@dataclass(frozen=True)
class Invariant:
    name: str
    scope: str  # "state" | "final" | "hook"
    description: str
    check: Callable[[World], None]


REGISTRY: dict[str, Invariant] = {}


def register(name: str, scope: str, description: str):
    """Decorator: add a check function to the registry under ``name``."""

    def decorate(fn: Callable[[World], None]) -> Callable[[World], None]:
        REGISTRY[name] = Invariant(name, scope, description, fn)
        return fn

    return decorate


def get(names: Iterable[str] | None = None) -> list[Invariant]:
    """Resolve invariant names (``None`` = all), preserving registry order."""
    if names is None:
        return list(REGISTRY.values())
    wanted = list(names)
    unknown = [n for n in wanted if n not in REGISTRY]
    if unknown:
        raise KeyError(
            f"unknown invariant(s) {unknown}; known: {sorted(REGISTRY)}"
        )
    return [REGISTRY[n] for n in wanted]


def _owner_name(owner) -> str:
    return getattr(owner, "name", repr(owner))


# -- 1. Table-1 holder compatibility -----------------------------------------------


@register(
    "table1-compat",
    "state",
    "every pair of lock holders on a resource is Table-1 compatible; RS is "
    "never actually held; blank Table-1 cells never co-occur",
)
def check_table1(world: World) -> None:
    for resource, held in world.db.locks._holders.items():
        entries = [
            (owner, mode)
            for owner, counts in held.items()
            for mode, count in counts.items()
            if count > 0
        ]
        for owner, mode in entries:
            if mode is LockMode.RS:
                raise InvariantViolation(
                    "table1-compat",
                    f"RS held on {resource!r} by {_owner_name(owner)} — RS "
                    f"is instant-duration and must never enter the holder set",
                )
        for i, (owner_a, mode_a) in enumerate(entries):
            for owner_b, mode_b in entries[i + 1:]:
                if owner_a == owner_b:
                    continue
                cell = compatibility_cell(mode_a, mode_b)
                if cell is None:
                    raise InvariantViolation(
                        "table1-compat",
                        f"Table-1 blank cell reached on {resource!r}: "
                        f"{_owner_name(owner_a)}:{mode_a.value} with "
                        f"{_owner_name(owner_b)}:{mode_b.value}",
                    )
                if cell is False:
                    raise InvariantViolation(
                        "table1-compat",
                        f"incompatible modes co-held on {resource!r}: "
                        f"{_owner_name(owner_a)}:{mode_a.value} with "
                        f"{_owner_name(owner_b)}:{mode_b.value}",
                    )


# -- 2. reorganizer-is-always-victim ------------------------------------------------


@register(
    "victim-policy",
    "hook",
    "whenever the reorganizer is part of a deadlock cycle it is chosen as "
    "the victim (paper section 4.2); enforced at the LockManager.on_victim "
    "hook, where the cycle is observable",
)
def check_victim_policy(world: World) -> None:
    """Placeholder: the actual check runs inside the explorer's
    ``on_victim`` hook (see ``_Recorder.on_victim``), because the cycle is
    only known at victim-choice time."""


# -- 3. B+-tree structural integrity -----------------------------------------------


def _exclusive_held(world: World) -> bool:
    for held in world.db.locks._holders.values():
        for counts in held.values():
            if counts.get(LockMode.X, 0) > 0 or counts.get(LockMode.RX, 0) > 0:
                return True
    return False


@register(
    "btree-structure",
    "state",
    "key order, separator bounds, sibling chain and reachability hold at "
    "every quiescent point (no X/RX held — in-flight reorg units are "
    "allowed to be mid-surgery)",
)
def check_structure(world: World) -> None:
    exclusive = _exclusive_held(world)
    notes = world.notes
    previously_exclusive = notes.get("structure.prev_excl", False)
    notes["structure.prev_excl"] = exclusive
    if exclusive:
        # Someone is mid-update; the tree may legitimately be inconsistent.
        return
    lsn = world.db.log.last_lsn
    if not previously_exclusive and notes.get("structure.lsn") == lsn:
        return  # nothing changed since the last validation
    notes["structure.lsn"] = lsn
    try:
        world.tree().validate()
    except TreeInvariantError as err:
        raise InvariantViolation("btree-structure", str(err)) from None


# -- 4. side-file replay equivalence ------------------------------------------------


def _expected_keys(world: World) -> tuple[set[int], set[int]]:
    """(must, may): keys that must be present vs. keys whose presence is
    admissible either way (writers that aborted mid-flight)."""
    must = set(world.initial_keys)
    may: set[int] = set()
    for txn, result in world.scheduler.completed:
        write = world.writes.get(txn.name)
        if write is None or not result:
            continue  # not a writer, or a no-op (duplicate insert / miss)
        kind, key = write
        if kind == "insert":
            must.add(key)
        else:
            must.discard(key)
    for txn, _exc in world.scheduler.failed:
        write = world.writes.get(txn.name)
        if write is None:
            continue
        kind, key = write
        if kind == "insert":
            may.add(key)
        elif key in must:
            must.discard(key)
            may.add(key)
    return must, may


@register(
    "sidefile-replay",
    "final",
    "after reorg + side-file replay the tree holds exactly the records a "
    "serial execution of the committed updates would leave (aborted "
    "writers may land either way)",
)
def check_sidefile_replay(world: World) -> None:
    must, may = _expected_keys(world)
    actual = {record.key for record in world.tree().items()}
    missing = must - actual
    extra = actual - must - may
    if missing or extra:
        raise InvariantViolation(
            "sidefile-replay",
            f"final tree diverges from the sequential model: "
            f"missing={sorted(missing)} unexpected={sorted(extra)}",
        )


# -- 5. switch-protocol safety ------------------------------------------------------


@register(
    "switch-safety",
    "state",
    "the root pointer always names an allocated leaf/internal page — no "
    "process can ever observe a half-switched access path",
)
def check_switch_safety(world: World) -> None:
    tree = world.tree()
    root_id = tree.root_id
    try:
        page = world.db.store.get(root_id)
    except Exception as err:
        raise InvariantViolation(
            "switch-safety", f"root page {root_id} unreadable: {err}"
        ) from None
    if page.kind not in (PageKind.LEAF, PageKind.INTERNAL):
        raise InvariantViolation(
            "switch-safety",
            f"root page {root_id} has kind {page.kind!r}",
        )


# -- 6. linearizability of reads ----------------------------------------------------


def _admissible(world: World, key: int, found: bool) -> bool:
    """Whether some serial order of the writers has ``key`` present
    (``found``) or absent."""
    if (key in world.initial_keys) == found:
        return True
    kind = "insert" if found else "delete"
    return any(wkind == kind and wkey == key for wkind, wkey in world.writes.values())


@register(
    "read-linearizability",
    "final",
    "every completed point read, and every key in a checked range scan's "
    "range, is admissible under some serial order of the scenario's "
    "writers; scans return their keys in order; no process dies with an "
    "exception outside the scenario's expected set",
)
def check_read_linearizability(world: World) -> None:
    allowed = world.expected_failures
    for txn, exc in world.scheduler.failed:
        if not isinstance(exc, allowed):
            raise InvariantViolation(
                "read-linearizability",
                f"{txn.name} died with unexpected "
                f"{type(exc).__name__}: {exc}",
            )
    for txn, result in world.scheduler.completed:
        key = world.reads.get(txn.name)
        if key is not None and not _admissible(world, key, result is not None):
            presence = "found" if result is not None else "missed"
            raise InvariantViolation(
                "read-linearizability",
                f"{txn.name} {presence} key {key}, but no serial order "
                f"agrees",
            )
        span = world.scans.get(txn.name)
        if span is None:
            continue
        low, high = span
        keys = [record.key for record in result]
        if keys != sorted(set(keys)) or any(not low <= k <= high for k in keys):
            raise InvariantViolation(
                "read-linearizability",
                f"{txn.name} scan [{low}, {high}] returned keys out of order "
                f"or out of range: {keys}",
            )
        returned = set(keys)
        written = {wkey for _, wkey in world.writes.values()}
        known = {k for k in world.initial_keys | written if low <= k <= high}
        wrong = sorted(
            k for k in known | returned if not _admissible(world, k, k in returned)
        )
        if wrong:
            raise InvariantViolation(
                "read-linearizability",
                f"{txn.name} scan [{low}, {high}] returned {len(keys)} keys; "
                f"no serial order agrees on keys {wrong}",
            )
