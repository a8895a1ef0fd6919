"""The lock manager.

Implements the paper's locking machinery (section 4):

* grants and FIFO wait queues over arbitrary hashable resources (the tree
  lock, page locks, record locks, the side file and its keys);
* **RX conflict signalling** — a request that conflicts with a *held* RX
  lock is not enqueued; the requester is told to forgo it
  (:class:`~repro.errors.RXConflictError`), so it can run the paper's
  back-off protocol: release the base-page lock and wait via an
  unconditional instant-duration RS lock (a requester that is itself a
  reorganizer has no such back-off and simply waits);
* **instant-duration requests** — "the lock is not to be actually granted,
  but the lock manager has to delay returning the lock call with the
  success status until the lock becomes grantable" ([Moh90]);
* **conversions** (R -> X for posting base-page updates, S -> X, ...) with
  priority over queued requests;
* **deadlock detection** over a waits-for graph, with the paper's victim
  policy: "Whenever the reorganizer gets in a deadlock, we always force the
  reorganizer to give up its lock."

The manager is synchronous and scheduler-agnostic: ``request`` returns
something whose ``state`` is GRANTED, WAITING, or (for instant requests
that could be satisfied immediately) INSTANT_DONE.  Only a request that
waits is a :class:`LockRequest` of its own; an immediate grant returns a
shared outcome and allocates nothing.  The discrete-event scheduler
attaches ``on_grant`` / ``on_deadlock`` callbacks to waiting requests and
is woken by them.
"""

from __future__ import annotations

import enum
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from repro.errors import (
    LockNotHeldError,
    LockProtocolViolation,
    RXConflictError,
)
from repro.locks.modes import LockMode, can_upgrade, compatibility_cell, compatible
from repro.metrics import StatsDeltaMixin
from repro.perf import PERF

#: See storage/buffer.py: reset() clears in place, the alias stays valid.
_COUNTERS = PERF.counters

Resource = Hashable
Owner = Hashable

#: Bound once: looking a member up on an Enum class costs about as much as
#: the rest of an uncontended request.
R, RS, RX, X = LockMode.R, LockMode.RS, LockMode.RX, LockMode.X


class RequestState(enum.Enum):
    GRANTED = "granted"
    WAITING = "waiting"
    #: An instant-duration request that was satisfiable at once (or became
    #: so later): success was reported but nothing is held.
    INSTANT_DONE = "instant_done"
    #: Chosen as a deadlock victim while waiting.
    DEADLOCK = "deadlock"
    #: Cancelled by the owner (e.g. RX back-off releases its request).
    CANCELLED = "cancelled"


@dataclass(slots=True)
class LockRequest:
    """One lock (or conversion) request and its lifecycle."""

    owner: Owner
    resource: Resource
    mode: LockMode
    instant: bool = False
    #: For conversions: the mode being upgraded from (None = fresh request).
    convert_from: LockMode | None = None
    state: RequestState = RequestState.WAITING
    on_grant: Callable[["LockRequest"], None] | None = None
    on_deadlock: Callable[["LockRequest"], None] | None = None
    _seq: int = field(default_factory=itertools.count().__next__)

    @property
    def done(self) -> bool:
        return self.state in (RequestState.GRANTED, RequestState.INSTANT_DONE)


class _Immediate:
    """What ``request`` / ``convert`` return for a grant that never waited:
    one shared, unchanging outcome instead of a :class:`LockRequest`."""

    __slots__ = ("state",)
    done = True

    def __init__(self, state: RequestState):
        self.state = state

    def __repr__(self) -> str:
        return f"<{self.state.value}>"


_GRANTED = _Immediate(RequestState.GRANTED)
_INSTANT_DONE = _Immediate(RequestState.INSTANT_DONE)


@dataclass
class LockStats(StatsDeltaMixin):
    """Counters for the concurrency benchmarks (E2, E5)."""

    requests: int = 0
    immediate_grants: int = 0
    #: Immediate grants that skipped the conflict scan entirely (the
    #: resource had no holders and no waiters).  Subset of
    #: ``immediate_grants``.
    fast_path_grants: int = 0
    waits: int = 0
    rx_rejections: int = 0
    deadlocks: int = 0
    conversions: int = 0


class LockManager:
    """Grants, queues and converts locks per Table 1."""

    def __init__(self):
        #: resource -> owner -> {mode: count} of held modes (ref-counted;
        #: a mode is present only while its count is positive, an owner
        #: only while it holds a mode, a resource only while held).
        self._holders: dict[Resource, dict[Owner, dict[LockMode, int]]] = {}
        #: owner -> the resources it has an entry for in ``_holders``, so
        #: ``release_all`` touches only the owner's own locks.
        self._owned: defaultdict[Owner, set[Resource]] = defaultdict(set)
        #: resource -> FIFO list of waiting requests.
        self._queues: dict[Resource, list[LockRequest]] = {}
        self.stats = LockStats()
        #: Explorer choice point (``repro.analysis.explorer``): when set,
        #: permutes a multi-entry wait queue before each dispatch scan,
        #: modelling the grant orders that different arrival interleavings
        #: would have produced.  Must return a permutation of its input.
        #: ``None`` (production) costs one attribute test per *contended*
        #: dispatch; the uncontended fast path never reaches it.
        self.grant_order: Callable[[Resource, list[LockRequest]], list[LockRequest]] | None = None
        #: Observer called as ``on_victim(cycle, victim)`` after every
        #: deadlock victim choice — the hook behind the explorer's
        #: reorganizer-is-always-victim invariant.  ``None`` in production.
        self.on_victim: Callable[[list[Owner], Owner], None] | None = None

    # -- queries ------------------------------------------------------------

    def holders_of(self, resource: Resource) -> dict[Owner, list[LockMode]]:
        held = self._holders.get(resource, {})
        return {
            owner: [
                mode
                for mode in sorted(counts, key=lambda m: m.value)
                for _ in range(counts[mode])
            ]
            for owner, counts in held.items()
        }

    def rx_is_held(self, resource: Resource) -> bool:
        """Cheap probe: is any RX lock held on ``resource``?

        The optimistic read path calls this before every lock-free page
        visit to decide whether to downgrade to the Table-1 locked
        protocol, so it must not touch ``stats`` (it is not a lock-manager
        acquire call) and must not build the ``holders_of`` dicts.
        """
        held = self._holders.get(resource)
        if not held:
            return False
        return any(RX in counts for counts in held.values())

    def held_modes(self, owner: Owner, resource: Resource) -> list[LockMode]:
        counts = self._holders.get(resource, {}).get(owner)
        return sorted(counts, key=lambda m: m.value) if counts else []

    def holds(self, owner: Owner, resource: Resource, mode: LockMode) -> bool:
        counts = self._holders.get(resource, {}).get(owner)
        return counts is not None and mode in counts

    def waiters_of(self, resource: Resource) -> list[LockRequest]:
        return list(self._queues.get(resource, ()))

    def waiting_request(self, owner: Owner) -> LockRequest | None:
        for queue in self._queues.values():
            for request in queue:
                if request.owner == owner:
                    return request
        return None

    def owned_resources(self, owner: Owner) -> list[Resource]:
        return [
            resource
            for resource, held in self._holders.items()
            if owner in held
        ]

    # -- requesting -----------------------------------------------------------

    def request(
        self,
        owner: Owner,
        resource: Resource,
        mode: LockMode,
        *,
        instant: bool = False,
        on_grant: Callable[[LockRequest], None] | None = None,
        on_deadlock: Callable[[LockRequest], None] | None = None,
    ) -> LockRequest | _Immediate:
        """Request ``mode`` on ``resource``; returns its outcome.

        The outcome's ``state`` is GRANTED (lock held), INSTANT_DONE
        (instant request satisfiable now), or WAITING — then it is the
        enqueued :class:`LockRequest`.  A conflict with a held RX lock
        raises :class:`~repro.errors.RXConflictError` instead — the paper's
        forgo-and-back-off signal.
        """
        if mode is RS and not instant:
            raise LockProtocolViolation(
                "RS must be requested as an instant-duration lock"
            )
        stats = self.stats
        stats.requests += 1
        held = self._holders.get(resource)
        if held is None and resource not in self._queues:
            # Uncontended fast path: nothing held and nobody queued, so any
            # mode is grantable outright — skip the conflict scan and the
            # earlier-waiter check.  Table-1 outcomes are unchanged because
            # both checks are vacuous on an untouched resource.
            stats.immediate_grants += 1
            stats.fast_path_grants += 1
            _COUNTERS.lock_fast_grants += 1
            if instant:
                return _INSTANT_DONE
            self._holders[resource] = {owner: {mode: 1}}
            self._owned[owner].add(resource)
            return _GRANTED
        if held is not None and not instant:
            own_counts = held.get(owner)
            if own_counts is not None and mode in own_counts:
                # Re-request of an already held mode: just bump the count.
                own_counts[mode] += 1
                stats.immediate_grants += 1
                return _GRANTED

        self._check_blank_with_waiters(owner, resource, mode)
        conflict_holder = self._first_conflicting_holder(owner, resource, mode)
        if conflict_holder is None:
            if not self._blocked_by_earlier_waiter(owner, resource, mode):
                stats.immediate_grants += 1
                _COUNTERS.lock_slow_grants += 1
                if instant:
                    return _INSTANT_DONE
                self._hold(owner, resource, mode)
                return _GRANTED
        else:
            holder_owner, holder_mode = conflict_holder
            if holder_mode is RX and not getattr(
                owner, "is_reorganizer", False
            ):
                # Paper: "a conflicting request causes the requester to
                # forgo the conflicting request".  That is the user
                # transactions' back-off; a parallel reorganizer worker
                # meeting another worker's RX (a section 4.3 neighbour lock
                # at a partition boundary) waits as it would on X, and a
                # cycle goes to the deadlock detector.
                stats.rx_rejections += 1
                raise RXConflictError(
                    f"{mode.value} request on {resource!r} conflicts with "
                    f"RX held by {holder_owner!r}",
                    resource=resource,
                    holder=holder_owner,
                )
        request = LockRequest(
            owner, resource, mode,
            instant=instant, on_grant=on_grant, on_deadlock=on_deadlock,
        )
        self._queues.setdefault(resource, []).append(request)
        stats.waits += 1
        _COUNTERS.lock_waits += 1
        return request

    def convert(
        self,
        owner: Owner,
        resource: Resource,
        to_mode: LockMode,
        *,
        on_grant: Callable[[LockRequest], None] | None = None,
        on_deadlock: Callable[[LockRequest], None] | None = None,
    ) -> LockRequest | _Immediate:
        """Convert a held lock to a stronger mode (e.g. R -> X, section 4.1.1).

        Conversions are queued ahead of fresh requests.  The *strongest*
        currently held convertible mode is upgraded.
        """
        held = self._holders.get(resource, {}).get(owner)
        if not held:
            raise LockNotHeldError(
                f"{owner!r} holds no lock on {resource!r} to convert"
            )
        from_mode = self._pick_conversion_source(held, to_mode)
        self.stats.requests += 1
        self.stats.conversions += 1
        conflict = self._first_conflicting_holder(owner, resource, to_mode)
        if conflict is None:
            self._apply_conversion(owner, resource, from_mode, to_mode)
            self.stats.immediate_grants += 1
            return _GRANTED
        if conflict[1] is RX:
            self.stats.rx_rejections += 1
            raise RXConflictError(
                f"conversion to {to_mode.value} on {resource!r} conflicts "
                f"with a held RX lock",
                resource=resource,
            )
        # Conversions go to the front of the queue (before other
        # conversions already there stay in order).
        queue = self._queues.setdefault(resource, [])
        insert_at = 0
        while insert_at < len(queue) and queue[insert_at].convert_from is not None:
            insert_at += 1
        request = LockRequest(
            owner, resource, to_mode,
            convert_from=from_mode, on_grant=on_grant, on_deadlock=on_deadlock,
        )
        queue.insert(insert_at, request)
        self.stats.waits += 1
        return request

    @staticmethod
    def _pick_conversion_source(
        held: dict[LockMode, int], to_mode: LockMode
    ) -> LockMode:
        candidates = [m for m in held if can_upgrade(m, to_mode)]
        if not candidates:
            raise LockProtocolViolation(
                f"no held mode of {sorted(m.value for m in held)} "
                f"converts to {to_mode.value}"
            )
        # Prefer the strongest source (R over S over IX over IS) so the
        # conversion releases as little as possible.
        order = [LockMode.R, LockMode.S, LockMode.IX, LockMode.IS]
        for mode in order:
            if mode in candidates:
                return mode
        return candidates[0]

    def downgrade(
        self, owner: Owner, resource: Resource, from_mode: LockMode,
        to_mode: LockMode,
    ) -> None:
        """Replace a held lock with a weaker one, waking anyone it admits.

        Section 4.1.2 describes the classical pattern: "Often an S lock is
        first requested on the page, then the read takes place, then the S
        lock on the page is downgraded to IS lock while an S lock on the
        read record is held to the end of transaction."  Downgrades never
        wait; they can only make more requests grantable.
        """
        if not can_upgrade(to_mode, from_mode):
            raise LockProtocolViolation(
                f"{from_mode.value} does not downgrade to {to_mode.value}"
            )
        counts = self._holders.get(resource, {}).get(owner)
        if counts is None or from_mode not in counts:
            raise LockNotHeldError(
                f"{owner!r} does not hold {from_mode.value} on {resource!r}"
            )
        _drop_one(counts, from_mode)
        counts[to_mode] = counts.get(to_mode, 0) + 1
        self._dispatch(resource)

    # -- releasing -----------------------------------------------------------

    def release(self, owner: Owner, resource: Resource, mode: LockMode) -> None:
        """Release one reference to a held lock."""
        held = self._holders.get(resource)
        counts = held.get(owner) if held is not None else None
        if counts is None or mode not in counts:
            raise LockNotHeldError(
                f"{owner!r} does not hold {mode.value} on {resource!r}"
            )
        _drop_one(counts, mode)
        if not counts:
            del held[owner]
            owned = self._owned[owner]
            owned.discard(resource)
            if not owned:
                del self._owned[owner]
            if not held:
                del self._holders[resource]
        if resource in self._queues:
            self._dispatch(resource)

    def release_all(self, owner: Owner) -> None:
        """Release every lock held by ``owner`` (end of transaction).

        Waiters are woken resource by resource in holder-table order — the
        order a scan of the whole table would meet them in — not in the
        order ``owner`` happened to acquire its locks.
        """
        owned = self._owned.pop(owner, None)
        if not owned:
            return
        holders = self._holders
        queues = self._queues
        queued = [resource for resource in owned if resource in queues]
        if len(queued) > 1:
            position = {resource: i for i, resource in enumerate(holders)}
            queued.sort(key=position.__getitem__)
        for resource in owned:
            held = holders[resource]
            del held[owner]
            if not held:
                del holders[resource]
        for resource in queued:
            self._dispatch(resource)

    def cancel_wait(self, owner: Owner) -> None:
        """Withdraw any waiting request of ``owner`` (back-off / abort)."""
        for resource, queue in list(self._queues.items()):
            kept = []
            for request in queue:
                if request.owner == owner:
                    request.state = RequestState.CANCELLED
                else:
                    kept.append(request)
            if kept:
                self._queues[resource] = kept
            else:
                self._queues.pop(resource, None)
            if len(kept) != len(queue):
                self._dispatch(resource)

    # -- crash simulation -------------------------------------------------------

    def crash(self) -> None:
        """The lock table is volatile; a crash empties it."""
        self._holders.clear()
        self._owned.clear()
        self._queues.clear()

    # -- deadlock detection --------------------------------------------------------

    def build_waits_for(self) -> dict[Owner, dict[Owner, None]]:
        """Waits-for edges: waiter -> owners it is blocked by.

        A waiter is blocked by (a) every holder of a conflicting mode and
        (b) every *earlier* waiter on the same resource with a conflicting
        mode (FIFO order means it will be granted first).  Both levels are
        insertion-ordered dicts, so the cycle search — and with it the
        victim — depends on the lock table alone, never on owner hashes.
        """
        graph: dict[Owner, dict[Owner, None]] = {}
        for resource, queue in self._queues.items():
            held = self._holders.get(resource, {})
            for position, request in enumerate(queue):
                blockers: dict[Owner, None] = {}
                for holder_owner, counts in held.items():
                    if holder_owner == request.owner:
                        continue
                    if any(
                        self._conflicts(held_mode, request.mode)
                        for held_mode in counts
                    ):
                        blockers[holder_owner] = None
                for earlier in queue[:position]:
                    if earlier.owner == request.owner or earlier.instant:
                        continue
                    if self._conflicts(earlier.mode, request.mode):
                        blockers[earlier.owner] = None
                if blockers:
                    graph.setdefault(request.owner, {}).update(blockers)
        return graph

    def find_deadlock_cycle(self) -> list[Owner] | None:
        """Find one cycle in the waits-for graph, or None."""
        graph = self.build_waits_for()
        visiting: list[Owner] = []
        visited: set[Owner] = set()

        def dfs(node: Owner) -> list[Owner] | None:
            if node in visiting:
                return visiting[visiting.index(node):]
            if node in visited:
                return None
            visiting.append(node)
            for neighbour in graph.get(node, ()):
                cycle = dfs(neighbour)
                if cycle is not None:
                    return cycle
            visiting.pop()
            visited.add(node)
            return None

        for start in list(graph):
            cycle = dfs(start)
            if cycle is not None:
                return cycle
        return None

    def resolve_deadlocks(self) -> list[Owner]:
        """Detect and break all deadlock cycles; returns the victims.

        Victim choice per the paper: a reorganizer in the cycle always
        yields; otherwise the owner with the largest ``_seq``-style identity
        (we use the waiting request's sequence number, i.e. the youngest
        request) is chosen.
        """
        victims: list[Owner] = []
        while True:
            cycle = self.find_deadlock_cycle()
            if cycle is None:
                return victims
            victim = self._choose_victim(cycle)
            if self.on_victim is not None:
                self.on_victim(list(cycle), victim)
            victims.append(victim)
            self.stats.deadlocks += 1
            self._deliver_deadlock(victim)

    def _choose_victim(self, cycle: list[Owner]) -> Owner:
        reorgs = [
            owner
            for owner in cycle
            if getattr(owner, "is_reorganizer", False)
        ]
        if len(reorgs) == 1:
            return reorgs[0]
        if reorgs:
            # Several shard reorganizers deadlocked with each other: pick
            # deterministically by shard tag, then transaction id, so the
            # sharded schedule stays replayable.
            return min(
                reorgs,
                key=lambda o: (
                    str(getattr(o, "shard", None) or ""),
                    getattr(o, "txn_id", 0),
                ),
            )
        # Youngest waiting request loses.
        def seq_of(owner: Owner) -> int:
            request = self.waiting_request(owner)
            return request._seq if request is not None else -1

        return max(cycle, key=seq_of)

    def _deliver_deadlock(self, victim: Owner) -> None:
        for resource, queue in list(self._queues.items()):
            kept = []
            for request in queue:
                if request.owner == victim:
                    request.state = RequestState.DEADLOCK
                    if request.on_deadlock is not None:
                        request.on_deadlock(request)
                else:
                    kept.append(request)
            if kept:
                self._queues[resource] = kept
            else:
                self._queues.pop(resource, None)
            if len(kept) != len(queue):
                self._dispatch(resource)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _conflicts(granted: LockMode, requested: LockMode) -> bool:
        """Permissive conflict test for scheduling decisions.

        Blank Table-1 cells cannot conflict (the pairing never occurs
        between different requesters at the same resource *kind*; if it
        shows up across kinds in the waits-for graph we treat it as
        non-blocking rather than raising mid-analysis).
        """
        if granted is RS or requested is RS:
            # RS is never held and an RS waiter only waits for R/X.
            if requested is RS:
                return granted in (R, X)
            return False
        return compatibility_cell(granted, requested) is False

    def _check_blank_with_waiters(
        self, owner: Owner, resource: Resource, mode: LockMode
    ) -> None:
        """Reject a request that blank-pairs with a *queued* request.

        Blank Table-1 cells mean the two modes are never requested together
        on one resource, and ``_first_conflicting_holder`` raises when the
        partner is already *held* — but the partner may still be waiting
        (e.g. two R requests queued behind an X holder).  Without this
        check the violation would only surface later, inside the innocent
        holder's release when ``_dispatch`` grants the first request and
        probes the second against it — an uncatchable place.  Raising here
        keeps the failure at the offending ``request`` call.
        """
        if mode is RS:
            return  # RS blank-pairs are policed against holders only.
        for earlier in self._queues.get(resource, ()):
            if earlier.owner == owner or earlier.instant:
                continue
            if compatibility_cell(earlier.mode, mode) is None:
                raise LockProtocolViolation(
                    f"modes {earlier.mode.value} (queued) and {mode.value} "
                    f"(requested) are never requested together "
                    f"(Table 1 blank cell)"
                )

    def _first_conflicting_holder(
        self, owner: Owner, resource: Resource, mode: LockMode
    ) -> tuple[Owner, LockMode] | None:
        held = self._holders.get(resource, {})
        for holder_owner, counts in held.items():
            if holder_owner == owner:
                continue
            for held_mode in counts:
                if mode is RS:
                    # RS only ever waits for the reorganizer's R (and its
                    # short X window); Table-1 blanks still apply.
                    if compatibility_cell(held_mode, RS) is None:
                        raise LockProtocolViolation(
                            f"RS requested while {held_mode.value} is held "
                            f"(Table 1 blank cell)"
                        )
                    if held_mode in (R, X):
                        return holder_owner, held_mode
                    continue
                if not compatible(held_mode, mode):
                    return holder_owner, held_mode
        return None

    def _blocked_by_earlier_waiter(
        self, owner: Owner, resource: Resource, mode: LockMode
    ) -> bool:
        for earlier in self._queues.get(resource, ()):
            if earlier.owner == owner or earlier.instant:
                continue
            if self._conflicts(earlier.mode, mode):
                return True
        return False

    def _hold(self, owner: Owner, resource: Resource, mode: LockMode) -> None:
        held = self._holders.get(resource)
        if held is None:
            self._holders[resource] = {owner: {mode: 1}}
            self._owned[owner].add(resource)
            return
        counts = held.get(owner)
        if counts is None:
            held[owner] = {mode: 1}
            self._owned[owner].add(resource)
        else:
            counts[mode] = counts.get(mode, 0) + 1

    def _apply_conversion(
        self, owner: Owner, resource: Resource, source: LockMode, mode: LockMode
    ) -> None:
        if source is not mode:
            counts = self._holders.get(resource, {}).get(owner)
            if counts is None or source not in counts:
                raise LockNotHeldError(
                    f"conversion source {source.value} no longer held"
                )
            _drop_one(counts, source)
        self._hold(owner, resource, mode)

    def _dispatch(self, resource: Resource) -> None:
        """Grant queued requests that are now compatible, FIFO with
        conversion priority and instant-request pass-through."""
        queue = self._queues.get(resource)
        if not queue:
            return
        if self.grant_order is not None and len(queue) > 1:
            reordered = self.grant_order(resource, list(queue))
            if sorted(map(id, reordered)) != sorted(map(id, queue)):
                raise LockProtocolViolation(
                    "grant_order must return a permutation of the wait queue"
                )
            queue[:] = reordered
        progressed = True
        while progressed:
            progressed = False
            blocked_modes: list[LockMode] = []
            remaining: list[LockRequest] = []
            for request in queue:
                if self._request_grantable(request, blocked_modes):
                    if request.convert_from is not None:
                        self._apply_conversion(
                            request.owner, resource, request.convert_from,
                            request.mode,
                        )
                        request.state = RequestState.GRANTED
                    elif request.instant:
                        request.state = RequestState.INSTANT_DONE
                    else:
                        self._hold(request.owner, resource, request.mode)
                        request.state = RequestState.GRANTED
                    if request.on_grant is not None:
                        request.on_grant(request)
                    progressed = True
                else:
                    if not request.instant:
                        blocked_modes.append(request.mode)
                    remaining.append(request)
            queue[:] = remaining
            if not queue:
                self._queues.pop(resource, None)
                return

    def _request_grantable(
        self, request: LockRequest, blocked_modes: Iterable[LockMode]
    ) -> bool:
        if self._first_conflicting_holder(
            request.owner, request.resource, request.mode
        ) is not None:
            return False
        if request.convert_from is not None:
            return True  # conversions only wait on holders
        for earlier_mode in blocked_modes:
            if self._conflicts(earlier_mode, request.mode):
                return False
        return True


def _drop_one(counts: dict[LockMode, int], mode: LockMode) -> None:
    """Take one reference to held ``mode`` off an owner's counts."""
    remaining = counts[mode] - 1
    if remaining:
        counts[mode] = remaining
    else:
        del counts[mode]
