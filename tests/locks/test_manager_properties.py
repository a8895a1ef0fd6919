"""Property-based tests for the lock manager.

Hypothesis drives random sequences of request/release/convert operations
from several owners and checks global invariants after every step:

* no two holders of a resource hold incompatible modes;
* a waiting request is genuinely blocked (some holder or earlier waiter
  conflicts with it);
* after resolve_deadlocks() the waits-for graph is acyclic;
* the per-owner index of held resources agrees with the holder table;
* releasing everything leaves the manager empty.

A directed test pins the order in which ``release_all`` wakes waiters on
several resources: the order of the resources in the holder table, not
the order in which the releasing owner acquired them.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import LockError, LockProtocolViolation, RXConflictError
from repro.locks.manager import LockManager, RequestState
from repro.locks.modes import LockMode, compatibility_cell


class Owner:
    def __init__(self, name, is_reorganizer=False):
        self.name = name
        self.is_reorganizer = is_reorganizer

    def __repr__(self):
        return self.name


#: Modes as user transactions and the reorganizer actually request them,
#: on the resource kinds where they are defined (avoids blank-cell noise).
LEAF_MODES = [LockMode.IS, LockMode.IX, LockMode.S, LockMode.X, LockMode.RX]
BASE_MODES = [LockMode.S, LockMode.X, LockMode.R]

ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "release_one", "release_all", "resolve"]),
        st.integers(min_value=0, max_value=3),  # owner index
        st.integers(min_value=0, max_value=3),  # resource index
        st.integers(min_value=0, max_value=9),  # mode selector
    ),
    min_size=1,
    max_size=120,
)


def _mode_for(resource_index: int, selector: int) -> LockMode:
    # Even resources are "leaf pages", odd are "base pages".
    modes = LEAF_MODES if resource_index % 2 == 0 else BASE_MODES
    return modes[selector % len(modes)]


def _conflicts(held: LockMode, requested: LockMode) -> bool:
    cell = compatibility_cell(held, requested)
    return cell is False


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(actions=ACTIONS)
def test_lock_manager_invariants(actions):
    lm = LockManager()
    owners = [Owner(f"o{i}", is_reorganizer=(i == 3)) for i in range(4)]
    resources = [("page", i) for i in range(4)]
    held: dict[tuple, list[tuple]] = {}  # resource -> [(owner, mode), ...]

    def check_invariants():
        _check_owner_index(lm)
        for resource in resources:
            holders = lm.holders_of(resource)
            flat = [
                (owner, mode)
                for owner, modes in holders.items()
                for mode in modes
            ]
            for i, (owner_a, mode_a) in enumerate(flat):
                for owner_b, mode_b in flat[i + 1:]:
                    if owner_a is owner_b:
                        continue
                    cell = compatibility_cell(mode_a, mode_b)
                    assert cell is not False, (
                        f"co-held incompatible modes {mode_a}/{mode_b}"
                    )
            for request in lm.waiters_of(resource):
                blocked_by_holder = any(
                    owner is not request.owner
                    and any(_conflicts(m, request.mode) for m in modes)
                    for owner, modes in holders.items()
                )
                earlier = True  # waiting behind an earlier conflicting waiter
                assert blocked_by_holder or len(lm.waiters_of(resource)) > 1 or request.convert_from is not None, (
                    f"request {request.mode} waits with nothing blocking it"
                )
                del earlier

    for action, owner_index, resource_index, selector in actions:
        owner = owners[owner_index]
        resource = resources[resource_index]
        if action == "acquire":
            mode = _mode_for(resource_index, selector)
            if mode is LockMode.RX and not owner.is_reorganizer:
                mode = LockMode.X  # only the reorganizer uses RX
            try:
                request = lm.request(owner, resource, mode)
            except (RXConflictError, LockProtocolViolation):
                continue
            if request.state is RequestState.GRANTED:
                held.setdefault(resource, []).append((owner, mode))
        elif action == "release_one":
            entries = held.get(resource, [])
            for i, (entry_owner, mode) in enumerate(entries):
                if entry_owner is owner:
                    lm.release(owner, resource, mode)
                    entries.pop(i)
                    break
        elif action == "release_all":
            lm.release_all(owner)
            for entries in held.values():
                entries[:] = [e for e in entries if e[0] is not owner]
            # Cancelled waits would re-enter; also cancel them for bookkeeping.
            lm.cancel_wait(owner)
        elif action == "resolve":
            victims = lm.resolve_deadlocks()
            del victims
            assert lm.find_deadlock_cycle() is None
        check_invariants()

    for owner in owners:
        lm.release_all(owner)
        lm.cancel_wait(owner)
    for resource in resources:
        assert lm.holders_of(resource) == {}
    _check_owner_index(lm)
    assert not lm._owned


def _check_owner_index(lm):
    """``_owned`` is ``_holders`` inverted: every owner with an entry maps
    to exactly the resources it holds, and no entry is empty."""
    derived = {}
    for resource, held in lm._holders.items():
        assert held, f"empty holder entry for {resource!r}"
        for owner, counts in held.items():
            assert counts and all(n > 0 for n in counts.values()), (
                f"{owner!r} has a non-positive count on {resource!r}"
            )
            derived.setdefault(owner, set()).add(resource)
    assert dict(lm._owned) == derived


@settings(max_examples=80, deadline=None)
@given(
    modes=st.lists(st.sampled_from(LEAF_MODES), min_size=1, max_size=6),
)
def test_grant_release_is_balanced(modes):
    """Acquire-then-release of any personally-compatible sequence leaves
    no residue, including re-acquired (ref-counted) modes."""
    lm = LockManager()
    me = Owner("me")
    granted = []
    for mode in modes:
        try:
            request = lm.request(me, ("page", 0), mode)
        except (RXConflictError, LockProtocolViolation):
            continue
        if request.state is RequestState.GRANTED:
            granted.append(mode)
    for mode in granted:
        lm.release(me, ("page", 0), mode)
    assert lm.holders_of(("page", 0)) == {}
    with pytest.raises(LockError):
        lm.release(me, ("page", 0), LEAF_MODES[0])


@settings(max_examples=60, deadline=None)
@given(
    n_waiters=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=999),
)
def test_fifo_no_starvation(n_waiters, seed):
    """Everything queued behind an X is granted once locks drain, in
    arrival order for conflicting requests."""
    import random

    rng = random.Random(seed)
    lm = LockManager()
    holder = Owner("holder")
    lm.request(holder, ("page", 0), LockMode.X)
    waiters = []
    for i in range(n_waiters):
        owner = Owner(f"w{i}")
        mode = rng.choice([LockMode.S, LockMode.X])
        request = lm.request(owner, ("page", 0), mode)
        waiters.append((owner, mode, request))
    lm.release(holder, ("page", 0), LockMode.X)
    # Drain: whenever a waiter is granted, release it, until queue empties.
    for _ in range(3 * n_waiters + 3):
        progressed = False
        for owner, mode, request in waiters:
            if request.state is RequestState.GRANTED and lm.holds(owner, ("page", 0), mode):
                lm.release(owner, ("page", 0), mode)
                progressed = True
        if not lm.waiters_of(("page", 0)):
            break
        if not progressed:
            break
    assert lm.waiters_of(("page", 0)) == []
    assert all(r.state is RequestState.GRANTED for _, _, r in waiters)


def test_release_all_grants_in_holder_table_order():
    """One owner holds two resources that both have waiters, acquired in
    the opposite order of their table entries; its ``release_all`` fires
    the grant callbacks in holder-table order."""
    lm = LockManager()
    first_holder, me = Owner("first"), Owner("me")
    table_first, table_second = ("page", 1), ("page", 2)
    lm.request(first_holder, table_first, LockMode.S)  # table_first enters the table
    lm.request(me, table_second, LockMode.S)  # me: table_second, ...
    lm.request(me, table_first, LockMode.S)  # ... then table_first
    lm.release(first_holder, table_first, LockMode.S)
    fired = []
    for index, resource in enumerate((table_second, table_first)):
        request = lm.request(
            Owner(f"w{index}"), resource, LockMode.X,
            on_grant=lambda granted: fired.append(granted.resource),
        )
        assert request.state is RequestState.WAITING
    lm.release_all(me)
    assert fired == [table_first, table_second]
