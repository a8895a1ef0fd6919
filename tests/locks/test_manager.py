"""Unit tests for the lock manager: grants, queues, RX back-off, deadlock."""

import pytest

from repro.errors import LockNotHeldError, LockProtocolViolation, RXConflictError
from repro.locks.manager import LockManager, RequestState
from repro.locks.modes import LockMode
from repro.locks.resources import page_lock, tree_lock

IS, IX, S, X, R, RX, RS = (
    LockMode.IS, LockMode.IX, LockMode.S, LockMode.X,
    LockMode.R, LockMode.RX, LockMode.RS,
)


class Owner:
    """Minimal lock owner; the reorganizer flag drives victim choice."""

    def __init__(self, name, is_reorganizer=False):
        self.name = name
        self.is_reorganizer = is_reorganizer

    def __repr__(self):
        return self.name


@pytest.fixture
def lm():
    return LockManager()


@pytest.fixture
def reader():
    return Owner("reader")


@pytest.fixture
def reader2():
    return Owner("reader2")


@pytest.fixture
def reorg():
    return Owner("reorg", is_reorganizer=True)


BASE = page_lock(100)
LEAF_A = page_lock(1)
LEAF_B = page_lock(2)


class TestGrantAndRelease:
    def test_simple_grant(self, lm, reader):
        req = lm.request(reader, LEAF_A, S)
        assert req.state is RequestState.GRANTED
        assert lm.holds(reader, LEAF_A, S)

    def test_rerequest_same_mode_refcounts(self, lm, reader):
        lm.request(reader, LEAF_A, S)
        lm.request(reader, LEAF_A, S)
        lm.release(reader, LEAF_A, S)
        assert lm.holds(reader, LEAF_A, S)
        lm.release(reader, LEAF_A, S)
        assert not lm.holds(reader, LEAF_A, S)

    def test_release_unheld_raises(self, lm, reader):
        with pytest.raises(LockNotHeldError):
            lm.release(reader, LEAF_A, S)

    def test_compatible_modes_share(self, lm, reader, reader2):
        lm.request(reader, LEAF_A, S)
        req = lm.request(reader2, LEAF_A, S)
        assert req.state is RequestState.GRANTED

    def test_incompatible_request_waits(self, lm, reader, reader2):
        lm.request(reader, LEAF_A, X)
        req = lm.request(reader2, LEAF_A, S)
        assert req.state is RequestState.WAITING
        lm.release(reader, LEAF_A, X)
        assert req.state is RequestState.GRANTED

    def test_release_all(self, lm, reader):
        lm.request(reader, LEAF_A, S)
        lm.request(reader, LEAF_B, S)
        lm.release_all(reader)
        assert lm.owned_resources(reader) == []

    def test_same_owner_multiple_modes(self, lm, reorg, reader):
        """The reorganizer S-couples to a base page, then R locks it."""
        lm.request(reorg, BASE, S)
        req = lm.request(reorg, BASE, R)
        assert req.state is RequestState.GRANTED
        assert lm.held_modes(reorg, BASE) == [R, S]

    def test_on_grant_callback_fires_on_deferred_grant(self, lm, reader, reader2):
        fired = []
        lm.request(reader, LEAF_A, X)
        lm.request(reader2, LEAF_A, S, on_grant=lambda r: fired.append(r))
        assert fired == []
        lm.release(reader, LEAF_A, X)
        assert len(fired) == 1


class TestFIFOFairness:
    def test_later_compatible_request_does_not_starve_earlier_waiter(
        self, lm, reader, reader2
    ):
        writer = Owner("writer")
        lm.request(reader, LEAF_A, S)
        wreq = lm.request(writer, LEAF_A, X)  # waits behind S
        sreq = lm.request(reader2, LEAF_A, S)  # must queue behind X
        assert wreq.state is RequestState.WAITING
        assert sreq.state is RequestState.WAITING
        lm.release(reader, LEAF_A, S)
        assert wreq.state is RequestState.GRANTED
        assert sreq.state is RequestState.WAITING
        lm.release(writer, LEAF_A, X)
        assert sreq.state is RequestState.GRANTED

    def test_compatible_waiters_granted_together(self, lm):
        a, b, c = Owner("a"), Owner("b"), Owner("c")
        lm.request(a, LEAF_A, X)
        r1 = lm.request(b, LEAF_A, S)
        r2 = lm.request(c, LEAF_A, S)
        lm.release(a, LEAF_A, X)
        assert r1.state is RequestState.GRANTED
        assert r2.state is RequestState.GRANTED

    def test_blank_pair_with_queued_waiter_raises_at_request_time(
        self, lm, reader
    ):
        """Two R requests queued behind an X: the second is the Table-1
        blank-cell violation, and it must surface at its own ``request``
        call — not later, inside the X holder's release when dispatch
        grants the first R and probes the second against it."""
        r1, r2 = Owner("r1", is_reorganizer=True), Owner("r2")
        lm.request(reader, BASE, X)
        first = lm.request(r1, BASE, R)
        assert first.state is RequestState.WAITING
        with pytest.raises(LockProtocolViolation):
            lm.request(r2, BASE, R)
        lm.release(reader, BASE, X)  # must not raise mid-dispatch
        assert first.state is RequestState.GRANTED


class TestRXBehaviour:
    def test_conflicting_request_against_rx_is_rejected_not_queued(
        self, lm, reorg, reader
    ):
        lm.request(reorg, LEAF_A, RX)
        with pytest.raises(RXConflictError) as info:
            lm.request(reader, LEAF_A, S)
        assert info.value.resource == LEAF_A
        assert lm.waiters_of(LEAF_A) == []
        assert lm.stats.rx_rejections == 1

    def test_updater_ix_against_rx_also_rejected(self, lm, reorg, reader):
        lm.request(reorg, LEAF_A, RX)
        with pytest.raises(RXConflictError):
            lm.request(reader, LEAF_A, IX)

    def test_reorganizer_rx_waits_behind_reader_s(self, lm, reorg, reader):
        """RX requests wait normally; only requests *against* RX back off."""
        lm.request(reader, LEAF_A, S)
        req = lm.request(reorg, LEAF_A, RX)
        assert req.state is RequestState.WAITING
        lm.release(reader, LEAF_A, S)
        assert req.state is RequestState.GRANTED

    def test_rx_not_blocked_by_own_locks(self, lm, reorg):
        lm.request(reorg, LEAF_A, RX)
        req = lm.request(reorg, LEAF_A, RX)
        assert req.state is RequestState.GRANTED


class TestInstantDuration:
    def test_rs_must_be_instant(self, lm, reader):
        with pytest.raises(LockProtocolViolation):
            lm.request(reader, BASE, RS)

    def test_instant_rs_succeeds_immediately_when_no_r_held(self, lm, reader):
        req = lm.request(reader, BASE, RS, instant=True)
        assert req.state is RequestState.INSTANT_DONE
        assert lm.holders_of(BASE) == {}

    def test_instant_rs_waits_for_reorganizer_r(self, lm, reorg, reader):
        done = []
        lm.request(reorg, BASE, R)
        req = lm.request(
            reader, BASE, RS, instant=True, on_grant=lambda r: done.append(r)
        )
        assert req.state is RequestState.WAITING
        lm.release(reorg, BASE, R)
        assert req.state is RequestState.INSTANT_DONE
        assert done  # success status returned
        assert lm.holders_of(BASE) == {}  # never actually granted

    def test_instant_rs_waits_through_x_upgrade_window(self, lm, reorg, reader):
        """RS must block until the reorganizer's base-page X is gone too."""
        lm.request(reorg, BASE, R)
        req = lm.request(reader, BASE, RS, instant=True)
        lm.convert(reorg, BASE, X)
        lm.release(reorg, BASE, R) if lm.holds(reorg, BASE, R) else None
        assert req.state is RequestState.WAITING
        lm.release(reorg, BASE, X)
        assert req.state is RequestState.INSTANT_DONE

    def test_instant_rs_coexists_with_reader_s(self, lm, reorg, reader, reader2):
        lm.request(reader2, BASE, S)
        lm.request(reorg, BASE, R)
        req = lm.request(reader, BASE, RS, instant=True)
        assert req.state is RequestState.WAITING
        lm.release(reorg, BASE, R)
        # Reader2's S lock alone does not block RS.
        assert req.state is RequestState.INSTANT_DONE

    def test_instant_ix_on_sidefile_during_switch(self, lm, reorg, reader):
        """Section 7.2: updater uses an instant IX to wait out the switch."""
        from repro.locks.resources import sidefile_lock

        lm.request(reorg, sidefile_lock("primary"), X)
        req = lm.request(reader, sidefile_lock("primary"), IX, instant=True)
        assert req.state is RequestState.WAITING
        lm.release(reorg, sidefile_lock("primary"), X)
        assert req.state is RequestState.INSTANT_DONE

    def test_instant_waiter_does_not_block_later_requests(self, lm, reorg, reader, reader2):
        lm.request(reorg, BASE, R)
        lm.request(reader, BASE, RS, instant=True)
        req = lm.request(reader2, BASE, S)  # S is compatible with R
        assert req.state is RequestState.GRANTED


class TestConversions:
    def test_r_to_x_conversion_when_alone(self, lm, reorg):
        lm.request(reorg, BASE, R)
        req = lm.convert(reorg, BASE, X)
        assert req.state is RequestState.GRANTED
        assert lm.holds(reorg, BASE, X)
        assert not lm.holds(reorg, BASE, R)

    def test_conversion_waits_for_conflicting_holder(self, lm, reorg, reader):
        lm.request(reorg, BASE, R)
        lm.request(reader, BASE, S)
        req = lm.convert(reorg, BASE, X)
        assert req.state is RequestState.WAITING
        lm.release(reader, BASE, S)
        assert req.state is RequestState.GRANTED
        assert lm.holds(reorg, BASE, X)

    def test_conversion_has_priority_over_queued_requests(self, lm, reorg, reader, reader2):
        lm.request(reorg, BASE, R)
        lm.request(reader, BASE, S)
        lm.request(reader2, BASE, X)  # queued fresh request
        conv = lm.convert(reorg, BASE, X)
        lm.release(reader, BASE, S)
        assert conv.state is RequestState.GRANTED
        # The fresh X still waits for the converted X.
        assert lm.waiting_request(reader2) is not None

    def test_convert_without_lock_raises(self, lm, reader):
        with pytest.raises(LockNotHeldError):
            lm.convert(reader, BASE, X)

    def test_illegal_conversion_raises(self, lm, reader):
        lm.request(reader, BASE, X)
        with pytest.raises(LockProtocolViolation):
            lm.convert(reader, BASE, S)  # downgrade path not in lattice


class TestDeadlock:
    def test_no_deadlock_on_simple_wait(self, lm, reader, reorg):
        lm.request(reader, LEAF_A, S)
        lm.request(reorg, LEAF_A, RX)
        assert lm.find_deadlock_cycle() is None

    def test_paper_scenario_reorganizer_is_victim(self, lm, reader, reorg):
        """Section 4: reader holds A and wants B; the reorganizer holds RX
        on B and wants RX on A.  The reorganizer must yield."""
        deadlocked = []
        lm.request(reader, LEAF_A, S)
        lm.request(reorg, LEAF_B, RX)
        req = lm.request(
            reorg, LEAF_A, RX, on_deadlock=lambda r: deadlocked.append(r)
        )
        assert req.state is RequestState.WAITING
        # The reader's S on B conflicts with held RX -> it would back off in
        # the full protocol; to model a real cycle, give the reader a plain
        # waiting request on a resource the reorganizer holds.  Use the base
        # page: reader waits for reorganizer's X.
        lm.request(reorg, BASE, X)
        reader_req = lm.request(reader, BASE, S)
        assert reader_req.state is RequestState.WAITING
        victims = lm.resolve_deadlocks()
        assert victims == [reorg]
        assert req.state is RequestState.DEADLOCK
        assert deadlocked == [req]

    def test_user_only_cycle_youngest_is_victim(self, lm):
        a, b = Owner("a"), Owner("b")
        lm.request(a, LEAF_A, X)
        lm.request(b, LEAF_B, X)
        lm.request(a, LEAF_B, X)  # a waits on b
        lm.request(b, LEAF_A, X)  # b waits on a -> cycle; b's request is younger
        victims = lm.resolve_deadlocks()
        assert victims == [b]

    def test_victim_removal_unblocks_survivor(self, lm):
        a, b = Owner("a"), Owner("b")
        lm.request(a, LEAF_A, X)
        lm.request(b, LEAF_B, X)
        areq = lm.request(a, LEAF_B, X)
        lm.request(b, LEAF_A, X)
        lm.resolve_deadlocks()
        # b was the victim; once b releases its locks, a proceeds.
        lm.release_all(b)
        assert areq.state is RequestState.GRANTED

    def test_resolve_with_no_cycle_returns_empty(self, lm, reader):
        assert lm.resolve_deadlocks() == []

    def test_stats_count_deadlocks(self, lm):
        a, b = Owner("a"), Owner("b")
        lm.request(a, LEAF_A, X)
        lm.request(b, LEAF_B, X)
        lm.request(a, LEAF_B, X)
        lm.request(b, LEAF_A, X)
        lm.resolve_deadlocks()
        assert lm.stats.deadlocks == 1


class TestCancelAndCrash:
    def test_cancel_wait_removes_request(self, lm, reader, reader2):
        lm.request(reader, LEAF_A, X)
        req = lm.request(reader2, LEAF_A, X)
        lm.cancel_wait(reader2)
        assert req.state is RequestState.CANCELLED
        assert lm.waiters_of(LEAF_A) == []

    def test_cancel_unblocks_queue(self, lm):
        a, b, c = Owner("a"), Owner("b"), Owner("c")
        lm.request(a, LEAF_A, S)
        lm.request(b, LEAF_A, X)
        creq = lm.request(c, LEAF_A, S)  # behind the X
        lm.cancel_wait(b)
        assert creq.state is RequestState.GRANTED

    def test_crash_clears_everything(self, lm, reader):
        lm.request(reader, LEAF_A, X)
        lm.crash()
        assert lm.holders_of(LEAF_A) == {}

    def test_tree_lock_protocol(self, lm, reader, reorg):
        """Readers IS the tree, the reorganizer IX; both coexist."""
        t = tree_lock("old")
        assert lm.request(reader, t, IS).state is RequestState.GRANTED
        assert lm.request(reorg, t, IX).state is RequestState.GRANTED
        # At switch time an X on the tree waits for both.
        switcher = Owner("switcher", is_reorganizer=True)
        req = lm.request(switcher, t, X)
        assert req.state is RequestState.WAITING
        lm.release(reader, t, IS)
        lm.release(reorg, t, IX)
        assert req.state is RequestState.GRANTED


class TestDowngrade:
    def test_downgrade_s_to_is_admits_ix(self, lm, reader, reader2):
        """Section 4.1.2's record-locking pattern: after the page S is
        downgraded to IS, a record-level updater's IX is admitted."""
        lm.request(reader, LEAF_A, S)
        ix_request = lm.request(reader2, LEAF_A, IX)
        assert ix_request.state is RequestState.WAITING
        lm.downgrade(reader, LEAF_A, S, LockMode.IS)
        assert ix_request.state is RequestState.GRANTED
        assert lm.holds(reader, LEAF_A, LockMode.IS)
        assert not lm.holds(reader, LEAF_A, S)

    def test_downgrade_requires_held_mode(self, lm, reader):
        with pytest.raises(LockNotHeldError):
            lm.downgrade(reader, LEAF_A, S, LockMode.IS)

    def test_upgrade_via_downgrade_rejected(self, lm, reader):
        lm.request(reader, LEAF_A, LockMode.IS)
        with pytest.raises(LockProtocolViolation):
            lm.downgrade(reader, LEAF_A, LockMode.IS, S)

    def test_downgrade_x_to_s_admits_readers(self, lm, reader, reader2):
        lm.request(reader, LEAF_A, X)
        s_request = lm.request(reader2, LEAF_A, S)
        assert s_request.state is RequestState.WAITING
        lm.downgrade(reader, LEAF_A, X, S)
        assert s_request.state is RequestState.GRANTED
