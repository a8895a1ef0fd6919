"""Tests for the perf instrumentation layer.

Two properties matter:

* the counters are *deterministic*: two identical seeded DES runs produce
  identical counter snapshots;
* the lock-manager fast path is *invisible* semantically: every Table-1
  mode pair resolves to the same outcome whether or not the first request
  took the uncontended fast path.
"""

import pytest

from repro.config import ReorgConfig, TreeConfig
from repro.errors import LockProtocolViolation, RXConflictError
from repro.locks.manager import LockManager, RequestState
from repro.locks.modes import LockMode, compatibility_cell
from repro.locks.resources import page_lock
from repro.perf import PERF
from repro.sim.driver import ExperimentSetup, run_concurrent_experiment
from repro.sim.workload import WorkloadConfig

HOLDABLE_MODES = [
    LockMode.IS, LockMode.IX, LockMode.S, LockMode.X, LockMode.R, LockMode.RX,
]
ALL_MODES = HOLDABLE_MODES + [LockMode.RS]


class Owner:
    def __init__(self, name, is_reorganizer=False):
        self.name = name
        self.is_reorganizer = is_reorganizer

    def __repr__(self):
        return self.name


def _small_setup(seed: int = 11) -> ExperimentSetup:
    """A scaled-down E2 cell: enough traffic to exercise every counter."""
    return ExperimentSetup(
        tree_config=TreeConfig(
            leaf_capacity=16,
            internal_capacity=8,
            leaf_extent_pages=256,
            internal_extent_pages=64,
            buffer_pool_pages=128,
        ),
        reorg_config=ReorgConfig(target_fill=0.9),
        workload=WorkloadConfig(
            n_transactions=40,
            key_space=600,
            mean_interarrival=0.25,
            zipf_theta=0.0,
            seed=seed,
        ),
        n_records=600,
        fill_after=0.3,
        op_duration=0.3,
    )


class TestCounterDeterminism:
    def test_identical_seeded_runs_produce_identical_counters(self):
        snapshots = []
        for _ in range(2):
            PERF.reset()
            run_concurrent_experiment(_small_setup(), reorganizer="paper")
            snapshots.append(PERF.counters.snapshot())
        assert snapshots[0] == snapshots[1]
        # The run must actually have exercised the instrumented paths.
        assert snapshots[0]["des_events"] > 0
        assert snapshots[0]["buffer_hits"] > 0
        assert snapshots[0]["lock_fast_grants"] > 0

    def test_different_seeds_diverge(self):
        PERF.reset()
        run_concurrent_experiment(_small_setup(seed=11), reorganizer="paper")
        first = PERF.counters.snapshot()
        PERF.reset()
        run_concurrent_experiment(_small_setup(seed=12), reorganizer="paper")
        second = PERF.counters.snapshot()
        assert first != second

    def test_reset_keeps_module_aliases_live(self):
        """Hot paths hold a module-level reference to ``PERF.counters``;
        reset() must clear in place, never rebind the object."""
        counters = PERF.counters
        counters.buffer_hits += 5
        PERF.reset()
        assert PERF.counters is counters
        assert PERF.counters.buffer_hits == 0
        counters.buffer_hits += 1
        assert PERF.counters.snapshot()["buffer_hits"] == 1


class TestLockFastPathTable1:
    """Re-check every Table-1 cell through the uncontended fast path.

    The first request on a fresh resource takes the fast path; the second
    request then resolves against that fast-granted holder.  Outcomes must
    match the compatibility table exactly: Yes -> granted, No -> waits
    (RX holder -> RXConflictError back-off), blank -> protocol violation.
    """

    @pytest.mark.parametrize("held", HOLDABLE_MODES)
    @pytest.mark.parametrize("requested", ALL_MODES)
    def test_mode_pair_outcome_matches_table(self, held, requested):
        lm = LockManager()
        a, b = Owner("a"), Owner("b")
        resource = page_lock(1)

        first = lm.request(a, resource, held, instant=False)
        assert first.state is RequestState.GRANTED
        assert lm.stats.fast_path_grants == 1
        assert lm.holds(a, resource, held)

        instant = requested is LockMode.RS
        cell = compatibility_cell(held, requested)
        if cell is None:
            with pytest.raises(LockProtocolViolation):
                lm.request(b, resource, requested, instant=instant)
        elif cell:
            second = lm.request(b, resource, requested, instant=instant)
            expected = (
                RequestState.INSTANT_DONE if instant else RequestState.GRANTED
            )
            assert second.state is expected
        elif held is LockMode.RX:
            with pytest.raises(RXConflictError):
                lm.request(b, resource, requested, instant=instant)
        else:
            second = lm.request(b, resource, requested, instant=instant)
            assert second.state is RequestState.WAITING
        # Only the first (uncontended) request may use the fast path.
        assert lm.stats.fast_path_grants == 1

    def test_instant_fast_path_leaves_no_state(self):
        """An instant-duration fast-path grant (e.g. RS) holds nothing, so
        the next request is uncontended again."""
        lm = LockManager()
        a, b = Owner("a"), Owner("b")
        resource = page_lock(2)
        first = lm.request(a, resource, LockMode.RS, instant=True)
        assert first.state is RequestState.INSTANT_DONE
        assert lm.holders_of(resource) == {}
        second = lm.request(b, resource, LockMode.X)
        assert second.state is RequestState.GRANTED
        assert lm.stats.fast_path_grants == 2

    def test_rs_must_be_instant_even_on_fast_path(self):
        lm = LockManager()
        with pytest.raises(LockProtocolViolation):
            lm.request(Owner("a"), page_lock(3), LockMode.RS, instant=False)

    def test_fast_path_skipped_when_queue_exists(self):
        """A queued waiter blocks the fast path even after the holder
        releases: FIFO order must not be jumped."""
        lm = LockManager()
        a, b, c = Owner("a"), Owner("b"), Owner("c")
        resource = page_lock(4)
        lm.request(a, resource, LockMode.X)
        waiting = lm.request(b, resource, LockMode.X)
        assert waiting.state is RequestState.WAITING
        lm.release(a, resource, LockMode.X)
        # b was granted from the queue; c must now queue behind b's hold.
        assert waiting.state is RequestState.GRANTED
        third = lm.request(c, resource, LockMode.X)
        assert third.state is RequestState.WAITING
        assert lm.stats.fast_path_grants == 1
