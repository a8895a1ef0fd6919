"""BENCH check: the race-detector-off path costs nothing (ISSUE 7).

Like the sanitizer, the race detector works by class-level patching at
``install()`` time; merely importing :mod:`repro.analysis.racedetect` —
which is all production code ever does — must leave the hot paths
untouched.  Two assertions against BENCH_4.json (the optimistic-read
headline report, whose workloads exercise the exact funnel the detector
wraps):

* **Identity** (machine-independent): with the detector imported but not
  installed, every patched method is the original function, and the
  ``read_mostly_e6`` + ``mixed_e2_optimistic`` workloads reproduce
  BENCH_4.json's perf counters and invariant checks byte-for-byte.  A
  vector-clock update or page-state probe left behind in a hot path
  would shift these.
* **Wall clock** (generous noise bound): both workloads stay within 2x
  of the slowest BENCH_4.json repeat.  A tripwire for an accidentally
  always-on detector, not a precision benchmark — CI machines vary.
"""

import json
from pathlib import Path

import pytest

from conftest import banner
from perf_harness import assert_counters_as_recorded, run_suite

pytestmark = pytest.mark.bench

WORKLOADS = ["read_mostly_e6", "mixed_e2_optimistic"]

BENCH_4 = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_4.json").read_text()
)


@pytest.fixture(scope="module")
def optimistic_off():
    """The BENCH_4 optimistic workloads with racedetect importable but
    never installed."""
    import repro.analysis.racedetect as racedetect

    assert racedetect.active() is None, "detector must be off for this bench"
    return run_suite(WORKLOADS, repeats=3)


def test_import_does_not_patch():
    import repro.analysis.racedetect as racedetect
    from repro.locks.manager import LockManager
    from repro.storage.buffer import BufferPool
    from repro.storage.store import StorageManager
    from repro.txn.scheduler import Scheduler
    from repro.wal.log import LogManager

    if racedetect.active() is not None:
        pytest.skip("detector installed session-wide; off-path not testable")
    for cls, attr in [
        (BufferPool, "fetch"),
        (BufferPool, "mark_dirty"),
        (BufferPool, "put_new"),
        (BufferPool, "drop"),
        (LockManager, "request"),
        (LockManager, "release"),
        (LockManager, "convert"),
        (Scheduler, "spawn"),
        (Scheduler, "_step"),
        (LogManager, "append"),
        (LogManager, "flush"),
        (StorageManager, "__init__"),
    ]:
        fn = getattr(cls, attr)
        assert not hasattr(fn, "__wrapped__"), f"{cls.__name__}.{attr} patched"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_identical_to_bench4(optimistic_off, workload):
    """The deterministic signature of the hot paths is unchanged."""
    expected = BENCH_4["workloads"][workload]["counters"]
    assert_counters_as_recorded(
        workload, optimistic_off[workload]["counters"], expected
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_identical_to_bench4(optimistic_off, workload):
    expected = BENCH_4["workloads"][workload]["checks"]
    assert optimistic_off[workload]["checks"] == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wall_clock_within_noise_of_bench4(optimistic_off, workload):
    recorded = BENCH_4["workloads"][workload]
    bound = 2.0 * max(recorded["wall_all_s"] or [recorded["wall_s"]])
    now = optimistic_off[workload]["wall_s"]
    banner(f"Race-detector-off overhead — {workload}")
    print(
        f"  BENCH_4 best {recorded['wall_s']:.4f}s   "
        f"now {now:.4f}s   bound {bound:.4f}s"
    )
    assert now <= bound, (
        f"detector-off {workload} took {now:.4f}s, over the {bound:.4f}s "
        f"noise bound vs BENCH_4.json — is the race detector accidentally "
        f"installed?"
    )
