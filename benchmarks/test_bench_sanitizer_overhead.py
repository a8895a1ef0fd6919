"""BENCH check: the sanitizer-off path costs nothing (ISSUE 2 satellite).

The sanitizer works by class-level patching at ``install()`` time, so
merely *importing* it — which is all production code ever does — must
leave the hot paths untouched.  Two assertions:

* **Identity** (machine-independent): with the sanitizer imported but not
  installed, every patched method is byte-for-byte the original function,
  and the ``bulk_insert`` workload reproduces BENCH_1.json's perf counters
  exactly — same fast-path grants, same WAL-flush skips, same buffer hit
  pattern.  Any shadow check left behind in a hot path would shift these.
* **Wall clock** (generous noise bound): ``bulk_insert`` stays within 2x
  of the slowest BENCH_1.json repeat.  This is a tripwire for an
  accidentally always-on sanitizer (which costs well over 2x), not a
  precision benchmark — CI machines vary.
"""

import json
from pathlib import Path

import pytest

from conftest import banner
from perf_harness import recorded_counters, run_suite

pytestmark = pytest.mark.bench

BENCH_1 = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_1.json").read_text()
)


@pytest.fixture(scope="module")
def bulk_insert_off():
    """bulk_insert with the sanitizer importable but never installed."""
    import repro.analysis.sanitizer as sanitizer

    assert sanitizer.active() is None, "sanitizer must be off for this bench"
    return run_suite(["bulk_insert"], repeats=3)["bulk_insert"]


def test_import_does_not_patch():
    import repro.analysis.sanitizer as sanitizer
    from repro.locks.manager import LockManager
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import SimulatedDisk
    from repro.txn.scheduler import Scheduler

    if sanitizer.active() is not None:
        pytest.skip("sanitizer installed session-wide; off-path not testable")
    for cls, attr in [
        (LockManager, "request"),
        (LockManager, "release"),
        (BufferPool, "fetch"),
        (BufferPool, "mark_dirty"),
        (SimulatedDisk, "write"),
        (Scheduler, "_step"),
    ]:
        fn = getattr(cls, attr)
        assert not hasattr(fn, "__wrapped__"), f"{cls.__name__}.{attr} patched"


def test_counters_identical_to_bench1(bulk_insert_off):
    """The deterministic signature of the hot paths is unchanged."""
    expected = BENCH_1["workloads"]["bulk_insert"]["counters"]
    assert recorded_counters(
        "bulk_insert", bulk_insert_off["counters"]
    ) == recorded_counters("bulk_insert", expected)


def test_checks_identical_to_bench1(bulk_insert_off):
    expected = BENCH_1["workloads"]["bulk_insert"]["checks"]
    assert bulk_insert_off["checks"] == expected


def test_wall_clock_within_noise_of_bench1(bulk_insert_off):
    recorded = BENCH_1["workloads"]["bulk_insert"]
    bound = 2.0 * max(recorded["wall_all_s"] or [recorded["wall_s"]])
    banner("Sanitizer-off overhead — bulk_insert")
    print(
        f"  BENCH_1 best {recorded['wall_s']:.4f}s   "
        f"now {bulk_insert_off['wall_s']:.4f}s   bound {bound:.4f}s"
    )
    assert bulk_insert_off["wall_s"] <= bound, (
        f"sanitizer-off bulk_insert took {bulk_insert_off['wall_s']:.4f}s, "
        f"over the {bound:.4f}s noise bound vs BENCH_1.json — is the "
        f"sanitizer accidentally installed?"
    )
