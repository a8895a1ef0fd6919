"""BENCH check: the explorer-off path costs nothing (ISSUE 3 satellite).

The model checker attaches via instance hooks — ``Scheduler.pick_next``,
``LockManager.grant_order`` / ``on_victim`` — all ``None`` by default, and
``Scheduler.run()`` tests ``pick_next`` exactly once per call.  Merely
*importing* ``repro.analysis.explorer`` (which is all production code ever
does) must leave the event loop and lock dispatch byte-identical.  Two
assertions:

* **Identity** (machine-independent): with the explorer imported but never
  attached, fresh Scheduler/LockManager instances have all hooks ``None``,
  and the ``bulk_insert`` + ``mixed_e2`` workloads reproduce BENCH_1.json's
  perf counters and check values exactly.  A stray always-on choice point
  would reorder grants or add heap churn and shift these.
* **Wall clock** (generous noise bound): ``bulk_insert`` stays within 2x
  of the slowest BENCH_1.json repeat — a tripwire for an accidentally
  attached recorder, not a precision benchmark.
"""

import json
from pathlib import Path

import pytest

from conftest import banner
from perf_harness import assert_counters_as_recorded, run_suite

pytestmark = pytest.mark.bench

BENCH_1 = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_1.json").read_text()
)

WORKLOADS = ["bulk_insert", "mixed_e2"]


@pytest.fixture(scope="module")
def detached_results():
    """Workloads run with the explorer imported but never attached."""
    import repro.analysis.explorer  # noqa: F401 (import is the point)

    return run_suite(WORKLOADS, repeats=3)


def test_import_leaves_hooks_detached():
    import repro.analysis.explorer  # noqa: F401
    from repro.locks.manager import LockManager
    from repro.txn.scheduler import Scheduler

    lm = LockManager()
    assert lm.grant_order is None
    assert lm.on_victim is None
    assert Scheduler(lm).pick_next is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_identical_to_bench1(detached_results, workload):
    """The deterministic signature of the hot paths is unchanged."""
    expected = BENCH_1["workloads"][workload]["counters"]
    assert_counters_as_recorded(
        workload, detached_results[workload]["counters"], expected
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_identical_to_bench1(detached_results, workload):
    expected = BENCH_1["workloads"][workload]["checks"]
    assert detached_results[workload]["checks"] == expected


def test_wall_clock_within_noise_of_bench1(detached_results):
    recorded = BENCH_1["workloads"]["bulk_insert"]
    now = detached_results["bulk_insert"]
    bound = 2.0 * max(recorded["wall_all_s"] or [recorded["wall_s"]])
    banner("Explorer-off overhead — bulk_insert")
    print(
        f"  BENCH_1 best {recorded['wall_s']:.4f}s   "
        f"now {now['wall_s']:.4f}s   bound {bound:.4f}s"
    )
    assert now["wall_s"] <= bound, (
        f"explorer-off bulk_insert took {now['wall_s']:.4f}s, over the "
        f"{bound:.4f}s noise bound vs BENCH_1.json — is a recorder "
        f"accidentally attached?"
    )
