"""BENCH check: the optimistic read path off costs nothing (ISSUE 6).

``optimistic_reads`` defaults off in :class:`repro.config.TreeConfig`, and
the flags-off reader dispatchers fall straight through to the locked
Table-1 protocol.  Two assertions against BENCH_3.json (the last BENCH
recorded before the optimistic path landed):

* **Identity** (machine-independent): the read-path-relevant workloads
  (``mixed_e2``, ``range_scan_e6``) reproduce their recorded perf counters
  and check values exactly.  Any always-on optimism — a version probe in
  the locked descent, a skipped lock, an extra validation fetch — shifts
  the lock-grant / buffer counters or the check values and fails here.
* **Wall clock** (generous noise bound): each workload stays within 2x of
  the slowest BENCH_3.json repeat — a tripwire for accidental flags-on
  work, not a precision benchmark.
"""

import json
from pathlib import Path

import pytest

from conftest import banner
from perf_harness import assert_counters_as_recorded, run_suite

pytestmark = pytest.mark.bench

BENCH_3 = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_3.json").read_text()
)

WORKLOADS = ["mixed_e2", "range_scan_e6"]


@pytest.fixture(scope="module")
def flags_off_results():
    """The BENCH_3 read workloads run on current code with optimism off."""
    return run_suite(WORKLOADS, repeats=3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_identical_to_bench3(flags_off_results, workload):
    """The deterministic signature of the read paths is unchanged."""
    expected = BENCH_3["workloads"][workload]["counters"]
    assert_counters_as_recorded(
        workload, flags_off_results[workload]["counters"], expected
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_identical_to_bench3(flags_off_results, workload):
    expected = BENCH_3["workloads"][workload]["checks"]
    assert flags_off_results[workload]["checks"] == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wall_clock_within_noise_of_bench3(flags_off_results, workload):
    recorded = BENCH_3["workloads"][workload]
    now = flags_off_results[workload]
    bound = 2.0 * max(recorded["wall_all_s"] or [recorded["wall_s"]])
    banner(f"Optimistic-off overhead — {workload}")
    print(
        f"  BENCH_3 best {recorded['wall_s']:.4f}s   "
        f"now {now['wall_s']:.4f}s   bound {bound:.4f}s"
    )
    assert now["wall_s"] <= bound, (
        f"flags-off {workload} took {now['wall_s']:.4f}s, over the "
        f"{bound:.4f}s noise bound vs BENCH_3.json — is the optimistic "
        f"read path accidentally on by default?"
    )


def test_read_mostly_headline_is_recorded():
    """BENCH_4.json carries the ISSUE 6 acceptance numbers: >= 5x fewer
    lock-manager requests on the read-mostly cell, with the optimistic
    scan digest byte-identical to the locked one (run_read_mostly_e6
    raises before returning checks if either clause fails)."""
    bench_4 = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_4.json").read_text()
    )
    checks = bench_4["workloads"]["read_mostly_e6"]["checks"]
    assert checks["lock_reduction"] >= 5.0
    assert checks["optimistic_lock_requests"] < checks["locked_lock_requests"]
    assert checks["optimistic_searches"] > 0 and checks["optimistic_scans"] > 0
