"""BENCH check: gapped leaves + the auto-reorg daemon off cost nothing
(ISSUE 10).

``leaf_gap_fraction`` defaults to 0.0 in :class:`repro.config.TreeConfig`
and no :class:`repro.reorg.daemon.ReorgDaemon` runs unless a workload
spawns one, so the default write and rebuild paths must be byte-identical
to BENCH_5.json (the last BENCH recorded before gapped leaves landed).
Three assertion families:

* **Identity** (machine-independent): the gap-relevant workloads —
  ``mixed_e2`` (insert/split path), ``range_scan_e6`` (bulk load + scan)
  and ``placement_policies`` (pass 2/3 rebuild fill arithmetic, now
  routed through ``gapped_leaf_fill_count``) — reproduce their recorded
  perf counters and check values exactly (``placement_policies`` its
  checks only: BENCH_5's buffer counters include one leaf-chain walk per
  unit, which the synchronous passes no longer make).  Any always-on gap
  — a slack slot reserved at gap 0.0, a changed fill clamp, a
  fragmentation-stats I/O — shifts the counters or checks and fails here.
* **Wall clock** (generous noise bound): each workload stays within 2x of
  the slowest BENCH_5.json repeat — a tripwire for accidental flags-on
  work, not a precision benchmark.
* **Headline**: BENCH_6.json carries the ISSUE 10 acceptance numbers
  (split reduction, daemon-off degradation, daemon-on flatness).
"""

import json
from pathlib import Path

import pytest

from conftest import banner
from perf_harness import assert_counters_as_recorded, run_suite

pytestmark = pytest.mark.bench

BENCH_5 = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_5.json").read_text()
)

WORKLOADS = ["mixed_e2", "range_scan_e6", "placement_policies"]


@pytest.fixture(scope="module")
def flags_off_results():
    """The BENCH_5 gap-relevant workloads run on current code, gap off."""
    return run_suite(WORKLOADS, repeats=3)


@pytest.mark.parametrize("workload", ["mixed_e2", "range_scan_e6"])
def test_counters_identical_to_bench5(flags_off_results, workload):
    """The deterministic signature of the default paths is unchanged."""
    expected = BENCH_5["workloads"][workload]["counters"]
    assert_counters_as_recorded(
        workload, flags_off_results[workload]["counters"], expected
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_identical_to_bench5(flags_off_results, workload):
    expected = BENCH_5["workloads"][workload]["checks"]
    assert flags_off_results[workload]["checks"] == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wall_clock_within_noise_of_bench5(flags_off_results, workload):
    recorded = BENCH_5["workloads"][workload]
    now = flags_off_results[workload]
    bound = 2.0 * max(recorded["wall_all_s"] or [recorded["wall_s"]])
    banner(f"Gapped-off overhead — {workload}")
    print(
        f"  BENCH_5 best {recorded['wall_s']:.4f}s   "
        f"now {now['wall_s']:.4f}s   bound {bound:.4f}s"
    )
    assert now["wall_s"] <= bound, (
        f"flags-off {workload} took {now['wall_s']:.4f}s, over the "
        f"{bound:.4f}s noise bound vs BENCH_5.json — is the gapped leaf "
        f"layout accidentally on by default?"
    )


def test_churn_daemon_headline_is_recorded():
    """BENCH_6.json carries the ISSUE 10 acceptance numbers: gapped bulk
    load + churn cuts leaf splits >= 2x with identical contents, the
    daemon-off churn degrades range scans >= 1.5x, and the daemon holds
    the same churn within ~10% (run_churn_daemon raises before returning
    checks if any clause fails)."""
    bench_6 = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_6.json").read_text()
    )
    checks = bench_6["workloads"]["churn_daemon"]["checks"]
    assert checks["split_reduction"] >= 2.0
    assert checks["off_degradation"] >= 1.5
    assert checks["on_degradation"] <= 1.10
    assert checks["daemon_reorgs"] >= 1
    assert checks["gapped_absorbed"] > 0
