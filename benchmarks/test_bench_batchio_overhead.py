"""BENCH check: the batched-I/O layer off costs nothing (ISSUE 4).

Every batching flag — ``group_commit_window``, ``readahead_pages``,
``seek_aware_pass2`` — defaults off in
:class:`repro.config.TreeConfig`, and the flags-off code paths are the
pre-batching ones.  Two assertions:

* **Identity** (machine-independent): the three BENCH_1.json workloads
  (``bulk_insert``, ``mixed_e2``, ``reorg_20k``) reproduce their recorded
  perf counters and check values exactly — except ``reorg_20k``'s
  counters: BENCH_1 recorded the buffer hits of one leaf-chain walk per
  unit, and the synchronous passes no longer walk — and
  ``bulk_insert``'s ``wal_flush_skips``: BENCH_1 recorded one page per
  dirty eviction, and the pool now writes back ascending sweeps — and
  ``mixed_e2``'s two buffer-hit counters, which may only have fallen:
  BENCH_1 recorded a unit engine that read its leaves twice
  (``perf_harness.recorded_counters``).  Any always-on batching — a
  prefetch issued without the flag, a widened flush — shifts the buffer
  counters or the check values and fails here.
* **Wall clock** (generous noise bound): each workload stays within 2x of
  the slowest BENCH_1.json repeat — a tripwire for accidental flags-on
  work, not a precision benchmark.
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

WORKLOADS = ["bulk_insert", "mixed_e2", "reorg_20k"]


@pytest.fixture(scope="module")
def flags_off_results():
    """The BENCH_1 workloads run on current code with default (off) flags."""
    return run_suite(WORKLOADS, repeats=3)


@pytest.mark.parametrize("workload", ["bulk_insert", "mixed_e2"])
def test_counters_identical_to_bench1(flags_off_results, workload):
    """The deterministic signature of the hot paths is unchanged."""
    expected = BENCH_1["workloads"][workload]["counters"]
    assert_counters_as_recorded(
        workload, flags_off_results[workload]["counters"], expected
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_identical_to_bench1(flags_off_results, workload):
    expected = BENCH_1["workloads"][workload]["checks"]
    assert flags_off_results[workload]["checks"] == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wall_clock_within_noise_of_bench1(flags_off_results, workload):
    recorded = BENCH_1["workloads"][workload]
    now = flags_off_results[workload]
    bound = 2.0 * max(recorded["wall_all_s"] or [recorded["wall_s"]])
    banner(f"Batched-I/O-off overhead — {workload}")
    print(
        f"  BENCH_1 best {recorded['wall_s']:.4f}s   "
        f"now {now['wall_s']:.4f}s   bound {bound:.4f}s"
    )
    assert now["wall_s"] <= bound, (
        f"flags-off {workload} took {now['wall_s']:.4f}s, over the "
        f"{bound:.4f}s noise bound vs BENCH_1.json — is a batching flag "
        f"accidentally on by default?"
    )


def test_stable_page_flush_makes_no_wal_call_without_group_commit():
    """Guard for the ISSUE 5 bulk_insert regression: with group commit off,
    flushing a page whose LSN is already stable must not call into the log
    manager at all — the bookkeeping that counts absorbed flushes belongs
    to the flags-on path only."""
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import SimulatedDisk, Extent
    from repro.storage.page import LeafPage
    from repro.wal.log import LogManager
    from repro.wal.records import LeafFormatRecord

    def build(window):
        disk = SimulatedDisk([Extent("leaf", 0, 8)])
        log = LogManager(group_commit_window=window)
        pool = BufferPool(disk, 4)
        pool.set_wal(log)
        calls = []
        real_flush = log.flush
        log.flush = lambda up_to=None: (calls.append(up_to), real_flush(up_to))[1]
        page = LeafPage(0, 4)
        pool.put_new(page)
        lsn = log.append(LeafFormatRecord(page_id=0))
        pool.mark_dirty(0, lsn)
        real_flush()  # the page LSN is now stable before the page write
        calls.clear()
        pool.flush_page(0)
        return log, calls

    log_off, calls_off = build(0)
    assert calls_off == [], "flags-off stable-page flush reached the WAL"
    log_on, calls_on = build(8)
    assert calls_on, "group commit must still see the request to absorb it"
    assert log_on.stats.absorbed_flushes == 1
