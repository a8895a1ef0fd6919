"""Contract checks for the benchmark itself.

Run explicitly with ``python3 -m pytest bench/`` from the repository root;
tier-1's ``testpaths = tests`` does not collect this file.  Everything runs
at ``--profile smoke`` (same code paths, a tenth of the size).
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys

import pytest

from bench import REPO_ROOT, metrics
from bench.__main__ import DEFAULT_SECONDS
from bench.compare import verdict
from bench.runner import WORKLOADS, tree_config
from bench.workloads import SIZES

MANIFEST = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DETERMINISTIC = [m.name for m in metrics.END_TO_END if m.clock == "D"]


def smoke(workload: str, seed: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--profile", "smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_manifest_shape():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["run_seconds"] == DEFAULT_SECONDS["full"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in MANIFEST["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in MANIFEST["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in MANIFEST["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(e for e in MANIFEST["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in MANIFEST["end_to_end"])


def test_manifest_matches_the_metric_tables():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (name, info["why"]) for name, info in metrics.WORKLOADS.items()
    ]
    assert list(metrics.WORKLOADS) == list(WORKLOADS) == list(SIZES["full"]) == list(SIZES["smoke"])
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_only_size_parameters_are_set():
    """Every TreeConfig field the benchmark does not size stays at its default."""
    from repro.config import TreeConfig

    sized = {
        "leaf_capacity", "internal_capacity", "leaf_extent_pages",
        "internal_extent_pages", "buffer_pool_pages", "side_pointers",
    }
    default = TreeConfig()
    for profile in SIZES.values():
        for sizes in profile.values():
            config = tree_config(sizes)
            for f in dataclasses.fields(TreeConfig):
                if f.name not in sized:
                    assert getattr(config, f.name) == getattr(default, f.name), f.name


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_workload_emits_every_declared_metric(workload):
    first = smoke(workload, seed=11)
    again = smoke(workload, seed=11)
    other = smoke(workload, seed=12)
    traced = smoke(workload, seed=11, trace=1)
    for result in (first, again, other, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
    for result in (first, again, other):
        assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]
        assert all(m["value"] != 0 for m in result["metrics"].values())
    assert list(traced["metrics"]) == [m.name for m in metrics.PER_LAYER]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == again["metrics"][name], name
    for m in metrics.END_TO_END:
        if workload not in m.workloads:
            assert first["metrics"][m.name]["value"] == metrics.NOT_APPLICABLE


def test_oracle_self_check_trips():
    workload = WORKLOADS["point_fit"](SIZES["smoke"]["point_fit"], seed=11)
    workload.build()
    assert workload.run().failures == []
    assert workload.oracle_self_check()


def entry(value, samples=None, *, better="lower", bound=0.1):
    out = {"value": value, "bound": bound, "better": better, "applies": True}
    if samples:
        q = sorted(samples)
        out.update(samples=samples, iqr=q[-2] - q[1])
    return out


def test_compare_verdicts():
    assert verdict(entry(100.0), entry(104.0)) == "same"
    assert verdict(entry(100.0), entry(120.0)) == "worse"
    assert verdict(entry(100.0), entry(80.0)) == "better"
    assert verdict(entry(100.0, better="higher"), entry(80.0, better="higher")) == "worse"
    tight_a = entry(100.0, [99, 100, 100, 100, 101])
    tight_b = entry(120.0, [119, 120, 120, 120, 121])
    assert verdict(tight_a, tight_b) == "worse"
    noisy_a = entry(100.0, [70, 85, 100, 115, 130])
    noisy_b = entry(120.0, [90, 105, 120, 135, 150])
    assert verdict(noisy_a, noisy_b) == "unresolved"
    assert verdict({**entry(1.0), "applies": False}, entry(1.0)) == "n/a"
