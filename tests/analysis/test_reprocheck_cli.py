"""The ``python -m reprocheck`` front end: argument handling, exit codes,
JSON report shape, and trace-seeded replay."""

import json
import os
import subprocess
import sys

import pytest

from tests.analysis.conftest import REPO_ROOT

from reprocheck.cli import main
from reprocheck.scenarios import SCENARIOS


def test_list_names_every_scenario_and_invariant(capsys):
    from repro.analysis import invariants

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    for name in invariants.REGISTRY:
        assert name in out


def test_no_scenarios_is_a_usage_error(capsys):
    assert main([]) == 2
    assert "no scenarios" in capsys.readouterr().err


def test_unknown_scenario_is_a_usage_error(capsys):
    assert main(["no-such-scenario"]) == 2
    assert "no-such-scenario" in capsys.readouterr().err


def test_seed_trace_requires_exactly_one_scenario(capsys):
    assert main(["reader-vs-pass1", "deadlock-victim", "--seed-trace", "t1:-"]) == 2
    assert "exactly one scenario" in capsys.readouterr().err


def test_bad_seed_trace_is_a_usage_error(capsys):
    assert main(["reader-vs-pass1", "--seed-trace", "bogus"]) == 2
    assert "bad trace" in capsys.readouterr().err


def test_seed_trace_replay_of_native_schedule_passes():
    assert main(["reader-vs-pass1", "--seed-trace", "t1:-", "--max-schedules", "1"]) == 0


def test_json_report_shape(capsys, tmp_path):
    output = tmp_path / "report.json"
    code = main([
        "deadlock-victim",
        "--max-schedules", "8",
        "--json",
        "--output", str(output),
    ])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(output.read_text())
    assert printed == written
    assert printed["ok"] is True
    assert printed["max_schedules"] == 8
    summary = printed["scenarios"]["deadlock-victim"]
    assert summary["distinct_schedules"] >= 1
    assert summary["violations"] == []
    assert set(summary) >= {
        "distinct_schedules", "schedules_run", "max_depth",
        "pruned_by_hash", "pruned_by_independence",
        "frontier_exhausted", "violations",
    }


def test_human_output_mentions_schedule_counts(capsys):
    assert main(["deadlock-victim", "--max-schedules", "8"]) == 0
    out = capsys.readouterr().out
    assert "deadlock-victim" in out
    assert "distinct schedules" in out


def test_known_violations_are_reported_and_strict(capsys, monkeypatch):
    """A scenario in KNOWN_VIOLATIONS passes on its known invariants only,
    and fails once it runs clean, like a strict xfail."""
    from reprocheck import cli

    # The first schedules run clean; the sixth is the first to raise.
    assert main(["updater-vs-pass2", "--max-schedules", "8"]) == 0
    assert "(known: btree-structure, no-runtime-error)" in capsys.readouterr().out
    monkeypatch.setitem(cli.KNOWN_VIOLATIONS, "deadlock-victim", ("table1-compat",))
    assert main(["deadlock-victim", "--max-schedules", "3"]) == 1
    monkeypatch.setitem(cli.KNOWN_VIOLATIONS, "updater-vs-pass2", ("btree-structure",))
    assert main(["updater-vs-pass2", "--max-schedules", "8"]) == 1


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        (str(REPO_ROOT / "src"), str(REPO_ROOT / "tools"))
    )
    proc = subprocess.run(
        [sys.executable, "-m", "reprocheck", "deadlock-victim", "--max-schedules", "4"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "deadlock-victim" in proc.stdout
