"""The ``python -m reprorace`` front end: argument handling, exit codes,
JSON report shape (including the ``data_races`` count), and the
acceptance-critical zero-race scenarios (the auto-reorg daemon and the
sharded reorganizer under exploration)."""

import json
import os
import subprocess
import sys

from tests.analysis.conftest import REPO_ROOT

from reprorace.cli import main
from reprocheck.scenarios import SCENARIOS


def test_list_names_every_scenario_and_the_race_kinds(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    for kind in ("write-write", "read-write", "unvalidated-read"):
        assert kind in out


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


def test_seed_trace_replay_race_checks_one_schedule(capsys):
    code = main(["reader-vs-pass1", "--seed-trace", "t1:-", "--max-schedules", "1"])
    assert code == 0
    assert "race-checked" in capsys.readouterr().out


def test_daemon_and_shard_reorg_report_zero_races(capsys, tmp_path):
    """The unmodified tree — the auto-reorg daemon and the sharded
    ParallelReorganizer included — is race-free on every explored schedule."""
    output = tmp_path / "report.json"
    code = main([
        "daemon-vs-readers",
        "shard-reorg-scan",
        "--max-schedules", "4",
        "--json",
        "--output", str(output),
    ])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(output.read_text())
    assert printed == written
    assert printed["ok"] is True
    for name in ("daemon-vs-readers", "shard-reorg-scan"):
        summary = printed["scenarios"][name]
        assert summary["data_races"] == 0
        assert summary["violations"] == []
        assert summary["distinct_schedules"] >= 1
        assert set(summary) >= {
            "distinct_schedules", "schedules_run", "frontier_exhausted",
            "violations", "data_races",
        }


def test_human_output_mentions_race_checked_schedules(capsys):
    assert main(["deadlock-victim", "--max-schedules", "4"]) == 0
    out = capsys.readouterr().out
    assert "deadlock-victim" in out
    assert "distinct schedules" in out
    assert "race-checked" in out


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        (str(REPO_ROOT / "src"), str(REPO_ROOT / "tools"))
    )
    proc = subprocess.run(
        [sys.executable, "-m", "reprorace", "deadlock-victim", "--max-schedules", "2"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "deadlock-victim" in proc.stdout
