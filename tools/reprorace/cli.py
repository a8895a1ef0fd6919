"""Command-line front end: race-check scenarios across explored schedules.

``python -m reprorace SCENARIO`` reuses the reprocheck scenario registry,
exploration machinery and command line (:mod:`reprocheck.cli`), but every
schedule executes under the hybrid lockset + happens-before detector
(:mod:`repro.analysis.racedetect`).  A race on any schedule is a
``data-race`` violation carrying the two access sites, the vector-clock
evidence, and the ``t1:i.j.k`` replay trace.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.explorer import ExplorationResult
from repro.analysis.racedetect import RaceExplorer

from reprocheck.cli import common_parser, run_scenarios
from reprocheck.scenarios import SCENARIOS


def _print_list() -> None:
    print("scenarios (shared with reprocheck):")
    for scenario in SCENARIOS.values():
        print(f"  {scenario.name:26s} {scenario.description}")
    print(
        "races reported: write-write, read-write, unvalidated-read "
        "(version-validated optimistic reads are benign by design)"
    )


def _counts(result: ExplorationResult) -> str:
    return (
        f"{result.distinct_schedules} distinct schedules "
        f"race-checked ({result.schedules_run} run"
        f"{', exhausted' if result.frontier_exhausted else ''})"
    )


def _data_races(result: ExplorationResult) -> dict:
    races = [v for v in result.violations if v.invariant == "data-race"]
    return {"data_races": len(races)}


def main(argv: Sequence[str] | None = None) -> int:
    args = common_parser(
        "reprorace",
        "Dynamic data-race detector over reprocheck schedule "
        "exploration (see docs/static_analysis.md).",
        verb="race-check",
        default_budget=200,
        budget_note="; every schedule is race-checked, so budgets are "
        "cheaper than reprocheck's",
    ).parse_args(argv)
    if args.list:
        _print_list()
        return 0
    return run_scenarios("reprorace", args, RaceExplorer(), _counts, _data_races)
