"""Command-line front end: run scenarios, report violations, emit JSON.

:func:`common_parser` and :func:`run_scenarios` also serve ``python -m
reprorace``: the two tools differ only in the explorer they run a scenario
under, the default budget, reprocheck's two pruning flags, what ``--list``
prints and how one result is summarised.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Sequence

from repro.analysis.explorer import ExplorationResult, Explorer, TraceError

from reprocheck.scenarios import KNOWN_VIOLATIONS, SCENARIOS

USAGE_EXIT = 2
VIOLATION_EXIT = 1


def common_parser(
    prog: str, description: str, *, verb: str, default_budget: int, budget_note: str = ""
) -> argparse.ArgumentParser:
    """The options both front ends take; ``verb`` is what the tool does to
    a scenario, for the help texts."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help=f"scenario names to {verb} (see --list)",
    )
    parser.add_argument("--all", action="store_true", help="run every registered scenario")
    parser.add_argument("--list", action="store_true", help=f"list what there is to {verb}, then exit")
    parser.add_argument(
        "--max-schedules", type=int, default=default_budget, metavar="N",
        help=f"schedule budget per scenario (default %(default)s{budget_note})",
    )
    parser.add_argument(
        "--seed-trace", metavar="TRACE",
        help="start exploration from this trace (single scenario only); "
        "with --max-schedules 1 this is one deterministic replay",
    )
    parser.add_argument("--json", action="store_true", help="print the JSON report instead of human output")
    parser.add_argument(
        "--output", metavar="FILE",
        help="also write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument("--fail-fast", action="store_true", help="stop a scenario at its first violation")
    return parser


def run_scenarios(
    prog: str,
    args: argparse.Namespace,
    explorer: Any,
    counts: Callable[[ExplorationResult], str],
    extra_summary: Callable[[ExplorationResult], dict] = lambda result: {},
) -> int:
    """Explore the scenarios ``args`` names under ``explorer`` and report.

    ``counts(result)`` is the tool's one-line account of a result, printed
    between the scenario name and its status; ``extra_summary(result)`` is
    merged into the scenario's entry of the JSON report.
    """
    names = list(SCENARIOS) if args.all else list(args.scenarios)
    if not names:
        print(f"{prog}: no scenarios given (use --all or --list)", file=sys.stderr)
        return USAGE_EXIT
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(
            f"{prog}: unknown scenario(s) {unknown}; known: {list(SCENARIOS)}",
            file=sys.stderr,
        )
        return USAGE_EXIT
    if args.seed_trace and len(names) != 1:
        print(f"{prog}: --seed-trace needs exactly one scenario", file=sys.stderr)
        return USAGE_EXIT

    report: dict = {
        "max_schedules": args.max_schedules,
        "scenarios": {},
        "ok": True,
    }
    for name in names:
        try:
            result = explorer.explore(
                SCENARIOS[name],
                max_schedules=args.max_schedules,
                seed_trace=args.seed_trace,
                stop_on_first_violation=args.fail_fast,
            )
        except TraceError as err:
            print(f"{prog}: {name}: bad trace: {err}", file=sys.stderr)
            return USAGE_EXIT
        report["scenarios"][name] = result.to_dict() | extra_summary(result)
        known = KNOWN_VIOLATIONS.get(name)
        ok = result.ok
        if known is not None:
            # Strict, like an xfail: some violation, and only known ones.
            broken = {violation.invariant for violation in result.violations}
            ok = bool(broken) and broken <= set(known)
        report["ok"] = report["ok"] and ok
        if not args.json:
            status = "OK" if result.ok else f"{len(result.violations)} VIOLATION(S)"
            if known is not None:
                status += f" (known: {', '.join(known)})" if ok else (
                    f" (expected violations of {', '.join(known)} only)"
                )
            print(f"{name}: {counts(result)} — {status}")
            for violation in result.violations:
                print(f"  [{violation.invariant}] {violation.message}")
                print(
                    f"    replay: python -m {prog} {name} "
                    f"--seed-trace '{violation.trace}' --max-schedules 1"
                )
    if args.json:
        print(json.dumps(report, indent=2))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0 if report["ok"] else VIOLATION_EXIT


def _print_list() -> None:
    from repro.analysis import invariants

    print("scenarios:")
    for scenario in SCENARIOS.values():
        print(f"  {scenario.name:26s} {scenario.description}")
    print("invariants:")
    for invariant in invariants.REGISTRY.values():
        print(f"  {invariant.name:26s} [{invariant.scope}] {invariant.description}")


def _counts(result: ExplorationResult) -> str:
    return (
        f"{result.distinct_schedules} distinct schedules "
        f"({result.schedules_run} run, depth<={result.max_depth}, "
        f"pruned {result.pruned_by_hash} hash / "
        f"{result.pruned_by_independence} indep"
        f"{', exhausted' if result.frontier_exhausted else ''})"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = common_parser(
        "reprocheck",
        "Bounded schedule-exploration model checker for the "
        "reorg protocols (see docs/model_checking.md).",
        verb="explore",
        default_budget=1000,
    )
    parser.add_argument("--no-dpor", action="store_true", help="disable the independence filter")
    parser.add_argument("--no-hash-pruning", action="store_true", help="disable state-hash pruning")
    args = parser.parse_args(argv)
    if args.list:
        _print_list()
        return 0
    explorer = Explorer(dpor=not args.no_dpor, hash_pruning=not args.no_hash_pruning)
    return run_scenarios("reprocheck", args, explorer, _counts)
