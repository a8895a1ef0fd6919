"""Command line of the benchmark (see ``bench/README.md``).

``--workload W`` measures one workload in this very process and prints, as
the last line of stdout, the JSON object the benchmark contract asks for.
Without ``--workload`` every workload runs one after another, each in a
fresh ``python`` subprocess so ``ru_maxrss`` and heap state are its own,
and the collected set is written to ``bench/out/`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import REPO_ROOT

OUT_DIR = Path(__file__).resolve().parent / "out"
DEFAULT_SECONDS = {"full": 8, "smoke": 1}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload: 5 timed repeats at the "
                        "default (8, smoke 1), more in proportion above it")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="1: traced run, prints per-layer metrics")
    parser.add_argument("--profile", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, help="also write the full record here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def cpu_jiffies() -> tuple[int, int]:
    """(stolen, total) CPU time of the whole box so far, from /proc/stat;
    (0, 0) where there is none.  Steal is time a hypervisor gave to others:
    the load average does not see it, the wall clock does."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "git_commit": commit,
        "load_1min_start": os.getloadavg()[0],
        "_jiffies_start": cpu_jiffies(),
    }


def close_environment(env: dict) -> None:
    env["load_1min_end"] = os.getloadavg()[0]
    stolen0, total0 = env.pop("_jiffies_start")
    stolen1, total1 = cpu_jiffies()
    env["cpu_steal_frac"] = (stolen1 - stolen0) / (total1 - total0) if total1 > total0 else 0.0
    #: More runnable processes than cores at either end, or the hypervisor
    #: took more than 3 % of the CPU time away: wall numbers are suspect.
    env["noisy"] = (
        max(env["load_1min_start"], env["load_1min_end"]) > env["nproc"]
        or env["cpu_steal_frac"] > 0.03
    )


def print_table(title: str, rows: list[tuple], columns: tuple[str, ...]) -> None:
    print(f"\n{title}")
    table = [columns] + [tuple(str(cell) for cell in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(columns))]
    for row in table:
        print(("  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths))).rstrip())


def fmt(value: float) -> str:
    return f"{value:.6g}"


def cell(entry: dict | None) -> str:
    """One cell of the all-workloads table."""
    if entry is None:
        return "failed"
    return fmt(entry["value"]) if entry.get("applies", True) else "n/a"


def run_one(args: argparse.Namespace) -> int:
    # Imported here so --compare and --help work without the library.
    from bench import trace as tracing
    from bench.metrics import PER_LAYER
    from bench.runner import MIN_REPEATS, WORKLOADS, end_to_end, measure, per_layer
    from bench.workloads import SIZES

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else DEFAULT_SECONDS[args.profile]
    sizes = SIZES[args.profile][args.workload]
    env = environment(args.seed)
    workload = WORKLOADS[args.workload](sizes, args.seed)
    # The sizes make MIN_REPEATS repeats measure for about the default
    # --seconds on the reference box; a longer request adds repeats.
    repeats = max(
        MIN_REPEATS, round(MIN_REPEATS * seconds / DEFAULT_SECONDS[args.profile])
    )
    run = measure(workload, repeats)
    failures = list(run.failures)
    record: dict = {
        "workload": args.workload, "profile": args.profile, "seconds": seconds,
        "sizes": sizes, "env": env, "timed_repeats": max(0, len(run.repeats) - 1),
    }
    if not failures:
        if workload.oracle_self_check():
            record["oracle_self_check"] = "tripped"
        else:
            failures.append("oracle self-check did not trip on a key-removed oracle")
    if not failures:
        record["end_to_end"] = end_to_end(workload, run)
        print_table(
            f"{args.workload}: end-to-end (seed {args.seed}, {args.profile}, "
            f"{record['timed_repeats']} timed repeats)",
            [(name, fmt(m["value"]) if m["applies"] else "n/a", m["unit"], m["better"],
              m["clock"], f"{m['bound']:.0%}", fmt(m.get("iqr", 0.0)))
             for name, m in record["end_to_end"].items()],
            ("metric", "value", "unit", "better", "clock", "bound", "iqr"),
        )
    if args.trace and not failures:
        latency = workload.latency()
        tracer = tracing.Tracer()
        tracing.calibrate(tracer)
        tracing.install(tracer)
        try:
            traced_workload = WORKLOADS[args.workload](sizes, args.seed, tracer)
            traced_workload.build()
            traced = traced_workload.run()
            failures.extend(f"traced run: {text}" for text in traced.failures)
        except Exception as error:  # as in measure(): a failure, not a crash
            failures.append(f"traced run: exception {error!r}")
        finally:
            tracing.uninstall()
    if args.trace and not failures:
        untraced_wall = statistics.median(rep.wall_s for rep in run.repeats[1:])
        tracer.set_overhead(untraced_wall)
        table = tracer.layer_table()
        traced_sum = sum(row["traced_self_s"] for row in table.values())
        print_table(
            f"{args.workload}: layers of the traced run (traced wall "
            f"{traced.wall_s:.3f}s, traced self times sum to {traced_sum:.3f}s, "
            f"untraced wall {untraced_wall:.3f}s)",
            [(layer, int(row["calls"]), f"{row['traced_self_s']:.4f}",
              f"{row['self_s']:.4f}", f"{row['share']:.1%}")
             for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])],
            ("layer", "calls", "traced_self_s", "self_s", "share"),
        )
        values = per_layer(workload, run, latency, tracer, traced)
        record["per_layer"] = {
            m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER
        }
        record["layer_table"] = table
        record["traced_wall_s"] = traced.wall_s
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace_{args.workload}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "layer_table": table, **tracer.dump()})
        )
        print_table(
            f"{args.workload}: per-layer metrics",
            [(m.name, fmt(values[m.name]), m.unit, m.better, m.layer, m.source, m.moves)
             for m in PER_LAYER],
            ("metric", "value", "unit", "better", "layer", "source", "should move"),
        )
    close_environment(env)
    for text in failures:
        print(f"FAILURE: {text}", file=sys.stderr)
    record.update(attempted=run.attempted, failed=len(failures), failures=failures)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": not failures,
        "attempted": run.attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record.get(section, {}).items()
        },
    }))
    return 1 if failures else 0


def run_all(args: argparse.Namespace) -> int:
    from bench.metrics import WORKLOADS

    seconds = args.seconds if args.seconds is not None else DEFAULT_SECONDS[args.profile]
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    records: dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        part = OUT_DIR / f"run_{name}.json"
        part.unlink(missing_ok=True)
        code = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace),
             "--profile", args.profile, "--out", str(part)],
            cwd=REPO_ROOT,
        ).returncode
        status = status or code
        if part.exists():
            records[name] = json.loads(part.read_text())
    close_environment(env)
    out = args.out or OUT_DIR / f"set_{time.strftime('%Y%m%d_%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"env": env, "profile": args.profile, "seconds": seconds,
         "trace": args.trace, "workloads": records}, indent=1))
    section = "per_layer" if args.trace else "end_to_end"
    names = list(next(iter(records.values()), {}).get(section, {}))
    print_table(
        f"all workloads: {section} (set written to {out})",
        [(name, *(cell(rec.get(section, {}).get(name)) for rec in records.values()))
         for name in names],
        ("metric", *records),
    )
    failed = {name: rec["failed"] / rec["attempted"] for name, rec in records.items()}
    print("failed_frac: " + "  ".join(f"{n}={f:.6g}" for n, f in failed.items()))
    if env["noisy"]:
        print(f"NOISY: load average {env['load_1min_end']:.2f} on {env['nproc']} cores, "
              f"CPU steal {env['cpu_steal_frac']:.1%}; wall metrics are suspect")
    return status or (1 if len(records) < len(WORKLOADS) else 0)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.compare:
        from bench.compare import compare

        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
