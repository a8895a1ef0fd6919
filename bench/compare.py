"""``python -m bench --compare A.json B.json``: one row per workload x metric.

A and B are set files written by ``python -m bench`` (``--out``).  The
verdict for B against A is

* ``same``       — the medians differ by no more than the metric's bound;
* ``better`` / ``worse`` — they differ by more, in that direction;
* ``unresolved`` — either side's IQR exceeds the bound *and* the two sample
  ranges overlap, so the repeats cannot separate the two medians.

Deterministic metrics have no spread: any difference beyond the bound is a
verdict, and an exact match is ``same``.  The exit code is non-zero on any
``worse`` or on a higher failed fraction.
"""

from __future__ import annotations

import json
from pathlib import Path


def verdict(a: dict, b: dict) -> str:
    """Compare one metric entry of set B against the same entry of set A."""
    if not a.get("applies", True):
        return "n/a"
    bound, med_a, med_b = a["bound"], a["value"], b["value"]
    change = (med_b - med_a) / med_a if med_a else 0.0
    if a["better"] == "higher":
        change = -change  # positive change now always means "worse"
    samples_a, samples_b = a.get("samples"), b.get("samples")
    if samples_a and samples_b:
        noisy = a["iqr"] / med_a > bound or b["iqr"] / med_b > bound
        overlap = min(samples_a) <= max(samples_b) and min(samples_b) <= max(samples_a)
        if noisy and overlap:
            return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def failed_fraction(record: dict) -> float:
    return record["failed"] / record["attempted"]


def compare(path_a: Path, path_b: Path) -> int:
    set_a = json.loads(path_a.read_text())["workloads"]
    set_b = json.loads(path_b.read_text())["workloads"]
    regressions = 0
    header = f"{'workload':14} {'metric':20} {'A median':>14} {'A iqr':>10} " \
             f"{'B median':>14} {'B iqr':>10} {'bound':>6}  verdict"
    print(header)
    for name, rec_a in set_a.items():
        rec_b = set_b.get(name)
        if rec_b is None:
            print(f"{name:14} missing from {path_b}")
            regressions += 1
            continue
        frac_a, frac_b = failed_fraction(rec_a), failed_fraction(rec_b)
        flag = "worse" if frac_b > frac_a else "same"
        regressions += flag == "worse"
        print(f"{name:14} {'failed_frac':20} {frac_a:14.6g} {'':>10} "
              f"{frac_b:14.6g} {'':>10} {0:6.2f}  {flag}")
        for metric, a in rec_a.get("end_to_end", {}).items():
            b = rec_b.get("end_to_end", {}).get(metric)
            if b is None:
                continue
            result = verdict(a, b)
            if result == "n/a":
                continue
            regressions += result == "worse"
            print(f"{name:14} {metric:20} {a['value']:14.6g} {a.get('iqr', 0.0):10.3g} "
                  f"{b['value']:14.6g} {b.get('iqr', 0.0):10.3g} {a['bound']:6.2f}  {result}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0
