#!/usr/bin/env python3
"""Summarise one set of benchmark reports, or compare two.

    python3 benchmarks/e2e/compare.py RUNS_DIR             # spread per metric
    python3 benchmarks/e2e/compare.py BASE_DIR NEW_DIR     # verdict per metric

A set is a directory of the JSON reports ``run.py --out DIR`` writes.
For each workload x end-to-end metric the first form prints the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread — the
quartile distance as a share of the median — against a third of the
metric's bound in ``BENCHMARK.json`` (the benchmark's steadiness target;
``setup_s`` is exempt).  The second form prints both sets' medians and
quartiles and a verdict:

* ``better``  — every new run beats every base run, or the new side
  wins at least 9 of 10 seed-paired runs and the medians differ by more
  than the base's quartile distance;
* ``worse``   — the new median is worse than the base's by more than the
  bound;
* ``unresolved`` — the spread of either set exceeds the bound, so the
  bound cannot be checked (unless the sets separate completely);
* ``unchanged`` — otherwise.

Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict[str, dict]:
    spec = json.loads(path.read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Untraced reports by workload."""
    reports = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text())
        if not report.get("trace"):
            reports[report["workload"]].append(report)
    return reports


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def _values(reports: list[dict], name: str) -> dict[int, float]:
    return {r["seed"]: r["metrics"][name]["value"] for r in reports if name in r["metrics"]}


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    a, b = list(base.values()), list(new.values())
    median_a = statistics.median(a)
    worse_by = sign * (statistics.median(b) - median_a) / abs(median_a)
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "better"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    seeds = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in seeds] or [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if sign * y < sign * x) / len(pairs)
    if wins >= 0.9 and -worse_by > spread(a):
        return "better"
    return "unchanged"


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:10.4f} [{q1:.4f}, {q3:.4f}]"


def summarise(runs: dict[str, list[dict]], bounds: dict[str, dict]) -> list[str]:
    lines = [f"{'workload':<14} {'metric':<15} {'n':>3} {'median [q1, q3]':>32} "
             f"{'spread':>7} {'bound/3':>7}  status"]
    for workload in sorted(runs):
        for name, spec in bounds.items():
            values = list(_values(runs[workload], name).values())
            if not values:
                continue
            target = spec["bound"] / 3
            status = "-" if name == "setup_s" else (
                "ok" if spread(values) < target else "NOISY")
            lines.append(f"{workload:<14} {name:<15} {len(values):>3} {_fmt(values):>32} "
                         f"{spread(values):7.3f} {target:7.3f}  {status}")
    return lines


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]],
            bounds: dict[str, dict]) -> tuple[list[str], bool]:
    lines = [f"{'workload':<14} {'metric':<15} {'base median [q1, q3]':>32} "
             f"{'new median [q1, q3]':>32} {'change':>8}  verdict"]
    any_worse = False
    for workload in sorted(set(base) & set(new)):
        for name, spec in bounds.items():
            a, b = _values(base[workload], name), _values(new[workload], name)
            if not a or not b:
                continue
            result = verdict(a, b, spec["better"], spec["bound"])
            any_worse |= result == "worse"
            change = statistics.median(b.values()) / statistics.median(a.values()) - 1.0
            lines.append(f"{workload:<14} {name:<15} {_fmt(list(a.values())):>32} "
                         f"{_fmt(list(b.values())):>32} {100 * change:7.2f}%  {result}")
    return lines, any_worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    bounds = load_bounds()
    if args.new is None:
        print("\n".join(summarise(load_set(args.base), bounds)))
        return 0
    lines, any_worse = compare(load_set(args.base), load_set(args.new), bounds)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
