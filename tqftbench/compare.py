#!/usr/bin/env python3
"""Compare two sets of benchmark reports, metric by metric.

    python3 tqftbench/compare.py --base .bench_out/A*.json --change .bench_out/B*.json

Each file is a report written by ``run.py``.  The comparison is refused
(exit 2) when the reports do not all share one ``tqftkit.BACKEND``: the
compiled and the pure-Python kernels are different programs.  For every
workload and end-to-end metric it prints both medians, the relative
change in the metric's better direction, and whether the change stays
within the bound set in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> list:
    return [json.loads(Path(p).read_text()) for p in paths]


def backends(reports) -> set:
    return {r["env"]["backend"] for r in reports}


def compare(base: list, change: list, spec: dict) -> list:
    """Rows (workload, metric, base median, change median, worse-by, bound)."""
    found = backends(base) | backends(change)
    if len(found) != 1:
        raise ValueError(f"refusing to compare results of different backends: {sorted(found)}")
    rows = []
    for m in spec["end_to_end"]:
        for workload in sorted({r["workload"] for r in base}):
            def median(reports):
                vals = [r["metrics"][m["name"]]["value"] for r in reports
                        if r["workload"] == workload and not r["trace"]]
                return statistics.median(vals) if vals else None

            b, c = median(base), median(change)
            if b is None or c is None:
                continue
            worse = (c - b) / b if m["better"] == "lower" else (b - c) / b
            rows.append((workload, m["name"], b, c, worse, m["bound"]))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(load(args.base), load(args.change), spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for workload, name, b, c, worse, bound in rows:
        verdict = "REGRESSION" if worse > bound else "ok"
        print(f"{workload:<14} {name:<12} base {b:<12.6g} change {c:<12.6g} "
              f"worse by {100 * worse:+.1f}% (bound {100 * bound:.0f}%) {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
