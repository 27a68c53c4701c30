#!/usr/bin/env python3
"""Run one tqftkit benchmark workload and print its metrics.

    python3 tqftbench/run.py --workload algebra_suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics over whole
passes, at least three.  ``--trace 1`` runs passes untraced for half of
``--seconds``, then the same number of passes traced, and reports
per-layer metrics per pass and the tracing overhead.  ``--workload all`` runs every workload, each in its own
process.  Every result is checked; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The full
report, with the environment and seed, is also written to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tqftbench import harness  # noqa: E402
from tqftbench.algebra_suite import AlgebraSuite  # noqa: E402
from tqftbench.cli_batch import CliBatch  # noqa: E402
from tqftbench.term_recon import TermRecon  # noqa: E402

WORKLOADS = {w.name: w for w in (AlgebraSuite, TermRecon, CliBatch)}
CHILD_TIMEOUT_S = 900


def listed_metrics(section: str) -> list:
    """Names of the metrics ``BENCHMARK.json`` lists under ``section``."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def select(metrics: dict, names: list) -> dict:
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit(f"tqftbench: metrics not produced: {missing}")
    return {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names}


def measure(args) -> dict:
    factory = WORKLOADS[args.workload]
    workload, tq, setup_times = harness.setup_workload(
        factory, args.seed, args.size, harness.SETUP_REPEATS, T_START)
    # collections during timing then scan what the program allocates, not
    # the benchmark's own inputs
    gc.collect()
    gc.freeze()
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "env": harness.environment(tq),
        "setup_times_s": setup_times, "ops_per_pass": len(workload.ops),
    }
    try:
        if not args.trace:
            rec = harness.run_passes(workload, args.seconds, min_passes=harness.MIN_PASSES)
            records = [rec]
            metrics = harness.end_to_end(rec, len(workload.ops), setup_times)
            report["metrics"] = metrics
            report["listed_metrics"] = select(metrics, listed_metrics("end_to_end"))
        else:
            rec_u = harness.run_passes(workload, args.seconds / 2)
            from tqftbench.tracer import Tracer

            tracer = Tracer(tq)
            with tracer.installed():
                rec = harness.run_passes(workload, 0, min_passes=rec_u.passes,
                                         paused=tracer.paused)
            records = [rec_u, rec]
            leftover = tracer.leftover_wrappers()
            per_layer = tracer.metrics(rec.passes, rec_u.busy_s, rec.busy_s)
            self_sum = per_layer["trace.self_s_sum"]["value"]
            traced = per_layer["trace.wall_traced_s"]["value"]
            if leftover:
                rec.failures.append(f"tracer left wrappers installed: {leftover}")
            if self_sum > traced:
                rec.failures.append(f"self times {self_sum:.6f} s exceed traced time {traced:.6f} s")
            spans = harness.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write_spans(spans)
            report["spans_file"] = str(spans.relative_to(harness.ROOT))
            report["metrics"] = harness.end_to_end(rec_u, len(workload.ops), setup_times)
            report["per_layer"] = per_layer
            report["listed_metrics"] = select(per_layer, listed_metrics("per_layer"))
    finally:
        workload.close()
    report["passes"] = [r.passes for r in records]
    report["attempted"] = sum(r.attempted for r in records)
    report["failed"] = sum(r.failed for r in records)
    report["correct"] = all(r.correct for r in records)
    report["failures"] = [f for r in records for f in r.failures][:20]
    report["known_defects"] = records[-1].probe_outcomes
    return report


def summary(report: dict) -> str:
    lines = [f"{report['workload']} seed={report['seed']} passes={report['passes']} "
             f"attempted={report['attempted']} failed={report['failed']} correct={report['correct']}"]
    for name, m in report["metrics"].items():
        extra = f"p{m['percentile']:g}, " if "percentile" in m else ""
        lines.append(f"  {name:<12} {m['value']:.6g} {m['unit']} ({extra}n={m['samples']})")
    for name, outcome in report["known_defects"].items():
        lines.append(f"  probe {name}: {outcome}")
    for failure in report["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def run_all(args) -> dict:
    """Every workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"tqftbench: workload {name} exited {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few inputs per workload, for the benchmark's tests")
    args = parser.parse_args()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    report = measure(args)
    report["tracer_imported"] = "tqftbench.tracer" in sys.modules
    harness.OUT_DIR.mkdir(exist_ok=True)
    out = harness.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1))
    print(summary(report))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["listed_metrics"],
    }))


if __name__ == "__main__":
    main()
