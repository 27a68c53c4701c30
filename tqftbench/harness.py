"""Closed-loop measurement shared by every workload.

A workload's set-up builds the list of operations of one *pass*.  A pass
runs each operation once, in order, with one caller: the next operation
starts when the previous one returns.  Only the operation call is timed;
its oracle check runs after the clock stops.  A run repeats whole passes
until the requested time has elapsed and at least ``MIN_PASSES`` ran, so
every run measures the same operation mix whatever the machine's speed.
An operation's latency is the median of its latencies over the passes,
so that a spell of load from a neighbour on a shared machine, which
slows one pass, does not move the run's figures.

Known defects are *probes*: inputs that the program at some commit gets
wrong in a documented way.  A probe runs once per pass, untimed.  It is
counted in ``error_rate`` while it fails, and it never makes a run
incorrect unless it fails in an undocumented way.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
# Passes per measured run at least, so that each operation's median
# latency rejects one slow pass.
MIN_PASSES = 3

# Candidate percentiles for ``op_tail_ms``; the highest one that leaves at
# least ten samples beyond it in a single pass is used.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

# Submodules of the program that the benchmark calls into; ``cli`` is not
# imported by the package itself.
PROGRAM_MODULES = (
    "exactlin", "terms", "evaluate", "dualpairs", "frobenius",
    "algebras", "surfaces", "fusion", "cli",
)


class Mismatch(Exception):
    """An operation's result disagrees with its oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass
class Op:
    """One timed library or CLI call and the oracle check of its result."""

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Probe:
    """An input that hits a documented defect.

    ``check`` accepts the correct result; raising ``known`` is the
    documented failure.  Anything else is an undocumented failure.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    known: type


@dataclass
class Record:
    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    probe_runs: int = 0
    probe_failed: int = 0
    probe_outcomes: dict = field(default_factory=dict)
    passes: int = 0
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        """Time spent inside timed operations."""
        return sum(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected_probes(self) -> list:
        return [n for n, o in self.probe_outcomes.items() if o.startswith("wrong")]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.unexpected_probes


def load_program(root: Path = ROOT):
    """Import ``tqftkit`` afresh from ``root/src`` and return the package.

    Refuses any other copy of the package, so that the benchmark measures
    the source tree it ships with.
    """
    pkg_dir = root / "src" / "tqftkit"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"tqftbench: program source not found at {pkg_dir}")
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "tqftkit" or m.startswith("tqftkit.")]:
        del sys.modules[name]
    tq = importlib.import_module("tqftkit")
    for sub in PROGRAM_MODULES:
        importlib.import_module("tqftkit." + sub)
    if Path(tq.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"tqftbench: imported tqftkit from {tq.__file__}, not {pkg_dir}")
    return tq


def git_commit(root: Path = ROOT):
    """The checked-out commit read from ``.git`` without running git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(tq) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": tq.BACKEND,
        "TQFTKIT_PURE": os.environ.get("TQFTKIT_PURE"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def setup_workload(factory: Callable, seed: int, size: str, repeats: int, t_start: float):
    """Build the workload ``repeats`` times, each from a fresh import.

    The first repetition is timed from ``t_start`` (process start as seen
    by the entry script), so it includes the interpreter's own imports.
    Returns the last workload, its program package and every set-up time.
    """
    times = []
    workload = tq = None
    for rep in range(repeats):
        t0 = t_start if rep == 0 else time.perf_counter()
        if workload is not None:
            workload.close()
        tq = load_program()
        workload = factory(tq, seed, size)
        times.append(time.perf_counter() - t0)
    return workload, tq, times


def _run_pass(workload, rec: Record, paused: Callable[[], ContextManager]) -> None:
    perf = time.perf_counter
    for op in workload.ops:
        t0 = perf()
        try:
            result = op.call()
        except Exception as exc:  # a failing operation is data, the loop goes on
            rec.latencies.append(perf() - t0)
            rec.kinds.append(op.kind)
            rec.failures.append(f"{op.label}: {type(exc).__name__}: {str(exc)[:200]}")
            continue
        rec.latencies.append(perf() - t0)
        rec.kinds.append(op.kind)
        with paused():
            try:
                op.check(result)
            except Exception as exc:  # wrong result, or the oracle itself broke
                rec.failures.append(f"{op.label}: {type(exc).__name__}: {str(exc)[:200]}")
    with paused():
        for probe in workload.probes:
            rec.probe_runs += 1
            try:
                probe.check(probe.call())
                outcome = "pass"
            except probe.known as exc:
                outcome = f"known defect: {type(exc).__name__}"
            except Exception as exc:
                outcome = f"wrong: {type(exc).__name__}: {str(exc)[:200]}"
            if outcome != "pass":
                rec.probe_failed += 1
            if not rec.probe_outcomes.get(probe.name, "").startswith("wrong"):
                rec.probe_outcomes[probe.name] = outcome


def run_passes(workload, seconds: float, min_passes: int = 1,
               paused: Callable[[], ContextManager] = contextlib.nullcontext) -> Record:
    """Run whole passes until ``seconds`` have elapsed and ``min_passes`` ran."""
    rec = Record()
    start = time.perf_counter()
    while rec.passes < min_passes or time.perf_counter() - start < seconds:
        _run_pass(workload, rec, paused)
        rec.passes += 1
    rec.wall_s = time.perf_counter() - start
    return rec


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in one pass.

    Every pass runs the same operations, so a run of several passes has
    at least as many samples beyond it, and the choice does not depend on
    how many passes fitted in the run.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if ops_per_pass - math.ceil(p / 100.0 * ops_per_pass) >= 10:
            best = p
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rec: Record, ops_per_pass: int, setup_times: list) -> dict:
    """The six end-to-end metrics, each with unit and sample count.

    Timing metrics use each operation's median latency over the passes.
    """
    n = ops_per_pass
    lat = sorted(statistics.median(rec.latencies[i::n]) for i in range(n))
    tail_p = tail_percentile(n)
    samples = len(rec.latencies)
    attempts = samples + rec.probe_runs
    return {
        "ops_per_s": {"value": n / sum(lat), "unit": "1/s", "samples": samples},
        "op_p50_ms": {"value": 1000.0 * percentile(lat, 50.0), "unit": "ms", "samples": samples},
        "op_tail_ms": {"value": 1000.0 * percentile(lat, tail_p), "unit": "ms",
                       "samples": samples, "percentile": tail_p},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s",
                    "samples": len(setup_times)},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "samples": 1},
        "error_rate": {"value": (rec.failed + rec.probe_failed) / attempts, "unit": "ratio",
                       "samples": attempts},
    }
