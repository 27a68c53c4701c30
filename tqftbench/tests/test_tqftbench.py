"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root:  python -m pytest tqftbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from tqftbench import compare, harness, oracles  # noqa: E402
from tqftbench.algebra_suite import AlgebraSuite  # noqa: E402
from tqftbench.run import WORKLOADS  # noqa: E402
from tqftbench.term_recon import TermRecon  # noqa: E402
from tqftbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIX = {"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb", "error_rate"}


def run_tiny(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "tqftbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = last_line(run_tiny(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert [*result["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    report = json.loads((harness.OUT_DIR / f"{workload}-seed3-trace0.json").read_text())
    assert set(report["metrics"]) == SIX
    assert report["seed"] == 3 and report["tracer_imported"] is False
    assert {"python", "backend", "TQFTKIT_PURE", "nproc", "git_commit"} <= set(report["env"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    result = last_line(run_tiny(workload, 1))
    assert result["correct"] is True
    assert [*result["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    metrics = result["metrics"]
    assert metrics["trace.self_s_sum"]["value"] <= metrics["trace.wall_traced_s"]["value"]


def test_known_defects_count_in_error_rate_only():
    report_path = harness.OUT_DIR / "term_recon-seed3-trace0.json"
    last_line(run_tiny("term_recon", 0))
    report = json.loads(report_path.read_text())
    assert report["failed"] == 0
    outcome = report["known_defects"]["eval_term(genus_term(2000)) on z2"]
    if outcome != "pass":
        assert outcome == "known defect: RecursionError"
        assert report["metrics"]["error_rate"]["value"] > 0


def test_tracer_removes_every_wrapper():
    tq = harness.load_program()
    workload = TermRecon(tq, seed=1, size="tiny")
    matmul = tq.exactlin.matmul
    tracer = Tracer(tq)
    with tracer.installed():
        assert tq.evaluate.matmul is not matmul
        assert "Matrix.identity" in tracer.leftover_wrappers()
        rec = harness.run_passes(workload, 0, paused=tracer.paused)
    assert rec.correct
    assert tracer.leftover_wrappers() == []
    assert tq.evaluate.matmul is matmul and tq.frobenius.matmul is matmul
    assert len(tracer.span_start) > 0


def test_wrong_expected_value_shows_in_error_rate(monkeypatch):
    tq = harness.load_program()
    right = oracles.group_invariant
    monkeypatch.setattr(oracles, "group_invariant", lambda n: lambda g: right(n)(g) + 1)
    workload = AlgebraSuite(tq, seed=1, size="tiny")
    rec = harness.run_passes(workload, 0)
    metrics = harness.end_to_end(rec, len(workload.ops), [1.0])
    assert not rec.correct
    assert metrics["error_rate"]["value"] > 0
    assert any("closed form" in f for f in rec.failures)


def test_seed_draws_the_inputs():
    tq = harness.load_program()
    terms = [TermRecon(tq, seed, "tiny").random_terms for seed in (1, 1, 2)]
    assert terms[0] == terms[1] and terms[0] != terms[2]
    commands = []
    for seed in (1, 1, 2):
        workload = WORKLOADS["cli_batch"](tq, seed, "tiny")
        commands.append([op.label.replace(workload.dir, "") for op in workload.ops])
        workload.close()
    assert commands[0] == commands[1] and commands[0] != commands[2]


def test_bare_directory_refuses_to_run():
    harness.OUT_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=harness.OUT_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "tqftbench", bare / "tqftbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_tiny("cli_batch", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_different_backends():
    report = {"workload": "cli_batch", "trace": 0, "env": {"backend": "python"},
              "metrics": {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"]}}
    other = dict(report, env={"backend": "compiled"})
    assert compare.compare([report], [report], SPEC)
    with pytest.raises(ValueError, match="different backends"):
        compare.compare([report], [other], SPEC)
