"""Smoke test of the benchmark harness at small size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs each workload with --small, untraced and traced, and checks that every
metric BENCHMARK.json names is emitted, that every task was checked, that
inputs are byte-identical for one seed, and that the checks reject bad
outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / ".work" / f"{workload}-seed3-trace{trace}" / "result.json")
                        .read_text(encoding="utf-8"))
    return result, detail


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_and_every_task_checked(workload, trace):
    result, detail = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert set(result["metrics"]) == set(names)
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(detail["records"]) >= 1
    assert all(r["ok"] and r["sweeps"] >= 1 for r in detail["records"])
    assert all(r["ref_seconds"] > 0 for r in detail["records"])
    assert {"nproc", "cpu_model", "python", "numpy", "blas_threads"} <= set(detail["machine"])
    if not trace:
        assert set(detail["wall_s"]) == {"setup_s", "run_s", "task_s_p50", "task_s_p90"}
    if trace:
        m = result["metrics"]
        assert abs(m["trace.self_time_gap"]["value"]) < 1e-3
        assert detail["absent_spans"] == ["linearize.tangent_p"]


@pytest.mark.parametrize("workload", ["simulate", "identify"])
def test_inputs_are_byte_identical_for_a_seed(workload, tmp_path):
    first = workloads.write_tasks(workloads.GENERATORS[workload](7, 3, True), tmp_path / "a")
    again = workloads.write_tasks(workloads.GENERATORS[workload](7, 3, True), tmp_path / "b")
    other = workloads.write_tasks(workloads.GENERATORS[workload](8, 3, True), tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


def _summary(tmp_path, **fields) -> Path:
    (tmp_path / "trajectory.csv").write_text("t\n0\n", encoding="utf-8")
    (tmp_path / "summary.json").write_text(json.dumps(fields), encoding="utf-8")
    return tmp_path


def test_checks_reject_bad_outputs(tmp_path):
    sim = workloads.Task("simulate", {})
    assert workloads.check(sim, 0, _summary(tmp_path, runtime=1,
                                            residuals={"conservation_drift": 1e-12}))[0]
    assert not workloads.check(sim, 0, _summary(tmp_path, runtime=1,
                                                residuals={"conservation_drift": 1e-8}))[0]
    assert not workloads.check(sim, 1, _summary(tmp_path, runtime=1,
                                                residuals={"conservation_drift": 0.0}))[0]
    ctl = workloads.Task("control", {}, {"reference": workloads.CONTROL_REFERENCE["full"]})
    good = {"runtime": 9859, "converged": True, "constraint_violation": 7.6e-5,
            "controls": {"lA": 0.0994, "lI": 0.0800}}
    assert workloads.check(ctl, 0, _summary(tmp_path, **good))[0]
    far = dict(good, controls={"lA": 0.0, "lI": 0.34})
    assert not workloads.check(ctl, 0, _summary(tmp_path, **far))[0]
    assert not workloads.check(ctl, 0, _summary(tmp_path, **dict(good, converged=False)))[0]
    idf = workloads.Task("identify", {}, {"tol": 1e-7, "truth": {"A0": 0.1, "I0": 0.05}})
    fit = {"runtime": 20, "residuals": {"optimality": 5e-8, "terminal_mismatch_sq": 1e-11},
           "candidate": {"A0": 0.1, "I0": 0.05}}
    assert workloads.check(idf, 0, _summary(tmp_path, **fit))[0]
    loose = dict(fit, residuals={"optimality": 1e-6, "terminal_mismatch_sq": 1e-11})
    assert not workloads.check(idf, 0, _summary(tmp_path, **loose))[0]


def test_missing_sources_fail_without_a_result(tmp_path):
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_bytes((HERE / name).read_bytes())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
