"""Benchmark of sailr's CLI tasks: simulate, identify and control.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

One client runs one task after another in this process (a closed loop),
calling sailr.cli.main as a user's `sailr <task>` would, with BLAS pinned to
one thread.  Every task's outputs are checked.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, timings in reference-host
seconds (see HostClock); with --trace 1 each task is run once untraced and
once traced, and the metrics are the per-layer ones (see README.md).
Details of the run, wall times included, go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
# Median _probe() time on the 2-vCPU VM the benchmark was tuned on.
PROBE_REF_S = 0.0095


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("simulate", "identify", "control"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="intended length of the timed phase; sets the task count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="a few small tasks, for the harness smoke test")
    return ap.parse_args(argv)


def _machine() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _fresh_import():
    """A new interpreter importing sailr, which every CLI invocation pays."""
    subprocess.run([sys.executable, "-c", "import sailr.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=120,
                   cwd=ROOT)


def _probe() -> float:
    """Seconds for a fixed piece of interpreter work like sailr's hot loops:
    pure-Python float arithmetic (RK4 steps of a small ODE) and float
    formatting, which dominate the CLI tasks."""
    t0 = time.perf_counter()
    x, y, h = 0.9, 0.1, 1e-3
    for _ in range(5000):
        k1x, k1y = -x * y, x * y - 0.2 * y
        x2, y2 = x + 0.5 * h * k1x, y + 0.5 * h * k1y
        k2x, k2y = -x2 * y2, x2 * y2 - 0.2 * y2
        x3, y3 = x + 0.5 * h * k2x, y + 0.5 * h * k2y
        k3x, k3y = -x3 * y3, x3 * y3 - 0.2 * y3
        x4, y4 = x + h * k3x, y + h * k3y
        k4x, k4y = -x4 * y4, x4 * y4 - 0.2 * y4
        x += h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += h / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y)
    ",".join(format(x * k, ".17g") for k in range(6000))
    return time.perf_counter() - t0


class HostClock:
    """Times calls in wall seconds and in reference-host seconds.

    The host's speed drifts by +-20% in phases of seconds to minutes, which
    moves every wall time with it.  A short probe runs before and after each
    timed call; the call's reference time is its wall time scaled by
    PROBE_REF_S over the mean of the two probes.  On simulate this cut the
    variation of 10-task means from 16% to 2% on the tuning VM (2 vCPUs).
    """

    def __init__(self):
        self.probes = [_probe()]

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.probes.append(_probe())
        return result, wall, wall * 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1])


def _clear(directory: Path):
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def _run_task(cli, argv) -> int:
    try:
        return cli.main(argv)
    except Exception:  # a crash is a failed task, not a failed benchmark
        traceback.print_exc()
        return -1


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "sailr" / "__init__.py").is_file():
        print(f"perfbench: sailr sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sailr
    from sailr import cli
    if Path(sailr.__file__).resolve().parent != SRC / "sailr":
        print(f"perfbench: imported sailr from {sailr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _clear(work)
    n = workloads.task_count(args.workload, args.seconds, args.small)
    if args.trace:
        n = math.ceil(n / 2)  # each task runs twice: untraced and traced

    def prepare(r):
        _fresh_import()
        tasks = workloads.GENERATORS[args.workload](args.seed, n, args.small)
        return tasks, workloads.write_tasks(tasks, work / f"inputs{r}")

    clock = HostClock()
    setup = []
    for r in range(SETUP_REPEATS):
        (tasks, paths), wall, ref = clock.time(prepare, r)
        setup.append((wall, ref))
    for r in range(SETUP_REPEATS - 1):
        shutil.rmtree(work / f"inputs{r}")

    rec = tracing.Recorder()
    outdir = work / "out"
    records = []
    export_bytes = 0

    def main_in_span(argv):
        span = rec.open(tracing.ROOT)
        try:
            return _run_task(cli, argv)
        finally:
            rec.close(span)

    for i, (task, path) in enumerate(zip(tasks, paths)):
        argv = [task.kind, "--scenario", str(path), "--out", str(outdir), "--quiet"]
        order = ((False, True) if i % 2 == 0 else (True, False)) if args.trace else (False,)
        for traced in order:
            _clear(outdir)
            rec.task_id = i
            with tracing.patched(rec) if traced else nullcontext():
                code, wall, ref = clock.time(main_in_span if traced else partial(_run_task, cli),
                                             argv)
            if traced:
                export_bytes += _bytes_in(outdir)
            ok, sweeps, note = workloads.check(task, code, outdir)
            records.append({"task": i, "traced": traced, "exit": code, "ok": ok,
                            "seconds": wall, "ref_seconds": ref, "sweeps": sweeps,
                            "note": note})
    shutil.rmtree(outdir, ignore_errors=True)
    untraced = [r for r in records if not r["traced"]]
    host_speed = PROBE_REF_S / statistics.median(clock.probes)

    failed = [r for r in records if not r["ok"]]
    fail_frac = len(failed) / len(records)
    if args.trace:
        present, absent = tracing.present_spans()
        layer = tracing.layer_metrics(rec)
        self_total = sum(v for k, (v, _) in layer.items() if k.endswith(".self_s"))
        run_traced = sum(r["seconds"] for r in records if r["traced"])
        metrics = dict(layer)
        metrics["scenario.export.bytes"] = (export_bytes, "B")
        metrics["trace.overhead_frac"] = (run_traced / sum(r["seconds"] for r in untraced) - 1.0,
                                          "ratio")
        metrics["trace.self_time_gap"] = (self_total / run_traced - 1.0, "ratio")
        metrics["trace.absent_spans"] = (len(absent), "count")
        metrics["trace.tasks"] = (len(records) - len(untraced), "count")
        metrics["fail_frac"] = (fail_frac, "ratio")
        rec.dump(work / "spans.jsonl")
        extra = {"absent_spans": list(absent), "present_spans": list(present)}
    else:
        def timings(setup_s, task_s):
            return {"setup_s": statistics.median(setup_s), "run_s": sum(task_s),
                    "task_s_p50": statistics.median(task_s),
                    "task_s_p90": (statistics.quantiles(task_s, n=10, method="inclusive")[8]
                                   if len(task_s) > 1 else task_s[0])}
        metrics = {k: (v, "s") for k, v in timings(
            [ref for _, ref in setup], [r["ref_seconds"] for r in records]).items()}
        metrics["sweeps"] = (sum(r["sweeps"] for r in records), "count")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")
        extra = {"wall_s": timings([wall for wall, _ in setup],
                                   [r["seconds"] for r in records])}
    machine = _machine()
    detail = {"args": vars(args), "machine": machine, "tasks_per_run": n,
              "setup_s": setup, "fail_frac": fail_frac,
              "host_speed": host_speed, "probes_s": clock.probes,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "records": records, **extra}
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print("machine: " + json.dumps(machine))
    walls = f"; wall times {json.dumps(extra['wall_s'])}" if "wall_s" in extra else ""
    print(f"host speed {host_speed:.4f} of the reference host "
          f"(median of {len(clock.probes)} probes){walls}")
    sweeps = [r["sweeps"] for r in records]
    print(f"tasks: {len(records)} run, {len(failed)} failed (fail_frac {fail_frac:.4f}); "
          f"sweeps per task min/median/max {min(sweeps)}/{statistics.median(sweeps)}/"
          f"{max(sweeps)} (each task's in result.json)")
    for r in failed:
        print(f"failed task {r['task']} ({'traced' if r['traced'] else 'untraced'}): "
              f"{r['note']}")
    if args.trace and absent:
        print("absent spans: " + ", ".join(absent))
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
