"""Spans around sailr's layer entry points, recorded from outside the package.

A traced task swaps each entry point named in WRAPPED for a wrapper that
records a span (name, start, end, parent, task id), then restores the
originals.  Spans stay in memory until the run writes them out once.  A
name that a later version of sailr no longer has is reported as absent and
the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (span name, module under sailr., attribute).  The modules are the callers:
# a span sits where cli, identify or control reach into the next layer.
WRAPPED = (
    ("scenario.load", "cli", "scenario_from_dict"),
    ("scenario.export", "cli", "write_trajectory_csv"),
    ("scenario.export", "cli", "write_adjoint_csv"),
    ("scenario.export", "cli", "write_series_csv"),
    ("scenario.export", "cli", "write_summary_json"),
    ("model.simulate", "cli", "simulate"),
    ("model.simulate", "identify", "simulate"),
    ("model.simulate", "control", "simulate"),
    ("model.vjp", "identify", "_rk4_model_vjp"),
    ("linearize.adjoint_p0", "identify", "adjoint_p0"),
    ("linearize.adjoint_p_eps", "control", "adjoint_p_eps"),
    ("linearize.tangent_p", "control", "tangent_p"),
    ("identify", "identify", "solve_p0"),
    ("control", "control", "solve_p"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in WRAPPED))
ROOT = "cli"   # the span the harness opens around each cli.main call
SWEEPS = ("model.simulate", "model.vjp", "linearize.adjoint_p0",
          "linearize.adjoint_p_eps", "linearize.tangent_p")


def _steps(args) -> int:
    """Grid steps of a sweep call: from its Grid or its trajectory's grid."""
    for a in args:
        grid = getattr(a, "grid", a)
        if isinstance(getattr(grid, "M", None), int) and hasattr(grid, "h"):
            return grid.M
    return 0


def _identify_info(res) -> dict:
    return {"iterations": int(res.iterations)}


def _control_info(res) -> dict:
    stages = res.per_eps_history
    return {"stages": len(stages),
            "stalled": sum(1 for st in stages if not st.converged),
            "fallback": sum(1 for st in stages if st.used_fallback),
            "sweeps": int(res.forward_solves)}


_INFO = {"identify": _identify_info, "control": _control_info}


class Recorder:
    """Spans of one traced run, as parallel lists indexed by span id."""

    def __init__(self):
        self.name, self.start, self.end = [], [], []
        self.parent, self.task, self.steps = [], [], []
        self.info = {}
        self.task_id = -1
        self._stack = []

    def open(self, name: str, steps: int = 0) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.steps.append(steps)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        inspect = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, _steps(args) if name in SWEEPS else 0)
            try:
                res = fn(*args, **kwargs)
            except Exception as err:
                if inspect is not None and getattr(err, "best", None) is not None:
                    self.info[idx] = inspect(err.best)
                raise
            finally:
                self.close(idx)
            if inspect is not None:
                self.info[idx] = inspect(res)
            return res
        return traced

    def dump(self, path):
        """Write every span, one JSON list per line, once at the end of a run."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "task", "steps"]) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.task,
                           self.steps):
                fh.write(json.dumps(row) + "\n")


def present_spans() -> tuple:
    """(present, absent) span names for the installed sailr."""
    found = set()
    for name, module, attr in WRAPPED:
        if hasattr(importlib.import_module(f"sailr.{module}"), attr):
            found.add(name)
    return (tuple(n for n in SPAN_NAMES if n in found),
            tuple(n for n in SPAN_NAMES if n not in found))


@contextmanager
def patched(rec: Recorder):
    """Swap the wrapped entry points in for the duration of one traced task."""
    saved = []
    for name, module, attr in WRAPPED:
        mod = importlib.import_module(f"sailr.{module}")
        fn = getattr(mod, attr, None)
        if fn is not None:
            saved.append((mod, attr, fn))
            setattr(mod, attr, rec.wrap(name, fn))
    try:
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer totals over every traced task: {metric: (value, unit)}."""
    n = len(rec.name)
    child = [0.0] * n
    for i in range(n):
        if rec.parent[i] >= 0:
            child[rec.parent[i]] += rec.end[i] - rec.start[i]
    calls = dict.fromkeys(SPAN_NAMES + (ROOT,), 0)
    self_s = dict.fromkeys(SPAN_NAMES + (ROOT,), 0.0)
    steps = dict.fromkeys(SPAN_NAMES, 0)
    ls_evals = 0
    for i in range(n):
        nm = rec.name[i]
        calls[nm] += 1
        self_s[nm] += (rec.end[i] - rec.start[i]) - child[i]
        if nm in steps:
            steps[nm] += rec.steps[i]
        if nm == "model.simulate" and rec.parent[i] >= 0 \
                and rec.name[rec.parent[i]] == "identify":
            ls_evals += 1
    # solve_p0 runs one forward solve before its first line search
    ls_evals = max(0, ls_evals - calls["identify"])

    def total(span, key):
        return sum(v[key] for i, v in rec.info.items() if rec.name[i] == span)

    m = {"cli.self_s": (self_s[ROOT], "s"),
         "scenario.load.self_s": (self_s["scenario.load"], "s"),
         "scenario.export.self_s": (self_s["scenario.export"], "s")}
    for span in SWEEPS:
        m[f"{span}.calls"] = (calls[span], "count")
        m[f"{span}.self_s"] = (self_s[span], "s")
        if span != "linearize.tangent_p":
            us = 1e6 * self_s[span] / steps[span] if steps[span] else 0.0
            m[f"{span}.us_per_step"] = (us, "us")
    iters = total("identify", "iterations")
    m["identify.iterations"] = (iters, "count")
    m["identify.linesearch_evals"] = (ls_evals, "count")
    m["identify.linesearch_accept_ratio"] = (iters / ls_evals if ls_evals else 0.0, "ratio")
    m["identify.self_s"] = (self_s["identify"], "s")
    stages = total("control", "stages")
    stalled = total("control", "stalled")
    m["control.stages"] = (stages, "count")
    m["control.stalled_stages"] = (stalled, "count")
    m["control.fallback_stages"] = (total("control", "fallback"), "count")
    m["control.stage_converged_ratio"] = ((stages - stalled) / stages if stages else 0.0,
                                          "ratio")
    m["control.sweeps_per_stage"] = (total("control", "sweeps") / stages if stages else 0.0,
                                     "count")
    m["control.self_s"] = (self_s["control"], "s")
    return m
