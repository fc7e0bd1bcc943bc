"""Scenario loading, synthetic observation generation and result export.

A scenario is one self-contained JSON document per experiment (see
docs/scenario-schema.md for the schema and the table of defaults).
Loading validates everything and reports the complete list of problems,
not just the first.  Trajectories are exported as CSV with 17-significant-
digit floats so re-parsing reproduces samples bit-exactly.  A forward
solve's trajectory can also be written while the solve runs, from the
blocks of states it streams out (TrajectoryCsvWriter).
"""

from __future__ import annotations

import csv
import json
import numbers
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .control import ControlPair, PenaltyConfig
from .errors import ValidationError
from .identify import IdentConfig, Observations, n0_of
from .integrate import MAX_STEPS, Grid, Trajectory
from .linearize import AdjointTrajectory
from .model import (CoefficientTable, ModelParams, State, param_errors, simulate,
                    total_population)
from .stability import StabilityConfig

TASKS = ("simulate", "identify", "control", "stability", "synth")

#: blocks each task requires beyond params (defaults fill the rest)
_REQUIRED = {
    "simulate": ("x0", "grid"),
    "identify": ("observations",),
    "control": ("x0", "grid", "penalty"),
    "stability": ("x0",),
    "synth": ("grid", "synth"),
}

DEFAULT_GRID_M = 10_000
DEFAULT_WEIGHTS = (1e-6, 1e-6)


@dataclass(frozen=True)
class SynthSpec:
    """Planted ground truth for generating synthetic observations."""

    params: ModelParams
    grid: Grid
    beta_I_true: CoefficientTable
    A0_true: float
    I0_true: float
    L0: float
    R0: float
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        n0 = self.params.N - (self.L0 + self.R0)
        errs = []
        if self.L0 < 0 or self.R0 < 0:
            errs.append("synth.L0 and synth.R0 must be >= 0")
        if self.A0_true < 0 or self.I0_true < 0 or self.A0_true + self.I0_true > n0 + 1e-12:
            errs.append("planted (A0, I0) must lie in K0")
        if self.noise < 0:
            errs.append("synth.noise must be >= 0")
        if errs:
            raise ValidationError(errs)


@dataclass
class Scenario:
    name: str
    description: str
    task: str
    params: ModelParams
    x0: State | None = None
    grid: Grid | None = None
    observations: Observations | None = None
    weights: tuple = DEFAULT_WEIGHTS
    penalty: PenaltyConfig | None = None
    solver: IdentConfig | None = None
    synth: SynthSpec | None = None
    stability: StabilityConfig = StabilityConfig()
    seed: int = 0


def _num(value, locus: str, errs: list, integer: bool = False):
    """value as a finite float (an int when integer).

    Anything else (text, bools, null, lists, NaN, infinities, or a fraction
    where an integer is due) adds an error naming the field and gives None.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if integer and isinstance(value, numbers.Integral):
            return int(value)
        if abs(value) <= np.finfo(float).max and (not integer or float(value).is_integer()):
            return int(value) if integer else float(value)
    errs.append(f"{locus} must be {'an integer' if integer else 'a finite number'}")
    return None


def _nums(value, locus: str, errs: list):
    """A list of finite numbers, or None with one error naming the field."""
    bad: list[str] = []
    vals = [_num(v, locus, bad) for v in value] if isinstance(value, list) else None
    if vals is None or bad:
        errs.append(f"{locus} must be a list of finite numbers")
        return None
    return vals


def _object(value, locus: str, errs: list) -> dict | None:
    """value when it is a JSON object, else None with an error naming the block."""
    if isinstance(value, dict):
        return value
    errs.append(f"{locus} must be an object")
    return None


def _table(spec, locus: str, errs: list) -> CoefficientTable | None:
    """A scalar (constant coefficient) or a {knots, values} table."""
    if isinstance(spec, dict):
        knots = _nums(spec.get("knots"), f"{locus}.knots", errs)
        values = _nums(spec.get("values"), f"{locus}.values", errs)
    else:
        knots, values = [0.0], [_num(spec, locus, errs)]
    if knots is None or values is None or None in values:
        return None
    try:
        return CoefficientTable(np.asarray(knots, dtype=float), np.asarray(values, dtype=float))
    except ValidationError as err:
        errs.extend(f"{locus}: {m}" for m in err.errors)
        return None


def _read(cls, block, locus: str, errs: list, task: str, defaults=None, **given):
    """An instance of the dataclass cls read from the JSON object block.

    Fields named in given are passed through; every other field is the
    block key of the same name, read by its declared type: float and int
    by _num, tuple as a list of finite numbers, CoefficientTable by _table
    and ControlPair as a nested object.  An absent key takes defaults[name]
    or the dataclass default, and is reported as required if it has none.
    Keys that name no field are ignored.  Every problem goes to errs (those
    raised by cls itself under locus, joined by "." to a leading field
    name) and then the result is None.
    """
    block = _object(block, locus, errs)
    if block is None:
        return None
    block = {**(defaults or {}), **block}
    kw = dict(given)
    for f in fields(cls):
        name = f"{locus}.{f.name}"
        if f.name in given:
            continue
        if f.name not in block:
            if f.default is MISSING and f.default_factory is MISSING:
                errs.append(f"{name} required for task={task}")
                kw[f.name] = None
            continue
        value, kind = block[f.name], f.type  # annotation text: evaluation is postponed
        if kind == "CoefficientTable":
            kw[f.name] = _table(value, name, errs)
        elif kind == "ControlPair":
            kw[f.name] = _read(ControlPair, value, name, errs, task)
        elif kind == "tuple":
            kw[f.name] = _nums(value, name, errs)
        else:
            kw[f.name] = _num(value, name, errs, integer=kind == "int")
    if any(v is None for v in kw.values()):
        return None
    try:
        return cls(**kw)
    except ValidationError as err:
        names = {f.name for f in fields(cls)}
        errs.extend(f"{locus}{'.' if m.split(' ', 1)[0] in names else ': '}{m}"
                    for m in err.errors)
        return None


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and fully validate a Scenario; raises with every error found."""
    errs: list[str] = []
    task = doc.get("task")
    if task not in TASKS:
        errs.append(f"task must be one of {TASKS}")
        raise ValidationError(errs)

    def block(cls, name, **kw):
        return None if doc.get(name) is None else _read(cls, doc[name], name, errs, task, **kw)

    for name in ("params",) + _REQUIRED[task]:
        if doc.get(name) is None:
            errs.append(f"{name} required for task={task}")
    seed = _num(doc.get("seed", 0), "seed", errs, integer=True)
    params = block(ModelParams, "params")
    x0 = block(State, "x0")
    grid = block(Grid, "grid", defaults={"t0": 0.0, "M": DEFAULT_GRID_M})
    observations = block(Observations, "observations")
    penalty = block(PenaltyConfig, "penalty")

    if params is not None and params.N != 1.0:
        errs.append("params.N must be 1 (normalized model)")
        params = None
    elif params is not None:
        errs.extend(f"params: {m}" for m in param_errors(params))

    if x0 is not None:
        if min(x0.as_array()) < 0:
            errs.append("x0 components must be >= 0")
        if params is not None and abs(total_population(x0) - params.N) > 1e-9:
            errs.append("x0 components must sum to N")

    if task == "identify" and observations is not None:
        if grid is None:
            grid = Grid(0.0, observations.T, DEFAULT_GRID_M)
        elif abs(grid.T - observations.T) > 1e-9 * max(1.0, observations.T) or grid.t0 != 0.0:
            errs.append("grid must span [0, observations.T] for task=identify")
        if params is not None and not n0_of(params, observations) > 0:
            errs.append("observations leave no unobserved mass: L0 + R0 >= N")

    if grid is not None and grid.M > MAX_STEPS:
        errs.append(f"grid.M must be <= {MAX_STEPS}")

    if task == "control" and penalty is not None and x0 is not None:
        if not penalty.Lhat > x0.L:
            errs.append("Lhat must exceed L0")

    w = _object(doc.get("weights", {}), "weights", errs) or {}
    weights = tuple(_num(w.get(k, d), f"weights.{k}", errs)
                    for k, d in zip(("alpha0", "alpha1"), DEFAULT_WEIGHTS))
    errs.extend(f"weights.{k} must be > 0" for k, v in zip(("alpha0", "alpha1"), weights)
                if v is not None and not v > 0)

    synth = block(SynthSpec, "synth", params=params, grid=grid, seed=seed)
    solver = None
    if task == "identify":  # other tasks ignore the solver block's keys
        solver = _read(IdentConfig, doc.get("solver", {}), "solver", errs, task)
    else:
        _object(doc.get("solver", {}), "solver", errs)
    stability = _read(StabilityConfig, doc.get("stability", {}), "stability", errs, task)
    if stability is not None and stability.horizon / stability.h > MAX_STEPS:
        errs.append(f"stability.horizon / stability.h must be <= {MAX_STEPS} steps")

    if params is not None and grid is not None:
        errs.extend(f"params: {m}" for m in param_errors(params, t_max=grid.T)
                    if "cover" in m)

    if errs:
        raise ValidationError(errs)
    return Scenario(name=str(doc.get("name", "")), description=str(doc.get("description", "")),
                    task=task, params=params, x0=x0, grid=grid, observations=observations,
                    weights=weights, penalty=penalty, solver=solver,
                    synth=synth, stability=stability, seed=seed)


def _apply_override(doc: dict, item: str):
    if "=" not in item:
        raise ValidationError([f"override '{item}' is not KEY=VALUE"])
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValidationError([f"override path '{key}' crosses a non-object field"])
    node[parts[-1]] = value


def read_scenario_doc(path, task: str | None = None, seed: int | None = None,
                      overrides=()) -> dict:
    """Parse a scenario file into its document, then set task and seed when
    given and apply KEY=VALUE overrides (dotted path, JSON value) in order."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError([f"scenario file not found: {path}"])
    except json.JSONDecodeError as err:
        raise ValidationError([f"parse error at line {err.lineno}, column {err.colno}: {err.msg}"])
    if not isinstance(doc, dict):
        raise ValidationError(["scenario document must be a JSON object"])
    if task is not None:
        doc["task"] = task
    if seed is not None:
        doc["seed"] = seed
    for item in overrides:
        _apply_override(doc, item)
    return doc


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; errors carry their locus."""
    return scenario_from_dict(read_scenario_doc(path))


def synth_observations(spec: SynthSpec):
    """Forward-solve the planted truth; return (Observations, reference Trajectory).

    Optional additive uniform noise (magnitude spec.noise, generator seeded
    by spec.seed) perturbs the four observed values, clamped back into the
    admissible range.  Deterministic for a fixed seed.
    """
    n0 = spec.params.N - (spec.L0 + spec.R0)
    x0 = (n0 - spec.A0_true - spec.I0_true, spec.A0_true, spec.I0_true, spec.L0, spec.R0)
    traj = simulate(spec.params.replace(beta_I=spec.beta_I_true), x0, spec.grid)
    vals = np.array([spec.L0, spec.R0, float(traj.L[-1]), float(traj.R[-1])])
    if spec.noise > 0:
        rng = np.random.default_rng(spec.seed)
        vals = np.clip(vals + rng.uniform(-spec.noise, spec.noise, 4), 0.0, 1.0)
        if vals[0] + vals[1] > spec.params.N:
            vals[:2] *= (spec.params.N - 1e-12) / (vals[0] + vals[1])
    obs = Observations(L0=float(vals[0]), R0=float(vals[1]),
                       LT=float(vals[2]), RT=float(vals[3]), T=spec.grid.T)
    return obs, traj


_CSV_BLOCK = 1024  # rows formatted per write; bounds the writer's memory whatever M is


def _render(cols) -> str:
    # The CSV rows of a block given as one list of floats per column.  One
    # "%.17g" row template: byte-identical to format(x, ".17g") per value
    # (also for -0, nan, inf and subnormals).
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    return "".join([row % r for r in zip(*cols)])


def _write_csv(path, header, t, columns):
    cols = [t, *columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, t.size, _CSV_BLOCK):
            fh.write(_render([c[lo:lo + _CSV_BLOCK].tolist() for c in cols]))


_TRAJECTORY_HEADER = "t,S,A,I,L,R"


def _cores() -> int:
    # the CPUs this process may run on
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TrajectoryCsvWriter:
    """trajectory.csv written from the blocks of states a forward solve
    streams out, with the same bytes as write_trajectory_csv:

        with TrajectoryCsvWriter(path, grid) as out:
            traj = simulate(params, x0, grid, block_done=out.send)

    send(lo, hi, rows) takes the states lo..hi-1 of the grid, in order.
    Where os.fork exists and the process may run on more than one CPU, a
    child process renders them while the caller goes on: each block goes
    to it down a pipe as one frame, (lo, hi) as two int64 then the raw
    float64 rows, and a send waits only while the pipe is full.  The child
    uses no BLAS and ends by os._exit, so it flushes none of the parent's
    buffers.  Otherwise (on one CPU the fork and the pipe cost more than
    they overlap), or when the pipe or the fork fails, send only keeps the
    rows, which must not change afterwards, and close renders them all
    in-process: rendered between the solve's blocks, the same rows took
    about 5% longer in all (one CPU of a 2-vCPU Xeon VM, Python 3.11).

    Leaving the with-block closes the writer, waiting for the child.  An
    error inside it, or a writer that failed, leaves no file and no child;
    a writer failure is an OSError naming the file.
    """

    def __init__(self, path, grid: Grid):
        self.path = path
        self._t = grid.points()
        self._pid = self._pipe = None
        self._held = []  # blocks sent, when they are rendered in-process
        # opened here, so that an unwritable path fails as in write_trajectory_csv
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        if hasattr(os, "fork") and _cores() > 1:
            self._start_child()
        if self._pid is None:  # render in-process
            self._fh.write(_TRAJECTORY_HEADER + "\n")

    def _start_child(self):
        try:
            r, w = os.pipe()
        except OSError:  # no file descriptor to spare
            return
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(r)
            os.close(w)
            return
        if pid == 0:
            status = 255
            try:
                os.close(w)
                status = self._serve(r)
            finally:
                os._exit(status)
        os.close(r)
        self._fh.close()  # the child writes through its own copy
        self._pid, self._pipe = pid, os.fdopen(w, "wb")

    def _render_rows(self, lo, hi, rows) -> str:
        return _render([self._t[lo:hi].tolist(), *rows.T.tolist()])

    def _serve(self, fd) -> int:
        # The child: render frames until the parent closes the pipe.  Its
        # exit status is 0, or the errno of the OSError that stopped it.
        import gc
        gc.disable()  # collecting the parent's garbage here could flush its files
        try:
            with os.fdopen(fd, "rb") as pipe, self._fh:
                self._fh.write(_TRAJECTORY_HEADER + "\n")
                while head := pipe.read(16):
                    lo, hi = np.frombuffer(head, dtype=np.int64).tolist()
                    rows = np.frombuffer(pipe.read(40 * (hi - lo))).reshape(hi - lo, 5)
                    self._fh.write(self._render_rows(lo, hi, rows))
        except OSError as err:
            return err.errno or 255
        return 0

    def send(self, lo: int, hi: int, rows):
        """Write the states lo..hi-1, the (hi - lo, 5) array rows, which
        must not change until the writer is closed."""
        if self._pid is None:
            self._held.append((lo, hi, rows))
            return
        try:
            self._pipe.write(np.array([lo, hi], dtype=np.int64).tobytes()
                             + np.asarray(rows, dtype=float).tobytes())
        except BrokenPipeError:  # the child stopped early: report why
            self.close()
            raise

    def close(self):
        """Finish the file: every row sent is written once this returns;
        OSError naming the file if the writer failed."""
        if self._pid is None:
            if not self._fh.closed:  # in-process, and not closed yet
                try:
                    self._fh.writelines(self._render_rows(*block) for block in self._held)
                finally:
                    self._fh.close()
            return
        try:
            self._pipe.close()
        except BrokenPipeError:
            pass  # the child's exit status says why
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            msg = os.strerror(code) if 0 < code < 255 else f"writer exited with status {code}"
            raise OSError(code, msg, str(self.path))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # an error raised inside the block takes precedence over the writer's
        failed = exc_type is not None
        if failed:
            self._held.clear()  # not worth rendering
        try:
            self.close()
        except OSError:
            failed = True
            if exc_type is None:
                raise
        finally:
            if failed:
                os.unlink(self.path)


def write_trajectory_csv(traj: Trajectory, path):
    t = traj.grid.points()
    _write_csv(path, _TRAJECTORY_HEADER, t, [traj.S, traj.A, traj.I, traj.L, traj.R])


def write_adjoint_csv(adj: AdjointTrajectory, path):
    t = adj.grid.points()
    _write_csv(path, "t,p,q,d,e,f", t, [adj.p, adj.q, adj.d, adj.e, adj.f])


def write_series_csv(path, name: str, grid: Grid, values):
    _write_csv(path, f"t,{name}", grid.points(), [np.asarray(values, dtype=float)])


def read_csv_columns(path):
    """Re-parse an exported CSV; returns (header fields, columns as float arrays)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, [data[:, j] for j in range(data.shape[1])]


def _json_default(obj):
    # numpy scalars and arrays as Python values; np.float64 is already a float
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_summary_json(summary: dict, path):
    """Structured solver summary; field order is exactly insertion order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, default=_json_default)
        fh.write("\n")
