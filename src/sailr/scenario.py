"""Scenario loading, synthetic observation generation and result export.

A scenario is one self-contained JSON document per experiment (see
docs/scenario-schema.md for the schema and the table of defaults).
Loading validates everything and reports the complete list of problems,
not just the first.  Trajectories are exported as CSV with 17-significant-
digit floats so re-parsing reproduces samples bit-exactly.  GridCsvWriter
writes the same bytes from blocks of rows, in a forked child wherever
os.fork exists and a second CPU is usable: a forward solve's trajectory
while the solve runs, or an adjoint while the caller writes its other files.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
import re
import sys
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .child import Child, frame, frame_heads
from .control import ControlPair, PenaltyConfig, lhat_errors
from .errors import ValidationError
from .identify import (IdentConfig, Observations, grid_errors, in_k0, mass_errors,
                       weight_errors)
from .integrate import Grid, Trajectory
from .linearize import AdjointTrajectory
from .model import CoefficientTable, ModelParams, State, param_errors, simulate
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
        errs = []
        if not (self.L0 >= 0 and self.R0 >= 0):  # a NaN fails it too
            errs.append("L0 and R0 must be >= 0")
        errs += mass_errors(self.L0, self.R0)
        if not in_k0(self.A0_true, self.I0_true, 1.0 - (self.L0 + self.R0)):
            errs.append("planted (A0, I0) must lie in K0")
        if not 0 <= self.noise <= 1:  # beyond 1 the clamped observations carry no signal
            errs.append("noise must be in [0, 1]")
        if self.seed < 0:  # np.random.default_rng takes none
            errs.append("seed must be >= 0")
        if not self.beta_I_true.covers(self.grid.t0, self.grid.T):
            errs.append(f"beta_I_true: table does not cover [{self.grid.t0}, {self.grid.T}]")
        ValidationError.check(errs)


@dataclass
class Scenario:
    name: str
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
        if abs(value) <= sys.float_info.max and (not integer or float(value).is_integer()):
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
    raised by cls itself under locus, with each field of a leading "M",
    "L0 + R0" or "horizon / h" named under it) and then the result is None.
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
        names = {f.name for f in fields(cls)} - given.keys()
        for m in err.errors:
            lead = re.match(r"\w*(?: [-+*/] \w+)*", m)[0]
            errs.append(re.sub(r"\w+", rf"{locus}.\g<0>", lead) + m[len(lead):]
                        if set(lead.split(" ")[::2]) <= names else f"{locus}: {m}")
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

    if isinstance(doc.get("params"), dict) and "N" in doc["params"]:  # not a ModelParams field
        if _num(doc["params"]["N"], "params.N", errs) not in (None, 1.0):
            errs.append("params.N must be 1 (normalized model)")

    if task == "identify" and observations is not None:
        if grid is None:
            grid = Grid(0.0, observations.T, DEFAULT_GRID_M)
        errs += grid_errors(grid, observations)

    if task == "control" and penalty is not None and x0 is not None:
        errs += lhat_errors(penalty, x0)

    w = _object(doc.get("weights", {}), "weights", errs) or {}
    weights = tuple(_num(w.get(k, d), f"weights.{k}", errs)
                    for k, d in zip(("alpha0", "alpha1"), DEFAULT_WEIGHTS))
    if None not in weights:
        errs.extend(f"weights.{m}" for m in weight_errors(*weights))

    synth = block(SynthSpec, "synth", params=params, grid=grid, seed=seed)
    solver = None
    if task == "identify":  # other tasks ignore the solver block's keys
        solver = _read(IdentConfig, doc.get("solver", {}), "solver", errs, task)
    else:
        _object(doc.get("solver", {}), "solver", errs)
    stability = _read(StabilityConfig, doc.get("stability", {}), "stability", errs, task)

    if params is not None:
        errs.extend(f"params: {m}" for m in param_errors(params, grid))

    ValidationError.check(errs)
    return Scenario(name=str(doc.get("name", "")), task=task, params=params, x0=x0,
                    grid=grid, observations=observations, weights=weights, penalty=penalty,
                    solver=solver, synth=synth, stability=stability, seed=seed)


def _json_int(locus: str):
    """json's parse_int: int, but an integer longer than Python converts
    (sys.get_int_max_str_digits) is a ValidationError naming locus."""
    def parse(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:
            raise ValidationError([f"{locus}: an integer has more than "
                                   f"{sys.get_int_max_str_digits()} digits"]) from None
    return parse


def _apply_override(doc: dict, item: str):
    if "=" not in item:
        raise ValidationError([f"override '{item}' is not KEY=VALUE"])
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw, parse_int=_json_int(f"override '{key}'"))
    except json.JSONDecodeError:
        value = raw
    except RecursionError:
        raise ValidationError([f"override '{key}': value nested too deeply"])
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
        try:
            fh = open(path, "r", encoding="utf-8")
        except ValueError as err:  # a NUL byte in the path; json.load's are parse errors
            raise ValidationError([f"cannot read scenario file {os.fspath(path)!r}: {err}"])
        with fh:
            doc = json.load(fh, parse_int=_json_int("parse error"))
    except FileNotFoundError:
        raise ValidationError([f"scenario file not found: {path}"])
    except OSError as err:  # a directory, say, or no permission
        raise ValidationError([f"cannot read scenario file {path}: {err.strerror}"])
    except UnicodeDecodeError as err:
        raise ValidationError([f"cannot read scenario file {path}: {err}"])
    except json.JSONDecodeError as err:
        raise ValidationError([f"parse error at line {err.lineno}, column {err.colno}: {err.msg}"])
    except RecursionError:
        raise ValidationError(["parse error: arrays or objects nested too deeply"])
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
    n0 = 1.0 - (spec.L0 + spec.R0)
    x0 = (n0 - spec.A0_true - spec.I0_true, spec.A0_true, spec.I0_true, spec.L0, spec.R0)
    traj = simulate(spec.params.replace(beta_I=spec.beta_I_true), x0, spec.grid)
    vals = np.array([spec.L0, spec.R0, float(traj.L[-1]), float(traj.R[-1])])
    if spec.noise > 0:
        rng = np.random.default_rng(spec.seed)
        vals = np.clip(vals + rng.uniform(-spec.noise, spec.noise, 4), 0.0, 1.0)
        if vals[0] + vals[1] >= 1.0:  # Observations needs L0 + R0 < 1
            vals[:2] *= (1.0 - 1e-12) / (vals[0] + vals[1])
    obs = Observations(L0=float(vals[0]), R0=float(vals[1]),
                       LT=float(vals[2]), RT=float(vals[3]), T=spec.grid.T)
    return obs, traj


_CSV_BLOCK = 1024  # rows formatted per write; bounds the writer's memory whatever M is

TRAJECTORY_HEADER = "t,S,A,I,L,R"
ADJOINT_HEADER = "t,p,q,d,e,f"


def _csv_rows(t, cols):
    # The CSV rows of the samples t and the equal-length columns cols,
    # _CSV_BLOCK rows per string.  One "%.17g" row template: byte-identical
    # to format(x, ".17g") per value (also for -0, nan, inf and subnormals).
    row = ",".join(["%.17g"] * (1 + len(cols))) + "\n"
    for lo in range(0, len(t), _CSV_BLOCK):
        block = [c[lo:lo + _CSV_BLOCK].tolist() for c in (t, *cols)]
        yield "".join([row % r for r in zip(*block)])


@contextmanager
def _naming(path):
    # an OSError from writing an open file names no file: name path
    try:
        yield
    except OSError as err:
        if err.filename is None:
            err.filename = os.fspath(path)
        raise


def _write_csv(path, header, t, columns):
    with _naming(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(_csv_rows(t, columns))


class GridCsvWriter:
    """A CSV file of grid samples, header then one row per grid point (t
    and one value per further header field), written from blocks of rows
    sent in order, with the same bytes as write_trajectory_csv and the other
    write_*_csv functions:

        with GridCsvWriter(path, TRAJECTORY_HEADER, grid) as out:
            traj = simulate(params, x0, grid, block_done=out.send)

    send(lo, hi, rows) takes the rows lo..hi-1 of the grid; a caller that
    has every row already sends them as one block.  Where os.fork exists
    and a second CPU is usable, a child process (`child.Child`) renders them
    while the caller goes on: each block goes to it down a pipe as one
    `child.frame`, header (lo, hi) then the raw float64 rows from the
    array's own buffer, and a send waits only while the pipe is full, not
    while the child renders.  The child uses no BLAS.  Without such a child,
    or when the pipe or the fork fails, send renders the block in-process
    before it returns.

    Leaving the with-block closes the writer, waiting for the child; a
    writer failure is an OSError naming the file.  An error inside the
    block kills the child instead of waiting for it.  Either way no child
    is left, and the file is the caller's to remove.
    """

    def __init__(self, path, header: str, grid: Grid):
        self.path = path
        self._header = header
        self._width = header.count(",")  # values per row after t
        self._t = grid.points()
        # opened here, so that an unwritable path fails as in _write_csv
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._child = Child(self._serve)
        if self._child.pid is None:  # render in-process
            self._fh.write(header + "\n")
        else:
            self._fh.close()  # the child writes through its own copy

    def _write_rows(self, lo, hi, rows):
        self._fh.writelines(_csv_rows(self._t[lo:hi], rows.T))

    def _serve(self, pipe) -> int:
        # The child: render frames until the parent closes the pipe.  Its
        # exit status is 0, or the errno of the OSError that stopped it.
        try:
            with self._fh:
                self._fh.write(self._header + "\n")
                for lo, hi in frame_heads(pipe):
                    rows = np.frombuffer(pipe.read(8 * self._width * (hi - lo)))
                    self._write_rows(lo, hi, rows.reshape(hi - lo, self._width))
        except OSError as err:
            return err.errno or 255
        return 0

    def send(self, lo: int, hi: int, rows):
        """Write the rows lo..hi-1, the (hi - lo, width) array rows."""
        if self._child.pid is None:
            with _naming(self.path):
                self._write_rows(lo, hi, rows)
            return
        pipe = self._child.files[0]
        try:
            pipe.write(frame(lo, hi))
            pipe.write(np.ascontiguousarray(rows, dtype=float))
        except BrokenPipeError:  # the child stopped early: report why
            self.close()
            raise

    def close(self):
        """Finish the file: every row sent is written once this returns;
        OSError naming the file if the writer failed."""
        if self._child.pid is None:
            with _naming(self.path):
                self._fh.close()
            return
        code = self._child.wait()
        if code:
            msg = os.strerror(code) if 0 < code < 255 else f"writer exited with status {code}"
            raise OSError(code, msg, os.fspath(self.path))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        elif self._child.pid is None:
            with suppress(OSError):  # the error raised inside the block takes precedence
                self._fh.close()
        else:  # its rows are not worth rendering
            self._child.kill()


def write_trajectory_csv(traj: Trajectory, path):
    _write_csv(path, TRAJECTORY_HEADER, traj.grid.points(), traj.states.T)


def write_adjoint_csv(adj: AdjointTrajectory, path):
    _write_csv(path, ADJOINT_HEADER, adj.grid.points(), adj.states.T)


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
    with _naming(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, default=_json_default)
        fh.write("\n")
