"""Scenario loading, synthetic observation generation and result export.

A scenario is one self-contained JSON document per experiment (see
docs/scenario-schema.md for the schema and the table of defaults).
Loading validates everything and reports the complete list of problems,
not just the first.  Trajectories are exported as CSV with 17-significant-
digit floats so re-parsing reproduces samples bit-exactly.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .control import ControlPair, PenaltyConfig
from .errors import ValidationError
from .identify import Observations, n0_of
from .integrate import Grid, Trajectory
from .linearize import AdjointTrajectory
from .model import CoefficientTable, ModelParams, State, param_errors, simulate

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

#: numeric keys of the free-form solver and stability blocks (True: integer)
_SOLVER_NUMBERS = {"tol": False, "max_iters": True, "beta_init": False, "theta": False,
                   "tol_fp": False, "max_sweeps": True, "tol_constraint": False,
                   "tol_residual": False, "polish_max": True, "max_pg_iters": True}
_STABILITY_NUMBERS = {"horizon": False, "tol": False, "h": False}


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
    solver: dict = field(default_factory=dict)
    synth: SynthSpec | None = None
    stability: dict = field(default_factory=dict)
    seed: int = 0


_NO_DEFAULT = object()


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


def _field(block: dict, key: str, locus: str, errs: list, default=_NO_DEFAULT,
           integer: bool = False):
    """block[key] read by _num; default when absent, or an error if required."""
    if key in block:
        return _num(block[key], locus, errs, integer)
    if default is _NO_DEFAULT:
        errs.append(f"{locus} required")
        return None
    return default


def _nums(value, locus: str, errs: list):
    """A list of finite numbers, or None with one error naming the field."""
    bad: list[str] = []
    vals = [_num(v, locus, bad) for v in value] if isinstance(value, list) else None
    if vals is None or bad:
        errs.append(f"{locus} must be a list of finite numbers")
        return None
    return vals


def _table_from(block: dict, key: str, locus: str, errs: list) -> CoefficientTable | None:
    spec = block.get(key)
    if isinstance(spec, dict):
        knots = _nums(spec.get("knots"), f"{locus}.knots", errs)
        values = _nums(spec.get("values"), f"{locus}.values", errs)
    else:
        knots, values = [0.0], [_field(block, key, locus, errs)]
    if knots is None or values is None or None in values:
        return None
    try:
        return CoefficientTable(np.asarray(knots, dtype=float), np.asarray(values, dtype=float))
    except ValidationError as err:
        errs.extend(f"{locus}: {m}" for m in err.errors)
        return None


def _params_from(doc: dict, task: str, errs: list) -> ModelParams | None:
    block = doc.get("params")
    if block is None:
        errs.append(f"params required for task={task}")
        return None
    fields = {name: _field(block, name, f"params.{name}", errs)
              for name in ("sigma", "mu_A", "mu_I", "mu_L", "l_A", "l_I")}
    for name in ("beta_I", "beta_A", "xi"):
        fields[name] = _table_from(block, name, f"params.{name}", errs)
    n = _field(block, "N", "params.N", errs, 1.0)
    if n not in (1.0, None):
        errs.append("params.N must be 1 (normalized model)")
    if n != 1.0 or None in fields.values():
        return None
    p = ModelParams(N=1.0, **fields)
    errs.extend(f"params: {m}" for m in param_errors(p))
    return p


def _x0_from(doc: dict, params, errs: list) -> State | None:
    block = doc.get("x0")
    if block is None:
        return None
    vals = {name: _field(block, name, f"x0.{name}", errs) for name in ("S", "A", "I", "L", "R")}
    if None in vals.values():
        return None
    x0 = State(**vals)
    if min(vals.values()) < 0:
        errs.append("x0 components must be >= 0")
    if params is not None and abs(sum(vals.values()) - params.N) > 1e-9:
        errs.append("x0 components must sum to N")
    return x0


def _grid_from(doc: dict, errs: list) -> Grid | None:
    block = doc.get("grid")
    if block is None:
        return None
    t0 = _field(block, "t0", "grid.t0", errs, 0.0)
    T = _field(block, "T", "grid.T", errs)
    M = _field(block, "M", "grid.M", errs, DEFAULT_GRID_M, integer=True)
    if None in (t0, T, M):
        return None
    try:
        return Grid(t0, T, M)
    except ValidationError as err:
        errs.extend(f"grid: {m}" for m in err.errors)
    return None


def _observations_from(doc: dict, task: str, errs: list) -> Observations | None:
    block = doc.get("observations")
    if block is None:
        return None
    vals = {}
    for name in ("L0", "R0", "LT", "RT", "T"):
        if name not in block:
            errs.append(f"observations.{name} required for task={task}")
            return None
        vals[name] = _num(block[name], f"observations.{name}", errs)
    if None in vals.values():
        return None
    try:
        return Observations(**vals)
    except ValidationError as err:
        errs.extend(err.errors)
        return None


def _pair(block: dict, key: str, locus: str, errs: list) -> dict:
    """The {lA, lI} object block[key], both read by _num."""
    pair = block[key] if isinstance(block[key], dict) else {}
    return {k: _field(pair, k, f"{locus}.{k}", errs) for k in ("lA", "lI")}


def _penalty_from(doc: dict, errs: list) -> PenaltyConfig | None:
    block = doc.get("penalty")
    if block is None:
        return None
    kw = {k: _field(block, k, f"penalty.{k}", errs) for k in ("alpha0", "alpha1", "alpha2", "Lhat")}
    if "eps_schedule" in block:
        kw["eps_schedule"] = _nums(block["eps_schedule"], "penalty.eps_schedule", errs)
    anchor = _pair(block, "anchor", "penalty.anchor", errs) if "anchor" in block else {}
    if None in kw.values() or None in anchor.values():
        return None
    try:
        if anchor:
            kw["anchor"] = ControlPair(**anchor)
        return PenaltyConfig(**kw)
    except ValidationError as err:
        errs.extend(f"penalty: {m}" for m in err.errors)
    return None


def _synth_from(doc: dict, params, grid, seed, errs: list) -> SynthSpec | None:
    block = doc.get("synth")
    if block is None or params is None or grid is None:
        return None
    table = _table_from(block, "beta_I_true", "synth.beta_I_true", errs)
    vals = {name: _field(block, name, f"synth.{name}", errs)
            for name in ("A0_true", "I0_true", "L0", "R0")}
    vals["noise"] = _field(block, "noise", "synth.noise", errs, 0.0)
    if table is None or seed is None or None in vals.values():
        return None
    try:
        return SynthSpec(params=params, grid=grid, beta_I_true=table, seed=seed, **vals)
    except ValidationError as err:
        errs.extend(err.errors)
        return None


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and fully validate a Scenario; raises with every error found."""
    errs: list[str] = []
    task = doc.get("task")
    if task not in TASKS:
        errs.append(f"task must be one of {TASKS}")
        raise ValidationError(errs)

    seed = _field(doc, "seed", "seed", errs, 0, integer=True)
    params = _params_from(doc, task, errs)
    x0 = _x0_from(doc, params, errs)
    grid = _grid_from(doc, errs)
    observations = _observations_from(doc, task, errs)
    penalty = _penalty_from(doc, errs)

    for block in _REQUIRED[task]:
        present = {"x0": x0, "grid": grid, "observations": doc.get("observations"),
                   "penalty": doc.get("penalty"), "synth": doc.get("synth")}[block]
        if present is None:
            errs.append(f"{block} required for task={task}")

    if task == "identify" and observations is not None:
        if grid is None:
            grid = Grid(0.0, observations.T, DEFAULT_GRID_M)
        elif abs(grid.T - observations.T) > 1e-9 * max(1.0, observations.T) or grid.t0 != 0.0:
            errs.append("grid must span [0, observations.T] for task=identify")
        if params is not None and not n0_of(params, observations) > 0:
            errs.append("observations leave no unobserved mass: L0 + R0 >= N")

    if task == "control" and penalty is not None and x0 is not None:
        if not penalty.Lhat > x0.L:
            errs.append("Lhat must exceed L0")

    w = doc.get("weights", {})
    weights = tuple(_field(w, k, f"weights.{k}", errs, d)
                    for k, d in zip(("alpha0", "alpha1"), DEFAULT_WEIGHTS))
    if None not in weights and min(weights) < 0:
        errs.append("weights must be >= 0")

    synth = _synth_from(doc, params, grid, seed, errs)
    solver = _numbers_block(doc, "solver", _SOLVER_NUMBERS, errs)
    if "init" in solver:
        solver["init"] = _pair(solver, "init", "solver.init", errs)
    stability = _numbers_block(doc, "stability", _STABILITY_NUMBERS, errs)

    if params is not None and grid is not None:
        errs.extend(f"params: {m}" for m in param_errors(params, t_max=grid.T)
                    if "cover" in m)

    if errs:
        raise ValidationError(errs)
    return Scenario(name=str(doc.get("name", "")), description=str(doc.get("description", "")),
                    task=task, params=params, x0=x0, grid=grid, observations=observations,
                    weights=weights, penalty=penalty, solver=solver,
                    synth=synth, stability=stability, seed=seed)


def _numbers_block(doc: dict, name: str, spec: dict, errs: list) -> dict:
    """A copy of a free-form block with its known numeric keys read by _num."""
    block = dict(doc.get(name, {}))
    for key, integer in spec.items():
        if key in block:
            block[key] = _num(block[key], f"{name}.{key}", errs, integer)
    return block


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


def _table_to_doc(table: CoefficientTable):
    if table.is_constant:
        return float(table.values[0])
    return {"knots": table.knots.tolist(), "values": table.values.tolist()}


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of scenario_from_dict on semantic content."""
    doc = {"name": s.name, "description": s.description, "task": s.task, "seed": s.seed,
           "params": {"sigma": s.params.sigma, "mu_A": s.params.mu_A, "mu_I": s.params.mu_I,
                      "mu_L": s.params.mu_L, "l_A": s.params.l_A, "l_I": s.params.l_I,
                      "beta_I": _table_to_doc(s.params.beta_I),
                      "beta_A": _table_to_doc(s.params.beta_A),
                      "xi": _table_to_doc(s.params.xi), "N": s.params.N}}
    if s.x0 is not None:
        doc["x0"] = {"S": s.x0.S, "A": s.x0.A, "I": s.x0.I, "L": s.x0.L, "R": s.x0.R}
    if s.grid is not None:
        doc["grid"] = {"t0": s.grid.t0, "T": s.grid.T, "M": s.grid.M}
    if s.observations is not None:
        o = s.observations
        doc["observations"] = {"L0": o.L0, "R0": o.R0, "LT": o.LT, "RT": o.RT, "T": o.T}
    doc["weights"] = {"alpha0": s.weights[0], "alpha1": s.weights[1]}
    if s.penalty is not None:
        p = s.penalty
        doc["penalty"] = {"alpha0": p.alpha0, "alpha1": p.alpha1, "alpha2": p.alpha2,
                          "Lhat": p.Lhat, "eps_schedule": list(p.eps_schedule),
                          "anchor": {"lA": p.anchor.lA, "lI": p.anchor.lI}}
    if s.synth is not None:
        doc["synth"] = {"beta_I_true": _table_to_doc(s.synth.beta_I_true),
                        "A0_true": s.synth.A0_true, "I0_true": s.synth.I0_true,
                        "L0": s.synth.L0, "R0": s.synth.R0, "noise": s.synth.noise}
    if s.solver:
        doc["solver"] = dict(s.solver)
    if s.stability:
        doc["stability"] = dict(s.stability)
    return doc


def write_scenario(s: Scenario, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2)
        fh.write("\n")


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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, t, columns):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for k in range(t.size):
            fh.write(",".join([_fmt(t[k])] + [_fmt(c[k]) for c in columns]) + "\n")


def write_trajectory_csv(traj: Trajectory, path):
    t = traj.grid.points()
    _write_csv(path, "t,S,A,I,L,R", t, [traj.S, traj.A, traj.I, traj.L, traj.R])


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


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for JSON export."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_summary_json(summary: dict, path):
    """Structured solver summary; field order is exactly insertion order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonable(summary), fh, indent=2)
        fh.write("\n")


def export_results(result, path, fmt: str = None):
    """Write one result artifact: trajectory/adjoint CSV or summary JSON."""
    if fmt is None:
        fmt = "json" if isinstance(result, dict) else "csv"
    if fmt == "csv":
        if isinstance(result, Trajectory):
            write_trajectory_csv(result, path)
        elif isinstance(result, AdjointTrajectory):
            write_adjoint_csv(result, path)
        else:
            raise ValueError(f"cannot export {type(result).__name__} as csv")
    elif fmt == "json":
        write_summary_json(result, path)
    else:
        raise ValueError(f"unknown export format: {fmt}")
