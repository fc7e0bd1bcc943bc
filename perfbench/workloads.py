"""Seeded task lists and output checks for the three benchmark workloads.

Each workload turns a seed into a list of scenario documents (plain JSON
the sailr CLI reads) and checks each task's outputs with the tolerances of
the acceptance suite.  Only the generated files reach sailr; the seed never
does.  Importers put the repository's src/ on sys.path first.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from sailr.integrate import Grid
from sailr.model import CoefficientTable
from sailr.scenario import SynthSpec, scenario_from_dict, synth_observations

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Nominal seconds per task at this commit (2 vCPU VM, Python 3.11, NumPy 2.4).
# They turn --seconds into a task count; the count depends only on the
# arguments, never on measured time, so both sides of a comparison run the
# same tasks.
NOMINAL_TASK_S = {"simulate": 0.12, "identify": 1.5, "control": 17.5}

# Controls of the shipped control_binding problem at M = 400, and of the
# small smoke-test variant, recorded at the commit that added this benchmark.
CONTROL_REFERENCE = {
    "full": {"lA": 0.0994109117126562, "lI": 0.08003301933911394},
    "small": {"lA": 0.6388815002641838, "lI": 0.5060500808212762},
}

CONSERVATION_TOL = 1e-10    # criterion 1
MISMATCH_SQ_TOL = 1e-10     # criterion 8, squared terminal mismatch
VIOLATION_TOL = 1e-4        # criterion 10
CONTROL_TOL = 1e-3          # distance to the recorded reference controls


@dataclass
class Task:
    """One CLI invocation: the scenario document plus what its check needs."""

    kind: str
    doc: dict
    expect: dict = field(default_factory=dict)


def task_count(workload: str, seconds: float, small: bool) -> int:
    if small:
        return {"simulate": 4, "identify": 2, "control": 1}[workload]
    return max(1, round(seconds / NOMINAL_TASK_S[workload]))


def shipped_scenario(name: str) -> dict:
    with open(SCENARIOS / name, encoding="utf-8") as fh:
        return json.load(fh)


def _r6(x: float) -> float:
    return round(x, 6)


def _table(rng: random.Random, T: float, lo: float, hi: float) -> dict:
    """Piecewise-linear table with 3 to 6 knots spanning [0, T]."""
    inner = sorted(rng.uniform(0.05 * T, 0.95 * T) for _ in range(rng.randint(1, 4)))
    knots = [0.0] + [_r6(k) for k in inner] + [T]
    return {"knots": knots, "values": [_r6(rng.uniform(lo, hi)) for _ in knots]}


def simulate_tasks(seed: int, n: int, small: bool) -> list:
    """Variants of simulate_baseline: multi-knot rate tables, perturbed x0."""
    base = shipped_scenario("simulate_baseline.json")
    T = float(base["grid"]["T"])
    tasks = []
    for i in range(n):
        rng = random.Random(f"simulate:{seed}:{i}")
        doc = json.loads(json.dumps(base))
        doc["name"] = f"bench-simulate-{seed}-{i}"
        doc["params"]["beta_I"] = _table(rng, T, 0.25, 0.5)
        doc["params"]["beta_A"] = _table(rng, T, 0.15, 0.3)
        doc["params"]["xi"] = _table(rng, T, 0.01, 0.05)
        x0 = {c: _r6(doc["x0"][c] * rng.uniform(0.8, 1.2)) for c in ("A", "I", "L", "R")}
        x0["S"] = _r6(1.0 - sum(x0.values()))
        doc["x0"] = {c: x0[c] for c in ("S", "A", "I", "L", "R")}
        if small:
            doc["grid"]["M"] = 1000
        tasks.append(Task("simulate", doc))
    return tasks


def identify_tasks(seed: int, n: int, small: bool) -> list:
    """identify_synthetic at M = 10^4 with observations of a seeded planted truth.

    The observations come from sailr's own synth_observations, so this runs
    the program during set-up.  Planted truths keep I0/A0 <= 0.6, the region
    below the shipped truth's 0.67 where solve_p0 converges in 4-5 iterations
    at this commit; above about 0.7 it often stalls at an optimality residual
    near 1e-6 (survey.py shows this).

    Two solver settings differ from identify_synthetic.json.  tol is the
    IdentConfig default 1e-6, the bound test_c08 asserts: at M = 10^4 the
    residual levels off between 5e-8 and 1.1e-7, so the shipped 1e-7 fails
    some tasks on rounding alone.  max_iters is 50, not 500, so that a
    stalled task fails in seconds instead of minutes.
    """
    base = shipped_scenario("identify_synthetic.json")
    M = 1000 if small else 10_000
    base["grid"]["M"] = M
    base_s = scenario_from_dict(dict(base, task="identify"))
    grid = Grid(0.0, float(base["grid"]["T"]), M)
    tasks = []
    for i in range(n):
        rng = random.Random(f"identify:{seed}:{i}")
        a0 = rng.uniform(0.1, 0.16)
        truth = {"beta_I": _r6(rng.uniform(0.3, 0.5)), "A0": _r6(a0),
                 "I0": _r6(a0 * rng.uniform(0.35, 0.6))}
        spec = SynthSpec(params=base_s.params, grid=grid,
                         beta_I_true=CoefficientTable.constant(truth["beta_I"]),
                         A0_true=truth["A0"], I0_true=truth["I0"], L0=0.02, R0=0.01)
        obs, _ = synth_observations(spec)
        doc = json.loads(json.dumps(base))
        doc["name"] = f"bench-identify-{seed}-{i}"
        doc["solver"].update(tol=1e-6, max_iters=50)
        doc["observations"] = {"L0": obs.L0, "R0": obs.R0, "LT": obs.LT, "RT": obs.RT,
                               "T": obs.T}
        tasks.append(Task("identify", doc, {"truth": truth,
                                            "tol": float(doc["solver"]["tol"])}))
    return tasks


def control_tasks(seed: int, n: int, small: bool) -> list:
    """The shipped control_binding problem at M = 400, n times.

    Perturbed neighbours are not timed: at this commit about a quarter of
    them end unconverged and their sweep counts spread by +-25%, so they
    would make the workload fail and its timings follow the draw rather
    than the code.  survey_control.py runs them and reports those failures.
    The seed therefore does not change this workload's inputs.
    """
    doc = shipped_scenario("control_binding.json")
    ref = CONTROL_REFERENCE["small" if small else "full"]
    if small:
        doc["grid"]["M"] = 100
        doc["penalty"]["Lhat"] = 0.2
    return [Task("control", json.loads(json.dumps(doc)), {"reference": ref})
            for _ in range(n)]


GENERATORS = {"simulate": simulate_tasks, "identify": identify_tasks,
              "control": control_tasks}


def write_tasks(tasks: list, directory: Path) -> list:
    """Write one scenario file per task; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, task in enumerate(tasks):
        path = directory / f"task{i:04d}.json"
        path.write_text(json.dumps(task.doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        paths.append(path)
    return paths


def check(task: Task, code: int, outdir: Path) -> tuple:
    """Return (ok, sweeps, note) for one finished task."""
    try:
        with open(outdir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as err:
        return False, 0, f"exit {code}, no summary ({err})"
    sweeps = int(summary.get("runtime") or 0)
    if code != 0:
        return False, sweeps, f"exit {code}"
    if not (outdir / "trajectory.csv").is_file():
        return False, sweeps, "trajectory.csv missing"
    res = summary.get("residuals") or {}
    if task.kind == "simulate":
        drift = res.get("conservation_drift", math.inf)
        if not drift <= CONSERVATION_TOL:
            return False, sweeps, f"conservation_drift {drift:.3e}"
        return True, sweeps, ""
    if task.kind == "identify":
        opt = res.get("optimality", math.inf)
        mis = res.get("terminal_mismatch_sq", math.inf)
        if not opt <= task.expect["tol"]:
            return False, sweeps, f"optimality residual {opt:.3e}"
        if not mis <= MISMATCH_SQ_TOL:
            return False, sweeps, f"terminal mismatch {mis:.3e}"
        cand, truth = summary.get("candidate") or {}, task.expect["truth"]
        dev = max(abs(cand.get("A0", math.nan) - truth["A0"]),
                  abs(cand.get("I0", math.nan) - truth["I0"]))
        return True, sweeps, f"A0/I0 deviation from planted truth {dev:.3e} (logged only)"
    ref = task.expect["reference"]
    ctrl = summary.get("controls") or {}
    viol = summary.get("constraint_violation")
    if summary.get("converged") is not True:
        return False, sweeps, "not converged"
    if viol is None or not viol <= VIOLATION_TOL:
        return False, sweeps, f"constraint violation {viol}"
    dist = max(abs(ctrl.get("lA", math.inf) - ref["lA"]),
               abs(ctrl.get("lI", math.inf) - ref["lI"]))
    if not dist <= CONTROL_TOL:
        return False, sweeps, f"controls {dist:.3e} from reference"
    return True, sweeps, ""
