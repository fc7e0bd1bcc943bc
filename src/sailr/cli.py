"""Batch command-line front end: simulate | identify | control | stability | synth.

Reads one scenario JSON, applies --set overrides, runs the task and writes
a trajectory CSV plus a summary JSON into the output directory.  Exit
codes: 0 converged/ok, 2 finished but not converged, 1 hard error (a
malformed command line included).  A failed run leaves none of the files
it opened.

The summary's "runtime" field is a deterministic work measure: the number
of five-component ODE sweeps whose results the solver reads; discarded
speculative work (control's evaluator, identify's helper) is not counted.
So identical invocations with the same seed produce byte-identical output
files; wall-clock time is printed to the console only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import control as ctl
from . import identify as idf
from . import stability as stab
from .errors import SailrError, ValidationError
from .integrate import trapezoid
from .model import simulate, total_population
from .scenario import (ADJOINT_HEADER, TRAJECTORY_HEADER, GridCsvWriter, Scenario,
                       read_scenario_doc, scenario_from_dict, synth_observations,
                       write_series_csv, write_summary_json, write_trajectory_csv)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as malformed input (exit 1, not argparse's 2); subparsers inherit it."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _parser() -> _Parser:
    # built once: main may be called many times in one process
    parser = _Parser(prog="sailr", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="task", required=True)
    for task in ("simulate", "identify", "control", "stability", "synth"):
        sp = sub.add_parser(task)
        sp.add_argument("--scenario", required=True, help="scenario JSON path")
        sp.add_argument("--out", default=None,
                        help="output directory (default: $SAILR_OUT or '.')")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a scenario field "
                        "(dotted path, e.g. grid.M=2000); repeatable")
        sp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        sp.add_argument("--quiet", action="store_true", help="suppress the console summary")
    return parser


def _summary_skeleton(task: str, seed: int) -> dict:
    return {"task": task, "cost": None, "cost_history": [], "residuals": {},
            "controls": None, "candidate": None, "R0": None, "S_bar": None,
            "constraint_violation": None, "seed": seed, "runtime": 0}


def _try_r0(summary: dict, params):
    try:
        summary["R0"] = stab.r0(params)
        summary["S_bar"] = stab.s_threshold(params)
    except SailrError:
        pass  # time-varying coefficients: no scalar reproduction number


def _run_simulate(s: Scenario, out, summary: dict):
    # trajectory.csv is rendered block by block while the solve goes on
    with GridCsvWriter(out("trajectory.csv"), TRAJECTORY_HEADER, s.grid) as csv_out:
        traj = simulate(s.params, s.x0, s.grid, block_done=csv_out.send)
    drift = float(np.max(np.abs(traj.states.sum(axis=1) - total_population(s.x0))))
    summary["residuals"] = {"conservation_drift": drift}
    summary["runtime"] = 1
    _try_r0(summary, s.params)
    return 0


def _write_solution(out, res, series_file: str, name: str, values):
    # adjoint.csv is rendered, in a forked child where it can be, while
    # trajectory.csv and the series file are written here
    grid = res.trajectory.grid
    with GridCsvWriter(out("adjoint.csv"), ADJOINT_HEADER, grid) as adj_out:
        adj_out.send(0, grid.M + 1, res.adjoint.states)
        write_trajectory_csv(res.trajectory, out("trajectory.csv"))
        write_series_csv(out(series_file), name, grid, values)


def _run_identify(s: Scenario, out, summary: dict):
    alpha0, alpha1 = s.weights
    res = idf.solve_p0(s.observations, s.params, s.grid, alpha0, alpha1, s.solver)
    if res.notes:
        summary["notes"] = list(res.notes)
    _write_solution(out, res, "beta_I.csv", "beta_I",
                    res.candidate.beta_I(s.grid.points()))
    n0 = idf.n0_of(s.observations)
    mis = ((res.trajectory.L[-1] - s.observations.LT) ** 2
           + (res.trajectory.R[-1] - s.observations.RT) ** 2)
    summary["cost"] = res.cost
    summary["cost_history"] = list(res.cost_history)
    summary["residuals"] = {"optimality": res.optimality_residual,
                            "terminal_mismatch_sq": float(mis)}
    summary["candidate"] = {"A0": res.candidate.A0, "I0": res.candidate.I0,
                            "S0": res.candidate.s0(n0), "beta_I_file": "beta_I.csv"}
    summary["iterations"] = res.iterations
    summary["converged"] = res.converged
    summary["runtime"] = res.forward_solves
    # reproduction number at the time-average of the recovered rate
    beta_avg = trapezoid(res.candidate.beta_I(s.grid.points()), s.grid.h) / s.grid.T
    _try_r0(summary, s.params.replace(beta_I=beta_avg))
    return 0 if res.converged else 2


def _run_control(s: Scenario, out, summary: dict):
    res = ctl.solve_p(s.penalty, s.params, s.x0, s.grid)
    _write_solution(out, res, "multiplier.csv", "nu", res.multiplier_diag)
    summary["cost"] = res.cost
    summary["cost_history"] = [st.cost_eps for st in res.per_eps_history]
    summary["residuals"] = {"limit_fixed_point": res.limit_residual,
                            "stage_fixed_point": res.per_eps_history[-1].fp_residual}
    summary["multiplier_l1_history"] = [st.multiplier_l1 for st in res.per_eps_history]
    summary["controls"] = {"lA": res.controls.lA, "lI": res.controls.lI}
    summary["constraint_violation"] = res.constraint_violation
    summary["converged"] = res.converged
    summary["notes"] = list(res.notes)
    summary["runtime"] = res.forward_solves
    _try_r0(summary, s.params.with_controls(res.controls.lA, res.controls.lI))
    return 0 if res.converged else 2


def _run_stability(s: Scenario, out, summary: dict):
    report = stab.simulate_extinction(s.params, s.x0, s.stability)
    first = report.first_segment
    if first is None:  # x0 already extinct: no segment was integrated
        first = simulate(s.params, s.x0, s.stability.grid(s.stability.horizon))
    write_trajectory_csv(first, out("trajectory.csv"))
    summary["R0"] = report.R0
    summary["S_bar"] = report.S_bar
    summary["residuals"] = {"infected_mass": float(sum(report.final_state[1:4]))}
    summary["stability"] = {
        "S_tilde_inf": report.S_tilde_inf, "extinction": report.extinction,
        "regime": report.regime, "hurwitz": report.hurwitz,
        "eigenvalues_re": [float(z.real) for z in report.eigenvalues],
        "eigenvalues_im": [float(z.imag) for z in report.eigenvalues],
        "horizon": report.horizon, "monotone_S": report.monotone_S}
    summary["runtime"] = max(report.segments, 1)  # the segments, or the solve above
    return 0 if report.extinction else 2


def _run_synth(s: Scenario, out, summary: dict):
    obs, traj = synth_observations(s.synth)
    write_trajectory_csv(traj, out("trajectory.csv"))
    summary["observations"] = {"L0": obs.L0, "R0": obs.R0, "LT": obs.LT,
                               "RT": obs.RT, "T": obs.T}
    summary["residuals"] = {}
    summary["runtime"] = 1
    _try_r0(summary, s.params.replace(beta_I=s.synth.beta_I_true))
    return 0


_RUNNERS = {"simulate": _run_simulate, "identify": _run_identify,
            "control": _run_control, "stability": _run_stability, "synth": _run_synth}


def run(args) -> int:
    t_start = time.perf_counter()
    stage = "load"
    opened: list[Path] = []  # every output file the run opens, summary.json last

    def out(name: str) -> Path:
        opened.append(outdir / name)
        return opened[-1]

    try:
        # load_scenario in two calls: perfbench traces cli.scenario_from_dict
        s = scenario_from_dict(read_scenario_doc(args.scenario, args.task, args.seed,
                                                 args.overrides))
        outdir = Path(args.out or os.environ.get("SAILR_OUT") or ".")
        outdir.mkdir(parents=True, exist_ok=True)
        stage = s.task
        summary = _summary_skeleton(s.task, s.seed)
        status = _RUNNERS[s.task](s, out, summary)
        stage = "export"
        write_summary_json(summary, out("summary.json"))
    except (SailrError, OSError) as err:
        for path in opened:  # a failed run leaves none of its files; a directory is not one
            if path.is_symlink() or path.is_file():
                with suppress(OSError):
                    path.unlink()
        if isinstance(err, OSError):  # an output file that cannot be written
            stage, msgs = "export", [f"{err.filename}: {err.strerror}"]
        else:
            msgs = getattr(err, "errors", [str(err)])
        for m in msgs:
            print(f"sailr {stage}: error: {m}", file=sys.stderr)
        return 1
    if not args.quiet:
        _print_summary(s, summary, status, time.perf_counter() - t_start, outdir)
    return status


def _print_summary(s: Scenario, summary: dict, status: int, wall: float, outdir: Path):
    print(f"task       : {summary['task']}  ({s.name or Path(outdir).name})")
    if summary.get("cost") is not None:
        print(f"cost       : {summary['cost']:.6e}")
    for key, val in summary.get("residuals", {}).items():
        print(f"residual   : {key} = {val:.3e}")
    if summary.get("R0") is not None:
        print(f"R0 / S_bar : {summary['R0']:.6g} / {summary['S_bar']:.6g}")
    if summary.get("stability"):
        st = summary["stability"]
        print(f"regime     : {st['regime']}  (S_inf={st['S_tilde_inf']:.6g}, "
              f"hurwitz={st['hurwitz']})")
    if summary.get("controls") is not None:
        print(f"controls   : lA={summary['controls']['lA']:.6g} "
              f"lI={summary['controls']['lI']:.6g}")
    if summary.get("candidate") is not None:
        c = summary["candidate"]
        print(f"candidate  : A0={c['A0']:.6g} I0={c['I0']:.6g} S0={c['S0']:.6g}")
    if summary.get("constraint_violation") is not None:
        print(f"violation  : {summary['constraint_violation']:.3e}")
    for note in summary.get("notes", []):
        print(f"note       : {note}")
    print(f"exit       : {status}   wall {wall:.2f}s   outputs in {outdir}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except ValidationError as err:
        print(f"sailr: error: {err}", file=sys.stderr)
        code = 1
    else:
        code = run(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
