"""Per-layer kernel timings: microseconds per grid step of each sweep kernel.

    PYTHONPATH=src python -m pytest tests/bench_kernels.py

The file name keeps it out of the tier-1 run.  Each case times one kernel
at one grid size with pytest-benchmark (best of several rounds after a
warm-up) and stores `us_per_step` = fastest round / M in its extra_info,
also written by `--benchmark-json=FILE`.  The problem is identify's: a
beta_I table knotted on the grid and the two-column cotangent (e_L, e_R)
for the reverse sweep.

`test_forward_and_reverse` times what one identify gradient costs: a
forward solve and the reverse sweep reduced to what the solver reads
(`identify._reduce`), either in-process or with the solve streamed to
`identify._ReverseHelper`, which builds the step maps in a forked child
meanwhile and sends back the rows and blocks.

`test_start` times identify's start (`identify._start`) with its exact
pass stubbed out: the fit of (A0, I0) to planted data by the model
quasilinearized on its segments, which takes no model sweep.
`test_coarse_pass` times that pass (`identify._exact_pass`) as a solve at
M = 10^4 takes it: a forward solve and a reverse sweep on COARSE_M steps
and the Gauss-Newton step they give.  The extra_info of both holds `ms`
per call.

`test_stage_newton` times the FD-Newton phase of one control_binding stage
that stalls, either in-process or with solve_p's forked evaluator taking
the second point of each pair; its extra_info holds the sweeps the phase
reads, the same either way.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from sailr import (CoefficientTable, ControlPair, Grid, IdentCandidate, Observations,
                   adjoint_p0, adjoint_p_eps, control, n0_of, simulate, tangent_p)
from sailr import identify
from sailr.identify import _ENDS, _ReverseHelper, _forward, _reduce, _trapezoid_weights
from sailr.model import _rk4_model_vjp
from conftest import control_binding_problem, random_params, random_state, refuse_fork

T = 50.0
SIZES = (400, 10_000, 100_000)


def _problem(M):
    rng = np.random.default_rng(20261018)
    g = Grid(0.0, T, M)
    p = random_params(rng, t_max=T, varying=True)
    p = p.replace(beta_I=CoefficientTable(g.points(), rng.uniform(0.1, 0.4, M + 1)))
    x0 = random_state(rng)
    traj = simulate(p, x0, g)
    obs = Observations(L0=x0[3], R0=x0[4], LT=1.1 * traj.L[-1], RT=0.9 * traj.R[-1], T=T)
    return p, x0, g, traj, obs


KERNELS = {
    "simulate": lambda p, x0, g, traj, obs: simulate(p, x0, g),
    "tangent_p": lambda p, x0, g, traj, obs: tangent_p(traj, p, 0.3, -0.2),
    "adjoint_p_eps": lambda p, x0, g, traj, obs: adjoint_p_eps(
        traj, p, 1e-2, 1.0, 2.0, 0.5 * float(traj.L.max())),
    "adjoint_p0": lambda p, x0, g, traj, obs: adjoint_p0(traj, p, obs),
    "_rk4_model_vjp": lambda p, x0, g, traj, obs: _rk4_model_vjp(p, traj, np.eye(5)[:, 3:]),
}


@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel(benchmark, kernel, M):
    args = _problem(M)
    benchmark.group = f"M={M}"
    benchmark.pedantic(KERNELS[kernel], args, rounds=max(5, 400_000 // M), warmup_rounds=1)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_step"] = benchmark.stats.stats.min * 1e6 / M


@pytest.mark.parametrize("M", SIZES[1:])
@pytest.mark.parametrize("streamed", [False, True], ids=["in_process", "helper"])
def test_forward_and_reverse(benchmark, streamed, M):
    p, x0, g, traj, obs = _problem(M)
    cand = IdentCandidate(p.beta_I, x0[1], x0[2])
    r, wq = np.array([traj.L[-1] - obs.LT, traj.R[-1] - obs.RT]), _trapezoid_weights(g)
    benchmark.group = f"forward+reverse M={M}"
    with _ReverseHelper(p, g) if streamed else nullcontext() as helper:
        def gradient_sweeps():
            traj = _forward(cand, obs, p, g, helper)
            if streamed:
                return helper.vjp(p, traj, r)
            return _reduce(*_rk4_model_vjp(p, traj, _ENDS), r, wq)[:2]

        benchmark.pedantic(gradient_sweeps, rounds=max(5, 400_000 // M), warmup_rounds=1)
    if benchmark.stats is not None:
        benchmark.extra_info["us_per_step"] = benchmark.stats.stats.min * 1e6 / M


def _start_problem():
    # data of the model at beta_I = 0, so that the fit lands inside K0 and
    # runs all its passes
    p, x0, g, _, _ = _problem(10_000)
    p = p.replace(beta_I=0.0)
    end = simulate(p, x0, g)
    obs = Observations(L0=x0[3], R0=x0[4], LT=end.L[-1], RT=end.R[-1], T=T)
    return obs, p, g, n0_of(obs)


def _no_pass(z, *args):
    # identify._exact_pass stubbed out: the start is its fit alone
    return *z, 0


def test_start(benchmark, monkeypatch):
    obs, p, g, n0 = _start_problem()
    monkeypatch.setattr(identify, "_exact_pass", _no_pass)
    benchmark.group = "start M=10000"
    A0, I0, sweeps = benchmark.pedantic(identify._start, (obs, p, g, n0, 1e-6), rounds=20,
                                        warmup_rounds=1)
    assert (A0, I0) != (n0 / 4, n0 / 4) and sweeps == 0
    if benchmark.stats is not None:
        benchmark.extra_info["ms"] = benchmark.stats.stats.min * 1e3


def test_coarse_pass(benchmark, monkeypatch):
    obs, p, g, n0 = _start_problem()
    with monkeypatch.context() as m:
        m.setattr(identify, "_exact_pass", _no_pass)
        fit = identify._start(obs, p, g, n0, 1e-6)[:2]
    coarse = Grid(0.0, T, identify.COARSE_M)
    benchmark.group = "start M=10000"
    A0, I0, sweeps = benchmark.pedantic(identify._exact_pass, (fit, obs, p, coarse, n0, 1e-6),
                                        rounds=20, warmup_rounds=1)
    assert (A0, I0) != fit and sweeps == 3
    if benchmark.stats is not None:
        benchmark.extra_info["ms"] = benchmark.stats.stats.min * 1e3


#: a stage of solve_p on control_binding that stalls: the first polish stage
#: at the last eps, anchored at and started from the schedule's solution.
#: Its first sweep is its best, and Newton from there ends above TOL_FP after
#: 492 sweeps
STALLED_STAGE = (0.1 * 2.0 ** -16, ControlPair(0.08676724147869051, 0.09549475444194902))


@pytest.mark.parametrize("forked", [False, True], ids=["in_process", "evaluator"])
def test_stage_newton(benchmark, monkeypatch, forked):
    eps, ctrl = STALLED_STAGE
    if not forked:
        refuse_fork(monkeypatch)
    ev = control._Evaluator(*control_binding_problem())
    benchmark.group = "control stage Newton M=400"
    with ev.child:
        ev.stage(eps, ctrl)
        start = ev.F(ctrl)[1:]

        def newton():
            ev.stage(eps, ctrl)
            return control._stage_newton(ev, ctrl, *start, control.TOL_FP)

        fp = benchmark.pedantic(newton, rounds=3, warmup_rounds=0)[-1]
    assert fp > control.TOL_FP
    benchmark.extra_info["sweeps"] = ev.sweeps
