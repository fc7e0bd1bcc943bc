"""Constrained control: penalized costs, sweep updates, continuation, and
solve_p's forked stage-map evaluator."""

import os
import signal

import numpy as np
import pytest

from sailr import (ControlPair, FeasibilityError, Grid, ModelParams, PenaltyConfig,
                   Trajectory, ValidationError, adjoint_p_eps, compute_t_loc,
                   constraint_violation, cost_p, cost_p_eps, default_eps_schedule, simulate,
                   solve_p, solve_p_eps, trapezoid, update_controls_eps)
from sailr import control
from sailr.linearize import AdjointTrajectory
from conftest import assert_no_child, refuse_fork


def epidemic_params(**kw):
    d = dict(sigma=0.25, mu_A=0.12, mu_I=0.15, mu_L=0.2, l_A=0.0, l_I=0.0,
             beta_I=0.45, beta_A=0.25, xi=0.02)
    d.update(kw)
    return ModelParams(**d)


X0 = np.array([0.9, 0.05, 0.03, 0.01, 0.01])


class TestCostP:
    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_eps_rejected(self, eps):
        # cost_p_eps and adjoint_p_eps share one eps rule (linearize.penalty_weight)
        p, g = epidemic_params(), Grid(0.0, 1.0, 10)
        pcfg = PenaltyConfig(alpha0=1.0, alpha1=0.1, alpha2=1.0, Lhat=0.05)
        with pytest.raises(ValueError, match="eps must be > 0"):
            cost_p_eps(ControlPair(0.5, 0.5), p, X0, g, pcfg, eps)
        with pytest.raises(ValueError, match="eps must be > 0"):
            adjoint_p_eps(simulate(p, X0, g), p, eps, 1.0, 1.0, 0.05)

    def test_empty_infected_classes(self):
        p = epidemic_params(beta_I=0.0, beta_A=0.0)
        x0 = (0.97, 0.0, 0.0, 0.02, 0.01)
        c = cost_p(ControlPair(0.0, 0.0), p, x0, Grid(0.0, 2.0, 100), 1.0, 0.0)
        assert c == 0.0

    def test_pure_regularizer(self):
        p = epidemic_params()
        g = Grid(0.0, 2.0, 100)
        a1 = 0.7
        assert cost_p(ControlPair(1.0, 1.0), p, X0, g, 0.0, a1) == pytest.approx(a1)

    def test_isolation_reduces_infection_burden(self):
        p = epidemic_params()
        g = Grid(0.0, 8.0, 400)
        c0 = cost_p(ControlPair(0.0, 0.0), p, X0, g, 1.0, 0.0)
        c1 = cost_p(ControlPair(0.0, 0.5), p, X0, g, 1.0, 0.0)
        assert c1 < c0


class TestCostPEps:
    def test_equals_cost_p_without_contact_at_anchor(self):
        p = epidemic_params()
        g = Grid(0.0, 4.0, 200)
        anchor = ControlPair(0.3, 0.7)
        pcfg = PenaltyConfig(alpha0=1.0, alpha1=0.1, alpha2=1.0, Lhat=5.0, anchor=anchor)
        c_eps = cost_p_eps(anchor, p, X0, g, pcfg, 0.01)
        c = cost_p(anchor, p, X0, g, 1.0, 0.1)
        assert c_eps == c

    def test_penalty_positive_and_scales_with_inv_eps(self):
        p = epidemic_params()
        g = Grid(0.0, 8.0, 400)
        ctrl = ControlPair(0.8, 0.8)
        pcfg = PenaltyConfig(alpha0=1.0, alpha1=0.1, alpha2=1.0, Lhat=0.03,
                             anchor=ctrl)
        base = cost_p(ctrl, p, X0, g, 1.0, 0.1)
        pen1 = cost_p_eps(ctrl, p, X0, g, pcfg, 0.02) - base
        pen2 = cost_p_eps(ctrl, p, X0, g, pcfg, 0.01) - base
        assert pen1 > 0.0
        assert pen2 == pytest.approx(2.0 * pen1, rel=1e-12)


def fabricated_adjoint(grid, q=0.0, d=0.0, e=0.0):
    states = np.zeros((grid.M + 1, 5))
    states[:, 1] = q
    states[:, 2] = d
    states[:, 3] = e
    return AdjointTrajectory(grid, states)


class TestUpdateControls:
    def test_zero_adjoint_returns_scaled_anchor(self):
        p = epidemic_params()
        g = Grid(0.0, 2.0, 100)
        traj = simulate(p, X0, g)
        adj = fabricated_adjoint(g)
        a1 = 0.25
        got = update_controls_eps(traj, adj, a1, ControlPair(0.3, 0.7))
        assert got.lA == pytest.approx(0.3 / 1.25)
        assert got.lI == pytest.approx(0.7 / 1.25)

    def test_clamps(self):
        p = epidemic_params()
        g = Grid(0.0, 2.0, 100)
        traj = simulate(p, X0, g)
        lo = update_controls_eps(traj, fabricated_adjoint(g, e=1e6), 0.1,
                                 ControlPair(0.5, 0.5))
        assert (lo.lA, lo.lI) == (0.0, 0.0)
        hi = update_controls_eps(traj, fabricated_adjoint(g, q=1e6, d=1e6), 0.1,
                                 ControlPair(0.5, 0.5))
        assert (hi.lA, hi.lI) == (1.0, 1.0)


class TestSolvePEps:
    def test_regularizer_only_stage(self):
        # no infected mass: the stage minimizer is the scaled anchor exactly,
        # and each damped sweep halves the distance to it.  From the anchor
        # that takes more than MAX_SWEEPS sweeps, so Newton finishes the
        # stage; from near the minimizer the sweeps meet TOL_FP on their own.
        p = epidemic_params(beta_I=0.0, beta_A=0.0)
        x0 = (0.97, 0.0, 0.0, 0.02, 0.01)
        g = Grid(0.0, 2.0, 100)
        anchor = ControlPair(0.6, 0.4)
        pcfg = PenaltyConfig(alpha0=1.0, alpha1=1.0, alpha2=1.0, Lhat=5.0, anchor=anchor)
        for init, newton in ((anchor, True), (ControlPair(0.3 + 1e-4, 0.2 - 1e-4), False)):
            st = solve_p_eps(pcfg, 0.05, p, x0, g, init)
            assert st.converged
            assert st.used_fallback is newton
            assert st.controls.lA == pytest.approx(0.3, abs=1e-9)
            assert st.controls.lI == pytest.approx(0.2, abs=1e-9)

    def test_stage_certificate(self):
        p = epidemic_params()
        g = Grid(0.0, 4.0, 200)
        pcfg = PenaltyConfig(alpha0=1.0, alpha1=0.1, alpha2=1.0, Lhat=5.0,
                             anchor=ControlPair(0.5, 0.5))
        st = solve_p_eps(pcfg, 0.05, p, X0, g, ControlPair(0.5, 0.5))
        assert st.converged
        raw = update_controls_eps(st.trajectory, st.adjoint, pcfg.alpha1, pcfg.anchor)
        assert raw.dist(st.controls) <= 1e-6

    def test_stage_above_tolerance_returns_unconverged(self, monkeypatch):
        # a stiff binding stage with its sweep budget cut
        monkeypatch.setattr(control, "MAX_SWEEPS", 1)
        p = epidemic_params()
        g = Grid(0.0, 8.0, 100)
        pcfg = PenaltyConfig(alpha0=5.0, alpha1=0.02, alpha2=5.0, Lhat=0.04,
                             eps_schedule=(1e-4,))
        st = solve_p_eps(pcfg, 1e-4, p, X0, g, pcfg.anchor)
        assert st.converged is False
        assert st.used_fallback is True
        assert st.fp_residual > 1e-7
        raw = update_controls_eps(st.trajectory, st.adjoint, pcfg.alpha1, pcfg.anchor)
        assert raw.dist(st.controls) == st.fp_residual
        res = solve_p(pcfg, p, X0, g)
        assert res.converged is False
        assert res.per_eps_history[0].fp_residual == st.fp_residual
        assert f"stage eps=0.0001 stalled at residual {st.fp_residual:.3e}" in res.notes

    def test_sweep_phase_ends_only_at_tolerance_or_budget(self, monkeypatch):
        # the stiff binding stage stays above TOL_FP for all its sweeps, so
        # the sweep phase must spend the whole budget before Newton starts;
        # each stage evaluation runs one forward simulate, all of them in
        # this process, where the spy counts them.  The last is the stage's
        # uncounted evaluation of its answer
        refuse_fork(monkeypatch)
        monkeypatch.setattr(control, "MAX_SWEEPS", 40)
        calls = []
        simulate_, stage_newton = control.simulate, control._stage_newton

        def counting_simulate(*args):
            calls.append("F")
            return simulate_(*args)

        def counting_newton(*args):
            calls.append("newton")
            return stage_newton(*args)

        monkeypatch.setattr(control, "simulate", counting_simulate)
        monkeypatch.setattr(control, "_stage_newton", counting_newton)
        p = epidemic_params()
        g = Grid(0.0, 8.0, 100)
        pcfg = PenaltyConfig(alpha0=5.0, alpha1=0.02, alpha2=5.0, Lhat=0.04,
                             eps_schedule=(1e-4,))
        st = solve_p_eps(pcfg, 1e-4, p, X0, g, pcfg.anchor)
        assert calls.count("newton") == 1
        assert calls.index("newton") == 40
        newton_solves = 2 * (calls[calls.index("newton"):].count("F") - 1)
        assert st.forward_solves - newton_solves == 2 * 40
        assert st.used_fallback is True

    def test_gradient_matches_finite_differences(self):
        p = epidemic_params()
        g = Grid(0.0, 2.0, 1500)
        pcfg = PenaltyConfig(alpha0=1.2, alpha1=0.1, alpha2=1.0, Lhat=0.03,
                             anchor=ControlPair(0.4, 0.6))
        eps, lam = 0.05, 1e-5
        for ctrl in (ControlPair(0.35, 0.55), ControlPair(0.6, 0.3)):
            pr = p.with_controls(ctrl.lA, ctrl.lI)
            traj = simulate(pr, X0, g)
            adj = adjoint_p_eps(traj, pr, eps, pcfg.alpha0, pcfg.alpha2, pcfg.Lhat)
            h = g.h
            gA = trapezoid(traj.A * (adj.e - adj.q), h) + (pcfg.alpha1 + 1) * ctrl.lA - 0.4
            gI = trapezoid(traj.I * (adj.e - adj.d), h) + (pcfg.alpha1 + 1) * ctrl.lI - 0.6
            for comp, grad in (("lA", gA), ("lI", gI)):
                up = ControlPair(ctrl.lA + (lam if comp == "lA" else 0),
                                 ctrl.lI + (lam if comp == "lI" else 0))
                dn = ControlPair(ctrl.lA - (lam if comp == "lA" else 0),
                                 ctrl.lI - (lam if comp == "lI" else 0))
                fd = (cost_p_eps(up, p, X0, g, pcfg, eps)
                      - cost_p_eps(dn, p, X0, g, pcfg, eps)) / (2 * lam)
                assert abs(fd - grad) / max(abs(fd), 1e-12) <= 1e-4


class TestConstraintViolation:
    def _traj(self, L):
        states = np.zeros((len(L), 5))
        states[:, 3] = L
        return Trajectory(Grid(0.0, 1.0, len(L) - 1), states)

    def test_zero(self):
        assert constraint_violation(self._traj(np.zeros(5)), 0.1) == 0.0

    def test_boundary_feasible(self):
        assert constraint_violation(self._traj(np.full(5, 0.1)), 0.1) == 0.0

    def test_peak(self):
        L = np.array([0.0, 0.05, 0.12, 0.04, 0.0])
        assert constraint_violation(self._traj(L), 0.1) == pytest.approx(0.02)

    def test_negative_L_rejected(self):
        with pytest.raises(FeasibilityError):
            constraint_violation(self._traj(np.array([0.0, -1e-6, 0.0])), 0.1)


class TestPenaltyConfig:
    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            PenaltyConfig(alpha0=1.0, alpha1=0.1, alpha2=1.0, Lhat=1.0,
                          eps_schedule=(0.1, 0.2))
        with pytest.raises(ValidationError):
            PenaltyConfig(alpha0=1.0, alpha1=0.1, alpha2=1.0, Lhat=1.0,
                          eps_schedule=(0.1, 0.0))

    def test_alpha1_zero_rejected(self):
        with pytest.raises(ValidationError, match="alpha1"):
            PenaltyConfig(alpha0=1.0, alpha1=0.0, alpha2=1.0, Lhat=1.0)

    @pytest.mark.parametrize("alpha0, alpha2", [(np.nan, 5.0), (5.0, np.nan)])
    def test_nan_weight_rejected(self, alpha0, alpha2):
        with pytest.raises(ValidationError, match="alpha0 and alpha2 must be >= 0"):
            PenaltyConfig(alpha0=alpha0, alpha1=0.02, alpha2=alpha2, Lhat=0.04)

    def test_default_schedule(self):
        s = default_eps_schedule()
        assert len(s) == 13 and s[0] == 0.1 and s[1] == 0.05


class TestTLocNote:
    # The T_loc horizon diagnostic drops only the errors its inputs can
    # legitimately raise; any other error is a bug and propagates.
    GRID = Grid(0.0, 4.0, 100)
    CTRL = ControlPair(0.1, 0.1)

    def _note(self, L0=0.01, alpha0=1.0, traj=None):
        p = epidemic_params()
        pcfg = PenaltyConfig(alpha0=alpha0, alpha1=0.1, alpha2=1.0, Lhat=0.05)
        x0 = X0.copy()
        x0[3] = L0
        traj = simulate(p, x0, self.GRID) if traj is None else traj
        notes = []
        control._tloc_note(p, pcfg, L0, traj, self.CTRL, self.GRID, notes)
        return notes

    def test_note_when_horizon_reaches_bound(self):
        assert self._note() == ["horizon T=4 is not below the local bound "
                                "T_loc=0.279236; limit conditions are proven only below it"]

    def test_rounding_validation_error_dropped(self):
        # y1 = L0/2 rounds to 0 for the least subnormal L0
        p = epidemic_params()
        x0 = X0.copy()
        x0[3] = 5e-324
        traj = simulate(p, x0, self.GRID)
        with pytest.raises(ValidationError, match="0 < y1 < L0"):
            compute_t_loc(p, traj, 0.5 * 5e-324, 0.025, 0.05, 1.0)
        assert self._note(L0=5e-324) == []

    def test_overflow_dropped(self):
        # a tiny alpha0 pushes the root of 4 mu_L alpha0 e^(G t) t^1.5 = 1
        # past the range of math.exp
        p = epidemic_params()
        traj = simulate(p, X0, self.GRID)
        with pytest.raises(OverflowError):
            compute_t_loc(p.with_controls(0.1, 0.1), traj, 0.005, 0.025, 0.05, 1e-300)
        assert self._note(alpha0=1e-300) == []

    def test_other_errors_propagate(self):
        with pytest.raises(AttributeError):
            self._note(traj=object())


class TestSolveP:
    def test_lhat_must_exceed_L0(self):
        p = epidemic_params()
        pcfg = PenaltyConfig(alpha0=1.0, alpha1=0.1, alpha2=1.0, Lhat=0.005)
        with pytest.raises(ValidationError, match="Lhat must exceed L0"):
            solve_p(pcfg, p, X0, Grid(0.0, 2.0, 100))

    def test_never_binding_matches_direct_minimization(self):
        p = epidemic_params()
        g = Grid(0.0, 8.0, 200)
        a0, a1 = 2.0, 0.05
        pcfg = PenaltyConfig(alpha0=a0, alpha1=a1, alpha2=1.0, Lhat=10.0)
        res = solve_p(pcfg, p, X0, g)
        assert res.converged
        # coarse direct search + golden refinement as an independent check
        lin = np.linspace(0.0, 1.0, 21)
        best = min(((cost_p(ControlPair(a, b), p, X0, g, a0, a1), a, b)
                    for a in lin for b in lin))
        assert abs(res.controls.lA - best[1]) <= 0.05
        assert abs(res.controls.lI - best[2]) <= 0.05
        assert res.cost <= best[0] + 1e-9

    def test_binding_reduces_violation_and_reports_multiplier(self):
        p = epidemic_params()
        g = Grid(0.0, 8.0, 200)
        pcfg = PenaltyConfig(alpha0=5.0, alpha1=0.02, alpha2=5.0, Lhat=0.04,
                             eps_schedule=default_eps_schedule(15))
        res = solve_p(pcfg, p, X0, g)
        assert res.constraint_violation <= 1e-3
        pens = [s.penalty_integral for s in res.per_eps_history[:15]]
        assert pens[-1] <= pens[0]
        nu = res.multiplier_diag
        assert nu.max() > 0.0
        support = nu > 1e-6 * nu.max()
        assert np.all(pcfg.Lhat - res.trajectory.L[support] <= 1e-3)

    #: control_binding's cost above the constrained oracle's: 6.47e-3 measured,
    #: the saddle (0.0994, 0.0801) against the oracle's (0, 0.2754); only tightened
    BINDING_GAP = 6.5e-3

    def test_binding_cost_against_constrained_oracle(self, control_binding):
        # The oracle minimizes cost_p over the controls with max L <= Lhat + v,
        # v the reported violation, so sailr's answer is one of them.  For
        # each l_A on a grid, bisection finds the largest feasible l_I (max L
        # grows with l_I), and the best l_A is polished along that edge.
        from scipy.optimize import minimize_scalar

        pcfg, p, x0, g, res = control_binding
        cap = pcfg.Lhat + res.constraint_violation

        def max_L(lA, lI):
            return float(np.max(simulate(p.with_controls(lA, lI), x0, g).L))

        def cost(lA, lI):
            return cost_p(ControlPair(lA, lI), p, x0, g, pcfg.alpha0, pcfg.alpha1)

        def edge(lA):
            lo, hi = 0.0, 1.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if max_L(lA, mid) <= cap else (lo, mid)
            return lo

        lAs = [a for a in np.linspace(0.0, 0.2, 11) if max_L(a, 0.0) <= cap]
        i = int(np.argmin([cost(a, edge(a)) for a in lAs]))
        polish = minimize_scalar(lambda a: cost(a, edge(a)), method="bounded",
                                 bounds=(lAs[max(i - 1, 0)], lAs[min(i + 1, len(lAs) - 1)]),
                                 options=dict(xatol=1e-8))
        lA = min((lAs[i], polish.x), key=lambda a: cost(a, edge(a)))
        lI = edge(lA)
        best = cost(lA, lI)
        assert max_L(lA, lI) <= cap
        # no l_I below the edge does better
        assert all(cost(lA, b) >= best for b in np.linspace(0.0, lI, 11))
        assert best <= res.cost
        assert res.cost - best <= self.BINDING_GAP

    def test_controls_stay_in_box(self):
        p = epidemic_params()
        g = Grid(0.0, 4.0, 100)
        pcfg = PenaltyConfig(alpha0=2.0, alpha1=0.05, alpha2=1.0, Lhat=10.0,
                             eps_schedule=default_eps_schedule(5))
        res = solve_p(pcfg, p, X0, g)
        for st in res.per_eps_history:
            assert 0.0 <= st.controls.lA <= 1.0
            assert 0.0 <= st.controls.lI <= 1.0


# --------------------------------------------- solve_p's forked evaluator

def binding_problem():
    """control_binding's problem at M = 100 with 8 stages: Newton pairs in
    which the evaluator's candidate is taken, and others where it is dropped."""
    pcfg = PenaltyConfig(alpha0=5.0, alpha1=0.02, alpha2=5.0, Lhat=0.04,
                         eps_schedule=default_eps_schedule(8))
    return pcfg, epidemic_params(), X0, Grid(0.0, 8.0, 100)


def result_bits(res):
    """Every number of a ControlResult and of its stages, exactly: repr
    round-trips a float, and arrays go as bytes."""
    stages = [(s.controls, s.cost_eps, s.fp_residual, s.used_fallback, s.forward_solves,
               s.converged, s.penalty_integral, s.multiplier_l1,
               s.trajectory.states.tobytes(), s.adjoint.states.tobytes())
              for s in res.per_eps_history]
    return repr((res.controls, res.cost, res.constraint_violation, res.limit_residual,
                 res.converged, res.notes, res.forward_solves, res.trajectory.states.tobytes(),
                 res.adjoint.states.tobytes(), res.multiplier_diag.tobytes(), stages))


def spy_stage_map(monkeypatch, in_child=None, in_parent=None):
    """Wrap control._stage_map: the points the calling process evaluates
    are recorded, and in_child(l) or in_parent(l) runs before each."""
    parent, points = os.getpid(), []
    stage_map = control._stage_map

    def spy(*args):
        l = args[-1]
        hook = in_parent if os.getpid() == parent else in_child
        if hook is not None:
            hook(l)
        points.append((l.lA, l.lI))
        return stage_map(*args)

    monkeypatch.setattr(control, "_stage_map", spy)
    return points


@pytest.fixture(scope="module")
def in_process():
    """(result_bits, the points evaluated) of binding_problem without os.fork."""
    with pytest.MonkeyPatch.context() as mp:
        refuse_fork(mp)
        points = spy_stage_map(mp)
        res = solve_p(*binding_problem())
    assert_no_child()
    return result_bits(res), set(points)


class TestEvaluator:
    def test_same_bits_as_in_process(self, monkeypatch, fork_calls, kills, in_process):
        points = spy_stage_map(monkeypatch)
        assert result_bits(solve_p(*binding_problem())) == in_process[0]
        assert len(fork_calls) == 1
        assert kills == []
        # the evaluator took part of the work, and the parent did no more
        assert set(points) < in_process[1]
        assert_no_child()

    @pytest.mark.parametrize("forked", [True, False])
    def test_pairs_give_each_points_map(self, monkeypatch, fork_calls, forked):
        # each point _in_pairs gives, read in order, has _stage_map's gap,
        # also once later replies have come in; a pair left after its first
        # point drops the second, whose sweeps do not count
        if not forked:
            refuse_fork(monkeypatch)
        pcfg, p, x0, g = binding_problem()
        points = [ControlPair(0.1 * i, 0.3 + 0.05 * i) for i in range(1, 5)]
        ev = control._Evaluator(pcfg, p, x0, g)
        with ev.child:
            ev.stage(1e-3, pcfg.anchor)
            next(control._in_pairs(ev, points[1:]))  # queues points[2], then drops it
            got = list(control._in_pairs(ev, points))
        assert ev.sweeps == 2 + 4 * 2
        assert [l for l, _ in got] == points
        for l, gap in got:
            raw = control._stage_map(pcfg, p, x0, g, 1e-3, pcfg.anchor, l)[0]
            assert gap.tolist() == [raw.lA - l.lA, raw.lI - l.lI]
        assert len(fork_calls) == forked
        assert_no_child()

    @pytest.mark.parametrize("forked", [True, False])
    def test_stage_states_are_the_map_at_its_answer(self, monkeypatch, fork_calls,
                                                     in_process, forked):
        # each stage evaluates its answer once more, in this process, for its
        # trajectory and adjoint; forward_solves leaves that evaluation out,
        # as the in-process count shows, and is the same forked
        if not forked:
            refuse_fork(monkeypatch)
        stages, solve_stage = [], control._solve_stage

        def spy(ev, eps, anchor, init, tol_fp):
            stages.append((eps, anchor, solve_stage(ev, eps, anchor, init, tol_fp)))
            return stages[-1][2]

        monkeypatch.setattr(control, "_solve_stage", spy)
        points = spy_stage_map(monkeypatch)
        pcfg, p, x0, g = binding_problem()
        res = solve_p(pcfg, p, x0, g)
        assert result_bits(res) == in_process[0]
        if not forked:  # every evaluation is this process's: one per two sweeps read, one per stage
            assert len(points) == res.forward_solves // 2 + len(stages)
        assert [id(st) for *_, st in stages] == [id(st) for st in res.per_eps_history]
        for eps, anchor, st in stages:
            _, traj, adj = control._stage_map(pcfg, p, x0, g, eps, anchor, st.controls)
            assert st.trajectory.states.tobytes() == traj.states.tobytes()
            assert st.adjoint.states.tobytes() == adj.states.tobytes()
        assert len(fork_calls) == forked
        assert_no_child()

    def test_forks_once_per_call(self, fork_calls):
        pcfg, p, x0, g = binding_problem()
        for n in (1, 2):
            solve_p(PenaltyConfig(pcfg.alpha0, pcfg.alpha1, pcfg.alpha2, pcfg.Lhat,
                                  eps_schedule=(0.1,)), p, x0, g)
            assert len(fork_calls) == n
            assert_no_child()

    def test_unread_candidate_raising_in_child(self, monkeypatch, fork_calls, kills,
                                               in_process):
        # a dropped candidate that raises ends the evaluator; its reply was
        # never going to be read, and the parent goes on in-process
        def fail_unread(l):
            if (l.lA, l.lI) not in in_process[1]:
                raise RuntimeError("dropped candidate")

        spy_stage_map(monkeypatch, in_child=fail_unread)
        assert result_bits(solve_p(*binding_problem())) == in_process[0]
        assert kills == [(fork_calls[0], signal.SIGKILL)]  # reaped once found dead
        assert_no_child()

    def test_child_dies_mid_solve(self, monkeypatch, fork_calls, kills, in_process):
        evaluated = []

        def die_at_tenth(l):
            evaluated.append(l)
            if len(evaluated) == 10:
                os.kill(os.getpid(), signal.SIGKILL)

        spy_stage_map(monkeypatch, in_child=die_at_tenth)
        assert result_bits(solve_p(*binding_problem())) == in_process[0]
        assert kills == [(fork_calls[0], signal.SIGKILL)]  # the parent reaps it
        assert_no_child()

    def test_child_dies_mid_reply(self, monkeypatch, fork_calls, kills, in_process):
        # the child writes the first float of its first reply and dies: the
        # parent reads the short reply as a dead child's, and evaluates the
        # point here.  The first reply is an FD probe's, whose gap Newton reads
        replies, serve = [], control._Evaluator._serve
        stage_map, parent = control._stage_map, os.getpid()

        def serve_spy(ev, requests_fd, replies_fd):
            replies.append(replies_fd)
            return serve(ev, requests_fd, replies_fd)

        def cut_short(*args):
            raw, traj, adj = stage_map(*args)
            if os.getpid() != parent:
                os.write(replies[0], np.float64(raw.lA).tobytes())
                os.kill(os.getpid(), signal.SIGKILL)
            return raw, traj, adj

        monkeypatch.setattr(control._Evaluator, "_serve", serve_spy)
        monkeypatch.setattr(control, "_stage_map", cut_short)
        assert result_bits(solve_p(*binding_problem())) == in_process[0]
        assert len(fork_calls) == 1
        assert kills == [(fork_calls[0], signal.SIGKILL)]  # the parent reaps it
        assert_no_child()

    def test_parent_error_kills_child(self, monkeypatch, fork_calls, kills):
        evaluated = []

        def fail_late(l):
            evaluated.append(l)
            if len(evaluated) == 300:
                raise RuntimeError("parent-side failure")

        spy_stage_map(monkeypatch, in_parent=fail_late)
        with pytest.raises(RuntimeError, match="parent-side failure"):
            solve_p(*binding_problem())
        assert len(fork_calls) == 1
        assert kills == [(fork_calls[0], signal.SIGKILL)]
        assert_no_child()
