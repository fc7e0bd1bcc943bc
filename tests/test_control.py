"""Constrained control: penalized costs, sweep updates, continuation."""

import numpy as np
import pytest

from sailr import (ControlPair, FeasibilityError, Grid, ModelParams, PenaltyConfig,
                   Trajectory, ValidationError, adjoint_p_eps, constraint_violation,
                   cost_p, cost_p_eps, default_eps_schedule, simulate, solve_p,
                   solve_p_eps, trapezoid, update_controls_eps)
from sailr import control
from sailr.linearize import AdjointTrajectory


def epidemic_params(**kw):
    d = dict(sigma=0.25, mu_A=0.12, mu_I=0.15, mu_L=0.2, l_A=0.0, l_I=0.0,
             beta_I=0.45, beta_A=0.25, xi=0.02)
    d.update(kw)
    return ModelParams(**d)


X0 = np.array([0.9, 0.05, 0.03, 0.01, 0.01])


class TestCostP:
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
        # the sweep phase must spend the whole budget before Newton starts
        monkeypatch.setattr(control, "MAX_SWEEPS", 40)
        newton_solves = []
        stage_newton = control._stage_newton

        def counting_newton(*args):
            out = stage_newton(*args)
            newton_solves.append(out[-1])
            return out

        monkeypatch.setattr(control, "_stage_newton", counting_newton)
        p = epidemic_params()
        g = Grid(0.0, 8.0, 100)
        pcfg = PenaltyConfig(alpha0=5.0, alpha1=0.02, alpha2=5.0, Lhat=0.04,
                             eps_schedule=(1e-4,))
        st = solve_p_eps(pcfg, 1e-4, p, X0, g, pcfg.anchor)
        assert len(newton_solves) == 1
        assert st.forward_solves - newton_solves[0] == 2 * 40
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
            adj = adjoint_p_eps(traj, p, ctrl.lA, ctrl.lI, eps, pcfg.alpha0,
                                pcfg.alpha2, pcfg.Lhat)
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
        from sailr.stability import TLocInputs
        p = epidemic_params()
        x0 = X0.copy()
        x0[3] = 5e-324
        traj = simulate(p, x0, self.GRID)
        with pytest.raises(ValidationError, match="0 < y1 < L0"):
            TLocInputs.from_trajectory(p, traj, 0.5 * 5e-324, 0.025, 0.05)
        assert self._note(L0=5e-324) == []

    def test_overflow_dropped(self):
        # a tiny alpha0 pushes the root of 4 mu_L alpha0 e^(G t) t^1.5 = 1
        # past the range of math.exp
        from sailr.stability import TLocInputs, compute_t_loc
        p = epidemic_params()
        traj = simulate(p, X0, self.GRID)
        inputs = TLocInputs.from_trajectory(p.with_controls(0.1, 0.1), traj, 0.005, 0.025, 0.05)
        with pytest.raises(OverflowError):
            compute_t_loc(p, inputs, 1e-300)
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

    def test_controls_stay_in_box(self):
        p = epidemic_params()
        g = Grid(0.0, 4.0, 100)
        pcfg = PenaltyConfig(alpha0=2.0, alpha1=0.05, alpha2=1.0, Lhat=10.0,
                             eps_schedule=default_eps_schedule(5))
        res = solve_p(pcfg, p, X0, g)
        for st in res.per_eps_history:
            assert 0.0 <= st.controls.lA <= 1.0
            assert 0.0 <= st.controls.lI <= 1.0
