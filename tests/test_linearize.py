"""Tangent and adjoint sweeps: finite-difference checks and duality identities."""

import numpy as np
import pytest

from sailr import (BlowupError, CoefficientTable, Grid, Observations, Trajectory,
                   adjoint_p0, adjoint_p_eps, duality_residual_p, duality_residual_p0,
                   simulate, tangent_p, tangent_p0)
from conftest import random_params, random_state


def make_setup(rng, T=2.0, M=2000, varying=True):
    p = random_params(rng, t_max=T, varying=varying)
    x0 = random_state(rng)
    g = Grid(0.0, T, M)
    return p, x0, g, simulate(p, x0, g)


def rel_err(got, want):
    scale = np.max(np.abs(want))
    return np.max(np.abs(got - want)) / (scale if scale > 0 else 1.0)


class TestTangentP:
    def test_zero_direction(self, rng):
        p, x0, g, traj = make_setup(rng, M=200)
        tan = tangent_p(traj, p, 0.0, 0.0)
        assert np.array_equal(tan.states, np.zeros((201, 5)))

    def test_finite_difference(self, rng):
        lam = 1e-5
        for _ in range(3):
            p, x0, g, traj = make_setup(rng)
            wa, wi = rng.uniform(-1.0, 1.0, 2)
            wa = min(max(wa, -p.l_A), 1.0 - p.l_A)  # keep controls in range
            wi = min(max(wi, -p.l_I), 1.0 - p.l_I)
            tan = tangent_p(traj, p, wa, wi)
            tp = simulate(p.with_controls(p.l_A + lam * wa, p.l_I + lam * wi), x0, g)
            tm = simulate(p.with_controls(p.l_A - lam * wa, p.l_I - lam * wi), x0, g)
            fd = (tp.states - tm.states) / (2.0 * lam)
            assert rel_err(fd, tan.states) <= 1e-5

    def test_l_component_at_T(self, rng):
        lam = 1e-5
        p, x0, g, traj = make_setup(rng)
        wa = 0.5 * min(p.l_A, 1 - p.l_A) + 0.1
        tan = tangent_p(traj, p, wa, 0.0)
        tp = simulate(p.with_controls(p.l_A + lam * wa, p.l_I), x0, g)
        tm = simulate(p.with_controls(p.l_A - lam * wa, p.l_I), x0, g)
        fd = (tp.L[-1] - tm.L[-1]) / (2.0 * lam)
        assert abs(fd - tan.l[-1]) / max(abs(fd), 1e-12) <= 1e-5

    def test_linear_in_direction(self, rng):
        p, x0, g, traj = make_setup(rng, M=200)
        t1 = tangent_p(traj, p, 0.25, -0.125)
        t2 = tangent_p(traj, p, 0.5, -0.25)  # power-of-two scaling is exact
        assert np.array_equal(2.0 * t1.states, t2.states)


class TestTangentP0:
    def test_zero_direction(self, rng):
        p, x0, g, traj = make_setup(rng, M=200)
        tan = tangent_p0(traj, p, np.zeros(g.M + 1), 0.0, 0.0)
        assert np.array_equal(tan.states, np.zeros((201, 5)))

    def test_initial_data(self, rng):
        p, x0, g, traj = make_setup(rng, M=100)
        tan = tangent_p0(traj, p, np.zeros(g.M + 1), 1.0, 0.0)
        assert np.array_equal(tan.states[0], [-1.0, 1.0, 0.0, 0.0, 0.0])

    def test_finite_difference(self, rng):
        lam = 1e-5
        for _ in range(3):
            p, x0, g, traj = make_setup(rng)
            u = rng.uniform(-0.3, 0.3, g.M + 1)
            w, v = rng.uniform(-0.05, 0.05, 2)
            tan = tangent_p0(traj, p, u, w, v)
            tg = g.points()
            base = np.asarray(p.beta_I(tg))

            def run(s):
                pr = p.replace(beta_I=CoefficientTable(tg, np.maximum(base + s * u, 0.0)))
                y0 = np.array(x0) + s * np.array([-w - v, w, v, 0.0, 0.0])
                return simulate(pr, y0, g)

            assert np.min(base - lam * np.abs(u)) >= 0.0, "draw keeps beta nonnegative"
            fd = (run(lam).states - run(-lam).states) / (2.0 * lam)
            assert rel_err(fd, tan.states) <= 1e-5

    def test_accepts_table_direction(self, rng):
        p, x0, g, traj = make_setup(rng, M=200)
        u = CoefficientTable.constant(0.1)
        tan = tangent_p0(traj, p, u, 0.0, 0.0)
        assert np.max(np.abs(tan.states)) > 0


class TestAdjointPEps:
    def test_zero_sources_zero_adjoint(self, rng):
        # alpha0 = 0 and L <= Lhat everywhere: homogeneous system, zero final data
        p, x0, g, traj = make_setup(rng, M=300)
        adj = adjoint_p_eps(traj, p, 0.1, 0.0, 1.0, lhat=2.0)
        assert np.array_equal(adj.states, np.zeros((301, 5)))

    def test_final_conditions_exact(self, rng):
        p, x0, g, traj = make_setup(rng, M=300)
        adj = adjoint_p_eps(traj, p, 0.1, 1.0, 1.0, lhat=0.01)
        assert np.array_equal(adj.final, np.zeros(5))

    def test_e_equation_decouples_without_contact(self, rng):
        # with L <= Lhat the penalty source vanishes: same adjoint as alpha2 = 0
        p, x0, g, traj = make_setup(rng, M=300)
        a1 = adjoint_p_eps(traj, p, 0.05, 1.3, 7.0, lhat=2.0)
        a2 = adjoint_p_eps(traj, p, 0.05, 1.3, 0.0, lhat=2.0)
        assert np.array_equal(a1.states, a2.states)

    def test_superposition(self, rng):
        p, x0, g, traj = make_setup(rng, M=300)
        a1 = adjoint_p_eps(traj, p, 0.05, 0.6, 0.5, lhat=0.02)
        a2 = adjoint_p_eps(traj, p, 0.05, 1.2, 1.0, lhat=0.02)
        assert np.allclose(2.0 * a1.states, a2.states, atol=1e-14)

    def test_eps_validation(self, rng):
        p, x0, g, traj = make_setup(rng, M=100)
        with pytest.raises(ValueError):
            adjoint_p_eps(traj, p, 0.0, 1.0, 1.0, lhat=1.0)


class TestAdjointP0:
    def test_zero_final_data(self, rng):
        p, x0, g, traj = make_setup(rng, M=300)
        obs = Observations(L0=x0[3], R0=x0[4], LT=float(traj.L[-1]),
                           RT=float(traj.R[-1]), T=g.T)
        adj = adjoint_p0(traj, p, obs)
        assert np.array_equal(adj.states, np.zeros((301, 5)))

    def test_final_mismatch_assigned_exactly(self, rng):
        p, x0, g, traj = make_setup(rng, M=300)
        obs = Observations(L0=x0[3], R0=x0[4], LT=0.01, RT=0.02, T=g.T)
        adj = adjoint_p0(traj, p, obs)
        assert adj.e[-1] == traj.L[-1] - 0.01
        assert adj.f[-1] == traj.R[-1] - 0.02
        assert np.array_equal(adj.states[-1][:3], np.zeros(3))


class TestDualityP:
    def _triple(self, rng, M, lhat):
        p, x0, g, traj = make_setup(rng, T=2.0, M=M)
        wa = min(0.4, 1 - p.l_A)
        wi = -min(0.3, p.l_I)
        adj = adjoint_p_eps(traj, p, 0.05, 1.1, 1.0, lhat)
        tan = tangent_p(traj, p, wa, wi)
        return traj, adj, tan, wa, wi

    def test_zero_direction(self, rng):
        p, x0, g, traj = make_setup(rng, M=200)
        adj = adjoint_p_eps(traj, p, 0.05, 1.0, 1.0, 0.5)
        tan = tangent_p(traj, p, 0.0, 0.0)
        assert duality_residual_p(traj, adj, tan, 0.0, 0.0, 1.0, 1.0, 0.05, 0.5) == 0.0

    def test_small_residual(self, rng):
        traj, adj, tan, wa, wi = self._triple(rng, 2000, lhat=0.5)
        r = duality_residual_p(traj, adj, tan, wa, wi, 1.1, 1.0, 0.05, 0.5)
        assert r <= 1e-6

    def test_order_h2(self, rng):
        rng2 = np.random.default_rng(7)
        rs = []
        for M in (500, 1000):
            r = np.random.default_rng(7)
            traj, adj, tan, wa, wi = self._triple(r, M, lhat=0.02)
            rs.append(duality_residual_p(traj, adj, tan, wa, wi, 1.1, 1.0, 0.05, 0.02))
        if rs[0] > 1e-11:  # above the cancellation floor the rate is visible
            assert rs[1] <= rs[0] / 2.0


class TestDualityP0:
    def test_zero_direction(self, rng):
        p, x0, g, traj = make_setup(rng, M=200)
        obs = Observations(L0=x0[3], R0=x0[4], LT=0.05, RT=0.06, T=g.T)
        adj = adjoint_p0(traj, p, obs)
        tan = tangent_p0(traj, p, np.zeros(g.M + 1), 0.0, 0.0)
        assert duality_residual_p0(traj, adj, tan, np.zeros(g.M + 1), 0.0, 0.0, obs) == 0.0

    def test_small_residual_and_order(self, rng):
        rs = []
        for M in (1000, 2000):
            r = np.random.default_rng(11)
            p, x0, g, traj = make_setup(r, T=2.0, M=M)
            obs = Observations(L0=x0[3], R0=x0[4], LT=0.05, RT=0.06, T=g.T)
            u = r.uniform(-0.3, 0.3, g.M + 1)
            w, v = r.uniform(-0.05, 0.05, 2)
            adj = adjoint_p0(traj, p, obs)
            tan = tangent_p0(traj, p, u, w, v)
            rs.append(duality_residual_p0(traj, adj, tan, u, w, v, obs))
        assert rs[1] <= 1e-6
        if rs[0] > 1e-11:
            assert rs[1] <= rs[0] / 2.0


class TestBlowup:
    def _traj(self, rng, huge):
        # a fabricated trajectory whose S, A, I reach 1e200 on the grid indices
        # `huge`: the stage coefficients there overflow the step maps
        p, x0, g, traj = make_setup(rng, M=100)
        states = np.array(traj.states)
        states[huge, :3] = 1e200
        return p, Trajectory(g, states)

    def test_tangent_reports_step(self, rng):
        p, traj = self._traj(rng, slice(60, None))
        with pytest.raises(BlowupError) as exc:
            tangent_p(traj, p, 0.3, 0.2)
        assert exc.value.step == 60  # step 59 -> 60 is the first to touch index 60

    def test_adjoint_reports_step_in_reversed_time(self, rng):
        p, traj = self._traj(rng, slice(None, 41))
        with pytest.raises(BlowupError) as exc:
            adjoint_p_eps(traj, p, 0.05, 1.0, 1.0, lhat=0.02)
        assert exc.value.step == 60  # counted from T: step 60 ends at index 40
