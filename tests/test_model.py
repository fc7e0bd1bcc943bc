"""Model definitions: rates, tables, conservation and flow structure."""

import numpy as np
import pytest

from sailr import (BlowupError, CoefficientTable, ControlPair, Grid, ModelParams,
                   StabilityConfig, State, TimeDomainError, ValidationError, cost_p,
                   param_errors, rhs, simulate, simulate_extinction, total_population,
                   validate_params)
from conftest import random_params, random_state


def zero_rate_params(**kw):
    base = dict(sigma=0.0, mu_A=0.0, mu_I=0.0, mu_L=0.0, l_A=0.0, l_I=0.0,
                beta_I=0.0, beta_A=0.0, xi=0.0)
    base.update(kw)
    return ModelParams(**base)


class TestRhs:
    def test_all_rates_zero(self):
        p = zero_rate_params()
        x = np.array([0.3, 0.2, 0.1, 0.25, 0.15])
        assert np.array_equal(rhs(x, p, 0.0), np.zeros(5))

    def test_infection_term_only(self):
        # by hand: S' = -beta_I*S*I, A' = +beta_I*S*I, others 0
        p = zero_rate_params(beta_I=0.5)
        d = rhs((0.9, 0.0, 0.1, 0.0, 0.0), p, 0.0)
        assert np.allclose(d, [-0.045, 0.045, 0.0, 0.0, 0.0], atol=1e-15)

    def test_symptom_onset_only(self):
        p = zero_rate_params(sigma=0.2)
        d = rhs((0.0, 1.0, 0.0, 0.0, 0.0), p, 0.0)
        assert np.allclose(d, [0.0, -0.2, 0.2, 0.0, 0.0], atol=1e-15)

    def test_derivative_conservation(self, rng):
        for _ in range(50):
            p = random_params(rng, varying=True)
            x = random_state(rng)
            t = rng.uniform(0.0, 50.0)
            assert abs(rhs(x, p, t).sum()) <= 1e-14

    def test_quasi_positivity(self, rng):
        # any component at zero has nonnegative outflow
        for _ in range(100):
            p = random_params(rng)
            x = random_state(rng)
            zero = rng.random(5) < 0.5
            x[zero] = 0.0
            d = rhs(x, p, 1.0)
            assert np.all(d[zero] >= 0.0)

    def test_state_input(self):
        p = zero_rate_params(beta_I=0.5)
        d = rhs(State(0.9, 0.0, 0.1, 0.0, 0.0), p, 0.0)
        assert d[0] == pytest.approx(-0.045)

    def test_state_is_its_array_to_the_solvers(self, rng):
        # np.asarray reads a State as (S, A, I, L, R), so the solvers that
        # take a state give the same bits for it as for that array
        x = State(0.9, 0.05, 0.03, 0.01, 0.01)
        arr = np.asarray(x, dtype=float)
        assert arr.tolist() == [0.9, 0.05, 0.03, 0.01, 0.01]
        p = random_params(rng, t_max=2.0, xi_zero=True)
        g = Grid(0.0, 2.0, 50)
        assert simulate(p, x, g).states.tobytes() == simulate(p, arr, g).states.tobytes()
        ctrl = ControlPair(0.2, 0.3)
        assert cost_p(ctrl, p, x, g, 1.0, 0.1) == cost_p(ctrl, p, arr, g, 1.0, 0.1)
        cfg = StabilityConfig(horizon=2.0, h=0.05)
        reports = [simulate_extinction(p, x0, cfg) for x0 in (x, arr)]
        assert reports[0].final_state.tobytes() == reports[1].final_state.tobytes()


class TestTotalPopulation:
    def test_zero(self):
        assert total_population((0.0, 0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_symmetric(self):
        assert total_population((0.2, 0.2, 0.2, 0.2, 0.2)) == pytest.approx(1.0)

    def test_sum(self):
        assert total_population((0.5, 0.1, 0.05, 0.05, 0.3)) == pytest.approx(1.0)

    def test_state(self):
        assert total_population(State(0.5, 0.1, 0.05, 0.05, 0.3)) == pytest.approx(1.0)


class TestState:
    def test_rejects_negative_component(self):
        with pytest.raises(ValidationError) as exc:
            State(0.95, -0.01, 0.03, 0.02, 0.01)
        assert exc.value.errors == ["components must be >= 0"]

    def test_rejects_nan_component(self):
        # a NaN fails the sign test, and makes the sum fail too
        with pytest.raises(ValidationError) as exc:
            State(0.9, float("nan"), 0.05, 0.05, 0.0)
        assert exc.value.errors == ["components must be >= 0", "components must sum to 1"]

    def test_rejects_sum_off_one(self):
        State(0.9, 0.05, 0.03, 0.01, 0.01 + 0.5e-9)  # within the 1e-9 slack
        with pytest.raises(ValidationError) as exc:
            State(0.9, 0.05, 0.03, 0.01, 0.0)
        assert exc.value.errors == ["components must sum to 1"]


class TestCoefficientTable:
    def test_single_knot_constant(self):
        c = CoefficientTable([0.0], [0.3])
        assert c(0.0) == 0.3
        assert c(123.0) == 0.3  # constant tables extend everywhere

    def test_linear_identity(self):
        c = CoefficientTable([0.0, 1.0], [0.0, 1.0])
        assert c(0.5) == pytest.approx(0.5)

    def test_hand_interpolation(self):
        c = CoefficientTable([0.0, 2.0], [0.2, 0.6])
        assert c(0.5) == pytest.approx(0.3)

    def test_exact_at_knots(self):
        c = CoefficientTable([0.0, 1.0, 3.0], [0.2, 0.7, 0.1])
        for t, v in zip(c.knots, c.values):
            assert c(t) == v

    def test_monotone_between_knots(self, rng):
        knots = np.array([0.0, 1.0, 2.5, 4.0])
        values = np.array([0.1, 0.5, 0.5, 0.2])
        c = CoefficientTable(knots, values)
        t = np.linspace(0.0, 4.0, 200)
        v = c(t)
        assert np.all(np.diff(v[t <= 1.0]) >= 0)
        assert np.all(np.diff(v[t >= 2.5]) <= 0)

    def test_out_of_range(self):
        c = CoefficientTable([0.0, 2.0], [0.2, 0.6])
        with pytest.raises(TimeDomainError):
            c(2.5)
        with pytest.raises(TimeDomainError):
            c(-0.1)

    def test_nan_time_rejected(self):
        c = CoefficientTable([0.0, 8.0], [0.3, 0.4])
        with pytest.raises(TimeDomainError):
            c(np.nan)
        with pytest.raises(TimeDomainError):
            c(np.array([0.0, np.nan, 4.0]))

    def test_invalid_tables(self):
        with pytest.raises(ValidationError):
            CoefficientTable([0.0, 0.0], [0.1, 0.2])  # not strictly increasing
        with pytest.raises(ValidationError, match="negative"):
            CoefficientTable([0.0], [-0.1])
        with pytest.raises(ValidationError):
            CoefficientTable([0.0, 1.0], [0.1])  # length mismatch

    def test_nan_value_rejected(self):
        with pytest.raises(ValidationError, match="negative coefficient"):
            CoefficientTable([0.0, 1.0], [np.nan, 0.3])

    def test_with_values_shares_knots(self, rng):
        # the new table holds no copy of the knots, but its own of the
        # values, and evaluates as a table built from both does
        knots, values = np.linspace(0.0, 2.0, 101), rng.uniform(0.0, 1.0, 101)
        table = CoefficientTable(knots, np.zeros(101)).with_values(values)
        other = table.with_values(2.0 * values)
        assert np.shares_memory(table.knots, other.knots)
        assert not np.shares_memory(table.values, values)
        assert not table.knots.flags.writeable and not table.values.flags.writeable
        t = rng.uniform(0.0, 2.0, 50)
        assert np.array_equal(table(t), CoefficientTable(knots, values)(t))
        with pytest.raises(ValidationError, match="negative coefficient"):
            table.with_values(-values)
        with pytest.raises(ValidationError, match="len"):
            table.with_values(values[:-1])


class TestValidateParams:
    def test_k1_zero_rejected(self):
        p = zero_rate_params(mu_I=0.1)
        errs = param_errors(p)
        assert any("k1" in e for e in errs)
        with pytest.raises(ValidationError, match="k1"):
            validate_params(p)

    def test_positive_params_accepted(self):
        p = ModelParams(sigma=0.1, mu_A=0.1, mu_I=0.1, mu_L=0.1, l_A=0.1, l_I=0.1,
                        beta_I=0.2, beta_A=0.2, xi=0.2)
        assert validate_params(p) is p
        assert param_errors(p) == []

    def test_negative_table_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="negative coefficient"):
            ModelParams(sigma=0.1, mu_A=0.1, mu_I=0.1, mu_L=0.1, l_A=0.1, l_I=0.1,
                        beta_I=CoefficientTable([0.0, 1.0], [0.2, -0.1]),
                        beta_A=0.2, xi=0.0)

    def test_nan_rate_rejected(self):
        # a NaN recovery rate is a ValidationError, not a blow-up at step 1
        p = ModelParams(sigma=0.1, mu_A=0.1, mu_I=0.1, mu_L=np.nan, l_A=0.1, l_I=0.1,
                        beta_I=0.2, beta_A=0.2, xi=0.0)
        assert param_errors(p) == ["mu_L must be >= 0"]
        with pytest.raises(ValidationError, match="mu_L must be >= 0"):
            simulate(p, (0.9, 0.05, 0.03, 0.01, 0.01), Grid(0.0, 1.0, 10))

    def test_l_range(self):
        p = zero_rate_params(l_A=1.5, mu_I=0.1, sigma=0.1)
        assert any("l_A out of [0,1]" in e for e in param_errors(p))

    def test_coverage(self):
        p = ModelParams(sigma=0.1, mu_A=0.1, mu_I=0.1, mu_L=0.1, l_A=0.1, l_I=0.1,
                        beta_I=CoefficientTable([0.0, 1.0], [0.2, 0.3]),
                        beta_A=0.2, xi=0.0)
        assert param_errors(p, Grid(0.0, 1.0, 10)) == []
        for g in (Grid(0.0, 2.0, 10), Grid(-1.0, 1.0, 10)):
            assert param_errors(p, g) == [f"beta_I: table does not cover [{g.t0}, {g.T}]"]


class TestSimulate:
    def test_matches_generic_integrator(self, rng):
        from sailr import integrate_forward
        p = random_params(rng, varying=True)
        x0 = random_state(rng)
        g = Grid(0.0, 2.0, 100)
        fast = simulate(p, x0, g)
        generic = integrate_forward(lambda t, x: rhs(x, p, t), x0, g)
        assert np.max(np.abs(fast.states - generic.states)) <= 1e-13

    def test_frozen_dynamics(self):
        p = zero_rate_params(mu_I=0.1, sigma=0.1)  # keeps k1, k2 > 0
        x0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        tr = simulate(p, x0, Grid(0.0, 5.0, 50))
        assert np.array_equal(tr.states, np.tile(x0, (51, 1)))

    @pytest.mark.parametrize("x, step", [(1e3, 2), (1e20, 1)])
    def test_blowup_reports_first_diverged_step(self, x, step):
        p = ModelParams(sigma=0.2, mu_A=0.1, mu_I=0.1, mu_L=0.1, l_A=0.1, l_I=0.2,
                        beta_I=0.5, beta_A=0.2, xi=0.0)
        with pytest.raises(BlowupError) as err:
            simulate(p, (x, x, x, 0.0, 0.0), Grid(0.0, 10.0, 100))
        assert err.value.step == step


class TestReverseSweep:
    def test_matches_central_differences(self):
        # phi = cot . x_M; its exact discrete gradient in (x0, grid-knotted beta_I)
        from sailr.model import _rk4_model_vjp, stage_to_knot_gradient
        rng = np.random.default_rng(4242)
        g = Grid(0.0, 2.0, 400)
        tg = g.points()
        p = random_params(rng, t_max=2.0, varying=True)
        p = p.replace(beta_I=CoefficientTable(tg, rng.uniform(0.1, 0.6, tg.size)))
        x0 = random_state(rng)
        traj = simulate(p, x0, g)
        w = rng.uniform(-1.0, 1.0, 5)
        u = rng.uniform(-1.0, 1.0, tg.size)
        lam = 1e-6
        # the batched cotangent (e_L, e_R) must give each column's single sweep
        vs, bbars = _rk4_model_vjp(p, traj, np.eye(5)[:, 3:])
        for j, cot in enumerate((np.eye(5)[3], np.eye(5)[4])):
            v, bbar = _rk4_model_vjp(p, traj, cot)
            for single, batched in ((v, vs[..., j]), (bbar, bbars[:, j])):
                assert np.max(np.abs(batched - single)) <= 1e-13 * np.max(np.abs(single))

            def phi(s):
                ps = p.replace(beta_I=CoefficientTable(tg, p.beta_I.values + s * u))
                return float(cot @ simulate(ps, x0 + s * w, g).final)

            fd = (phi(lam) - phi(-lam)) / (2.0 * lam)
            for x0bar, bb in ((v[0], bbar), (vs[0, :, j], bbars[:, j])):
                an = float(x0bar @ w + stage_to_knot_gradient(bb) @ u)
                assert abs(an - fd) <= 1e-6 * abs(fd)


class TestSweepsBothWays:
    """The step maps of `model.step_maps` swept in reverse (`_rk4_model_vjp`)
    and forward (`integrate.linear_sweep`, as identify's exact pass sweeps
    them) are the two modes of one discrete RK4 map."""

    @pytest.mark.parametrize("M", [511, 512, 513, 1500])
    def test_discrete_duality(self, M):
        # <v_k, dx_k> is the same at every k, so <v_0, dx_0> = <cot, dx_M>:
        # 3 cotangents against 2 tangents, across the block boundaries
        from sailr.integrate import linear_sweep
        from sailr.model import _rk4_model_vjp, step_maps
        rng = np.random.default_rng(M)
        g = Grid(0.0, 2.0, M)

        def knotted(lo, hi):
            knots = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 2.0, 3)), [2.0]))
            return CoefficientTable(knots, rng.uniform(lo, hi, 5))

        p = random_params(rng, t_max=2.0).replace(
            beta_I=knotted(0.05, 0.6), beta_A=knotted(0.05, 0.6), xi=knotted(0.0, 0.2))
        traj = simulate(p, random_state(rng), g)
        cot, dx0 = rng.uniform(-1.0, 1.0, (5, 3)), rng.uniform(-1.0, 1.0, (5, 2))
        v = _rk4_model_vjp(p, traj, cot)[0]
        maps = step_maps(p, g, traj.states)
        dx = linear_sweep(lambda lo, hi: maps(lo, hi)[:, :5, :5], dx0, M)
        pairs = np.einsum("kic,kij->kcj", v, dx)  # <v_k[:, c], dx_k[:, j]>
        assert np.max(np.abs(pairs - cot.T @ dx[-1])) <= 1e-14 * np.max(np.abs(pairs))

    def test_exact_pass_jacobian(self, monkeypatch):
        # the Jacobian d(L, R)(T)/d(A0, I0) that identify's exact pass fits
        # with, against central differences of simulate on the coarse grid
        from sailr import identify
        p = ModelParams(sigma=0.25, mu_A=0.1, mu_I=0.12, mu_L=0.15, l_A=0.25, l_I=0.35,
                        beta_I=0.0, beta_A=0.22, xi=0.03)
        obs = identify.Observations(L0=0.02, R0=0.01, LT=0.1, RT=0.06, T=2.0)
        coarse, n0, z = Grid(0.0, 2.0, identify.COARSE_M), 0.97, (0.09, 0.13)
        seen = []
        monkeypatch.setattr(identify, "_fit", lambda jac, *args: seen.append(jac.copy()))
        assert identify._exact_pass(z, obs, p, coarse, n0, 1e-6) == (*z, 3)
        lam, x0 = 1e-6, np.array([n0 - z[0] - z[1], *z, obs.L0, obs.R0])
        for j, w in enumerate(([-1.0, 1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 1.0, 0.0, 0.0])):
            up, dn = (simulate(p, x0 + s * np.array(w), coarse).final[3:5] for s in (lam, -lam))
            fd = (up - dn) / (2.0 * lam)
            assert np.max(np.abs(seen[0][:, j] - fd)) <= 1e-8 * np.max(np.abs(fd))
