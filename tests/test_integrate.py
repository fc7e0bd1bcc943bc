"""Fixed-step RK4: order, conservation, grid and quadrature."""

import numpy as np
import pytest

from sailr import (BlowupError, CoefficientTable, Grid, ModelParams, Trajectory,
                   ValidationError, integrate_forward, rhs, simulate, total_population,
                   trapezoid)
from sailr.integrate import MAX_STEPS, check_blowup, linear_sweep
from conftest import random_params, random_state


def exp_decay(t, x):
    return -x


class TestForward:
    def test_zero_field_constant(self):
        x0 = np.array([1.0, -2.0, 3.0])
        tr = integrate_forward(lambda t, x: np.zeros(3), x0, Grid(0.0, 1.0, 10))
        assert np.array_equal(tr.states, np.tile(x0, (11, 1)))

    def test_exponential_oracle(self):
        tr = integrate_forward(exp_decay, [1.0], Grid(0.0, 1.0, 1000))
        assert abs(tr.final[0] - np.exp(-1.0)) <= 1e-10

    def test_rk4_order(self):
        # error shrinks ~16x per halving of h
        errs = []
        for M in (100, 200, 400):
            tr = integrate_forward(exp_decay, [1.0], Grid(0.0, 1.0, M))
            errs.append(abs(tr.final[0] - np.exp(-1.0)))
        for a, b in zip(errs, errs[1:]):
            assert 12.0 <= a / b <= 20.0

    def test_blowup_reports_step(self):
        with pytest.raises(BlowupError) as exc:
            integrate_forward(lambda t, x: x * x, [5.0], Grid(0.0, 10.0, 100))
        assert exc.value.step >= 1

    def test_conservation_long_horizon(self, rng):
        p = random_params(rng)
        x0 = random_state(rng)
        tr = simulate(p, x0, Grid(0.0, 100.0, 10_000))
        drift = np.abs(tr.states.sum(axis=1) - total_population(x0))
        assert drift.max() <= 1e-10


class TestGridAndQuadrature:
    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            Grid(0.0, 1.0, 0)
        with pytest.raises(ValidationError):
            Grid(1.0, 1.0, 10)

    def test_grid_step_cap(self):
        # the grid holds the cap itself, so a library caller meets it before any solve
        assert Grid(0.0, 1.0, MAX_STEPS).M == MAX_STEPS
        with pytest.raises(ValidationError) as exc:
            Grid(0.0, 1.0, MAX_STEPS + 1)
        assert exc.value.errors == [f"M must be <= {MAX_STEPS}"]

    def test_trapezoid_linear_exact(self):
        t = np.linspace(0.0, 2.0, 21)
        assert trapezoid(2.0 * t + 1.0, 0.1) == pytest.approx(6.0, abs=1e-14)

    def test_trajectory_length_contract(self):
        with pytest.raises(ValidationError):
            Trajectory(Grid(0.0, 1.0, 4), np.zeros((4, 5)))


class TestBlowup:
    @pytest.mark.parametrize("sums, lo, step", [
        (np.array([1.0, 2.0, np.nan, np.inf]), 0, 3),
        (np.array([1.0, -1e100, 1.0]), 512, 514),  # _BIG itself is a blow-up
        (np.inf, 9, 10),  # one step's sum
    ])
    def test_first_bad_step(self, sums, lo, step):
        with pytest.raises(BlowupError) as exc:
            check_blowup(sums, lo)
        assert exc.value.step == step

    def test_finite_sums_pass(self):
        check_blowup(np.array([1.0, -9.9e99, 0.0]), 512)

    def test_every_sweep_reports_the_same_step(self):
        # beta_I jumps from 0 to 1e300 between the stage samples of step 520
        # (t = 0.520, 0.5205, 0.521), so state 521 is the first non-finite
        # one: past the first SWEEP_BLOCK of 512 steps
        M, step = 1000, 521
        g = Grid(0.0, 1.0, M)
        beta = CoefficientTable([0.0, 0.5202, 0.5204, 1.0], [0.0, 0.0, 1e300, 1e300])
        p = ModelParams(sigma=0.2, mu_A=0.1, mu_I=0.1, mu_L=0.1, l_A=0.1, l_I=0.2,
                        beta_I=beta, beta_A=0.2, xi=0.0)
        x0 = (0.9, 0.05, 0.03, 0.01, 0.01)

        def maps(lo, hi):  # y_{k+1} = y_k + D_k y_k, with D = inf on step 520 only
            D = np.zeros((hi - lo, 2, 2))
            if lo <= step - 1 < hi:
                D[step - 1 - lo] = np.inf * np.eye(2)
            return D

        runs = {"simulate": lambda: simulate(p, x0, g),
                "integrate_forward": lambda: integrate_forward(lambda t, x: rhs(x, p, t), x0, g),
                "linear_sweep": lambda: linear_sweep(maps, np.ones(2), M)}
        for name, run in runs.items():
            with pytest.raises(BlowupError) as exc, np.errstate(over="ignore", invalid="ignore"):
                run()
            assert exc.value.step == step, name
