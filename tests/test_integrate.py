"""Fixed-step RK4: order, conservation, grid and quadrature."""

import numpy as np
import pytest

from sailr import (BlowupError, Grid, Trajectory, ValidationError,
                   integrate_forward, simulate, total_population, trapezoid)
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

    def test_trapezoid_linear_exact(self):
        t = np.linspace(0.0, 2.0, 21)
        assert trapezoid(2.0 * t + 1.0, 0.1) == pytest.approx(6.0, abs=1e-14)

    def test_trajectory_length_contract(self):
        with pytest.raises(ValidationError):
            Trajectory(Grid(0.0, 1.0, 4), np.zeros((4, 5)))
