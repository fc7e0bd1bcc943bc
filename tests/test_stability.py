"""Reproduction number, stability threshold, extinction and horizon bound."""

import math

import numpy as np
import pytest

from sailr import (CoefficientTable, Grid, ModelParams, StabilityConfig, ValidationError,
                   compute_t_loc, hurwitz_check, infected_jacobian, r0,
                   s_threshold, simulate, simulate_extinction)
from sailr.integrate import MAX_STEPS
from conftest import random_params, random_state


def const_params(sigma=0.2, mu_A=0.1, mu_I=0.1, mu_L=0.1, l_A=0.1, l_I=0.2,
                 beta_A=0.2, beta_I=0.5, xi=0.0):
    return ModelParams(sigma=sigma, mu_A=mu_A, mu_I=mu_I, mu_L=mu_L, l_A=l_A,
                       l_I=l_I, beta_I=beta_I, beta_A=beta_A, xi=xi)


class TestR0:
    def test_no_transmission(self):
        assert r0(const_params(beta_A=0.0, beta_I=0.0)) == 0.0

    def test_worked_example(self):
        # k1 = 0.4, k2 = 0.3, beta = 0.3*0.2 + 0.2*0.5 = 0.16 -> 0.16/0.12
        assert r0(const_params()) == pytest.approx(0.16 / 0.12, rel=1e-15)

    def test_homogeneous_in_transmission(self):
        base = r0(const_params())
        assert r0(const_params(beta_A=0.6, beta_I=1.5)) == pytest.approx(3 * base)

    def test_time_varying_rejected(self):
        p = const_params().replace(beta_I=CoefficientTable([0.0, 1.0], [0.4, 0.6]))
        with pytest.raises(ValidationError, match="average"):
            r0(p)


class TestSThreshold:
    def test_worked_example(self):
        assert s_threshold(const_params()) == pytest.approx(0.75, rel=1e-15)

    def test_reciprocal_scaling(self):
        # doubling beta_A with sigma*beta_I = 0 halves the threshold
        a = s_threshold(const_params(beta_I=0.0, beta_A=0.2))
        b = s_threshold(const_params(beta_I=0.0, beta_A=0.4))
        assert b == pytest.approx(a / 2)

    def test_identity_with_r0(self, rng):
        for _ in range(200):
            p = random_params(rng)
            if not (p.beta_I.is_constant and p.beta_A.is_constant):
                continue
            if r0(p) == 0.0:
                continue
            assert abs(r0(p) * s_threshold(p) - 1.0) <= 1e-15

    def test_no_transmission_infinite(self):
        assert s_threshold(const_params(beta_A=0.0, beta_I=0.0)) == math.inf


class TestInfectedJacobian:
    def test_disease_free_is_triangular(self):
        p = const_params()
        J = infected_jacobian(0.0, p)
        assert np.allclose(J, np.tril(J))
        check = hurwitz_check(0.0, p)
        assert np.allclose(sorted(check.eigenvalues.real),
                           sorted([-p.k1, -p.k2, -p.mu_L]), atol=1e-14)

    def test_isolation_recovery_entry(self, rng):
        for _ in range(10):
            p = random_params(rng)
            if not (p.beta_I.is_constant and p.beta_A.is_constant):
                continue
            assert infected_jacobian(rng.uniform(0, 1), p)[2, 2] == -p.mu_L

    def test_closed_form_eigenvalues_match_solver(self, rng):
        for _ in range(50):
            p = random_params(rng)
            if not (p.beta_I.is_constant and p.beta_A.is_constant):
                continue
            s = rng.uniform(0.0, 1.0)
            lam = hurwitz_check(s, p).eigenvalues
            ref = np.linalg.eigvals(infected_jacobian(s, p))
            assert np.allclose(sorted(lam.real), sorted(ref.real), atol=1e-10)
            assert np.allclose(sorted(abs(lam.imag)), sorted(abs(ref.imag)), atol=1e-10)


class TestHurwitzCheck:
    def test_disease_free_stable(self):
        assert hurwitz_check(0.0, const_params()).hurwitz

    def test_threshold_boundary_not_stable(self):
        p = const_params()
        assert not hurwitz_check(s_threshold(p), p).hurwitz

    def test_matches_eigenvalue_signs(self, rng):
        for _ in range(100):
            p = random_params(rng)
            if not (p.beta_I.is_constant and p.beta_A.is_constant):
                continue
            s = rng.uniform(0.0, 1.5)
            check = hurwitz_check(s, p)
            all_neg = bool(np.all(check.eigenvalues.real < 0))
            assert check.hurwitz == all_neg

    def test_mu_L_zero_marginal(self):
        # the quadratic pair is stable, the third eigenvalue -mu_L is 0
        check = hurwitz_check(0.0, const_params(mu_L=0.0))
        assert not check.hurwitz
        assert np.all(check.eigenvalues[:2].real < 0) and check.eigenvalues[2] == 0


class TestSimulateExtinction:
    def test_disease_free_start(self):
        p = const_params()
        rep = simulate_extinction(p, (0.7, 0.0, 0.0, 0.0, 0.3), StabilityConfig(horizon=10.0))
        assert rep.extinction
        assert rep.S_tilde_inf == 0.7
        assert rep.horizon == 0.0  # no integration needed

    def test_subcritical_decay(self):
        p = const_params()  # S_bar = 0.75
        rep = simulate_extinction(p, (0.5, 0.02, 0.01, 0.0, 0.47),
                                  StabilityConfig(horizon=50.0, tol=1e-8))
        assert rep.extinction
        assert rep.monotone_S
        assert rep.S_tilde_inf < rep.S_bar
        assert rep.regime == "subcritical"
        assert abs(rep.S_tilde_inf + rep.final_state[4] - 1.0) <= 1e-8

    def test_supercritical_outbreak_limits_below_threshold(self):
        p = const_params(beta_A=0.4, beta_I=0.9)  # S_bar ~ 0.4
        rep = simulate_extinction(p, (0.93, 0.04, 0.03, 0.0, 0.0),
                                  StabilityConfig(horizon=50.0, tol=1e-8))
        assert rep.extinction
        assert rep.S_tilde_inf < rep.S_bar - 1e-6
        assert max(rep.final_state[1:4]) < 1e-8
        assert hurwitz_check(rep.S_tilde_inf, p).hurwitz

    def test_xi_nonzero_rejected(self):
        p = const_params(xi=0.1)
        with pytest.raises(ValidationError, match="xi"):
            simulate_extinction(p, (0.9, 0.05, 0.05, 0.0, 0.0))

    @pytest.mark.parametrize("x0, errors", [
        ((0.9, 0.05, 0.03, 0.01, 0.0), ["components must sum to 1"]),
        ((0.95, -0.01, 0.03, 0.02, 0.01), ["components must be >= 0"]),
        ((0.9, float("nan"), 0.05, 0.05, 0.0),
         ["components must be >= 0", "components must sum to 1"]),
    ], ids=["sum-0.99", "negative", "nan"])
    def test_initial_state_is_a_state(self, x0, errors):
        # the loader's x0 rule, for a library caller too
        with pytest.raises(ValidationError) as exc:
            simulate_extinction(const_params(), x0)
        assert exc.value.errors == errors

    def test_zero_step_rejected(self):
        with pytest.raises(ValidationError, match="h must be > 0"):
            simulate_extinction(const_params(), (0.9, 0.05, 0.05, 0.0, 0.0),
                                StabilityConfig(h=0.0))

    def test_first_segment_step_cap(self):
        # a first segment past the cap is an error, not an inconclusive report
        StabilityConfig(horizon=0.5 * MAX_STEPS, h=0.5)  # the cap itself is allowed
        with pytest.raises(ValidationError) as exc:
            StabilityConfig(horizon=100.0, h=1e-6)
        assert exc.value.errors == [f"horizon / h must be <= {MAX_STEPS} steps"]


class TestComputeTLoc:
    LHAT = 0.5

    def _choices(self, params):
        # (traj, y1, rho) with y1 = L0/2 and rho mid-interval, as control's note picks them
        traj = simulate(params, (0.85, 0.05, 0.03, 0.04, 0.03), Grid(0.0, 5.0, 500))
        y1 = 0.5 * traj.L[0]
        return traj, y1, 0.5 * ((traj.L[0] - y1) + (self.LHAT - y1))

    def test_mu_L_zero_first_root_infinite(self):
        p = const_params(mu_L=0.0)
        t1, t2, tloc = compute_t_loc(p, *self._choices(p), self.LHAT, alpha0=1.0)
        assert t1 == math.inf
        assert tloc == t2

    def test_monotone_in_G(self):
        # mu_A enters G alone: F0 and F1 do not read it
        p = const_params()
        choices = self._choices(p)
        t1a, t2a, _ = compute_t_loc(p, *choices, self.LHAT, alpha0=1.0)
        t1b, t2b, _ = compute_t_loc(p.replace(mu_A=0.6), *choices, self.LHAT, alpha0=1.0)
        assert t1b < t1a and t2b < t2a

    def test_roots_satisfy_defining_equations(self):
        p = const_params()
        traj, y1, rho = self._choices(p)
        alpha0 = 1.3
        t1, t2, tloc = compute_t_loc(p, traj, y1, rho, self.LHAT, alpha0)
        G = (p.beta_A(0.0) + p.beta_I(0.0) + p.sigma + p.mu_A + p.l_A + p.mu_I + p.l_I
             + p.xi(0.0) + p.l_A ** 2 + p.l_I ** 2)
        F1 = (p.l_A * np.max(traj.A) + p.l_I * np.max(traj.I) + p.mu_L * np.max(traj.L)
              + p.mu_L * y1)
        assert abs(4 * p.mu_L * alpha0 * math.exp(G * t1) * t1 * math.sqrt(t1)
                   - 1.0) <= 1e-10
        lhs2 = (traj.L[0] - y1) + 4 * alpha0 * (F1 + rho * p.mu_L) \
            * t2 * math.sqrt(t2) * math.exp(G * t2)
        assert abs(lhs2 - rho) <= 1e-10
        assert tloc == min(t1, t2)

    def test_invalid_choices_rejected(self):
        p = const_params()
        traj = simulate(p, (0.85, 0.05, 0.03, 0.04, 0.03), Grid(0.0, 5.0, 200))
        with pytest.raises(ValidationError, match="0 < y1 < L0"):
            compute_t_loc(p, traj, y1=0.2, rho=0.1, lhat=0.5, alpha0=1.0)
        with pytest.raises(ValidationError, match="rho in"):
            compute_t_loc(p, traj, y1=0.01, rho=0.005, lhat=0.5, alpha0=1.0)


class TestRegimeClassification:
    def test_bands(self):
        from sailr.stability import _regime
        assert _regime(0.5) == "subcritical"
        assert _regime(1.5) == "supercritical"
        assert _regime(1.0 + 5e-4) == "critical"
        assert _regime(1.0 - 5e-4) == "critical"
