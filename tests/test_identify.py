"""Inverse problem: cost, adjoint gradient, projections, resolvent, solver."""

from fractions import Fraction

import numpy as np
import pytest

from sailr import (CoefficientTable, FeasibilityError, Grid, IdentCandidate,
                   IdentConfig, ModelParams, Observations, SynthSpec,
                   ValidationError, adjoint_p0, cost_p0, gradient_p0, n0_of,
                   optimality_residual_p0, project_k0, resolve_k0, simulate, solve_p0,
                   synth_observations, trapezoid)
from sailr import identify


def base_params(**kw):
    d = dict(sigma=0.25, mu_A=0.1, mu_I=0.12, mu_L=0.15, l_A=0.25, l_I=0.35,
             beta_I=0.0, beta_A=0.22, xi=0.03)
    d.update(kw)
    return ModelParams(**d)


def planted(T=2.0, M=500, beta=0.4, A0=0.12, I0=0.08, L0=0.02, R0=0.01, params=None):
    p = params or base_params()
    g = Grid(0.0, T, M)
    spec = SynthSpec(params=p, grid=g, beta_I_true=CoefficientTable.constant(beta),
                     A0_true=A0, I0_true=I0, L0=L0, R0=R0)
    obs, ref = synth_observations(spec)
    return p, g, obs, ref


#: two draws of a wider box than perfbench/survey.py's (random rates, T in
#: [1, 6], L0 and R0 in [0.005, 0.03]) on a grid of 2000 steps, more than COARSE_M
WIDE_DRAW_37 = dict(
    T=5.7927, M=2000, beta=0.4935, A0=0.197, I0=0.1157, L0=0.0129, R0=0.0165,
    params=ModelParams(sigma=0.1471, mu_A=0.2214, mu_I=0.3858, mu_L=0.3569, l_A=0.6981,
                       l_I=0.4914, beta_I=0.0, beta_A=0.4888, xi=0.0046))
WIDE_DRAW_51 = dict(
    T=5.9668, M=2000, beta=0.5292, A0=0.1817, I0=0.1608, L0=0.0204, R0=0.0118,
    params=ModelParams(sigma=0.2061, mu_A=0.0634, mu_I=0.4264, mu_L=0.484, l_A=0.2559,
                       l_I=0.5399, beta_I=0.0, beta_A=0.2038, xi=0.163))


@pytest.fixture
def taken_steps(monkeypatch):
    """After a converged solve_p0: for each step it took, the number of
    forward solves its iteration made and whether the certificate judged it
    (a step swept although its cost change failed the Armijo test against
    the decrease predicted by the last sweep's gradient, as the arc search
    predicts it)."""
    streamed, swept, failed, grad = [], [], [], []
    forward, gradient, change = identify._forward, identify._exact_gradient, identify._cost_change

    def spy_forward(c, *args):
        streamed.append(c)
        return forward(c, *args)

    def spy_gradient(c, *args):
        swept.append(len(streamed))
        out = gradient(c, *args)
        grad[:] = out[:3]
        return out

    def spy_change(parts, new_parts, alpha0, alpha1, h):
        (_, bg, z), (_, nb, nz), (gb, gA, gI) = parts, new_parts, grad
        wq = np.full(bg.size, h)
        wq[[0, -1]] = 0.5 * h
        dpred = float(np.dot(wq * gb, nb - bg) + gA * (nz[0] - z[0]) + gI * (nz[1] - z[1]))
        out = change(parts, new_parts, alpha0, alpha1, h)
        if out > identify.ARMIJO_C * dpred:
            failed.append(len(streamed))
        return out

    monkeypatch.setattr(identify, "_forward", spy_forward)
    monkeypatch.setattr(identify, "_exact_gradient", spy_gradient)
    monkeypatch.setattr(identify, "_cost_change", spy_change)
    # step k runs between the k-th sweep and the (k + 1)-th
    return lambda: [(hi - lo, hi in failed) for lo, hi in zip(swept, swept[1:])]


def no_pass(z, *args):
    """identify._exact_pass stubbed out: the start is its quasilinearized fit."""
    return *z, 0


def no_recovery_problem():
    """(params, grid, observations) with no recovery and no immunity loss:
    R(T) = R0 whatever (A0, I0), and L(T) = LT = L0 only on a line through
    0, so the data fix one direction of (A0, I0) and alpha0 the other."""
    p = ModelParams(sigma=0.3, mu_A=0.0, mu_I=0.0, mu_L=0.0, l_A=0.2, l_I=0.4, beta_I=0.0,
                    beta_A=0.0, xi=0.0)
    return p, Grid(0.0, 2.0, 300), Observations(L0=0.02, R0=0.01, LT=0.02, RT=0.01, T=2.0)


class TestStart:
    """solve_p0's first iterate: beta_I = 0 and (A0, I0) fitted on K0 to
    (LT, RT) by the model linearized there, then one exact pass."""

    def test_fit_lands_inside_k0(self, monkeypatch):
        # identify_synthetic's problem: the start lies strictly inside K0,
        # after the exact pass on its 1000 steps, and meets tol there; the
        # quasilinearized fit alone lies within 2e-7 of it (1.54e-7 measured)
        p, g, obs, ref = planted(M=1000)
        n0 = n0_of(obs)
        A0, I0, sweeps = identify._start(obs, p, g, n0, 1e-6)
        assert A0 > 0 and I0 > 0 and A0 + I0 < n0 and sweeps == 3
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=40))
        assert res.converged and res.iterations == 0 and res.forward_solves == 6
        assert (res.candidate.A0, res.candidate.I0) == (A0, I0)
        monkeypatch.setattr(identify, "_exact_pass", no_pass)
        fA0, fI0 = identify._start(obs, p, g, n0, 1e-6)[:2]
        assert np.hypot(fA0 - A0, fI0 - I0) <= 2e-7

    def test_fit_inside_k0_is_the_closed_form(self, monkeypatch):
        # each fit of the start on identify_synthetic's data (its passes and
        # the exact pass) lies strictly inside K0, where the triangle QP gives
        # the bits of the Cramer solve of the normal equations: the bits of
        # every start that the perfbench identify tasks take at M = 10^4
        p, g, obs, ref = planted(M=1000)
        n0 = n0_of(obs)
        fits, fit = [], identify._fit
        monkeypatch.setattr(identify, "_fit", lambda *a: fits.append((a, fit(*a))) or fits[-1][1])
        identify._start(obs, p, g, n0, 1e-6)
        assert len(fits) == identify.START_PASSES + 1
        for (jac, c, _, alpha0, _), got in fits:
            (a, b), (_, d) = jac.T @ jac + alpha0 * identify.GAMMA
            e, f = jac.T @ (np.array([obs.LT, obs.RT]) - c) + alpha0 * n0
            det = a * d - b * b
            want = float((e * d - b * f) / det), float((a * f - b * e) / det)
            assert want[0] > 0 and want[1] > 0 and want[0] + want[1] < n0
            assert got == want

    def test_fine_grid_converges_at_its_start(self, monkeypatch):
        # a planted M = 10^4 problem: the start's exact pass on COARSE_M
        # steps lands where the first fine iterate meets tol, in 3 coarse
        # and 3 fine sweeps, and within 2e-13 of the answer of the pass on
        # the fine grid itself (1.7e-14 measured)
        p, g, obs, ref = planted(M=10_000)
        n0 = n0_of(obs)
        res = solve_p0(obs, p, g, 1e-6, 1e-6)
        assert res.converged and res.iterations == 0 and res.forward_solves == 6
        monkeypatch.setattr(identify, "COARSE_M", g.M)
        direct = solve_p0(obs, p, g, 1e-6, 1e-6)
        assert direct.converged and direct.iterations == 0 and direct.forward_solves == 6
        assert np.hypot(res.candidate.A0 - direct.candidate.A0,
                        res.candidate.I0 - direct.candidate.I0) <= 2e-13
        # with the pass off, the start is the quasilinearized fit, whose gap
        # to the answer is second order in the segment length: 2.4e-6 with
        # 4 segments, 15.6 times the 1.5e-7 with 16
        monkeypatch.setattr(identify, "_exact_pass", no_pass)
        gaps = []
        for k in (4, 16):
            monkeypatch.setattr(identify, "START_SEGMENTS", k)
            A0, I0 = identify._start(obs, p, g, n0, 1e-6)[:2]
            gaps.append(np.hypot(A0 - res.candidate.A0, I0 - res.candidate.I0))
        assert gaps[0] >= 8 * gaps[1]

    @pytest.mark.parametrize("problem", [
        # the normal equations give I0 < 0
        no_recovery_problem,
        # the first pass (linearized about S = N0, A = 0) lands inside K0,
        # the second outside
        lambda: planted(T=5.2027, M=1000, beta=0.5263, A0=0.1798, I0=0.2181, L0=0.0093,
                        R0=0.0184, params=ModelParams(sigma=0.3628, mu_A=0.0683, mu_I=0.0529,
                                                      mu_L=0.1415, l_A=0.3836, l_I=0.3998,
                                                      beta_I=0.0, beta_A=0.4184, xi=0.0019))[:3],
        # a wide-box draw (T = 5.79, beta_I = 0.49, I0/A0 = 0.59) whose fit
        # leaves K0 from the second pass on; its answer has I0 = 0 and beta_I > 0
        lambda: planted(**WIDE_DRAW_37)[:3],
    ], ids=["singular", "second_pass", "wide_draw_37"])
    def test_fit_outside_k0_is_projected(self, monkeypatch, problem):
        # a beta_I = 0 fit that leaves K0 is minimized over K0 instead, and
        # the minimizer, on K0's boundary, is pulled START_PULL of the way to
        # the centroid: the start lies strictly inside K0, the exact pass's
        # minimizer up to that pull, and the solve from it converges
        p, g, obs = problem()
        n0 = n0_of(obs)
        minimizers, qp = [], identify._min_quadratic_triangle
        monkeypatch.setattr(identify, "_min_quadratic_triangle",
                            lambda *a: minimizers.append(qp(*a)) or minimizers[-1])
        A0, I0, sweeps = identify._start(obs, p, g, n0, 1e-6)
        assert len(minimizers) == identify.START_PASSES + 1 and sweeps == 3
        z = minimizers[-1]
        assert min(z) == 0.0 or z[0] + z[1] >= n0
        assert (A0, I0) == tuple(v + identify.START_PULL * (n0 / 3.0 - v) for v in z)
        assert A0 > 0 and I0 > 0 and A0 + I0 < n0
        monkeypatch.undo()
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=40))
        assert res.converged

    def test_fit_of_singular_normal_equations(self):
        # no_recovery_problem with alpha0 = 1e-300: J'J has rank 1 and
        # alpha0 Gamma lies below its rounding, so the normal equations'
        # determinant rounds to 0.0.  The triangle QP then minimizes on K0's
        # edges and vertices only, and the fit is pulled inside as before
        assert identify._min_quadratic_triangle(((1.0, 1.0), (1.0, 1.0)), (1.0, 1.0), 1.0) == (
            0.0, 1.0)
        p, g, obs = no_recovery_problem()
        n0 = n0_of(obs)
        A0, I0, sweeps = identify._start(obs, p, g, n0, 1e-300)
        assert A0 > 0 and I0 > 0 and A0 + I0 < n0 and sweeps == 3

    def test_first_step_after_exact_pass_frees_beta(self, monkeypatch):
        # a wide-box draw whose answer has beta_I > 0 (0.0089 at most): the
        # exact pass has taken the Gauss-Newton step with beta_I held at 0,
        # so the first fine step frees the knots whose gradient is negative;
        # one that kept them on their bound would find no decrease and
        # stall at 9.0e-3.  It converges in 16 sweeps
        p, g, obs, ref = planted(**WIDE_DRAW_51)
        starts = []
        forward = identify._forward

        def spy(c, *args):
            starts.append(c)
            return forward(c, *args)

        monkeypatch.setattr(identify, "_forward", spy)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=40))
        assert identify._start(obs, p, g, n0_of(obs), 1e-6)[2] == 3
        assert res.converged and res.forward_solves == 16
        assert res.candidate.beta_I.values.max() > 0
        # the pass's coarse solve, the start, then the first fine step's trial
        assert not np.any(starts[1].beta_I.values) and np.any(starts[2].beta_I.values)

    def test_exact_pass_blowup_keeps_fit(self, monkeypatch):
        # h mu_L = 3.0 on COARSE_M steps, outside RK4's stability interval,
        # and 1.5 on the 2000 of the grid: the pass's forward solve blows up
        # after 1 sweep, and the solve goes on from the quasilinearized fit
        p, g, obs, ref = planted(M=2000, params=base_params(mu_L=1500.0))
        n0 = n0_of(obs)
        A0, I0, sweeps = identify._start(obs, p, g, n0, 1e-6)
        assert sweeps == 1
        res = solve_p0(obs, p, g, 1e-6, 1e-6)
        monkeypatch.setattr(identify, "_exact_pass", no_pass)
        assert identify._start(obs, p, g, n0, 1e-6) == (A0, I0, 0)
        direct = solve_p0(obs, p, g, 1e-6, 1e-6)
        assert res.converged and res.forward_solves == direct.forward_solves + 1
        assert (res.candidate.A0, res.candidate.I0) == (direct.candidate.A0, direct.candidate.I0)


class TestCostP0:
    def test_planted_self_consistency(self):
        p, g, obs, ref = planted()
        cand = IdentCandidate(CoefficientTable.constant(0.4), 0.12, 0.08)
        assert cost_p0(cand, obs, 0.0, 0.0, p, g) <= 1e-12

    def test_hand_value_empty_candidate(self):
        # beta=0, A0=I0=0, alpha1=0: mismatch terms plus (alpha0/2) N0^2
        p, g, obs, ref = planted()
        n0 = n0_of(obs)
        cand = IdentCandidate(CoefficientTable.constant(0.0), 0.0, 0.0)
        traj = simulate(p.replace(beta_I=cand.beta_I),
                        (n0, 0.0, 0.0, obs.L0, obs.R0), g)
        mis = 0.5 * (traj.L[-1] - obs.LT) ** 2 + 0.5 * (traj.R[-1] - obs.RT) ** 2
        alpha0 = 0.7
        want = mis + 0.5 * alpha0 * n0 ** 2
        assert cost_p0(cand, obs, alpha0, 0.0, p, g) == pytest.approx(want, rel=1e-12)

    def test_mismatch_term_quadratic(self):
        p, g, obs, ref = planted()
        cand = IdentCandidate(CoefficientTable.constant(0.4), 0.12, 0.08)
        LT = float(ref.L[-1])
        obs1 = Observations(obs.L0, obs.R0, LT - 0.01, obs.RT, obs.T)
        obs2 = Observations(obs.L0, obs.R0, LT - 0.02, obs.RT, obs.T)
        c1 = cost_p0(cand, obs1, 0.0, 0.0, p, g)
        c2 = cost_p0(cand, obs2, 0.0, 0.0, p, g)
        assert c2 == pytest.approx(4.0 * c1, rel=1e-9)

    def test_infeasible_rejected(self):
        p, g, obs, ref = planted()
        cand = IdentCandidate(CoefficientTable.constant(0.1), 0.9, 0.9)
        with pytest.raises(FeasibilityError):
            cost_p0(cand, obs, 1.0, 1.0, p, g)


class TestK0Membership:
    """SynthSpec and cost_p0 accept the same (A0, I0): K0 with 1e-12 slack on every side."""

    @pytest.mark.parametrize("A0, I0, inside", [
        (-0.5e-12, 0.1, True), (0.1, -0.5e-12, True),
        (-2e-12, 0.1, False), (0.1, -2e-12, False),
        (0.25, 0.25 + 0.5e-12, True), (0.25, 0.25 + 2e-12, False),
        (float("nan"), 0.1, False),
    ])
    def test_synth_and_cost_agree(self, A0, I0, inside):
        p, g = base_params(), Grid(0.0, 1.0, 10)
        beta = CoefficientTable.constant(0.4)
        obs = Observations(L0=0.25, R0=0.25, LT=0.3, RT=0.3, T=1.0)  # N0 = 0.5
        try:
            SynthSpec(params=p, grid=g, beta_I_true=beta, A0_true=A0, I0_true=I0,
                      L0=obs.L0, R0=obs.R0)
            synth_accepts = True
        except ValidationError as err:
            assert err.errors == ["planted (A0, I0) must lie in K0"]
            synth_accepts = False
        try:
            cost_p0(IdentCandidate(beta, A0, I0), obs, 1e-6, 1e-6, p, g)
            cost_accepts = True
        except FeasibilityError:
            cost_accepts = False
        assert synth_accepts == cost_accepts == inside


class TestGradientP0:
    def test_zero_at_unregularized_fit(self):
        p, g, obs, ref = planted()
        cand = IdentCandidate(CoefficientTable.constant(0.4), 0.12, 0.08)
        gb, gA, gI = gradient_p0(cand, obs, 0.0, 0.0, p, g)
        assert np.max(np.abs(gb)) <= 1e-12 and abs(gA) <= 1e-12 and abs(gI) <= 1e-12

    def test_directional_derivative(self, rng):
        p, g, obs, ref = planted(M=1500)
        tg = g.points()
        lam = 1e-5
        a0w, a1w = 1e-3, 1e-3
        for _ in range(3):
            base = rng.uniform(0.2, 0.5)
            bg = np.full(tg.size, base)
            A0, I0 = rng.uniform(0.05, 0.2, 2)
            cand = IdentCandidate(CoefficientTable(tg, bg), A0, I0)
            gb, gA, gI = gradient_p0(cand, obs, a0w, a1w, p, g)
            u = rng.uniform(-1.0, 1.0, tg.size)
            w, v = rng.uniform(-1.0, 1.0, 2)

            def J(s):
                c = IdentCandidate(CoefficientTable(tg, bg + s * u), A0 + s * w, I0 + s * v)
                return cost_p0(c, obs, a0w, a1w, p, g)

            fd = (J(lam) - J(-lam)) / (2.0 * lam)
            wq = np.full(tg.size, g.h)
            wq[0] = wq[-1] = g.h / 2
            an = float(np.dot(wq * gb, u) + gA * w + gI * v)
            assert abs(fd - an) / max(abs(fd), 1e-12) <= 1e-4

    def test_initial_block_finite_difference(self, rng):
        # beta frozen; central differences in (A0, I0) alone
        p, g, obs, ref = planted(M=1000)
        cand = IdentCandidate(CoefficientTable.constant(0.35), 0.1, 0.07)
        a0w, a1w = 1e-4, 1e-4
        _, gA, gI = gradient_p0(cand, obs, a0w, a1w, p, g)
        lam = 1e-5

        def J(a, i):
            return cost_p0(IdentCandidate(cand.beta_I, a, i), obs, a0w, a1w, p, g)

        fdA = (J(0.1 + lam, 0.07) - J(0.1 - lam, 0.07)) / (2 * lam)
        fdI = (J(0.1, 0.07 + lam) - J(0.1, 0.07 - lam)) / (2 * lam)
        assert abs(fdA - gA) / max(abs(fdA), 1e-12) <= 1e-5
        assert abs(fdI - gI) / max(abs(fdI), 1e-12) <= 1e-5


class TestProjections:
    @pytest.mark.parametrize("f", [project_k0, resolve_k0])
    def test_empty_triangle_rejected(self, f):
        with pytest.raises(ValueError, match="N0 must be > 0"):
            f((0.1, 0.1), 0.0)

    def test_triangle_projection_matches_bruteforce(self, rng):
        n0 = 0.9
        z1 = np.linspace(0.0, n0, 801)
        Z1, Z2 = np.meshgrid(z1, z1, indexing="ij")
        feas = Z1 + Z2 <= n0 * (1 + 1e-12)
        for _ in range(30):
            y = rng.uniform(-1.5, 1.5, 2)
            d2 = np.where(feas, (Z1 - y[0]) ** 2 + (Z2 - y[1]) ** 2, np.inf)
            i = np.unravel_index(np.argmin(d2), d2.shape)
            got = project_k0(y, n0)
            assert abs(got[0] - Z1[i]) <= 2 * n0 / 800
            assert abs(got[1] - Z2[i]) <= 2 * n0 / 800


class TestResolveK0:
    def test_interior_identity(self):
        n0 = 0.8
        z = (n0 / 4, n0 / 4)
        y = (2 * z[0] + z[1], z[0] + 2 * z[1])
        got = resolve_k0(y, n0)
        assert got == pytest.approx(z, abs=1e-15)

    def test_all_negative_hits_origin(self):
        assert resolve_k0((-1.0, -1.0), 0.7) == (0.0, 0.0)

    def test_large_symmetric_hits_edge(self):
        assert resolve_k0((10.0, 10.0), 1.0) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_invalid_n0(self):
        with pytest.raises(ValueError):
            resolve_k0((0.0, 0.0), 0.0)

    def test_bruteforce_agreement(self, rng):
        n0 = 1.0
        z1 = np.linspace(0.0, n0, 801)
        Z1, Z2 = np.meshgrid(z1, z1, indexing="ij")
        feas = Z1 + Z2 <= n0 * (1 + 1e-12)
        Q = Z1 ** 2 + Z1 * Z2 + Z2 ** 2
        for _ in range(30):
            y = rng.uniform(-3.0, 3.0, 2)
            F = np.where(feas, Q - y[0] * Z1 - y[1] * Z2, np.inf)
            i = np.unravel_index(np.argmin(F), F.shape)
            got = resolve_k0(y, n0)
            assert abs(got[0] - Z1[i]) <= 2 * n0 / 800
            assert abs(got[1] - Z2[i]) <= 2 * n0 / 800


class TestOptimalityResidual:
    def test_zero_adjoint_consistent_candidate(self):
        p = base_params()
        g = Grid(0.0, 2.0, 400)
        L0, R0 = 0.02, 0.01
        n0 = 1.0 - L0 - R0
        cand = IdentCandidate(CoefficientTable.constant(0.0), n0 / 3, n0 / 3)
        pr = p.replace(beta_I=cand.beta_I)
        traj = simulate(pr, (cand.s0(n0), cand.A0, cand.I0, L0, R0), g)
        obs = Observations(L0, R0, float(traj.L[-1]), float(traj.R[-1]), g.T)
        adj = adjoint_p0(traj, pr, obs)
        assert np.array_equal(adj.states, np.zeros_like(adj.states))
        grad = gradient_p0(cand, obs, 0.5, 0.5, p, g)
        res = optimality_residual_p0(cand, g, grad, 0.5, 0.5, n0)
        assert res <= 1e-15

    def test_sign_structure_violation_detected(self):
        # positive beta where the projection target is zero -> residual > 0
        p, g, obs, ref = planted()
        n0 = n0_of(obs)
        cand = IdentCandidate(CoefficientTable.constant(0.4), 0.12, 0.08)
        grad = gradient_p0(cand, obs, 1e-6, 1e-6, p, g)  # regularizers only (planted data)
        res = optimality_residual_p0(cand, g, grad, 1e-6, 1e-6, n0)
        assert res >= 0.4  # beta itself is the violation against a zero target

    def test_converged_solver_passes(self):
        p, g, obs, ref = planted(M=400)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-6, max_iters=200))
        assert res.converged
        assert res.optimality_residual <= 1e-6


class TestSolveP0:
    def test_planted_recovery(self):
        p, g, obs, ref = planted(M=500)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=300))
        mis = (res.trajectory.L[-1] - obs.LT) ** 2 + (res.trajectory.R[-1] - obs.RT) ** 2
        assert res.converged
        assert mis <= 1e-10
        assert res.optimality_residual <= 1e-6
        # identifiability caveat: report, do not assert, the deviation from truth
        print(f"planted-truth deviation: A0 {abs(res.candidate.A0 - 0.12):.3e}, "
              f"I0 {abs(res.candidate.I0 - 0.08):.3e}")

    def test_cost_history_nonincreasing_and_feasible(self):
        p, g, obs, ref = planted(M=400)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=300))
        assert np.all(np.diff(res.cost_history) <= 1e-18)
        n0 = n0_of(obs)
        assert np.min(res.candidate.beta_I.values) >= 0.0
        assert res.candidate.A0 >= 0 and res.candidate.I0 >= 0
        assert res.candidate.A0 + res.candidate.I0 <= n0 + 1e-12
        assert res.candidate.s0(n0) >= -1e-12

    def test_sign_structure_at_solution(self):
        # beta = 0 wherever the projection target is negative (within 1e-8)
        p, g, obs, ref = planted(M=400)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=300))
        m = (res.adjoint.p - res.adjoint.q) * res.trajectory.S * res.trajectory.I
        bg = res.candidate.beta_I.values
        assert np.all(bg[m < -1e-12] <= 1e-8)

    def test_beta_shrinks_with_alpha1(self):
        # heavy regularization drives the identified rate toward zero, monotonically
        # (certificate tolerance sits above the O(h^2) adjoint-consistency floor)
        p, g, obs, ref = planted(M=300)
        sup = []
        for a1 in (1.0, 4.0, 16.0):
            res = solve_p0(obs, p, g, 1.0, a1, IdentConfig(tol=1e-4, max_iters=300))
            assert res.converged
            sup.append(trapezoid(res.candidate.beta_I.values ** 2, g.h))
        assert sup[0] >= sup[1] >= sup[2]

    def test_no_information_scenario(self):
        # L_T = L0, R_T = R0 with dynamics that only move mass when A, I > 0:
        # optimum is beta ~ 0, (A0, I0) ~ 0, cost ~ the pure regularizer floor
        p = ModelParams(sigma=0.3, mu_A=0.0, mu_I=0.0, mu_L=0.0, l_A=0.2, l_I=0.4,
                        beta_I=0.0, beta_A=0.0, xi=0.0)
        g = Grid(0.0, 2.0, 300)
        obs = Observations(L0=0.02, R0=0.01, LT=0.02, RT=0.01, T=2.0)
        n0 = n0_of(obs)
        a0w = a1w = 1e-8
        res = solve_p0(obs, p, g, a0w, a1w, IdentConfig(tol=1e-6, max_iters=400))
        assert res.converged
        assert np.max(res.candidate.beta_I.values) <= 1e-3
        assert res.candidate.A0 + res.candidate.I0 <= 1e-2
        floor = 0.5 * a0w * n0 ** 2
        assert res.cost == pytest.approx(floor, rel=0.05)

    def test_adjoint_is_consistent_with_continuous_adjoint(self):
        # the exact discrete adjoint agrees with the continuous-adjoint sweep to
        # O(h^2).  The discrete projection target b - gbeta/alpha1 agrees with
        # the continuous m/alpha1 to O(h^2) at interior knots but only to O(h)
        # at the two end knots, so the certificate reads the discrete one.
        gaps, interior, ends = [], [], []
        for M in (400, 800):
            p, g, obs, ref = planted(M=M)
            res = solve_p0(obs, p, g, 1e-6, 1e-6)
            adj = adjoint_p0(res.trajectory, p.replace(beta_I=res.candidate.beta_I), obs)
            gaps.append(np.max(np.abs(res.adjoint.states - adj.states))
                        / np.max(np.abs(adj.states)))
            gb, _, _ = gradient_p0(res.candidate, obs, 1e-6, 1e-6, p, g)
            b = res.candidate.beta_I(g.points())
            m = (adj.p - adj.q) * res.trajectory.S * res.trajectory.I
            gap = np.abs((b - gb / 1e-6) - m / 1e-6)
            interior.append(np.max(gap[1:-1]))
            ends.append(gap[[0, -1]])
        assert max(gaps) <= 2e-9
        assert gaps[1] <= gaps[0] / 3.0
        assert interior[1] <= interior[0] / 3.0
        assert np.all((ends[1] >= ends[0] / 2.5) & (ends[1] <= ends[0] / 1.5))

    @pytest.mark.parametrize("beta, A0, I0", [
        (0.4932814111668238, 0.10176495679690387, 0.07864930812416354),
        (0.30771176906511666, 0.09087978171962281, 0.10458635830168335),
        (0.43144935744978863, 0.0806413357804936, 0.10773387345458602),
    ])
    def test_boundary_stall_region_converges(self, beta, A0, I0):
        # planted truths (identify_synthetic's params) whose discrete optimum
        # keeps beta_I ~ 1e-6 at t = T, where the continuous formula forces 0
        p, g, obs, ref = planted(T=2.0, M=1000, beta=beta, A0=A0, I0=I0)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=40))
        assert res.converged
        assert res.iterations <= 6
        assert res.forward_solves <= 20

    def test_no_step_leaves_cost_unchanged(self, taken_steps):
        # survey draw 70: from the 5th iteration on, c dpred was below the
        # rounding of J, where an Armijo test on Jn <= J + c dpred accepted
        # steps with Jn == J (32 of 40 iterations, 906 sweeps) and one on the
        # terms' changes stopped with a note after 6 iterations, 36 sweeps.
        # From the start fitted to the data it converges; a step that does
        # not lower J may only be one the certificate judged
        p, g, obs, ref = planted(T=2.0, M=1000, beta=0.4441, A0=0.1389, I0=0.0969)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=40))
        steps = taken_steps()
        assert len(steps) == res.iterations
        assert all(d < 0 or certified for d, (_, certified) in
                   zip(np.diff(res.cost_history), steps))
        assert res.forward_solves <= 36
        assert res.converged

    def test_full_step_below_rounding_is_taken(self, taken_steps):
        # survey draw 4078: its 2nd Gauss-Newton step passes the Armijo test
        # on the terms' changes but does not lower J in floating point.  It
        # is the full step, the iteration's one forward solve, and not one
        # the certificate judged
        p, g, obs, ref = planted(T=2.0, M=1000, beta=0.38510554843744454,
                                 A0=0.10428369840635594, I0=0.10143593768308068)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=40))
        assert res.converged
        assert res.iterations == 2
        assert list(np.diff(res.cost_history) < 0) == [True, False]
        assert taken_steps()[-1] == (1, False)

    def test_certificate_judges_step_below_rounding(self, taken_steps, monkeypatch):
        # survey draw 28: the arc search finds no decrease of J at the 2nd
        # step, whose predicted decrease and cost change are below ROUNDING J.
        # The certificate takes it, since its residual falls, and J rises by
        # less than ROUNDING; without that rule the solve stalls above tol
        p, g, obs, ref = planted(T=2.0, M=1000, beta=0.4602943217475757,
                                 A0=0.13148923476852326, I0=0.09829891712162711)
        cfg = IdentConfig(tol=1e-7, max_iters=40)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, cfg)
        assert res.converged
        assert [certified for _, certified in taken_steps()] == [False, True]
        assert res.forward_solves <= 12
        rise = np.diff(res.cost_history) / res.cost_history[:-1]
        assert rise[0] < 0
        assert 0 <= rise[1] <= 1e-14
        monkeypatch.setattr(identify, "ROUNDING", 0.0)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, cfg)
        assert res.converged is False
        assert res.notes == ["line search stalled before reaching tolerance"]
        assert np.all(np.diff(res.cost_history) < 0)

    def test_refused_step_keeps_iterate_and_its_adjoint(self, monkeypatch):
        # survey draw 28 with the certificate made to refuse the step it
        # judges: the solve stalls at the 2nd iteration and reports the 1st
        # iterate's own adjoint, kept from its own sweep (no sweep more)
        p, g, obs, ref = planted(T=2.0, M=1000, beta=0.4602943217475757,
                                 A0=0.13148923476852326, I0=0.09829891712162711)
        cfg = IdentConfig(tol=1e-7, max_iters=40)
        taken = solve_p0(obs, p, g, 1e-6, 1e-6, cfg)
        certificate, residuals = identify._certificate, []

        def refuse_judged(*args):
            residuals.append(certificate(*args))
            return max(residuals) if len(residuals) == 3 else residuals[-1]

        monkeypatch.setattr(identify, "_certificate", refuse_judged)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, cfg)
        assert len(residuals) == 3
        assert res.converged is False and res.iterations == 2
        assert res.notes == ["line search stalled before reaching tolerance"]
        assert list(res.cost_history) == list(taken.cost_history[:2])
        assert res.optimality_residual == residuals[1]
        assert res.forward_solves == taken.forward_solves
        r = np.array([res.trajectory.L[-1] - obs.LT, res.trajectory.R[-1] - obs.RT])
        sweep = identify._rk4_model_vjp(p.replace(beta_I=res.candidate.beta_I), res.trajectory,
                                        identify._ENDS)
        want = identify._reduce(*sweep, r, identify._trapezoid_weights(g))[2]
        assert np.array_equal(res.adjoint.states, want)

    @pytest.mark.parametrize("beta, A0, I0", [
        (0.44413840416405215, 0.13888307176671078, 0.09689444572057818),  # survey draw 70
        (0.3561063940143885, 0.08624411839212873, 0.06667511300716819),   # draw 102
        (0.34021925670485964, 0.09278465465211523, 0.07380964226328507),  # draw 30
        (0.4684931751060701, 0.13565065134428597, 0.05300612911984558),   # draw 85
    ])
    def test_survey_draws_converge(self, beta, A0, I0):
        # the survey's draws that stalled at tol 1e-7 from the fixed start
        # (70 and 102 with OpenBLAS's SkylakeX kernels; 30, 85 and 102 with
        # its Haswell kernels)
        p, g, obs, ref = planted(T=2.0, M=1000, beta=beta, A0=A0, I0=I0)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-7, max_iters=40))
        assert res.converged
        assert res.optimality_residual <= 1e-7

    def test_cost_change_does_not_cancel(self, rng):
        # every term of a cost moved up by one ulp: the change read from the
        # terms' changes matches exact rational arithmetic on the same
        # floats, while the difference of the two rounded costs is lost in
        # the rounding of J (its ulp is about 1e-19, the change 2e-19)
        h, a0, a1 = 0.01, 1e-3, 1e-3
        parts = (np.array([0.03, 0.02]), rng.uniform(0.2, 0.5, 201), rng.uniform(0.05, 0.3, 3))
        nparts = tuple(np.nextafter(u, np.inf) for u in parts)

        def cost(r, b, z):  # as _cost_terms sums it
            return (0.5 * r[0] ** 2 + 0.5 * r[1] ** 2 + 0.5 * a1 * trapezoid(b * b, h)
                    + 0.5 * a0 * (z[0] ** 2 + z[1] ** 2 + z[2] ** 2))

        def exact(r, b, z):
            sq = [Fraction(float(x)) ** 2 for x in b]
            trap = Fraction(h) * (sum(sq) - (sq[0] + sq[-1]) / 2)
            return (sum(Fraction(float(x)) ** 2 for x in r) / 2 + Fraction(a1) * trap / 2
                    + Fraction(a0) * sum(Fraction(float(x)) ** 2 for x in z) / 2)

        change = float(exact(*nparts) - exact(*parts))
        assert change > 0.0
        assert abs(identify._cost_change(parts, nparts, a0, a1, h) - change) <= 1e-9 * change
        assert abs((cost(*nparts) - cost(*parts)) - change) > 1e-3 * change

    @pytest.mark.parametrize("alpha0, alpha1", [(0.0, 1e-6), (1e-6, 0.0), (-1.0, 1e-6)])
    def test_rejects_nonpositive_weights(self, alpha0, alpha1):
        p, g, obs, ref = planted(M=100)
        with pytest.raises(ValidationError, match=r"alpha[01] must be > 0"):
            solve_p0(obs, p, g, alpha0, alpha1)

    def test_names_the_nonpositive_weight(self):
        p, g, obs, ref = planted(M=100)
        with pytest.raises(ValidationError) as exc:
            solve_p0(obs, p, g, 0.0, 1e-6)
        assert exc.value.errors == ["alpha0 must be > 0"]

    def test_stall_returns_current_iterate(self, monkeypatch):
        # the start meets 1e-7 (0 iterations), not 1e-12
        p, g, obs, ref = planted(M=200)
        monkeypatch.setattr(identify, "MAX_BACKTRACKS", 0)
        res = solve_p0(obs, p, g, 1e-6, 1e-6, IdentConfig(tol=1e-12, max_iters=50))
        assert res.converged is False
        assert res.notes == ["line search stalled before reaching tolerance"]
        assert res.cost == res.cost_history[-1]

    @pytest.mark.parametrize("t0, T", [(1e-13, 2.0), (0.0, 2.5)])
    def test_grid_must_span_observations(self, t0, T):
        # the loader's rule: beta_I is knotted on the grid, so a grid that
        # starts after 0 leaves it short of the solve's [0, T]
        p, g, obs, ref = planted(M=100)
        grid = Grid(t0, T, 100)
        cand = IdentCandidate(CoefficientTable.constant(0.4), 0.12, 0.08)
        span = r"^grid must span \[0, observations.T\] for task=identify$"
        with pytest.raises(ValidationError, match=span):
            solve_p0(obs, p, grid)
        with pytest.raises(ValidationError, match=span):
            cost_p0(cand, obs, 1e-6, 1e-6, p, grid)

    def test_rejects_empty_unobserved_mass(self):
        # Observations itself holds the rule, so no solve can be given such data
        assert n0_of(Observations(L0=0.5, R0=0.5 - 1e-12, LT=0.5, RT=0.5, T=1.0)) > 0
        for L0, R0 in ((0.6, 0.4), (0.5, 0.5)):
            with pytest.raises(ValidationError, match=r"^L0 \+ R0 must be < 1$"):
                Observations(L0=L0, R0=R0, LT=0.5, RT=0.5, T=1.0)

    def test_gradient_check_random_candidates(self, rng):
        # adjoint gradient vs central differences on random feasible draws
        p, g, obs, ref = planted(M=1200)
        tg = g.points()
        wq = np.full(tg.size, g.h)
        wq[0] = wq[-1] = g.h / 2
        lam = 1e-5
        for _ in range(5):
            bg = rng.uniform(0.1, 0.5) + rng.uniform(-0.05, 0.05, tg.size)
            A0, I0 = rng.uniform(0.03, 0.25, 2)
            cand = IdentCandidate(CoefficientTable(tg, bg), A0, I0)
            a0w, a1w = 10.0 ** rng.uniform(-5, -2), 10.0 ** rng.uniform(-5, -2)
            gb, gA, gI = gradient_p0(cand, obs, a0w, a1w, p, g)
            u = rng.uniform(-1.0, 1.0, tg.size)
            w, v = rng.uniform(-0.1, 0.1, 2)

            def J(s):
                c = IdentCandidate(CoefficientTable(tg, bg + s * u), A0 + s * w, I0 + s * v)
                return cost_p0(c, obs, a0w, a1w, p, g)

            fd = (J(lam) - J(-lam)) / (2 * lam)
            an = float(np.dot(wq * gb, u) + gA * w + gI * v)
            assert abs(fd - an) / max(abs(fd), 1e-12) <= 1e-4


class TestGnDirection:
    """The Woodbury step of _gn_direction against the dense minimizer of the
    same Gauss-Newton model on the working set, at M = 8."""

    @pytest.mark.parametrize("free_block", [(True, True), (True, False), (False, True),
                                            (False, False)])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_dense_solve(self, rng, free_block, mixed):
        g = Grid(0.0, 2.0, 8)
        n = g.M + 1
        wq = identify._trapezoid_weights(g)
        alpha0, alpha1 = 0.3, 0.05
        gbeta, rows = rng.normal(size=n), rng.normal(size=(2, n))
        gblock, blocks = rng.normal(size=2), rng.normal(size=(2, 2))
        free = np.arange(n) % 3 != 1 if mixed else np.ones(n, dtype=bool)
        free_block = np.array(free_block)
        dbeta, dblock = identify._gn_direction(gbeta, gblock, rows, blocks, alpha0, alpha1,
                                               wq, free, free_block)
        # the model g.d + 0.5 d'Hd in d = (beta on the grid, A0, I0): the
        # regularizers 0.5 alpha1 sum(wq beta^2) and 0.5 alpha0 (A0^2 + I0^2
        # + S0^2) with S0 = N0 - A0 - I0, and the data term 0.5 |J d|^2 of
        # the rank-2 Jacobian of the terminal (L, R); rows are representers
        # under the trapezoid weights
        jac = np.hstack([rows * wq, blocks])
        hess = jac.T @ jac
        hess[:n, :n] += alpha1 * np.diag(wq)
        hess[n:, n:] += alpha0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        grad = np.concatenate([wq * gbeta, gblock])
        work = np.concatenate([free, free_block])
        want = np.zeros(n + 2)
        want[work] = -np.linalg.solve(hess[np.ix_(work, work)], grad[work])
        got = np.concatenate([dbeta, dblock])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
