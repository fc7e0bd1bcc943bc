"""Sweep kernels against their textbook forms, bit for bit.

The sweeps stream block by block and build their stage matrices in place in
a reused buffer; each reference below runs over the whole grid at once and
allocates every intermediate afresh, as the plain formulas read.  Equality
is on the bits (signed zeros included), not within a tolerance.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sailr
from sailr import (BlowupError, CoefficientTable, Grid, Observations, adjoint_p0,
                   adjoint_p_eps, simulate, tangent_p, tangent_p0)
from sailr.integrate import (SWEEP_BLOCK, _increment_scan, half_samples, linear_sweep,
                             rk4_step_maps)
from sailr.model import _rk4_model_vjp, jacobian, jacobian_constants, jacobian_update, rhs
from conftest import random_params, random_state


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def simulate_reference(p, x0, grid):
    # one step at a time from the stage samples of the whole grid, each new
    # state checked and stored as it is made
    sigma, muA, muI, muL, lA, lI = p.sigma, p.mu_A, p.mu_I, p.mu_L, p.l_A, p.l_I
    th = np.linspace(grid.t0, grid.T, 2 * grid.M + 1)
    bI, bA, xi = (c(th).tolist() for c in (p.beta_I, p.beta_A, p.xi))
    M, h = grid.M, grid.h
    out = np.empty((M + 1, 5))
    S, A, I, L, R = (float(v) for v in x0)
    out[0] = S, A, I, L, R
    k1c = sigma + muA + lA
    k2c = muI + lI
    h2 = 0.5 * h
    h6 = h / 6.0
    stages = zip(bI[0:-1:2], bI[1::2], bI[2::2], bA[0:-1:2], bA[1::2], bA[2::2],
                 xi[0:-1:2], xi[1::2], xi[2::2])
    for k, (b0, b1, b2, c0, c1, c2, e0, e1, e2) in enumerate(stages):
        inf = b0 * S * I + c0 * S * A
        dS1 = -inf + e0 * R; dA1 = inf - k1c * A; dI1 = sigma * A - k2c * I
        dL1 = lA * A + lI * I - muL * L; dR1 = muA * A + muI * I + muL * L - e0 * R
        S2 = S + h2 * dS1; A2 = A + h2 * dA1; I2 = I + h2 * dI1
        L2 = L + h2 * dL1; R2 = R + h2 * dR1

        inf = b1 * S2 * I2 + c1 * S2 * A2
        dS2 = -inf + e1 * R2; dA2 = inf - k1c * A2; dI2 = sigma * A2 - k2c * I2
        dL2 = lA * A2 + lI * I2 - muL * L2; dR2 = muA * A2 + muI * I2 + muL * L2 - e1 * R2
        S3 = S + h2 * dS2; A3 = A + h2 * dA2; I3 = I + h2 * dI2
        L3 = L + h2 * dL2; R3 = R + h2 * dR2

        inf = b1 * S3 * I3 + c1 * S3 * A3
        dS3 = -inf + e1 * R3; dA3 = inf - k1c * A3; dI3 = sigma * A3 - k2c * I3
        dL3 = lA * A3 + lI * I3 - muL * L3; dR3 = muA * A3 + muI * I3 + muL * L3 - e1 * R3
        S4 = S + h * dS3; A4 = A + h * dA3; I4 = I + h * dI3
        L4 = L + h * dL3; R4 = R + h * dR3

        inf = b2 * S4 * I4 + c2 * S4 * A4
        dS4 = -inf + e2 * R4; dA4 = inf - k1c * A4; dI4 = sigma * A4 - k2c * I4
        dL4 = lA * A4 + lI * I4 - muL * L4; dR4 = muA * A4 + muI * I4 + muL * L4 - e2 * R4

        S += h6 * (dS1 + 2.0 * (dS2 + dS3) + dS4)
        A += h6 * (dA1 + 2.0 * (dA2 + dA3) + dA4)
        I += h6 * (dI1 + 2.0 * (dI2 + dI3) + dI4)
        L += h6 * (dL1 + 2.0 * (dL2 + dL3) + dL4)
        R += h6 * (dR1 + 2.0 * (dR2 + dR3) + dR4)
        tot = S + A + I + L + R
        if not (-1e100 < tot < 1e100):
            raise BlowupError(k + 1)
        out[k + 1] = S, A, I, L, R
    return out


def jacobian_reference(x, p, t):
    x = np.asarray(x, dtype=float)
    S, A, I = x[..., 0], x[..., 1], x[..., 2]
    bI, bA, xi = p.beta_I(t), p.beta_A(t), p.xi(t)
    J = np.zeros(x.shape + (5,))
    J[..., 1, 1] = -p.k1
    J[..., 2:, 1:4] = ((p.sigma, -p.k2, 0.0), (p.l_A, p.l_I, -p.mu_L),
                       (p.mu_A, p.mu_I, p.mu_L))
    for col, g in enumerate((bA * A + bI * I, bA * S, bI * S)):
        J[..., 0, col] = -g
        J[..., 1, col] += g
    J[..., 0, 4] = xi
    J[..., 4, 4] = -xi
    return J


def step_maps_reference(G, h):
    eye = np.eye(G[0].shape[-1])
    K = G[0]
    acc = K.copy()
    for Gr, a, w in zip(G[1:], (0.5, 0.5, 1.0), (2.0, 2.0, 1.0)):
        K = Gr @ (eye + (a * h) * K)
        acc += w * K
    acc *= h / 6.0
    return acc


def scan_reference(D, y0):
    ys = np.empty((len(D) + 1,) + y0.shape)
    ys[0] = y0
    if len(D):
        first, second = D[0:-1:2], D[1::2]
        ys[2::2] = scan_reference(second @ first + first + second, y0)[1:]
        prev = ys[0:-1:2]
        ys[1::2] = prev + D[0::2] @ prev
    return ys


def vjp_reference(p, traj, cotangent):
    # stage matrices from model.rhs and model.jacobian, one fresh block each
    g = traj.grid
    M, h = g.M, g.h
    th = g.half_points()
    sens = np.empty((M, 5, 3))

    def step_maps(lo, hi):
        x = traj.states[M - hi:M - lo]
        t = th[2 * (M - hi):2 * (M - lo) + 1]
        G = np.zeros((4, hi - lo, 8, 8))
        d = 0.0
        for r, (tr, a, col) in enumerate(zip((t[0:-1:2], t[1::2], t[1::2], t[2::2]),
                                             (0.0, 0.5, 0.5, 1.0), (5, 6, 6, 7))):
            xr = x + (a * h) * d
            d = rhs(xr, p, tr)
            G[r, :, :5, :5] = jacobian_reference(xr, p, tr)
            G[r, :, 1, col] = xr[:, 0] * xr[:, 2]
            G[r, :, 0, col] = -G[r, :, 1, col]
        D = step_maps_reference(G, h)
        sens[M - hi:M - lo] = D[:, :5, 5:]
        return D[::-1, :5, :5].transpose(0, 2, 1)

    v = linear_sweep(step_maps, cotangent, M)[::-1]
    per = np.einsum("kic,ki...->kc...", sens, v[1:])
    bbar = np.zeros((2 * M + 1,) + v.shape[2:])
    for c in range(3):
        bbar[c:2 * M + c:2] += per[:, c]
    return v, bbar


def sweep_reference(xh, grid, p, src, y0, dual=False):
    data = (xh, grid.half_points(), src)
    xh, th, src = (a[::-1] for a in data) if dual else data

    def step_maps(lo, hi):
        j = slice(2 * lo, 2 * hi + 1)
        J = jacobian_reference(xh[j], p, th[j])
        G = np.zeros((len(J), 6, 6))
        G[:, :5, :5] = J.transpose(0, 2, 1) if dual else J
        G[:, :5, 5] = src[j]
        return step_maps_reference((G[0:-1:2], G[1::2], G[1::2], G[2::2]), grid.h)

    out = linear_sweep(step_maps, np.append(y0, 1.0), grid.M)[:, :5]
    return out[::-1] if dual else out


def knotted(rng, T, n):
    knots = np.sort(rng.uniform(0.0, T, n))
    knots[0], knots[-1] = 0.0, T
    return CoefficientTable(knots, rng.uniform(0.0, 0.6, n))


def problem(rng, M, T=3.0):
    p = random_params(rng, t_max=T, varying=True)
    p = p.replace(beta_I=knotted(rng, T, 7), beta_A=knotted(rng, T, 4), xi=knotted(rng, T, 3))
    x0 = random_state(rng)
    g = Grid(0.0, T, M)
    return p, x0, g, simulate(p, x0, g)


class TestSimulate:
    @pytest.mark.parametrize("M", [1, 7, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1,
                                   2 * SWEEP_BLOCK + 1, 10_000])
    def test_matches_reference(self, rng, M):
        T = 3.0
        g = Grid(0.0, T, M)
        base = random_params(rng, t_max=T).with_controls(rng.uniform(0.05, 1.0),
                                                         rng.uniform(0.05, 1.0))
        # constant tables; a few knots each; beta_I knotted on the grid, so
        # that the table has more knots than one block has stage samples
        for p in (base,
                  base.replace(beta_I=knotted(rng, T, 7), beta_A=knotted(rng, T, 4),
                               xi=knotted(rng, T, 3)),
                  base.replace(beta_I=CoefficientTable(g.points(),
                                                       rng.uniform(0.1, 0.6, M + 1)))):
            x0 = random_state(rng)
            assert same_bits(simulate(p, x0, g).states, simulate_reference(p, x0, g))

    @pytest.mark.parametrize("step", [1, SWEEP_BLOCK // 2 + 3, SWEEP_BLOCK + 1])
    def test_blowup_step_matches_reference(self, rng, step):
        # beta_I spikes at the midpoint of the step that makes state `step`
        M = 2 * SWEEP_BLOCK
        g = Grid(0.0, 3.0, M)
        th = g.half_points()
        at = sorted({0, 2 * step - 2, 2 * step - 1, 2 * step, 2 * M})
        spike = CoefficientTable(th[at], [1e300 if i == 2 * step - 1 else 0.3 for i in at])
        p = random_params(rng, t_max=3.0).replace(beta_I=spike)
        x0 = random_state(rng)
        with pytest.raises(BlowupError) as got:
            simulate(p, x0, g)
        with pytest.raises(BlowupError) as ref:
            simulate_reference(p, x0, g)
        assert got.value.step == ref.value.step == step

    def test_peak_memory_is_the_output(self):
        # ru_maxrss (kB on Linux) growth of a fresh process, since
        # tracemalloc slows the float loop about 100-fold; the (M + 1, 5)
        # output is 40 B/step
        M = 200_000
        code = f"""
import resource
from sailr import CoefficientTable, Grid, ModelParams, simulate
g = Grid(0.0, 50.0, {M})
beta_I = CoefficientTable([0.0, 20.0, 50.0], [0.3, 0.5, 0.2])
p = ModelParams(0.2, 0.1, 0.1, 0.1, 0.3, 0.3, beta_I, 0.2, 0.01)
x0 = (0.9, 0.04, 0.03, 0.02, 0.01)
simulate(p, x0, Grid(0.0, 50.0, 2000))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
simulate(p, x0, g)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / {M})
"""
        src = str(Path(sailr.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert float(run.stdout) <= 80.0


def test_block_stage_times_match_whole_grid(rng):
    for _ in range(50):
        t0 = float(rng.choice([0.0, rng.uniform(-5.0, 5.0)]))
        M = int(rng.integers(1, 3000))
        g = Grid(t0, t0 + float(rng.choice([3.0, 50.0, rng.uniform(1e-3, 1e3)])), M)
        whole = np.linspace(g.t0, g.T, 2 * M + 1)
        assert same_bits(g.half_points(), whole)
        for lo in range(0, M, SWEEP_BLOCK):
            hi = min(lo + SWEEP_BLOCK, M)
            assert same_bits(g.half_points(lo, hi), whole[2 * lo:2 * hi + 1])


class TestJacobian:
    def test_matches_reference(self, rng):
        for _ in range(20):
            p = problem(rng, 10)[0]
            x = rng.uniform(0.0, 1.0, (33, 5))
            t = rng.uniform(0.0, 3.0, 33)
            assert same_bits(jacobian(x, p, t), jacobian_reference(x, p, t))
        x = random_state(rng)
        assert same_bits(jacobian(x, p, 1.5), jacobian_reference(x, p, 1.5))

    @pytest.mark.parametrize("transposed", [False, True])
    def test_in_place_into_reused_buffer(self, rng, transposed):
        # constants once, then several batches into the same (strided) view
        p = problem(rng, 10)[0]
        buf = np.zeros((9, 6, 6))
        J = buf[:, :5, :5].transpose(0, 2, 1) if transposed else buf[:, :5, :5]
        jacobian_constants(J, p)
        for n in (9, 4, 9):
            x = rng.uniform(0.0, 1.0, (n, 5))
            t = rng.uniform(0.0, 3.0, n)
            jacobian_update(J[:n], p, x[:, 0], x[:, 1], x[:, 2], p.beta_I(t), p.beta_A(t), p.xi(t))
            assert same_bits(J[:n], jacobian(x, p, t))
            assert same_bits(J[:n], jacobian_reference(x, p, t))
        assert not buf[:, 5].any() and not buf[:, :, 5].any()

    def test_zero_infections(self):
        # A = I = 0 and S = 0 give zero gradients; their signs match the reference too
        p = random_params(np.random.default_rng(3))
        for x in ((1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.5, 0.0, 0.0)):
            assert same_bits(jacobian(x, p, 0.0), jacobian_reference(x, p, 0.0))


@pytest.mark.parametrize("N", [6, 8])
@pytest.mark.parametrize("B", [1, 2, 7, 512])
def test_rk4_step_maps_match_reference(rng, N, B):
    G = rng.normal(size=(4, B, N, N))
    mark = rng.random(G.shape)
    G[mark < 0.2] = -0.0  # structural zeros of both signs, as the stage matrices have
    G[(mark >= 0.2) & (mark < 0.4)] = 0.0
    assert same_bits(rk4_step_maps(G, 0.01), step_maps_reference(G, 0.01))
    stages = (G[0], G[1], G[1], G[2])  # the linear sweeps pass strided views
    assert same_bits(rk4_step_maps(stages, 0.03), step_maps_reference(stages, 0.03))


@pytest.mark.parametrize("B", [1, 2, 7, 512])
@pytest.mark.parametrize("K", [1, 2])
def test_increment_scan_matches_reference(rng, B, K):
    D = 0.01 * rng.normal(size=(B, 6, 6))
    y0 = rng.normal(size=(6, K))
    assert same_bits(_increment_scan(D, y0), scan_reference(D, y0))


@pytest.mark.parametrize("M", [SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1])
def test_vjp_matches_reference(rng, M):
    p, x0, g, traj = problem(rng, M)
    for cot in (np.eye(5)[:, 3:], rng.normal(size=5)):
        v, bbar = _rk4_model_vjp(p, traj, cot)
        v_ref, bbar_ref = vjp_reference(p, traj, cot)
        assert same_bits(v, v_ref) and same_bits(bbar, bbar_ref)


def test_vjp_peak_memory_is_the_output(rng):
    # v (M + 1, 5, 2) and bbar (2M + 1, 2) take 112 B/step; each block's
    # coefficients and sensitivities are dropped once contracted
    M = 100_000
    g = Grid(0.0, 50.0, M)
    p = random_params(rng, t_max=50.0, varying=True)
    p = p.replace(beta_I=CoefficientTable(g.points(), rng.uniform(0.1, 0.4, M + 1)))
    traj = simulate(p, random_state(rng), g)
    tracemalloc.start()
    try:
        _rk4_model_vjp(p, traj, np.eye(5)[:, 3:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / M <= 150.0


def test_linear_sweep_block_hook_sees_stored_states(rng):
    M = 2 * SWEEP_BLOCK + 3
    D = 0.01 * rng.normal(size=(M, 6, 6))
    seen = []
    out = linear_sweep(lambda lo, hi: D[lo:hi], rng.normal(size=6), M,
                       lambda lo, hi, ys: seen.append((lo, hi, ys.copy())))
    assert [(lo, hi) for lo, hi, _ in seen] == [
        (0, SWEEP_BLOCK), (SWEEP_BLOCK, 2 * SWEEP_BLOCK), (2 * SWEEP_BLOCK, M)]
    for lo, hi, ys in seen:
        assert same_bits(ys, out[lo:hi + 1])


@pytest.mark.parametrize("M", [SWEEP_BLOCK - 1, SWEEP_BLOCK + 1])
def test_linear_sweeps_match_reference(rng, M):
    p, x0, g, traj = problem(rng, M)
    xh = half_samples(traj.states)
    u = rng.uniform(-1.0, 1.0, M + 1)
    obs = Observations(L0=x0[3], R0=x0[4], LT=1.1 * traj.L[-1], RT=0.9 * traj.R[-1], T=g.T)
    lhat = 0.5 * float(traj.L.max())

    src = np.zeros(xh.shape)
    src[:, 1], src[:, 2] = -0.3 * xh[:, 1], 0.2 * xh[:, 2]
    src[:, 3] = -(src[:, 1] + src[:, 2])
    assert same_bits(tangent_p(traj, p, 0.3, -0.2).states,
                     sweep_reference(xh, g, p, src, np.zeros(5)))

    uh = half_samples(u) * xh[:, 0] * xh[:, 2]
    src = np.zeros(xh.shape)
    src[:, 0], src[:, 1] = -uh, uh
    assert same_bits(tangent_p0(traj, p, u, 0.1, 0.2).states,
                     sweep_reference(xh, g, p, src, (-0.1 - 0.2, 0.1, 0.2, 0.0, 0.0)))

    src = np.zeros(xh.shape)
    src[:, 1], src[:, 2] = 2.0 * xh[:, 1], 2.0 * xh[:, 2]
    src[:, 3] = (3.0 / 0.01) * np.maximum(xh[:, 3] - lhat, 0.0)
    assert same_bits(adjoint_p_eps(traj, p, 0.01, 2.0, 3.0, lhat).states,
                     sweep_reference(xh, g, p, src, np.zeros(5), dual=True))

    yT = (0.0, 0.0, 0.0, float(traj.L[-1] - obs.LT), float(traj.R[-1] - obs.RT))
    assert same_bits(adjoint_p0(traj, p, obs).states,
                     sweep_reference(xh, g, p, np.zeros(xh.shape), yT, dual=True))
