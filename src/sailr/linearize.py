"""Linearized (tangent) and backward dual (adjoint) sweeps.

Both problems share one linear structure: coefficients are frozen from a
stored state trajectory (sampled at grid points, midpoint-averaged at RK4
half steps), and the dual systems are integrated in reversed time from
prescribed final data.  The integration-by-parts identities relating
tangent and adjoint solutions are exposed as residuals so gradient code
can be verified independently.  All four sweeps take every rate, the
controls (l_A, l_I) included, from their params argument.

All these sweeps, and the model's discrete reverse-mode sweep
(`model._rk4_model_vjp`), run on one step-map kernel: with the trajectory
fixed, an RK4 step is an affine map y -> P_k y + c_k.  The stage
Jacobians (here at the midpoint-averaged states, transposed and in reversed
time for the adjoint) are written into one stage buffer per sweep:
`model.jacobian_constants` once, `model.jacobian_update` per block from
coefficients evaluated once on the stage times.  `integrate.rk4_step_maps`
builds the maps for a block of steps, and `integrate.linear_sweep` composes
them by a doubling scan, one fixed block at a time.
"""

from __future__ import annotations

import numpy as np

from .integrate import (SWEEP_BLOCK, Grid, Trajectory, _GridSeries, half_samples,
                        linear_sweep, rk4_step_maps, same_grid, trapezoid)
from .model import CoefficientTable, ModelParams, jacobian_constants, jacobian_update


class TangentTrajectory(_GridSeries):
    """State variations (s, a, i, l, r) on the trajectory grid."""

    s = property(lambda self: self._col(0))
    a = property(lambda self: self._col(1))
    i = property(lambda self: self._col(2))
    l = property(lambda self: self._col(3))
    r = property(lambda self: self._col(4))


class AdjointTrajectory(_GridSeries):
    """Dual variables (p, q, d, e, f) on the trajectory grid, integrated backward."""

    p = property(lambda self: self._col(0))
    q = property(lambda self: self._col(1))
    d = property(lambda self: self._col(2))
    e = property(lambda self: self._col(3))
    f = property(lambda self: self._col(4))


def _sweep(xh: np.ndarray, grid: Grid, params: ModelParams, src: np.ndarray, y0,
           dual: bool = False) -> np.ndarray:
    """RK4 sweep of y' = J y + s on the grid, one row per grid point.

    J is the model Jacobian at the midpoint-averaged states xh (2M+1, 5) and
    s the (2M+1, 5) stage-time sources src.  With dual=True this is the
    adjoint: y' = J^T y + s in reversed time from y(T) = y0.
    """
    th = grid.half_points()
    data = (xh, src, params.beta_I(th), params.beta_A(th), params.xi(th))
    xh, src, *coeffs = (a[::-1] for a in data) if dual else data
    # [[J, s], [0, 0]] acting on [y; 1] at the stage times of one block
    G = np.zeros((2 * min(grid.M, SWEEP_BLOCK) + 1, 6, 6))
    J = G[:, :5, :5].transpose(0, 2, 1) if dual else G[:, :5, :5]
    jacobian_constants(J, params)

    def step_maps(lo, hi):
        j = slice(2 * lo, 2 * hi + 1)
        n = 2 * (hi - lo) + 1
        jacobian_update(J[:n], params, xh[j, 0], xh[j, 1], xh[j, 2], *(c[j] for c in coeffs))
        G[:n, :5, 5] = src[j]
        return rk4_step_maps((G[0:n - 1:2], G[1:n:2], G[1:n:2], G[2:n:2]), grid.h)

    out = linear_sweep(step_maps, np.append(y0, 1.0), grid.M)[:, :5]
    return out[::-1] if dual else out


def tangent_p(traj: Trajectory, params: ModelParams,
              omega_a: float, omega_i: float) -> TangentTrajectory:
    """Forward sweep of the control-problem variation system.

    Direction (omega_a, omega_i) perturbs the detection rates (l_A, l_I)
    carried by params (which must be the pair that produced traj).
    Initial variation is zero.
    """
    xh = half_samples(traj.states)
    src = np.zeros(xh.shape)
    src[:, 1] = -omega_a * xh[:, 1]
    src[:, 2] = -omega_i * xh[:, 2]
    src[:, 3] = -(src[:, 1] + src[:, 2])  # detected mass moves to L
    return TangentTrajectory(traj.grid, _sweep(xh, traj.grid, params, src, np.zeros(5)))


def _direction_half(u, grid: Grid) -> np.ndarray:
    if isinstance(u, CoefficientTable):
        return np.asarray(u(grid.half_points()), dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.M + 1,):
        raise ValueError("direction u must be a CoefficientTable or grid-sized array")
    return half_samples(u)


def tangent_p0(traj: Trajectory, params: ModelParams,
               u, w: float, v: float) -> TangentTrajectory:
    """Forward sweep of the identification-problem variation system.

    Direction u perturbs beta_I (table or values on grid points); w and v
    perturb the initial undetected counts, entering the initial variation
    as (-w-v, w, v, 0, 0).
    """
    g = traj.grid
    xh = half_samples(traj.states)
    uh = _direction_half(u, g) * xh[:, 0] * xh[:, 2]
    src = np.zeros(xh.shape)
    src[:, 0] = -uh
    src[:, 1] = uh
    return TangentTrajectory(g, _sweep(xh, g, params, src, (-w - v, w, v, 0.0, 0.0)))


def penalty_weight(alpha2: float, eps: float) -> float:
    """alpha2/eps, the weight of the penalty (L - Lhat)^+ at stage eps > 0."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    return alpha2 / eps


def adjoint_p_eps(traj: Trajectory, params: ModelParams, eps: float, alpha0: float,
                  alpha2: float, lhat: float) -> AdjointTrajectory:
    """Backward dual sweep for the penalized control problem.

    params, the params that produced traj, carries the current controls
    (l_A, l_I) with every other rate.  Sources are -alpha0*(A, I) in the q/d
    equations and the penalty density (alpha2/eps)*(L - lhat)^+ in the e
    equation; final data are zero.
    """
    # the sweep runs in reversed time, where the sources change sign
    xh = half_samples(traj.states)
    src = np.zeros(xh.shape)
    src[:, 1] = alpha0 * xh[:, 1]
    src[:, 2] = alpha0 * xh[:, 2]
    src[:, 3] = penalty_weight(alpha2, eps) * np.maximum(xh[:, 3] - lhat, 0.0)
    return AdjointTrajectory(traj.grid, _sweep(xh, traj.grid, params, src, np.zeros(5), dual=True))


def adjoint_p0(traj: Trajectory, params: ModelParams, obs) -> AdjointTrajectory:
    """Backward dual sweep for the identification problem.

    Homogeneous equations; final data carry the terminal observation
    mismatches e(T) = L(T) - L_T and f(T) = R(T) - R_T.
    """
    yT = (0.0, 0.0, 0.0, float(traj.L[-1] - obs.LT), float(traj.R[-1] - obs.RT))
    xh = half_samples(traj.states)
    src = np.zeros(xh.shape)
    return AdjointTrajectory(traj.grid, _sweep(xh, traj.grid, params, src, yT, dual=True))


def duality_residual_p(traj: Trajectory, adjoint: AdjointTrajectory,
                       tangent: TangentTrajectory, omega_a: float, omega_i: float,
                       alpha0: float, alpha2: float, eps: float, lhat: float) -> float:
    """|LHS - RHS| of the control-problem duality identity, by trapezoid rule.

    LHS: alpha0*int(A a + I i) + (alpha2/eps)*int((L-lhat)^+ l);
    RHS: int(omega_a A (e - q) + omega_i I (e - d)).
    """
    g = same_grid(traj, adjoint, tangent)
    h = g.h
    lhs = alpha0 * trapezoid(traj.A * tangent.a + traj.I * tangent.i, h)
    lhs += (alpha2 / eps) * trapezoid(np.maximum(traj.L - lhat, 0.0) * tangent.l, h)
    rhs = trapezoid(omega_a * traj.A * (adjoint.e - adjoint.q)
                    + omega_i * traj.I * (adjoint.e - adjoint.d), h)
    return abs(lhs - rhs)


def duality_residual_p0(traj: Trajectory, adjoint: AdjointTrajectory,
                        tangent: TangentTrajectory, u, w: float, v: float,
                        obs) -> float:
    """|LHS - RHS| of the identification-problem duality identity.

    LHS: (L(T)-L_T) l(T) + (R(T)-R_T) r(T);
    RHS: int(S I (q - p) u) + p(0)(-w-v) + q(0) w + d(0) v.
    """
    g = same_grid(traj, adjoint, tangent)
    ug = np.asarray(u(g.points()) if isinstance(u, CoefficientTable) else u, dtype=float)
    lhs = float((traj.L[-1] - obs.LT) * tangent.l[-1] + (traj.R[-1] - obs.RT) * tangent.r[-1])
    rhs = trapezoid(traj.S * traj.I * (adjoint.q - adjoint.p) * ug, g.h)
    rhs += float(adjoint.p[0] * (-w - v) + adjoint.q[0] * w + adjoint.d[0] * v)
    return abs(lhs - rhs)
