"""Identification of (beta_I(t), A0, I0) from isolated/recovered observations.

Observed are the isolated and recovered fractions at t = 0 and t = T.  The
unobserved transmission rate beta_I (a grid function), and the undetected
counts A0, I0 (hence S0 = N0 - A0 - I0), are recovered by minimizing the
terminal mismatch plus small quadratic regularizers, with the exact
gradient of the discrete cost supplied by one reverse sweep of the RK4 map.

The optimizer takes exact Gauss-Newton steps with monotone Armijo
backtracking along the projection arc, projecting beta_I onto {beta >= 0}
pointwise and (A0, I0) onto the triangle K0 = {y, z >= 0, y + z <= N0}.
The first-order conditions of that discrete problem (positive-part
projection for beta_I and the Gamma-resolvent for (A0, I0), both read from
the exact gradient) certify convergence.

It starts from the data (`_start`): beta_I = 0 on its bound, and (A0, I0)
the regularized fit over K0 of (LT, RT) by the model quasilinearized on
START_SEGMENTS segments, whose terminal (L, R) is affine in (A0, I0).  That
takes no model sweep, and where the answer keeps beta_I = 0 (as
identify_synthetic's does) it lands within about 3e-7 of it at M = 10^4.
The start then takes one exact Gauss-Newton step in (A0, I0) at beta_I = 0
on min(M, COARSE_M) steps (3 sweeps there), which lands within about 1e-13
of such an answer: at M = 10^4 the first fine iterate meets tol, after 3
fine sweeps.

Where a full step fails the Armijo test with its predicted decrease and
cost change both below the rounding of the cost, which can judge neither
it nor a shorter step, the certificate judges it at once; a step it
refuses ends the solve with the current iterate's adjoint, which that
iterate's own reverse sweep gave: no sweep more.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BlowupError, FeasibilityError, ValidationError
from .integrate import Grid, Trajectory, trapezoid
from .linearize import AdjointTrajectory
from .model import (CoefficientTable, ModelParams, _rk4_model_vjp, param_errors, simulate,
                    stage_to_knot_gradient)

#: resolvent matrix coupling (A0, I0) in the initial-data optimality condition
GAMMA = np.array([[2.0, 1.0], [1.0, 2.0]])
ARMIJO_C = 1e-4      # arc search: sufficient-decrease constant
MAX_BACKTRACKS = 60  # arc search: backtracks per step
#: a cost change below ROUNDING * J is below the rounding of J (about 1.4e-14 J)
ROUNDING = 64 * np.finfo(float).eps
START_SEGMENTS = 16  # segments of the start's quasilinearized model
START_PASSES = 3     # passes of the start's fit, each about the last one's averages
COARSE_M = 1000      # steps of the start's exact pass, at most
START_PULL = 1e-3    # share of the way to K0's centroid that a fit on K0's boundary moves

_ENDS = np.eye(5)[:, 3:]  # cotangent columns e_L, e_R of the reverse sweep


@dataclass(frozen=True)
class Observations:
    """Isolated/recovered fractions measured at t = 0 and t = T."""

    L0: float
    R0: float
    LT: float
    RT: float
    T: float

    def __post_init__(self):
        errs = []
        for name in ("L0", "R0", "LT", "RT"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                errs.append(f"{name} out of [0,1]")
        errs += mass_errors(self.L0, self.R0)
        if not self.T > 0:
            errs.append("T must be > 0")
        ValidationError.check(errs)


def mass_errors(L0: float, R0: float) -> list[str]:
    """The observed-mass rule: L0 + R0 < 1, since S0, A0 and I0 share
    N0 = 1 - (L0 + R0) > 0 (a NaN fails it)."""
    return [] if L0 + R0 < 1.0 else ["L0 + R0 must be < 1"]


def n0_of(obs: Observations) -> float:
    """Unobserved initial mass N0 = 1 - (L0 + R0) > 0, shared by S0, A0, I0."""
    return 1.0 - (obs.L0 + obs.R0)


@dataclass(frozen=True)
class IdentCandidate:
    """A feasible point of the identification problem."""

    beta_I: CoefficientTable
    A0: float
    I0: float

    def s0(self, n0: float) -> float:
        return n0 - self.A0 - self.I0


@dataclass
class IdentResult:
    candidate: IdentCandidate
    cost: float
    cost_history: np.ndarray
    optimality_residual: float
    trajectory: Trajectory
    adjoint: AdjointTrajectory
    iterations: int
    converged: bool
    forward_solves: int = 0
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class IdentConfig:
    """Settings of solve_p0, the `solver` block of an identify scenario
    (defaults favour tight data fits)."""

    tol: float = 1e-6
    max_iters: int = 3000

    def __post_init__(self):
        ValidationError.check([f"{f.name} must be > 0" for f in fields(self)
                               if not getattr(self, f.name) > 0])


def in_k0(A0: float, I0: float, n0: float) -> bool:
    """(A0, I0) in K0 = {y, z >= 0, y + z <= n0 <= 1}, 1e-12 slack on every side."""
    return A0 >= -1e-12 and I0 >= -1e-12 and A0 + I0 <= n0 + 1e-12


def weight_errors(alpha0: float, alpha1: float) -> list[str]:
    """The identification weight rule: both > 0, since the certificate divides by them."""
    return [f"{k} must be > 0" for k, v in (("alpha0", alpha0), ("alpha1", alpha1)) if not v > 0]


def grid_errors(grid: Grid, obs: Observations) -> list[str]:
    """The identification grid rule: [0, obs.T], with t0 = 0 exactly (beta_I's first knot)."""
    ok = grid.t0 == 0.0 and abs(grid.T - obs.T) <= 1e-9 * max(1.0, obs.T)
    return [] if ok else ["grid must span [0, observations.T] for task=identify"]


def _forward(c: IdentCandidate, obs: Observations, params: ModelParams,
             grid: Grid) -> Trajectory:
    x0 = (c.s0(n0_of(obs)), c.A0, c.I0, obs.L0, obs.R0)
    return simulate(params.replace(beta_I=c.beta_I), x0, grid)


def _start(obs: Observations, p: ModelParams, grid: Grid, n0: float, alpha0: float):
    """(A0, I0) of the first iterate and the model sweeps taken for it: the
    fit of (LT, RT) by the model at beta_I = 0, quasilinearized on
    START_SEGMENTS segments, or (N0/4, N0/4) if a pass of it is not finite;
    then one exact pass.

    On segment j, with beta_A and xi at their averages there, beta_A S A is
    replaced by its linearization beta_A (s_j A + a_j S - s_j a_j) about the
    last pass's averages (s_j, a_j) of S and A ((N0, 0) in the first pass).
    So y = (S, A, I, L, R, 1) follows a constant 6x6 linear system there,
    the segment's RK4 solve is its step map to the segment's step count, and
    the terminal (L, R) = c + J (A0, I0) is affine.  Each of START_PASSES
    passes fits that model on K0 (`_fit`), and takes the next averages by
    Simpson's rule from each segment's ends and the state after the half
    power of its step map.

    The exact pass (`_exact_pass`) is the Gauss-Newton step in (A0, I0), at
    beta_I = 0, of the exact discrete cost on min(M, COARSE_M) steps.
    """
    h, M = grid.h, grid.M
    segments = min(START_SEGMENTS, M)
    ends = [round(M * j / segments) for j in range(segments + 1)]
    knots = [c(grid.points()) for c in (p.beta_A, p.xi)]
    coeffs = [[trapezoid(v[lo:hi + 1], h) / ((hi - lo) * h) for v in knots]
              for lo, hi in zip(ends, ends[1:])]
    hB = np.zeros((6, 6))
    hB[2:5, 1:4] = h * np.array([[p.sigma, -p.k2, 0.0],
                                 [p.l_A, p.l_I, -p.mu_L],
                                 [p.mu_A, p.mu_I, p.mu_L]])
    # the columns y0, dy0/dA0, dy0/dI0 of the initial state
    y0 = np.array([[n0, -1.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                   [obs.L0, 0.0, 0.0], [obs.R0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    means, eye = [(n0, 0.0)] * len(coeffs), np.eye(6)
    for _ in range(START_PASSES):
        y, simpson = y0, []
        for (bA, xi), (s, a), lo, hi in zip(coeffs, means, ends, ends[1:]):
            # h beta_A (s A + a S - s a): the linearized infections, S -> A
            hB[1] = h * bA * np.array([a, s, 0.0, 0.0, 0.0, -s * a])
            hB[0] = -hB[1]
            hB[1, 1] -= h * p.k1
            hB[0, 4], hB[4, 4] = h * xi, -h * xi
            step = eye
            with np.errstate(over="ignore", invalid="ignore"):  # not finite: the fallback
                for k in (4.0, 3.0, 2.0, 1.0):  # I + hB + (hB)^2/2 + (hB)^3/6 + (hB)^4/24
                    step = eye + hB @ step / k
                power = np.linalg.matrix_power(step, (hi - lo) // 2)
                mid = power @ y
                end = power @ (mid if (hi - lo) % 2 == 0 else step @ mid)
            simpson.append((y + 4.0 * mid + end) / 6.0)
            y = end
        fit = _fit(y[3:5, 1:], y[3:5, 0], obs, alpha0, n0)
        if fit is None:
            break
        means = [tuple(m[:2] @ (1.0, *fit)) for m in simpson]
    coarse = Grid(grid.t0, grid.T, min(M, COARSE_M))
    return _exact_pass(fit or (n0 / 4.0, n0 / 4.0), obs, p, coarse, n0, alpha0)


def _fit(jac, c, obs: Observations, alpha0: float, n0: float):
    """(A0, I0) of the regularized fit of (LT, RT) by the affine model
    c + jac (A0, I0): the minimizer over K0 of cost_p0's data and alpha0
    terms, pulled START_PULL of the way to K0's centroid from its boundary,
    so that S0, A0 and I0 are > 0.  None if the model is not finite."""
    with np.errstate(all="ignore"):  # an overflowed model: None
        Q = jac.T @ jac + alpha0 * GAMMA
        b = jac.T @ (np.array([obs.LT, obs.RT]) - c) + alpha0 * n0
    if not (np.isfinite(Q).all() and np.isfinite(b).all()):
        return None
    A0, I0 = _min_quadratic_triangle(Q, b, n0)
    if A0 > 0.0 and I0 > 0.0 and A0 + I0 < n0:
        return A0, I0
    return A0 + START_PULL * (n0 / 3.0 - A0), I0 + START_PULL * (n0 / 3.0 - I0)


def _exact_pass(z, obs: Observations, p: ModelParams, coarse: Grid, n0: float, alpha0: float):
    """(A0, I0) after the Gauss-Newton step from z = (A0, I0), with beta_I
    = 0, of the exact discrete cost on the coarse grid (`_fit` of the
    model's linearization there, or z), and the sweeps it took: one forward
    solve and one reverse sweep with the two cotangents e_L, e_R, counted
    as 3.  A forward solve that blows up there gives z after 1."""
    c = IdentCandidate(CoefficientTable.constant(0.0), *z)
    try:
        traj = _forward(c, obs, p, coarse)
    except BlowupError:  # a step too long for RK4 on the coarse grid
        return *z, 1
    v = _rk4_model_vjp(p.replace(beta_I=c.beta_I), traj, _ENDS)[0]
    jac = (v[0, 1:3] - v[0, 0]).T  # d(L, R)(T)/d(A0, I0), as _reduce's blocks
    return *(_fit(jac, traj.final[3:5] - jac @ z, obs, alpha0, n0) or z), 3


def _checked_forward(c: IdentCandidate, obs: Observations, params: ModelParams, grid: Grid):
    ValidationError.check(grid_errors(grid, obs))
    if not in_k0(c.A0, c.I0, n0 := n0_of(obs)):
        raise FeasibilityError(f"(A0, I0)=({c.A0}, {c.I0}) outside K0 with N0={n0}; project first")
    return _forward(c, obs, params, grid)


def _cost_terms(c: IdentCandidate, obs: Observations, alpha0: float, alpha1: float,
                grid: Grid, traj: Trajectory, bg):
    """The cost at c, whose beta_I takes the values bg on the grid, and the
    parts it squares: the terminal residuals (L, R), bg and (A0, I0, S0)."""
    r = np.array([traj.L[-1] - obs.LT, traj.R[-1] - obs.RT])
    z = np.array([c.A0, c.I0, c.s0(n0_of(obs))])
    mis = 0.5 * r[0] ** 2 + 0.5 * r[1] ** 2
    reg_b = 0.5 * alpha1 * trapezoid(bg * bg, grid.h)
    reg_0 = 0.5 * alpha0 * (z[0] ** 2 + z[1] ** 2 + z[2] ** 2)
    return mis + reg_b + reg_0, (r, bg, z)


def _cost_change(parts, new_parts, alpha0: float, alpha1: float, h: float) -> float:
    """Jn - J from the parts of the two costs (as _cost_terms returns them),
    each square's change taken as (u' - u)(u' + u): a change far below the
    rounding of J keeps its sign and size instead of cancelling to 0."""
    (r, bg, z), (rn, bgn, zn) = parts, new_parts
    return (0.5 * float(np.sum((rn - r) * (rn + r)))
            + 0.5 * alpha1 * trapezoid((bgn - bg) * (bgn + bg), h)
            + 0.5 * alpha0 * float(np.sum((zn - z) * (zn + z))))


def cost_p0(c: IdentCandidate, obs: Observations, alpha0: float, alpha1: float,
            params: ModelParams, grid: Grid) -> float:
    """Identification cost: terminal mismatch + quadratic regularizers."""
    traj = _checked_forward(c, obs, params, grid)
    return _cost_terms(c, obs, alpha0, alpha1, grid, traj, _on_grid(c, grid))[0]


def gradient_p0(c: IdentCandidate, obs: Observations, alpha0: float, alpha1: float,
                params: ModelParams, grid: Grid):
    """Exact gradient of the discrete cost_p0: (grid function for beta_I, dA0, dI0).

    One forward sweep and one reverse sweep of the discrete RK4 map (both
    observed components at once).  The beta_I component is the representer on
    grid-knotted directions under the trapezoid-weighted inner product.
    """
    traj, bg = _checked_forward(c, obs, params, grid), _on_grid(c, grid)
    r = _cost_terms(c, obs, alpha0, alpha1, grid, traj, bg)[1][0]
    return _exact_gradient(c, r, alpha0, alpha1, params, traj, bg, _trapezoid_weights(grid),
                           n0_of(obs))[:3]


def _min_quadratic_triangle(Q, b, n0: float):
    """Minimize 0.5 z'Qz - b'z over the triangle {z >= 0, z1 + z2 <= n0}.

    Enumerates the unconstrained stationary point, the three clamped edge
    minimizers and the three vertices; strict convexity makes the minimum
    unique up to ties broken toward smaller z1, then smaller z2.
    """
    if not n0 > 0:
        raise ValueError("N0 must be > 0")
    q11, q12, q22 = float(Q[0][0]), float(Q[0][1]), float(Q[1][1])
    b1, b2 = float(b[0]), float(b[1])
    cands = [(0.0, 0.0), (n0, 0.0), (0.0, n0)]
    det = q11 * q22 - q12 * q12
    if det > 0:  # 0 or less only where rounding has made a nearly singular Q singular
        zu = ((q22 * b1 - q12 * b2) / det, (q11 * b2 - q12 * b1) / det)
        if zu[0] >= 0 and zu[1] >= 0 and zu[0] + zu[1] <= n0:
            cands.append(zu)
    cands.append((min(max(b1 / q11, 0.0), n0), 0.0))
    cands.append((0.0, min(max(b2 / q22, 0.0), n0)))
    denom = q11 - 2.0 * q12 + q22
    if denom > 0:
        t = min(max((b1 - b2 + (q22 - q12) * n0) / denom, 0.0), n0)
        cands.append((t, n0 - t))

    def phi(z):
        z1, z2 = z
        return 0.5 * (q11 * z1 * z1 + 2.0 * q12 * z1 * z2 + q22 * z2 * z2) - b1 * z1 - b2 * z2

    vals = [phi(z) for z in cands]
    vmin = min(vals)
    tol = 1e-14 * abs(vmin)  # relative only: must not swamp tiny differences
    tied = [z for z, v in zip(cands, vals) if v <= vmin + tol]
    return min(tied)  # lexicographic: smaller z1, then smaller z2


def resolve_k0(y, n0: float):
    """Resolvent of Gamma + normal cone of K0: argmin 0.5 z'Gz - y.z over K0."""
    return _min_quadratic_triangle(GAMMA, y, n0)


def project_k0(y, n0: float):
    """Euclidean projection onto the triangle K0."""
    return _min_quadratic_triangle(((1.0, 0.0), (0.0, 1.0)), y, n0)


def optimality_residual_p0(c: IdentCandidate, grid: Grid, grad, alpha0: float,
                           alpha1: float, n0: float) -> float:
    """Fixed-point gap of the first-order conditions of the discrete problem.

    grad = (gbeta, gA0, gI0) is the exact gradient of cost_p0 at c, as
    gradient_p0 returns it.  Max of (a) the sup-norm distance of beta_I on
    the grid from max(beta_I - gbeta/alpha1, 0) and (b) the Euclidean
    distance of (A0, I0) from the Gamma-resolvent of Gamma z - g_z/alpha0.
    Both weights must be > 0.
    """
    return _certificate(c, _on_grid(c, grid), grad, alpha0, alpha1, n0)


def _certificate(c: IdentCandidate, bg, grad, alpha0: float, alpha1: float, n0: float) -> float:
    # optimality_residual_p0 at c, whose beta_I takes the values bg on the grid
    gbeta, gA0, gI0 = grad
    res_a = float(np.max(np.abs(bg - np.maximum(bg - gbeta / alpha1, 0.0))))
    y = GAMMA @ (c.A0, c.I0) - np.array([gA0, gI0]) / alpha0
    zA, zI = resolve_k0(y, n0)
    res_b = float(np.hypot(c.A0 - zA, c.I0 - zI))
    return max(res_a, res_b)


def _on_grid(c: IdentCandidate, grid: Grid) -> np.ndarray:
    # c's beta_I evaluated at the grid points: the public functions take any table
    return np.asarray(c.beta_I(grid.points()), dtype=float)


def _beta_table(grid: Grid, values: np.ndarray) -> CoefficientTable:
    return CoefficientTable(grid.points(), values)


_GAMMA_INV = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    wq = np.full(grid.M + 1, grid.h)
    wq[0] = wq[-1] = 0.5 * grid.h
    return wq


def _reduce(v, bbar, r, wq):
    """What the solver reads of one reverse sweep (v, bbar) of the discrete
    RK4 map with cotangent columns e_L, e_R: the Jacobian rows and blocks of
    the terminal (L, R), and the adjoint for the residuals r.

    Rows are the weighted-inner-product representers (so row . direction
    integrates with the trapezoid weights wq), blocks the (A0, I0) partials
    with the S0 = N0 - A0 - I0 dependence folded in, both transposed views
    of C-contiguous arrays: `r @ rows` reads that layout, and another one
    takes another BLAS path with other bits.  The adjoint v @ r, the (M + 1, 5)
    d(mismatch)/d x_k, is the exact discrete counterpart of `adjoint_p0`.
    """
    rows = (stage_to_knot_gradient(bbar) / wq[:, None]).T
    blocks = (v[0, 1:3] - v[0, 0]).T
    return rows, blocks, v @ r


def _exact_gradient(c: IdentCandidate, r, alpha0: float, alpha1: float,
                    params: ModelParams, traj: Trajectory, bg, wq, n0: float):
    """Exact gradient (gbeta, gA0, gI0) of the discrete cost at c, whose
    beta_I takes the values bg on the grid and whose terminal residuals are
    r, the Jacobian rows and blocks it is assembled from, and the adjoint
    (all three as `_reduce` gives them): one reverse sweep of the discrete
    RK4 map.
    """
    p = params.replace(beta_I=c.beta_I)
    rows, blocks, adjoint = _reduce(*_rk4_model_vjp(p, traj, _ENDS), r, wq)
    gb = alpha1 * bg + r @ rows
    gA, gI = r @ blocks + alpha0 * (np.array([2 * c.A0 + c.I0, 2 * c.I0 + c.A0]) - n0)
    return gb, gA, gI, rows, blocks, adjoint


def _gn_direction(gbeta, gblock, rows, blocks, alpha0, alpha1, wq, free, free_block):
    """Trial direction from the exact Gauss-Newton model of the cost.

    The data term has a rank-two Jacobian, so the Woodbury identity gives
    the Newton direction of (regularizers + rank-2 data model) in O(M).
    Clamped coordinates whose multiplier sign is already correct are
    frozen (masks `free`, `free_block`), so the model is solved on the
    working set only.  Descent for the true gradient since the model
    Hessian is positive definite on it.
    """
    rows_f = [np.where(free, r, 0.0) for r in rows]
    g_f = np.where(free, gbeta, 0.0)
    # inverse of the (A0, I0) regularizer Hessian restricted to free coords
    binv = _GAMMA_INV / alpha0 if free_block.all() else np.diag(free_block / (2.0 * alpha0))
    gb_f = np.where(free_block, gblock, 0.0)
    blocks_f = [np.where(free_block, b, 0.0) for b in blocks]
    s2 = np.eye(2)
    b2 = np.empty(2)
    ginv_block = binv @ gb_f
    for i in range(2):
        for j in range(2):
            s2[i, j] += (float(np.dot(wq * rows_f[i], rows_f[j])) / alpha1
                         + float(blocks_f[i] @ (binv @ blocks_f[j])))
        b2[i] = float(np.dot(wq * rows_f[i], g_f)) / alpha1 + float(blocks_f[i] @ ginv_block)
    c = np.linalg.solve(s2, b2)
    dbeta = -(g_f - c[0] * rows_f[0] - c[1] * rows_f[1]) / alpha1
    dblock = -(binv @ (gb_f - c[0] * blocks_f[0] - c[1] * blocks_f[1]))
    return dbeta, dblock


def solve_p0(obs: Observations, params: ModelParams, grid: Grid,
             alpha0: float = 1e-6, alpha1: float = 1e-6,
             config: IdentConfig | None = None) -> IdentResult:
    """Minimize cost_p0 over feasible (beta_I, A0, I0).

    beta_I is discretized as values on the integration grid.  Projected
    descent with monotone Armijo backtracking along the projection arc of
    the exact Gauss-Newton direction of the rank-2-data-plus-regularizer
    model (needed because the certificate tolerance divides by the small
    weights, which must therefore be > 0).  Iterates stay feasible
    (pointwise clamp for beta_I, Euclidean triangle projection for
    (A0, I0)); terminates when the optimality residual of the discrete
    problem drops below config.tol or max_iters is reached.

    The first iterate has beta_I = 0 at every knot, on its bound, and
    (A0, I0) from the data (`_start`): the model at beta_I = 0,
    quasilinearized about its segment averages on START_SEGMENTS segments,
    is linear in (S, A, I, L, R, 1) on each, so its terminal (L, R) is
    affine in (A0, I0), and three passes fit it to (LT, RT) with the alpha0
    terms of the cost through powers of its RK4 step maps: no model sweep.
    Each fit is on K0 (`_fit`).  Then one exact pass takes the Gauss-Newton
    step in (A0, I0) at beta_I = 0 of the discrete cost on min(M, COARSE_M)
    steps, whose 3 sweeps forward_solves counts.  Every step frees a
    clamped knot whose multiplier has the wrong sign.  iterations counts
    the steps on the requested grid.

    The Armijo test reads the cost change from the terms' changes
    (`_cost_change`), which do not cancel where J's rounding would.  A step
    that passes it but leaves J unchanged is taken only at the full
    Gauss-Newton step.  When the full step fails the Armijo test and its
    predicted decrease and cost change are both at most ROUNDING * J
    (64 eps J), J can judge neither it nor a shorter step, and the
    certificate judges it without a backtrack: the step is taken if its
    optimality residual is below the current one, and its reverse sweep
    serves the next iteration.  Otherwise, or when the arc search finds no
    decrease, the current iterate is returned with converged=False and the
    note "line search stalled before reaching tolerance", with the adjoint
    of its own reverse sweep (no sweep more).  So cost_history is
    nonincreasing except at a step the certificate took, which may raise it
    by at most ROUNDING relative (about 1.4e-14); up to such rises the
    returned iterate is the best seen.
    """
    cfg = config or IdentConfig()
    # the start reads beta_A and xi, which the first forward solve would check
    ValidationError.check(grid_errors(grid, obs) + weight_errors(alpha0, alpha1)
                          + param_errors(params.replace(beta_I=0.0), grid.T))
    n0 = n0_of(obs)
    wq = _trapezoid_weights(grid)

    def inner(u1, a1, i1, u2, a2, i2):
        return float(np.dot(wq * u1, u2) + a1 * a2 + i1 * i2)

    A0, I0, nsolves = _start(obs, params, grid, n0, alpha0)

    def evaluate(beta, a, i):
        # the candidate (beta, a, i), its forward solve and its cost's parts
        nonlocal nsolves
        c = IdentCandidate(beta, a, i)
        traj = _forward(c, obs, params, grid)
        nsolves += 1
        return (c, traj, *_cost_terms(c, obs, alpha0, alpha1, grid, traj, c.beta_I.values))

    def exact_state(move):
        # Exact discrete gradient, Gauss-Newton rows and adjoint of an evaluated move
        # from one reverse sweep, counted as one sweep per cotangent, and its residual
        nonlocal nsolves
        c, traj, _, (r, _, _) = move
        *grad, rows, blocks, adjoint = _exact_gradient(c, r, alpha0, alpha1, params, traj,
                                                       c.beta_I.values, wq, n0)
        nsolves += 2
        residual = _certificate(c, c.beta_I.values, grad, alpha0, alpha1, n0)
        return (*grad, rows, blocks, residual, adjoint)

    # every candidate's beta_I shares the knots of the start's
    cand, traj, J, parts = evaluate(_beta_table(grid, np.zeros(grid.M + 1)), A0, I0)
    state = exact_state((cand, traj, J, parts))
    history = [J]
    converged = state[5] <= cfg.tol
    notes = []

    def arc_search(db, dA, dI):
        # Armijo along the projected arc x + t*(direction) from t = 1: the
        # step it takes, or None if no luck, and whether the certificate judges it
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            nb = np.maximum(bg + t * db, 0.0)
            nA, nI = project_k0((A0 + t * dA, I0 + t * dI), n0)
            dpred = inner(gbeta, gA0, gI0, nb - bg, nA - A0, nI - I0)
            if dpred >= 0.0:
                t *= 0.5
                continue
            trial = evaluate(cand.beta_I.with_values(nb), nA, nI)
            change = _cost_change(parts, trial[3], alpha0, alpha1, grid.h)
            if change <= ARMIJO_C * dpred:
                # a decrease below the rounding of J is taken only as the full
                # Gauss-Newton step; after a backtrack, what let it through
                # is rounding noise of the forward solve
                return (trial if trial[2] < J or t == 1.0 else None), False
            if t == 1.0 and max(-dpred, change) <= ROUNDING * J:
                return trial, True  # J can judge neither it nor a shorter step
            t *= 0.5
        return None, False

    it = 0
    while not converged and it < cfg.max_iters:
        it += 1
        bg, A0, I0 = cand.beta_I.values, cand.A0, cand.I0
        gbeta, gA0, gI0, rows, blocks, residual, _ = state
        free = (bg > 0.0) | (gbeta < 0.0)
        edge = A0 + I0 >= n0 * (1.0 - 1e-12)
        free_block = np.array([(A0 > 0.0 or gA0 < 0.0) and not (edge and gA0 > gI0),
                               (I0 > 0.0 or gI0 < 0.0) and not (edge and gI0 > gA0)])
        db, dblock = _gn_direction(gbeta, np.array([gA0, gI0]), rows, blocks,
                                   alpha0, alpha1, wq, free, free_block)
        move, judged = arc_search(db, dblock[0], dblock[1])
        if move is not None:
            trial_state = exact_state(move)
            if judged and trial_state[5] >= residual:
                move = None
        if move is None:
            notes.append("line search stalled before reaching tolerance")
            break

        cand, traj, J, parts = move
        state = trial_state
        history.append(J)
        converged = state[5] <= cfg.tol

    return IdentResult(cand, J, np.asarray(history), state[5], traj,
                       AdjointTrajectory(grid, state[6]), it, converged, nsolves, notes)
