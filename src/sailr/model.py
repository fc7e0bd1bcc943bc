"""Five-compartment epidemic model (S, A, I, L, R) with time-varying rates.

Compartments: susceptible S, undetected asymptomatic infected A, undetected
symptomatic infected I, confirmed-and-isolated L, recovered R: fractions of
the population, summing to 1.  Transmission rates beta_I and beta_A, and the
immunity-loss rate xi, may vary in time; all other rates are constants.  The
flow conserves S + A + I + L + R exactly.

The forward RK4 solve is `simulate`.  The discrete reverse-mode sweep of
its map is `vjp_sweep` over the step maps of `vjp_step_maps`, which read
only forward states, block by block: `_rk4_model_vjp` runs the two in one
process, and `identify.solve_p0` builds the maps in a forked helper while
the forward solve runs, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TimeDomainError, ValidationError
from .integrate import SWEEP_BLOCK, Grid, Trajectory, check_blowup, linear_sweep, rk4_step_maps

#: numerical slack for nonnegativity checks on integrated trajectories
TOL_NEG = 1e-10


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Piecewise-linear nonnegative coefficient over strictly increasing knots.

    A single-knot table represents a constant coefficient valid for every t;
    multi-knot tables are only defined on [knots[0], knots[-1]].  Equality
    is identity: two tables with the same knots and values are not equal.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.array(self.knots, dtype=float, ndmin=1)
        self._freeze(knots, self.values, knots.size > 1 and not np.all(np.diff(knots) > 0))

    def with_values(self, values) -> "CoefficientTable":
        """The table of these values on this table's knots, which the two
        share instead of copying them: no table writes its knots."""
        table = object.__new__(CoefficientTable)
        table._freeze(self._interp_args[0], values, False)
        return table

    def _freeze(self, knots: np.ndarray, values, unordered: bool):
        # checks the values, copied, against the knots, and sets the fields
        values = np.array(values, dtype=float, ndmin=1)
        errs = []
        if knots.size != values.size or knots.size < 1:
            errs.append("coefficient table needs len(values) == len(knots) >= 1")
        if unordered:
            errs.append("coefficient table knots must be strictly increasing")
        if not np.all(values >= 0):  # written so that a NaN value fails it
            errs.append("negative coefficient value in table")
        ValidationError.check(errs)
        # np.interp copies read-only inputs on every call, which a sweep
        # evaluating block by block would repeat per block; it reads the
        # table's own writeable copies, and the fields are read-only views
        object.__setattr__(self, "_interp_args", (knots, values))
        for name, arr in (("knots", knots), ("values", values)):
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @classmethod
    def constant(cls, value: float) -> "CoefficientTable":
        return cls(np.array([0.0]), np.array([float(value)]))

    @property
    def is_constant(self) -> bool:
        return self.knots.size == 1

    def covers(self, t0: float, t1: float) -> bool:
        if self.is_constant:
            return True
        return self.knots[0] <= t0 and t1 <= self.knots[-1]

    def __call__(self, t):
        """Evaluate at scalar or array t (linear between knots, exact at knots)."""
        if self.is_constant:
            v = float(self.values[0])
            t = np.asarray(t, dtype=float)
            return v if t.ndim == 0 else np.full(t.shape, v)
        t = np.asarray(t, dtype=float)
        lo, hi = self.knots[0], self.knots[-1]
        span = hi - lo
        # written so that a NaN time fails the test: comparisons with NaN are False
        if t.size and not (lo - 1e-12 * span <= t.min() and t.max() <= hi + 1e-12 * span):
            raise TimeDomainError(f"t outside coefficient table range [{lo}, {hi}]")
        out = np.interp(t, *self._interp_args)
        return float(out) if t.ndim == 0 else out


def _as_table(c) -> CoefficientTable:
    if isinstance(c, CoefficientTable):
        return c
    return CoefficientTable.constant(float(c))


@dataclass(frozen=True)
class State:
    """Population fractions of the five compartments, each >= 0 (a NaN is
    not) and summing to 1 within 1e-9; np.asarray gives (S, A, I, L, R)."""

    S: float
    A: float
    I: float
    L: float
    R: float

    def __post_init__(self):
        errs = []
        if not np.all(np.asarray(self) >= 0):  # written so that a NaN component fails it
            errs.append("components must be >= 0")
        if not abs(total_population(self) - 1.0) <= 1e-9:
            errs.append("components must sum to 1")
        ValidationError.check(errs)

    def __array__(self, dtype=None, copy=None):
        return np.array([self.S, self.A, self.I, self.L, self.R], dtype=dtype)


def total_population(x) -> float:
    """Sum of the five compartments: 1 for a model state (population fractions), conserved."""
    if isinstance(x, State):
        return x.S + x.A + x.I + x.L + x.R
    return float(np.sum(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class ModelParams:
    """All model rates.

    sigma: symptom-onset rate A -> I; mu_A, mu_I, mu_L: recovery rates;
    l_A, l_I: detection/isolation rates in [0, 1]; beta_I, beta_A:
    transmission rates by I and A; xi: immunity-loss rate R -> S.  The
    model is normalized: its states are population fractions summing to 1.
    """

    sigma: float
    mu_A: float
    mu_I: float
    mu_L: float
    l_A: float
    l_I: float
    beta_I: CoefficientTable
    beta_A: CoefficientTable
    xi: CoefficientTable

    def __post_init__(self):
        for name in ("beta_I", "beta_A", "xi"):
            object.__setattr__(self, name, _as_table(getattr(self, name)))

    @property
    def k1(self) -> float:
        return self.sigma + self.mu_A + self.l_A

    @property
    def k2(self) -> float:
        return self.mu_I + self.l_I

    def replace(self, **kw) -> "ModelParams":
        return replace(self, **kw)

    def with_controls(self, l_A: float, l_I: float) -> "ModelParams":
        return replace(self, l_A=float(l_A), l_I=float(l_I))


def param_errors(p: ModelParams, t_max: float | None = None) -> list[str]:
    """Every violated invariant of ModelParams, as named messages."""
    errs = []
    for name in ("sigma", "mu_A", "mu_I", "mu_L"):
        if not getattr(p, name) >= 0:  # written so that a NaN fails it
            errs.append(f"{name} must be >= 0")
    for name in ("l_A", "l_I"):
        v = getattr(p, name)
        if not 0.0 <= v <= 1.0:
            errs.append(f"{name} out of [0,1]")
    if not p.k1 > 0:
        errs.append("k1 = sigma + mu_A + l_A must be > 0")
    if not p.k2 > 0:
        errs.append("k2 = mu_I + l_I must be > 0")
    for name in ("beta_I", "beta_A", "xi"):
        if t_max is not None and not getattr(p, name).covers(0.0, t_max):
            errs.append(f"{name}: table does not cover [0, {t_max}]")
    return errs


def validate_params(p: ModelParams, t_max: float | None = None) -> ModelParams:
    """Return p unchanged if valid; raise ValidationError listing every violation."""
    ValidationError.check(param_errors(p, t_max))
    return p


def rhs(x, p: ModelParams, t) -> np.ndarray:
    """Time derivative of (S, A, I, L, R) at state x and time t.

    Batched: x may hold states along its last axis, (..., 5), with t the
    matching times.  The five components sum to zero up to floating-point
    rounding.
    """
    x = np.asarray(x, dtype=float)
    return _rhs(x, p, p.beta_I(t), p.beta_A(t), p.xi(t))


def _rhs(x, p: ModelParams, bI, bA, xi, out=None) -> np.ndarray:
    # rhs with beta_I, beta_A and xi already evaluated at the states' times,
    # written into out (shaped like x) when a sweep passes its reused buffer
    if out is None:
        out = np.empty(np.shape(x))
    S, A, I, L, R = np.moveaxis(x, -1, 0)
    infections = bI * S * I + bA * S * A
    out[..., 0] = -infections + xi * R
    out[..., 1] = infections - p.k1 * A
    out[..., 2] = p.sigma * A - p.k2 * I
    out[..., 3] = p.l_A * A + p.l_I * I - p.mu_L * L
    out[..., 4] = p.mu_A * A + p.mu_I * I + p.mu_L * L - xi * R
    return out


def jacobian(x, p: ModelParams, t) -> np.ndarray:
    """Jacobian of rhs with respect to (S, A, I, L, R), batched like rhs: (..., 5, 5)."""
    x = np.asarray(x, dtype=float)
    J = np.zeros(x.shape + (5,))
    jacobian_constants(J, p)
    jacobian_update(J, p, x[..., 0], x[..., 1], x[..., 2], p.beta_I(t), p.beta_A(t), p.xi(t))
    return J


def jacobian_constants(J: np.ndarray, p: ModelParams) -> None:
    """Write the entries of the model Jacobian that are the same at every
    state and time into the zeroed (..., 5, 5) view J (the rows of I, L
    and R in the columns of A, I and L); `jacobian_update` writes the rest.

    A sweep writes these once into the stage buffer it reuses per block.
    J may be a transposed view, as the adjoint needs.
    """
    J[..., 2:, 1:4] = ((p.sigma, -p.k2, 0.0), (p.l_A, p.l_I, -p.mu_L),
                       (p.mu_A, p.mu_I, p.mu_L))


def jacobian_update(J: np.ndarray, p: ModelParams, S, A, I, bI, bA, xi) -> None:
    """Write the entries of the model Jacobian that depend on state or time
    into J (..., 5, 5): rows S and A in the columns of S, A and I, and the
    two xi entries.  S, A, I are the state components and bI, bA, xi the
    coefficients at the same times, shaped like J[..., 0, 0].
    """
    dS = J[..., 0, :]
    # infections move mass from S to A; their gradient in (S, A, I)
    np.multiply(bA, A, out=dS[..., 0])
    dS[..., 0] += bI * I
    np.multiply(bA, S, out=dS[..., 1])
    np.multiply(bI, S, out=dS[..., 2])
    np.subtract(dS[..., 1], p.k1, out=J[..., 1, 1])
    np.negative(dS[..., :3], out=dS[..., :3])
    np.subtract(0.0, dS[..., 0:3:2], out=J[..., 1, 0:3:2])  # 0 - (-g): +0.0 for a zero g
    dS[..., 4] = xi
    np.negative(xi, out=J[..., 4, 4])


def _rk4_block(sigma, muA, muI, muL, lA, lI, h, bI, bA, xi, x):
    # Hot loop: plain float RK4 from the state x over the steps whose stage
    # samples are the lists bI, bA, xi (2n + 1 each for n steps); returns the
    # n new states as one flat list of 5n floats.  Float arithmetic does not
    # raise on inf or nan, so a blow-up is found afterwards on the stored rows.
    S, A, I, L, R = x
    k1c = sigma + muA + lA
    k2c = muI + lI
    h2 = 0.5 * h
    h6 = h / 6.0
    rows = []
    extend = rows.extend
    # step j reads the stage samples 2j, 2j + 1 and 2j + 2 of each table
    stages = zip(bI[0:-1:2], bI[1::2], bI[2::2], bA[0:-1:2], bA[1::2], bA[2::2],
                 xi[0:-1:2], xi[1::2], xi[2::2])
    for b0, b1, b2, c0, c1, c2, e0, e1, e2 in stages:
        inf = b0 * S * I + c0 * S * A
        eR = e0 * R; mL = muL * L
        dS1 = eR - inf; dA1 = inf - k1c * A; dI1 = sigma * A - k2c * I
        dL1 = lA * A + lI * I - mL; dR1 = muA * A + muI * I + mL - eR
        S2 = S + h2 * dS1; A2 = A + h2 * dA1; I2 = I + h2 * dI1
        L2 = L + h2 * dL1; R2 = R + h2 * dR1

        inf = b1 * S2 * I2 + c1 * S2 * A2
        eR = e1 * R2; mL = muL * L2
        dS2 = eR - inf; dA2 = inf - k1c * A2; dI2 = sigma * A2 - k2c * I2
        dL2 = lA * A2 + lI * I2 - mL; dR2 = muA * A2 + muI * I2 + mL - eR
        S3 = S + h2 * dS2; A3 = A + h2 * dA2; I3 = I + h2 * dI2
        L3 = L + h2 * dL2; R3 = R + h2 * dR2

        inf = b1 * S3 * I3 + c1 * S3 * A3
        eR = e1 * R3; mL = muL * L3
        dS3 = eR - inf; dA3 = inf - k1c * A3; dI3 = sigma * A3 - k2c * I3
        dL3 = lA * A3 + lI * I3 - mL; dR3 = muA * A3 + muI * I3 + mL - eR
        S4 = S + h * dS3; A4 = A + h * dA3; I4 = I + h * dI3
        L4 = L + h * dL3; R4 = R + h * dR3

        inf = b2 * S4 * I4 + c2 * S4 * A4
        eR = e2 * R4; mL = muL * L4
        dS4 = eR - inf; dA4 = inf - k1c * A4; dI4 = sigma * A4 - k2c * I4
        dL4 = lA * A4 + lI * I4 - mL; dR4 = muA * A4 + muI * I4 + mL - eR

        S += h6 * (dS1 + 2.0 * (dS2 + dS3) + dS4)
        A += h6 * (dA1 + 2.0 * (dA2 + dA3) + dA4)
        I += h6 * (dI1 + 2.0 * (dI2 + dI3) + dI4)
        L += h6 * (dL1 + 2.0 * (dL2 + dL3) + dL4)
        R += h6 * (dR1 + 2.0 * (dR2 + dR3) + dR4)
        extend((S, A, I, L, R))
    return rows


def simulate(p: ModelParams, x0, grid: Grid, block_done=None) -> Trajectory:
    """Forward RK4 solve of the model on the grid (same discrete map as
    integrate_forward with rhs, specialized for speed).

    The solve streams SWEEP_BLOCK steps at a time: each block evaluates the
    coefficients on its own stage times, so the memory beyond the (M + 1, 5)
    output is one block's.  Raises BlowupError at the first step whose
    S + A + I + L + R is non-finite or too large (`integrate.check_blowup`).

    block_done(lo, hi, rows), if given, receives the stored states as they
    are made, as the (hi - lo, 5) view rows of the states lo..hi-1: once for
    the x0 row (0, 1), then once per block after its blow-up check, so that
    the calls cover rows 0..M once each, in order.  The CLI passes
    GridCsvWriter.send, which hands each block to its child, or renders it,
    before it returns: trajectory.csv is written while the solve goes on.
    """
    validate_params(p, t_max=grid.T)
    M = grid.M
    out = np.empty((M + 1, 5))
    x = tuple(np.asarray(x0, dtype=float).tolist())
    out[0] = x
    if block_done is not None:
        block_done(0, 1, out[:1])
    rates = (p.sigma, p.mu_A, p.mu_I, p.mu_L, p.l_A, p.l_I, grid.h)
    for lo in range(0, M, SWEEP_BLOCK):
        hi = min(lo + SWEEP_BLOCK, M)
        th = grid.half_points(lo, hi)
        rows = _rk4_block(*rates, *(c(th).tolist() for c in (p.beta_I, p.beta_A, p.xi)), x)
        x = rows[-5:]
        block = out[lo + 1:hi + 1]
        block.reshape(-1)[:] = rows
        with np.errstate(over="ignore", invalid="ignore"):  # reported as BlowupError
            check_blowup(block[:, 0] + block[:, 1] + block[:, 2] + block[:, 3] + block[:, 4], lo)
        if block_done is not None:
            block_done(lo + 1, hi + 1, block)
    return Trajectory(grid, out)


def vjp_step_maps(p: ModelParams, grid: Grid, states: np.ndarray):
    """Step-map builder of the reverse sweep of the discrete RK4 map:
    maps(lo, hi) gives, for the reverse steps lo..hi-1, which are the
    forward steps k = M-hi..M-lo-1, the (hi - lo, 8, 8) increments D = P - I
    of the augmented forward step maps in forward order.  D[:, :5, :5] is
    the state Jacobian minus I and D[:, :5, 5:] the sensitivities
    d x_{k+1}/d beta_I at the stage samples 2k, 2k+1, 2k+2.

    maps(lo, hi) reads only the rows M-hi..M-lo-1 of the (M + 1, 5) states,
    so a caller may build a block as soon as those exist.  Stage states are
    recomputed from them, and each call evaluates the coefficients on its own
    stage times.  One stage buffer G, its constant Jacobian entries written
    once, serves every call: per block only the entries that vary are
    rewritten, and each D is a fresh array.
    """
    M, h = grid.M, grid.h
    G = np.zeros((4, min(M, SWEEP_BLOCK), 8, 8))
    jacobian_constants(G[:, :, :5, :5], p)
    dbuf = np.empty((min(M, SWEEP_BLOCK), 5))  # stage derivative, reused per stage

    def maps(lo, hi):
        # forward step k's stage r reads the samples 2k + c, c = 0, 1, 1, 2
        x = states[M - hi:M - lo]
        th = grid.half_points(M - hi, M - lo)
        coeffs = [c(th) for c in (p.beta_I, p.beta_A, p.xi)]
        Gb = G[:, :hi - lo]
        d = 0.0
        for r, (a, c) in enumerate(zip((0.0, 0.5, 0.5, 1.0), (0, 1, 1, 2))):
            bI, bA, xi = (v[c:c + 2 * (hi - lo):2] for v in coeffs)
            xr = x + (a * h) * d
            if r < 3:  # the last stage's rhs feeds no later stage
                d = _rhs(xr, p, bI, bA, xi, out=dbuf[:hi - lo])
            S, A, I = xr[:, 0], xr[:, 1], xr[:, 2]
            jacobian_update(Gb[r, :, :5, :5], p, S, A, I, bI, bA, xi)
            # d rhs/d beta_I = S I (-1, 1, 0, 0, 0)
            np.multiply(S, I, out=Gb[r, :, 1, 5 + c])
            np.negative(Gb[r, :, 1, 5 + c], out=Gb[r, :, 0, 5 + c])
        return rk4_step_maps(Gb, h)

    return maps


def vjp_sweep(maps, M: int, cotangent):
    """Reverse scan and contraction of the discrete RK4 map's VJP, from the
    step maps maps(lo, hi) of `vjp_step_maps`: for the scalar phi =
    cotangent . x_M, returns (v[k] = d phi/d x_k on the grid, d phi/d beta_I
    at the 2M+1 stage samples); a (5, K) cotangent gives K such columns.

    v_k = P_k^T v_{k+1}.  The sweep streams: each block's sensitivities are
    contracted into bbar as soon as its states exist.  The result depends
    only on the bits maps returns, not on when or where they were built.
    """
    bbar = np.zeros((2 * M + 1,) + np.shape(cotangent)[1:])
    sens = None  # d x_{k+1}/d beta_I at the samples of the block last built

    def step_maps(lo, hi):
        nonlocal sens
        D = maps(lo, hi)
        sens = D[:, :5, 5:]
        return D[::-1, :5, :5].transpose(0, 2, 1)

    def contract(lo, hi, ys):
        # forward step k of the block pairs with v[k + 1], the reverse state
        # M - k - 1: the block's reverse states hi-1 down to lo.  per[k, c] =
        # sum_i sens[k, i, c] v[k + 1, i], summed in order of i as einsum
        # does, in fewer passes than its generic loop
        v = ys[-2::-1].reshape(hi - lo, 5, -1)
        per = sens[:, 0, :, None] * v[:, 0, None]
        for i in range(1, 5):
            per += sens[:, i, :, None] * v[:, i, None]
        per = per.reshape((hi - lo, 3) + ys.shape[2:])
        for c in range(3):  # samples 2k + c
            bbar[2 * (M - hi) + c:2 * (M - lo) + c:2] += per[:, c]

    v = linear_sweep(step_maps, cotangent, M, contract)[::-1]
    return v, bbar


def _rk4_model_vjp(p: ModelParams, traj: Trajectory, cotangent):
    # Exact reverse-mode sweep of the discrete RK4 map (see vjp_sweep), with
    # each block's step maps built in the scan.  identify builds the same
    # maps ahead in a forked helper while the forward solve runs.
    return vjp_sweep(vjp_step_maps(p, traj.grid, traj.states), traj.grid.M, cotangent)


def stage_to_knot_gradient(bbar: np.ndarray) -> np.ndarray:
    """Collapse a gradient over the 2M+1 stage samples of a grid-knotted
    piecewise-linear table onto its M+1 knot values (midpoints average
    their two neighbouring knots)."""
    out = bbar[0::2].copy()
    out[:-1] += 0.5 * bbar[1::2]
    out[1:] += 0.5 * bbar[1::2]
    return out
