"""Reproduction number, stability thresholds and extinction diagnostics.

With constant coefficients and no immunity loss the infected subsystem
(A, I, L) is asymptotically stable around a susceptible level S exactly
when S < S_bar = k1*k2/beta, beta = k2*beta_A + sigma*beta_I; the
reproduction number is R0 = beta/(k1*k2) = 1/S_bar.  Long-horizon
simulation provides a finite-time certificate of the asymptotic
extinction (A, I, L -> 0) and of the limit susceptible level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .integrate import MAX_STEPS, Grid, Trajectory
from .model import ModelParams, State, TOL_NEG, jacobian, simulate, validate_params

#: horizon doubling stops once the total simulated time would exceed this
HORIZON_CAP = 2.0 ** 20

#: |R0 * S_limit - 1| below this is classified as (inconclusive) critical
CRITICAL_BAND = 1e-3


def _constant_value(params: ModelParams, name: str) -> float:
    table = getattr(params, name)
    if not table.is_constant:
        raise ValidationError(
            f"{name} is time-varying; pass params with its average over the horizon")
    return float(table.values[0])


def _beta_bar(params: ModelParams) -> float:
    """Combined transmission weight beta = k2*beta_A + sigma*beta_I."""
    bA = _constant_value(params, "beta_A")
    bI = _constant_value(params, "beta_I")
    return params.k2 * bA + params.sigma * bI


def r0(params: ModelParams) -> float:
    """Reproduction number (k2*beta_A + sigma*beta_I) / (k1*k2)."""
    validate_params(params)
    return _beta_bar(params) / (params.k1 * params.k2)


def s_threshold(params: ModelParams) -> float:
    """Susceptible threshold S_bar = k1*k2/beta = 1/R0; inf when beta = 0."""
    validate_params(params)
    beta = _beta_bar(params)
    if beta == 0.0:
        return math.inf
    return (params.k1 * params.k2) / beta


def infected_jacobian(s_inf: float, params: ModelParams) -> np.ndarray:
    """Jacobian of the (A, I, L) subsystem linearized at susceptible level s_inf."""
    for name in ("beta_A", "beta_I"):
        _constant_value(params, name)  # a time-varying rate has no single linearization
    # xi only enters the S and R rows, so any sample of it will do
    return jacobian((s_inf, 0.0, 0.0, 0.0, 0.0), params.replace(xi=0.0), 0.0)[1:4, 1:4]


@dataclass(frozen=True)
class HurwitzCheck:
    hurwitz: bool                # all three eigenvalues have negative real part
    eigenvalues: np.ndarray      # quadratic pair then -mu_L


def hurwitz_check(s_inf: float, params: ModelParams) -> HurwitzCheck:
    """Closed-form stability test of the infected subsystem at level s_inf >= 0.

    The quadratic factor is stable iff b = k1 + k2 - beta_A*s_inf > 0 and
    c = k1*k2 - beta*s_inf > 0 (equivalently s_inf < S_bar); the third
    eigenvalue is -mu_L.  The (A, I) block is Metzler, so its pair is real:
    b^2 - 4c = (beta_A*s_inf - k1 + k2)^2 + 4*sigma*beta_I*s_inf >= 0, and
    the max with 0 only absorbs rounding.
    """
    bA = _constant_value(params, "beta_A")
    beta = _beta_bar(params)
    b = params.k1 + params.k2 - bA * s_inf
    c = params.k1 * params.k2 - beta * s_inf
    root = math.sqrt(max(b * b - 4.0 * c, 0.0))
    lam = np.array([(-b - root) / 2.0, (-b + root) / 2.0, -params.mu_L], dtype=complex)
    return HurwitzCheck(hurwitz=b > 0 and c > 0 and params.mu_L > 0, eigenvalues=lam)


@dataclass
class StabilityReport:
    R0: float
    S_bar: float
    eigenvalues: np.ndarray
    hurwitz: bool
    S_tilde_inf: float
    extinction: bool
    regime: str
    horizon: float
    monotone_S: bool
    final_state: np.ndarray
    segments: int = 0
    first_segment: Trajectory | None = None  # None when no segment was integrated


def _regime(product: float) -> str:
    if abs(product - 1.0) < CRITICAL_BAND:
        return "critical"
    return "subcritical" if product < 1.0 else "supercritical"


@dataclass(frozen=True)
class StabilityConfig:
    """Settings of simulate_extinction, the `stability` block of a scenario."""

    horizon: float = 100.0  # length of the first segment
    tol: float = 1e-8       # extinction level of max(A, I, L)
    h: float = 1e-2         # RK4 step size

    def __post_init__(self):
        errs = [f"{f.name} must be > 0" for f in fields(self) if not getattr(self, f.name) > 0]
        if not errs and not self._fits(self.horizon):
            errs.append(f"horizon / h must be <= {MAX_STEPS} steps")
        ValidationError.check(errs)

    def _fits(self, span: float) -> bool:  # a segment of length span: at most MAX_STEPS steps
        return span / self.h <= MAX_STEPS

    def grid(self, span: float) -> Grid:
        """The grid of one segment of length span, in steps of about h."""
        return Grid(0.0, span, max(1, round(span / self.h)))


def simulate_extinction(params: ModelParams, x0,
                        config: StabilityConfig | None = None) -> StabilityReport:
    """Finite-horizon certificate of asymptotic extinction from the State x0, xi = 0.

    Integrates forward, doubling the horizon until the state is extinct,
    the total would pass HORIZON_CAP or the next segment would take more
    than MAX_STEPS steps; checks that S is nonincreasing and that the
    simulated limit sits below the threshold S_bar.  Reaching a cap yields
    an inconclusive report (extinction=False), not an error.  So does
    mu_L = 0 once L >= tol: then L' = l_A*A + l_I*I >= 0, L never falls
    back below tol, and the doubling stops at once.

    A state is extinct when max(A, I, L) < tol and the infection cannot
    grow back: A = I = 0 exactly (an invariant set), or the infected
    subsystem is stable at the current S (hurwitz_check).  With xi = 0, S
    only falls, and the (A, I, L) subsystem x' = M(S) x has M Metzler and
    nondecreasing in S, so by comparison its mass decays from then on.
    """
    cfg = config or StabilityConfig()
    if float(np.max(np.abs(params.xi.values))) != 0.0:
        raise ValidationError("extinction analysis requires xi identically zero")
    x = np.asarray(State(*np.asarray(x0, dtype=float)), dtype=float)
    rep_r0 = r0(params)
    s_bar = s_threshold(params)

    monotone = True
    total = 0.0
    seg = float(cfg.horizon)
    segments = 0
    first = None

    def is_extinct(x):
        return bool(max(x[1], x[2], x[3]) < cfg.tol and (
            x[1] == x[2] == 0.0 or hurwitz_check(float(x[0]), params).hurwitz))

    def never_extinct(x):
        return params.mu_L == 0.0 and x[3] >= cfg.tol

    extinct = is_extinct(x)
    while (not extinct and not never_extinct(x) and total + seg <= HORIZON_CAP
           and cfg._fits(seg)):
        traj = simulate(params, x, cfg.grid(seg))
        segments += 1
        if first is None:
            first = traj
        if float(np.max(np.diff(traj.S))) > TOL_NEG:
            monotone = False
        x = traj.final
        total += seg
        seg = total  # doubling: next segment doubles the total horizon
        extinct = is_extinct(x)

    s_tilde = float(x[0])
    check = hurwitz_check(s_tilde, params)
    return StabilityReport(
        R0=rep_r0, S_bar=s_bar, eigenvalues=check.eigenvalues,
        hurwitz=check.hurwitz, S_tilde_inf=s_tilde, extinction=extinct,
        regime=_regime(rep_r0 * s_tilde), horizon=total, monotone_S=monotone,
        final_state=x, segments=segments, first_segment=first)


def _increasing_root(f, target: float) -> float:
    """Root of f(t) = target for f strictly increasing with f(0) < target."""
    hi = 1.0
    for _ in range(300):
        if f(hi) >= target:
            break
        hi *= 2.0
    else:
        return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def compute_t_loc(params: ModelParams, traj: Trajectory, y1: float, rho: float,
                  lhat: float, alpha0: float):
    """Horizon bound (T1, T2, T_loc = min) below which the dual estimates hold.

    traj is the state under params, controls included.  y1 in (0, L0) and
    rho in (L0 - y1, lhat - y1) are free choices, with L0 = traj.L[0], so
    F0 = L0 - y1 < rho.  F1 bundles sup-norms of the infected and isolated
    components and G the coefficient magnitudes.  T1 solves
    4*mu_L*alpha0*e^(G t)*t*sqrt(t) = 1; T2 solves
    F0 + 4*alpha0*(F1 + rho*mu_L)*t*sqrt(t)*e^(G t) = rho.  Either side
    that never reaches its target yields +inf.
    """
    L0 = float(traj.L[0])
    errs = []
    if not 0.0 < y1 < L0:
        errs.append("need 0 < y1 < L0")
    if not L0 - y1 < rho < lhat - y1:
        errs.append("need rho in (L0 - y1, Lhat - y1)")
    ValidationError.check(errs)
    mu_L = params.mu_L
    F0 = L0 - y1
    supA, supI, supL = (float(np.max(np.abs(v))) for v in (traj.A, traj.I, traj.L))
    F1 = params.l_A * supA + params.l_I * supI + mu_L * supL + mu_L * y1
    G = (float(np.max(params.beta_A.values)) + float(np.max(params.beta_I.values))
         + params.sigma + params.mu_A + params.l_A + params.mu_I + params.l_I
         + float(np.max(params.xi.values)) + params.l_A ** 2 + params.l_I ** 2)

    if mu_L * alpha0 == 0.0:
        t1 = math.inf
    else:
        t1 = _increasing_root(lambda t: 4.0 * mu_L * alpha0 * math.exp(G * t) * t * math.sqrt(t), 1.0)

    coef = 4.0 * alpha0 * (F1 + rho * mu_L)
    if coef == 0.0:
        t2 = math.inf
    else:
        t2 = _increasing_root(lambda t: F0 + coef * t * math.sqrt(t) * math.exp(G * t), rho)

    return t1, t2, min(t1, t2)
