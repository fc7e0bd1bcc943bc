"""State-constrained optimal testing/isolation control.

The controls are the scalar detection rates (l_A, l_I) in [0,1]^2; the
isolated fraction must respect L(t) <= Lhat.  The constraint is handled by
exterior quadratic penalization with weight alpha2/eps and a continuation
eps -> 0.  Each penalized stage is solved by at most MAX_SWEEPS damped
forward-backward fixed-point sweeps (forward state solve, backward dual
solve, projection update), followed by a finite-difference Newton step on
the two-control fixed-point gap, from the best sweep, when the sweeps stop
short of tolerance.

The adapted quadratic terms 0.5*(l - anchor)^2 in the stage cost reference
an anchor control pair.  The first stage starts from and anchors at the
configured anchor; the continuation then self-anchors by passing each
stage's solution as the next stage's anchor, so the adaptation penalty
vanishes along the schedule and the stage fixed point approaches the
limit optimality conditions (projection with divisor alpha1 instead of
alpha1 + 1), which are reported as the convergence certificate.

solve_p and solve_p_eps fork an evaluator (`_Evaluator`) that evaluates the
second point of each of Newton's pairs while the solver evaluates the
first.  Each reply carries the point's whole result (update, trajectory
and adjoint), so the results and sweep count are the same bits as without
os.fork.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .child import Child
from .errors import FeasibilityError, ValidationError
from .integrate import Grid, Trajectory, trapezoid
from .linearize import AdjointTrajectory, adjoint_p_eps, penalty_weight
from .model import ModelParams, TOL_NEG, simulate
from .stability import compute_t_loc


def default_eps_schedule(n: int = 13, first: float = 0.1) -> tuple:
    """Geometric penalty schedule first * 2^-k, k = 0..n-1."""
    return tuple(first * 2.0 ** -k for k in range(n))


def _clamp01(x: float) -> float:
    return min(max(float(x), 0.0), 1.0)


@dataclass(frozen=True)
class ControlPair:
    lA: float
    lI: float

    def __post_init__(self):
        if not (0.0 <= self.lA <= 1.0 and 0.0 <= self.lI <= 1.0):
            raise ValidationError("controls must lie in [0,1]^2")

    def dist(self, other: "ControlPair") -> float:
        return max(abs(self.lA - other.lA), abs(self.lI - other.lI))


@dataclass(frozen=True)
class PenaltyConfig:
    """Weights, bound and schedule for the penalized control problem."""

    alpha0: float
    alpha1: float
    alpha2: float
    Lhat: float
    eps_schedule: tuple = field(default_factory=default_eps_schedule)
    anchor: ControlPair = ControlPair(0.5, 0.5)

    def __post_init__(self):
        errs = []
        if not self.alpha1 > 0:
            errs.append("alpha1 must be > 0 (the limit projection divides by it)")
        if not (self.alpha0 >= 0 and self.alpha2 >= 0):  # a NaN fails it too
            errs.append("alpha0 and alpha2 must be >= 0")
        sched = tuple(float(e) for e in self.eps_schedule)
        if not sched:
            errs.append("eps_schedule must not be empty")
        elif any(not e > 0 for e in sched):
            errs.append("eps_schedule entries must be positive")
        elif any(b >= a for a, b in zip(sched, sched[1:])):
            errs.append("eps_schedule must be strictly decreasing")
        ValidationError.check(errs)
        object.__setattr__(self, "eps_schedule", sched)


THETA = 0.5            # relaxation of the fixed-point sweep
TOL_FP = 1e-9          # stage fixed-point tolerance on controls
MAX_SWEEPS = 26        # damped sweeps per stage before FD Newton
TOL_CONSTRAINT = 1e-4  # on sup (L - Lhat)^+
TOL_RESIDUAL = 1e-3    # on the limit fixed-point residual
POLISH_MAX = 200       # extra self-anchored stages at final eps


@dataclass
class StageResult:
    controls: ControlPair
    cost_eps: float
    fp_residual: float
    #: the sweep phase ended above tolerance, so the FD-Newton phase ran
    used_fallback: bool
    trajectory: Trajectory
    adjoint: AdjointTrajectory
    penalty_integral: float
    forward_solves: int
    converged: bool
    #: L1 norm of the discrete multiplier (alpha2/eps)(L - Lhat)^+ on this
    #: stage; reported, not certified (its regularity near the contact set
    #: is an open point of the penalty scheme)
    multiplier_l1: float = 0.0


@dataclass
class ControlResult:
    controls: ControlPair
    trajectory: Trajectory
    adjoint: AdjointTrajectory
    cost: float
    constraint_violation: float
    multiplier_diag: np.ndarray
    per_eps_history: list
    limit_residual: float
    converged: bool
    notes: list
    forward_solves: int = 0


def lhat_errors(pcfg: PenaltyConfig, x0) -> list[str]:
    """The cap rule of a control problem: pcfg.Lhat above the initial L of x0."""
    return [] if pcfg.Lhat > float(np.asarray(x0, dtype=float)[3]) else ["Lhat must exceed L0"]


def constraint_violation(traj: Trajectory, lhat: float) -> float:
    """sup over the grid of (L - lhat)^+; L >= 0 is asserted, not enforced."""
    Lmin = float(np.min(traj.L))
    if Lmin < -TOL_NEG:
        raise FeasibilityError(f"L(t) fell below 0 ({Lmin}); state not admissible")
    return float(np.max(np.maximum(traj.L - lhat, 0.0)))


def _cost_p_from(traj: Trajectory, ctrl: ControlPair, alpha0: float, alpha1: float) -> float:
    h = traj.grid.h
    run = 0.5 * alpha0 * (trapezoid(traj.A ** 2, h) + trapezoid(traj.I ** 2, h))
    return run + 0.5 * alpha1 * (ctrl.lA ** 2 + ctrl.lI ** 2)


def _penalty_integral(traj: Trajectory, lhat: float) -> float:
    return trapezoid(np.maximum(traj.L - lhat, 0.0) ** 2, traj.grid.h)


def _multiplier_l1(traj: Trajectory, lhat: float, alpha2: float, eps: float) -> float:
    return penalty_weight(alpha2, eps) * trapezoid(np.maximum(traj.L - lhat, 0.0), traj.grid.h)


def _cost_p_eps_from(traj, ctrl, pcfg: PenaltyConfig, eps: float, anchor: ControlPair) -> float:
    pen = 0.5 * penalty_weight(pcfg.alpha2, eps) * _penalty_integral(traj, pcfg.Lhat)
    adapt = 0.5 * ((ctrl.lA - anchor.lA) ** 2 + (ctrl.lI - anchor.lI) ** 2)
    return _cost_p_from(traj, ctrl, pcfg.alpha0, pcfg.alpha1) + pen + adapt


def cost_p(ctrl: ControlPair, params: ModelParams, x0, grid: Grid,
           alpha0: float, alpha1: float) -> float:
    """Control cost: quadratic burden of the undetected classes plus control effort."""
    traj = simulate(params.with_controls(ctrl.lA, ctrl.lI), x0, grid)
    return _cost_p_from(traj, ctrl, alpha0, alpha1)


def cost_p_eps(ctrl: ControlPair, params: ModelParams, x0, grid: Grid,
               pcfg: PenaltyConfig, eps: float) -> float:
    """Penalized stage cost: cost_p + (alpha2/2eps) int((L-Lhat)^+)^2 + anchor terms."""
    traj = simulate(params.with_controls(ctrl.lA, ctrl.lI), x0, grid)
    return _cost_p_eps_from(traj, ctrl, pcfg, eps, pcfg.anchor)


def _stage_integrals(traj: Trajectory, adjoint: AdjointTrajectory):
    """(int A (q - e), int I (d - e)): minus the state part of the control gradient."""
    h = traj.grid.h
    return (trapezoid(traj.A * (adjoint.q - adjoint.e), h),
            trapezoid(traj.I * (adjoint.d - adjoint.e), h))


def update_controls_eps(traj: Trajectory, adjoint: AdjointTrajectory,
                        alpha1: float, anchor: ControlPair) -> ControlPair:
    """Projection form of the stage optimality conditions."""
    ia, ii = _stage_integrals(traj, adjoint)
    return ControlPair(_clamp01((ia + anchor.lA) / (alpha1 + 1.0)),
                       _clamp01((ii + anchor.lI) / (alpha1 + 1.0)))


def _stage_map(pcfg: PenaltyConfig, params: ModelParams, x0, grid: Grid, eps: float,
               anchor: ControlPair, l: ControlPair):
    """F(l) of a stage: forward and dual solves at the controls l, then the
    projection update (two sweeps)."""
    pl = params.with_controls(l.lA, l.lI)
    traj = simulate(pl, x0, grid)
    adj = adjoint_p_eps(traj, pl, eps, pcfg.alpha0, pcfg.alpha2, pcfg.Lhat)
    return update_controls_eps(traj, adj, pcfg.alpha1, anchor), traj, adj


class _Evaluator:
    """The stage maps of one solve_p: F(l) evaluates one here, and ahead(l)
    queues a point for a forked child (`child.Child`) to evaluate meanwhile.

    stage(eps, anchor) picks the map.  F(l) gives (update, gap update - l,
    trajectory, adjoint), and take() the same of the queued point.  A point
    never taken is dropped: its reply is read and thrown away at the next
    ahead(), so that the child can go on.  A request is five float64 (lA,
    lI, eps, anchor), its reply the update's two float64, then the
    trajectory's and the adjoint's (M + 1, 5) float64 states, read into a
    new array each time: take()'s trajectory and adjoint keep it.  Without a
    child (no os.fork, one CPU, a failed pipe or fork, or an error or
    warning ended it), take evaluates here, with the same bits.  sweeps
    counts the stage's sweeps the solver reads.
    """

    def __init__(self, pcfg, params, x0, grid):
        self.problem = (pcfg, params, x0, grid)
        self.child = Child(self._serve, pipes=2)
        self._reply = 2 + 10 * (grid.M + 1)  # float64 in a reply
        self._unread = False  # a dropped point's reply is still in the pipe

    def stage(self, eps: float, anchor: ControlPair):
        self._eps, self._anchor, self.sweeps = eps, anchor, 0

    def F(self, l: ControlPair):
        raw, traj, adj = _stage_map(*self.problem, self._eps, self._anchor, l)
        self.sweeps += 2
        return raw, np.array([raw.lA - l.lA, raw.lI - l.lI]), traj, adj

    def ahead(self, l: ControlPair):
        if self._unread:
            self.child.receive(np.empty(self._reply))
        self._queued = l
        self._unread = self.child.send(np.array([l.lA, l.lI, self._eps, self._anchor.lA,
                                                 self._anchor.lI]).tobytes())

    def take(self):
        got, self._unread = self.child.receive(np.empty(self._reply)), False
        if got is None:
            return self.F(self._queued)
        self.sweeps += 2
        grid, l = self.problem[3], self._queued
        raw, states = ControlPair(*got[:2].tolist()), got[2:].reshape(2, grid.M + 1, 5)
        return (raw, np.array([raw.lA - l.lA, raw.lI - l.lI]),
                Trajectory(grid, states[0]), AdjointTrajectory(grid, states[1]))

    def _serve(self, requests, replies) -> int:
        # The child: evaluate points until the parent closes the pipe.  A
        # warning ends it too, so that it is given where the point is read.
        warnings.simplefilter("error")
        while req := requests.read(40):
            lA, lI, eps, aA, aI = np.frombuffer(req).tolist()
            raw, traj, adj = _stage_map(*self.problem, eps, ControlPair(aA, aI),
                                        ControlPair(lA, lI))
            replies.write(np.array([raw.lA, raw.lI]).tobytes() + traj.states.tobytes()
                          + adj.states.tobytes())
            replies.flush()
        return 0


def solve_p_eps(pcfg: PenaltyConfig, eps: float, params: ModelParams, x0, grid: Grid,
                init: ControlPair) -> StageResult:
    """Solve one penalized stage at pcfg.anchor: damped fixed-point sweeps, then FD Newton.

    Both phases evaluate the stage map F(l) (`_stage_map`): forward solve,
    dual solve and projection update at l (two sweeps), giving the update
    and the gap update - l.  Relaxation new = THETA*update + (1-THETA)*old.
    The sweep phase ends at TOL_FP or after MAX_SWEEPS sweeps; FD Newton on
    the gap then starts from the best sweep's evaluation (and returns at
    once if it already meets TOL_FP).  If Newton does not reach TOL_FP, its
    iterate with the smallest fixed-point residual is returned with
    converged=False.  Newton's pairs go to a forked `_Evaluator`, as in solve_p.
    """
    ev = _Evaluator(pcfg, params, x0, grid)
    with ev.child:  # closed on return, killed on an error
        return _solve_stage(ev, eps, pcfg.anchor, init, TOL_FP)


def _solve_stage(ev: _Evaluator, eps, anchor, init, tol_fp) -> StageResult:
    pcfg = ev.problem[0]
    ev.stage(eps, anchor)
    ctrl = init
    best = None
    for _ in range(MAX_SWEEPS):
        raw, Fv, traj, adj = ev.F(ctrl)
        fp_res = raw.dist(ctrl)
        if best is None or fp_res <= best[4]:
            best = (ctrl, Fv, traj, adj, fp_res)
        if fp_res <= tol_fp:
            break
        ctrl = ControlPair(THETA * raw.lA + (1 - THETA) * ctrl.lA,
                           THETA * raw.lI + (1 - THETA) * ctrl.lI)

    # Newton on the fixed-point gap: handles stages where the sweep map is
    # expansive (stiff penalty); quadratic convergence from the sweep's iterate.
    # It only accepts steps that shrink the residual, so it ends at or below
    # the best sweep.
    used_newton = best[4] > tol_fp
    ctrl, traj, adj, fp_res = _stage_newton(ev, *best[:4], tol_fp)
    return StageResult(ctrl, _cost_p_eps_from(traj, ctrl, pcfg, eps, anchor),
                       fp_res, used_newton, traj, adj,
                       _penalty_integral(traj, pcfg.Lhat), ev.sweeps, fp_res <= tol_fp,
                       _multiplier_l1(traj, pcfg.Lhat, pcfg.alpha2, eps))


def _in_pairs(ev: _Evaluator, points):
    # (point, gap, trajectory, adjoint) of each point in order, in pairs
    for k in range(0, len(points), 2):
        if k + 1 < len(points):
            ev.ahead(points[k + 1])
        yield points[k], *ev.F(points[k])[1:]
        if k + 1 < len(points):
            yield points[k + 1], *ev.take()[1:]


def _stage_newton(ev: _Evaluator, ctrl, Fv, traj, adj, tol):
    """Damped finite-difference Newton on the gap F(l)[1] = update(l) - l.

    Starts from ctrl with its gap Fv, trajectory and adjoint already
    evaluated.  Steps are accepted only if they shrink |gap|, so the phase
    cannot wander.  The two FD probes are a pair, and so are the backtracking
    candidates t and t/2 for t = 1, 1/4, 1/16, ...: ev's child evaluates the
    second while F evaluates the first, and the first candidate that shrinks
    |gap| is taken, as one at a time would.  Returns the accepted (ctrl,
    traj, adj, residual).
    """
    fp = float(np.max(np.abs(Fv)))
    for _ in range(30):
        if fp <= tol:
            break
        delta = max(1e-7, 1e-3 * fp)
        probes = []
        for e in ((delta, 0.0), (0.0, delta)):
            lp = ControlPair(_clamp01(ctrl.lA + e[0]), _clamp01(ctrl.lI + e[1]))
            if lp.dist(ctrl) == 0.0:  # pinned at the boundary; probe inward
                lp = ControlPair(_clamp01(ctrl.lA - e[0]), _clamp01(ctrl.lI - e[1]))
            probes.append(lp)
        (pA, FA, *_), (pI, FI, *_) = _in_pairs(ev, probes)
        Jm = np.column_stack([(FA - Fv) / (pA.lA - ctrl.lA), (FI - Fv) / (pI.lI - ctrl.lI)])
        try:
            step = np.linalg.solve(Jm, -Fv)
        except np.linalg.LinAlgError:
            break
        cands = []
        for t in 0.5 ** np.arange(20):
            cand = ControlPair(_clamp01(ctrl.lA + t * step[0]),
                               _clamp01(ctrl.lI + t * step[1]))
            if cand.dist(ctrl) == 0.0:
                break
            cands.append(cand)
        for cand, Fc, c_traj, c_adj in _in_pairs(ev, cands):
            fc = float(np.max(np.abs(Fc)))
            if fc < fp:
                ctrl, Fv, fp, traj, adj = cand, Fc, fc, c_traj, c_adj
                break
        else:
            break
    return ctrl, traj, adj, fp


def _limit_residual(traj, adj, ctrl, alpha1) -> float:
    """Distance from the limit optimality conditions (divisor alpha1)."""
    ia, ii = _stage_integrals(traj, adj)
    lA_hat = _clamp01(ia / alpha1)
    lI_hat = _clamp01(ii / alpha1)
    return max(abs(ctrl.lA - lA_hat), abs(ctrl.lI - lI_hat))


def solve_p(pcfg: PenaltyConfig, params: ModelParams, x0, grid: Grid) -> ControlResult:
    """Penalty continuation over the eps schedule, self-anchored.

    The first stage starts from and anchors at pcfg.anchor.  Each stage
    warm-starts from (and anchors at) the previous solution; after the
    schedule, extra stages at the final eps are run until the limit
    fixed-point residual stops improving or drops below tolerance.  A
    schedule that ends above tolerance yields converged=False, not an
    error.  Newton's pairs go to one forked `_Evaluator`, closed on return
    and killed on any error; forward_solves counts the sweeps read.
    """
    ValidationError.check(lhat_errors(pcfg, x0))
    ctrl = anchor = pcfg.anchor
    notes = []
    history = []
    ev = _Evaluator(pcfg, params, x0, grid)

    def run_stage(eps, anchor, ctrl, tol=TOL_FP):
        st = _solve_stage(ev, eps, anchor, ctrl, tol)
        if not st.converged:
            notes.append(f"stage eps={eps:g} stalled at residual {st.fp_residual:.3e}")
        history.append(st)
        return st

    with ev.child:  # closed when the stages are done, killed on an error
        st = None
        for i, eps in enumerate(pcfg.eps_schedule):
            last = i == len(pcfg.eps_schedule) - 1
            # warm-up stages only seed the next one
            st = run_stage(eps, anchor, ctrl, tol=TOL_FP if last else 1e-6)
            ctrl = st.controls
            anchor = ctrl

        eps_min = pcfg.eps_schedule[-1]
        limit_res = _limit_residual(st.trajectory, st.adjoint, ctrl, pcfg.alpha1)
        recent = [ctrl]
        no_progress = 0
        for rnd in range(POLISH_MAX):
            if limit_res <= TOL_RESIDUAL:
                break
            st = run_stage(eps_min, anchor, ctrl)
            new_res = _limit_residual(st.trajectory, st.adjoint, st.controls, pcfg.alpha1)
            no_progress = no_progress + 1 if new_res >= limit_res * (1 - 1e-12) else 0
            limit_res = new_res
            if st.controls.dist(ctrl) == 0.0 or no_progress >= 5:
                ctrl = st.controls
                break
            ctrl = st.controls
            recent.append(ctrl)
            # the anchor chain is a contractive fixed point; Aitken extrapolation
            # of the last three anchors shortcuts its geometric tail
            nxt = ctrl
            if len(recent) >= 3 and rnd % 3 == 2:
                l0, l1, l2 = recent[-3], recent[-2], recent[-1]
                acc = []
                for a, b, c in ((l0.lA, l1.lA, l2.lA), (l0.lI, l1.lI, l2.lI)):
                    den = (c - b) - (b - a)
                    acc.append(c - (c - b) ** 2 / den if abs(den) > 1e-15 else c)
                nxt = ControlPair(_clamp01(acc[0]), _clamp01(acc[1]))
            anchor = nxt
            ctrl = nxt

    traj, adj = st.trajectory, st.adjoint
    viol = constraint_violation(traj, pcfg.Lhat)
    nu = penalty_weight(pcfg.alpha2, eps_min) * np.maximum(traj.L - pcfg.Lhat, 0.0)
    pens = [s.penalty_integral for s in history[:len(pcfg.eps_schedule)]]
    for a, b in zip(pens, pens[1:]):
        if b > 1.1 * a + 1e-300:
            notes.append("penalty integral rose by more than 10% between stages")
            break
    _tloc_note(params, pcfg, float(traj.L[0]), traj, ctrl, grid, notes)
    converged = (viol <= TOL_CONSTRAINT and limit_res <= TOL_RESIDUAL
                 and st.converged)
    cost = _cost_p_from(traj, ctrl, pcfg.alpha0, pcfg.alpha1)
    return ControlResult(ctrl, traj, adj, cost, viol, nu, history, limit_res,
                         converged, notes, sum(s.forward_solves for s in history))


def _tloc_note(params, pcfg, L0, traj, ctrl, grid, notes):
    # Horizon diagnostic only; the bound is sufficient, not necessary.
    if not 0.0 < L0 < pcfg.Lhat:
        return
    try:
        y1 = 0.5 * L0
        rho = 0.5 * ((L0 - y1) + (pcfg.Lhat - y1))
        _, _, tloc = compute_t_loc(params.with_controls(ctrl.lA, ctrl.lI), traj, y1, rho,
                                   pcfg.Lhat, pcfg.alpha0)
        if grid.T >= tloc:
            notes.append(f"horizon T={grid.T:g} is not below the local bound "
                         f"T_loc={tloc:g}; limit conditions are proven only below it")
    except (ValidationError, OverflowError):
        # rounding can leave y1 or rho outside their open intervals, and
        # e^(G t) overflows the bound's root search once G t passes ~709
        pass
