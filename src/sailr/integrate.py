"""Fixed-step RK4 integration on a shared uniform grid.

Forward state, tangent and adjoint sweeps all run on one grid so that the
discrete integration-by-parts identities hold to quadrature order without
interpolation noise.  No adaptivity by design.

Linear sweeps (y' = J(t) y + s(t), J and s fixed by a stored trajectory)
are recurrences y_{k+1} = P_k y_k + c_k: `rk4_step_maps` builds the exact
RK4 step maps, `linear_sweep` composes them by a doubling scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, GridMismatchError, ValidationError

_BIG = 1e100  # magnitude treated as blow-up (also catches NaN via comparison)

#: steps per block of every sweep: `linear_sweep` holds the step maps of one
#: block at a time, and the forward solve `model.simulate` converts the
#: coefficient samples of one block at a time, so a sweep's memory beyond its
#: output is O(SWEEP_BLOCK)
SWEEP_BLOCK = 512

#: most RK4 steps one grid may take (grid.M, and each segment of a stability run)
MAX_STEPS = 10**7


@dataclass(frozen=True)
class Grid:
    """Uniform time grid t0 < T with 1 <= M <= MAX_STEPS steps of size h = (T - t0)/M."""

    t0: float
    T: float
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValidationError("M must be >= 1")
        if self.M > MAX_STEPS:
            raise ValidationError(f"M must be <= {MAX_STEPS}")
        if not self.T > self.t0:
            raise ValidationError("T must exceed t0")

    @property
    def h(self) -> float:
        return (self.T - self.t0) / self.M

    def points(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.M + 1)

    def half_points(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Stage times of steps lo..hi-1 (all M steps by default): grid
        points plus interval midpoints, the samples 2 lo..2 hi (2M+1 values
        for the whole grid).

        Sample i is t0 + i (T - t0)/(2M) and the last is T exactly, as
        np.linspace computes them, so a block's stage times are the same
        bits as that slice of the whole grid's.
        """
        hi = self.M if hi is None else hi
        t = np.arange(2 * lo, 2 * hi + 1, dtype=float)
        t *= (self.T - self.t0) / (2 * self.M)
        t += self.t0
        if hi == self.M:
            t[-1] = self.T
        return t


@dataclass(frozen=True, eq=False)
class _GridSeries:
    """Shared behaviour for grid-aligned sample sequences (read-only states)."""

    grid: Grid
    states: np.ndarray

    def __post_init__(self):
        states = np.ascontiguousarray(self.states, dtype=float)
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        if states.shape[0] != self.grid.M + 1:
            raise ValidationError("states length must be grid.M + 1")

    @property
    def final(self) -> np.ndarray:
        return self.states[-1].copy()

    def _col(self, j: int) -> np.ndarray:
        return self.states[:, j]


class Trajectory(_GridSeries):
    """States sampled on a grid; columns are (S, A, I, L, R) for the model."""

    S = property(lambda self: self._col(0))
    A = property(lambda self: self._col(1))
    I = property(lambda self: self._col(2))
    L = property(lambda self: self._col(3))
    R = property(lambda self: self._col(4))


def same_grid(*series) -> Grid:
    g = series[0].grid
    for s in series[1:]:
        if s.grid != g:
            raise GridMismatchError(f"grids differ: {s.grid} vs {g}")
    return g


def trapezoid(y, h: float) -> float:
    """Composite trapezoid rule for samples y on a uniform grid of spacing h."""
    y = np.asarray(y, dtype=float)
    return float(h * (y.sum() - 0.5 * (y[0] + y[-1])))


def integrate_forward(f, x0, grid: Grid) -> Trajectory:
    """Classical RK4 for x' = f(t, x) from x0 at grid.t0; M+1 samples.

    The first sample equals x0 exactly.  Raises BlowupError as
    `check_blowup` does, before storing the bad step.
    """
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((grid.M + 1, x.size))
    out[0] = x
    h = grid.h
    h2 = 0.5 * h
    for k in range(grid.M):
        t = grid.t0 + k * h
        k1 = f(t, x)
        k2 = f(t + h2, x + h2 * k1)
        k3 = f(t + h2, x + h2 * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        check_blowup(np.sum(x), k)
        out[k + 1] = x
    return Trajectory(grid, out)


def check_blowup(sums, lo: int = 0):
    """Raise BlowupError at the first step whose state sum is NaN or beyond
    _BIG in magnitude; sums are those of the steps lo+1, lo+2, ... in order."""
    bad = np.flatnonzero(~(np.abs(sums) < _BIG))
    if bad.size:
        raise BlowupError(lo + int(bad[0]) + 1)


def half_samples(values: np.ndarray) -> np.ndarray:
    """Expand grid samples (M+1, ...) to stage samples (2M+1, ...) by midpoint averaging."""
    values = np.asarray(values, dtype=float)
    out = np.empty((2 * len(values) - 1,) + values.shape[1:])
    out[0::2] = values
    out[1::2] = 0.5 * (values[:-1] + values[1:])
    return out


def rk4_step_maps(G, h: float) -> np.ndarray:
    """Increments P - I of the exact RK4 step maps of y' = G(t) y, for a block of steps.

    G[r], shape (B, N, N), is the system matrix at RK4 stage r = 0..3 of
    each of B steps; P = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = G1,
    K2 = G2 (I + h/2 K1), K3 = G3 (I + h/2 K2), K4 = G4 (I + h K3).  An
    affine system y' = J y + s is the linear one [y; 1]' = [[J, s], [0, 0]]
    [y; 1].  P - I is returned so the small increment is not rounded
    against 1.
    """
    K = G[0]
    acc = K.copy()
    Y, K_next = np.empty_like(acc), np.empty_like(acc)
    n = acc.shape[-1]
    diag = Y.reshape(-1, n * n)[:, ::n + 1]
    for Gr, a, w in zip(G[1:], (0.5, 0.5, 1.0), (2.0, 2.0, 1.0)):
        np.multiply(K, a * h, out=Y)
        diag += 1.0  # Y = I + (a h) K
        K = np.matmul(Gr, Y, out=K_next)
        acc += np.multiply(K, w, out=Y)
    acc *= h / 6.0
    return acc


def _increment_scan(D: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """States y_0 = y0 (N, K), ..., y_B, shape (B + 1, N, K), of y_{k+1} = y_k + D_k y_k.

    Doubling: compose neighbouring pairs of steps, solve that half-length
    problem for the states after odd steps, then step once from those to the
    rest.  O(B) work in O(log B) array operations.
    """
    ys = np.empty((len(D) + 1,) + y0.shape)
    ys[0] = y0
    if len(D):
        first, second = D[0:-1:2], D[1::2]
        # (I + D2)(I + D1) = I + (D2 D1 + D1 + D2)
        pair = second @ first
        pair += first
        pair += second
        ys[2::2] = _increment_scan(pair, y0)[1:]
        prev = ys[0:-1:2]
        odd = np.matmul(D[0::2], prev, out=ys[1::2])
        odd += prev
    return ys


def linear_sweep(step_maps, y0, M: int, block_done=None) -> np.ndarray:
    """States y_0..y_M, shape (M + 1,) + y0.shape, of y_{k+1} = P_k y_k from
    one state y0 (N,) or K states (N, K) that share the step maps.

    step_maps(lo, hi) gives the increments P_k - I of steps lo..hi-1, shape
    (hi - lo, N, N), SWEEP_BLOCK steps at a time; `_increment_scan` composes
    each block from the last state of the one before.  block_done(lo, hi,
    ys), if given, is called once each block's states are stored, with the
    view ys of y_lo..y_hi, so that a caller can reduce what it built for the
    block before the next one.  Raises BlowupError as `check_blowup` does.
    """
    y0 = np.asarray(y0, dtype=float)
    cols = y0.reshape(len(y0), -1)
    out = np.empty((M + 1,) + cols.shape)
    out[0] = cols
    states = out.reshape((M + 1,) + y0.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as BlowupError
        for lo in range(0, M, SWEEP_BLOCK):
            hi = min(lo + SWEEP_BLOCK, M)
            ys = _increment_scan(step_maps(lo, hi), out[lo])[1:]
            check_blowup(ys.sum(axis=(1, 2)), lo)
            out[lo + 1:hi + 1] = ys
            if block_done is not None:
                block_done(lo, hi, states[lo:hi + 1])
    return states
