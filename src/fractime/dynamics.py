"""Classical and fractional solvers for natural canonical dynamics.

The classical route integrates dx/dt = p/m, dp/dt = -U'(x) with a
symplectic Verlet step.  The fractional route replaces d/dt by the left
Caputo derivative and solves the resulting memory equations with an
Adams-Bashforth-Moulton predictor-corrector (fractional Adams scheme, one
corrector sweep), whose history sums are blocked FFT convolutions; runs
are deterministic and byte-identical on rerun.  A fractional right-hand
side rhs(t, y) may return the same buffer on every call, overwritten in
place: the solver copies each result before it calls rhs again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .fracops import FracOrder, _history_sums, _pt_corrector_weights
from .grids import TimeGrid, Trajectory
from .systems import NaturalSystem

__all__ = [
    "FdeSolution",
    "solve_classical",
    "solve_fde",
    "solve_fde_system",
]

_DIVERGENCE_CAP = 1e12
# steps per leaf of the blocked fractional Adams history
_FDE_LEAF = 128


@dataclass(frozen=True)
class FdeSolution:
    """Solution of the Caputo canonical system on a grid.

    y stacks position over momentum: columns 0..d-1 hold x, d..2d-1 hold p.
    The initial node equals y0 exactly; no fractional initial data is
    needed because the Caputo formulation sees only y(a).
    """

    grid: TimeGrid
    y: Trajectory
    alpha: FracOrder

    @property
    def dim(self) -> int:
        return self.y.dim // 2

    def x_part(self) -> Trajectory:
        return Trajectory(self.grid, self.y.values[:, : self.dim].copy())

    def p_part(self) -> Trajectory:
        return Trajectory(self.grid, self.y.values[:, self.dim :].copy())


def solve_classical(H: NaturalSystem, y0, grid: TimeGrid) -> Trajectory:
    """Integrate the canonical equations with the Verlet step.

    Raises:
        DivergenceError: a non-finite state or |y| beyond 1e12.
    """
    y0 = np.asarray(y0, dtype=float)
    d = y0.size // 2
    return Trajectory(grid, _verlet(H, y0[:d].copy(), y0[d:].copy(), grid))


def _check_state(y: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > _DIVERGENCE_CAP:
        raise DivergenceError(f"solution diverged near t = {t:.6g}")


def _verlet(H: NaturalSystem, x, p, grid: TimeGrid) -> np.ndarray:
    n, h, m = grid.n, grid.h, H.mass
    half = 0.5 * h
    du = H.potential_grad
    values = np.empty((n + 1, 2 * x.size))
    values[0] = np.concatenate([x, p])
    xs, ps = values[:, : x.size], values[:, x.size :]
    # the force at the end of one step starts the next
    force = np.asarray(du(x), dtype=float)
    for k in range(1, n + 1):
        p_half = p - half * force
        x = x + h * p_half / m
        force = np.asarray(du(x), dtype=float)
        p = p_half - half * force
        xs[k] = x
        ps[k] = p
        if k % 64 == 1:
            _check_state(values[k], grid.a + k * h)
    _check_state(values[-1], grid.b)
    return values


def solve_fde_system(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0,
    grid: TimeGrid,
    order: FracOrder,
) -> Trajectory:
    """Solve D^a y = rhs(t, y), y(a) = y0, with the fractional Adams scheme.

    Predictor uses product-rectangle weights, the single corrector sweep
    uses product-trapezoid weights; accuracy O(h^{1+a}) for smooth
    right-hand sides.  The history sums split the steps in halves
    (Hairer-Lubich-Schlichte): leaves of _FDE_LEAF steps sum their near
    history directly, and each solved left half adds its contribution to
    the right half with one FFT convolution per kernel, O(n log^2 n) in
    all.  Results are deterministic, byte-identical on rerun, and match
    the direct quadratic sums to roundoff.

    rhs(t, y) returns the m values of the right-hand side as an array, a
    sequence or, for m = 1, a scalar.  It may return one buffer that it
    overwrites on every call: the solver copies each result into its own
    history before the next call.

    Raises:
        DivergenceError: state magnitude beyond 1e12 or non-finite.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    n, h, alpha = grid.n, grid.h, order.alpha
    t = grid.nodes()
    m = y0.size
    h1 = h**alpha / math.gamma(alpha + 1.0)
    h2 = h**alpha / math.gamma(alpha + 2.0)
    idx = np.arange(n + 2, dtype=float)
    bw = idx**alpha - np.maximum(idx - 1.0, 0.0) ** alpha
    cw = _pt_corrector_weights(alpha, n + 1)
    # weight of f_0 in the corrector of step k + 1, in scalar pow: numpy's
    # vectorised power can differ in the last bit, which the cancellation
    # between the two terms magnifies
    a0 = np.array(
        [k ** (alpha + 1.0) - (k - alpha) * (k + 1.0) ** alpha for k in range(n)]
    )
    y = np.empty((n + 1, m))
    fhist = np.empty((n + 1, m))
    # far history of step i: predictor sum over bw[i - j] f_j, corrector
    # sum over cw[i - j] f_j for j >= 1; filled in as halves are solved
    pred_hist = np.zeros_like(y)
    corr_hist = np.zeros_like(y)
    y[0] = y0
    fhist[0] = rhs(t[0], y0)
    # bw[1 : k + 1][::-1] is bw_rev[n + 1 - k : n + 1] and cw[1 : k + 1][::-1]
    # is cw_rev[n - k : n]; the near sums keep these negative-stride views,
    # since a contiguous reversed copy sends @ down a path that sums in
    # another order
    bw_rev, cw_rev = bw[::-1], cw[::-1]

    def leaf(lo: int, hi: int) -> None:
        start = max(lo, 1)
        # the corrector sums ((a0 f0 + corr_hist) + near) + fpred; the far
        # part is complete once the leaf starts, so it is formed for all rows
        far = a0[start - 1 : hi - 1, None] * fhist[0] + corr_hist[start:hi]
        for i in range(start, hi):
            pred = y0 + h1 * (pred_hist[i] + bw_rev[n + 1 - i + lo : n + 1] @ fhist[lo:i])
            fpred = rhs(t[i], pred)
            near = cw_rev[n - i + start : n] @ fhist[start:i]
            y[i] = y0 + h2 * ((far[i - start] + near) + fpred)
            fhist[i] = rhs(t[i], y[i])
            # a NaN compares False, so this also catches non-finite states
            if not all(abs(v) <= _DIVERGENCE_CAP for v in y[i].tolist()):
                raise DivergenceError(f"fractional solution diverged near t = {t[i]:.6g}")

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _FDE_LEAF:
            leaf(lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        pred_hist[mid:hi] += _history_sums(fhist[lo:mid], bw[: hi - lo])[mid - lo :]
        start = max(lo, 1)
        corr_hist[mid:hi] += _history_sums(fhist[start:mid], cw[: hi - start])[mid - start :]
        solve(mid, hi)

    solve(0, n + 1)
    return Trajectory(grid, y)


def solve_fde(H: NaturalSystem, y0, grid: TimeGrid, order: FracOrder) -> FdeSolution:
    """Solve the Caputo canonical system D^a x = p/m, D^a p = -U'(x)."""
    y0 = np.asarray(y0, dtype=float).ravel()
    d = y0.size // 2
    m, du = H.mass, H.potential_grad
    out = np.empty_like(y0)
    dx, dp = out[:d], out[d:]

    def rhs(t, y):
        np.divide(y[d:], m, out=dx)
        np.negative(du(y[:d]), out=dp)
        return out

    y = solve_fde_system(rhs, y0, grid, order)
    return FdeSolution(grid=grid, y=y, alpha=order)
