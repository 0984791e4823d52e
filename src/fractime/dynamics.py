"""Classical and fractional solvers for natural canonical dynamics.

The classical route integrates dx/dt = p/m, dp/dt = -U'(x), one degree of
freedom, with a symplectic Verlet step.  The fractional route replaces
d/dt by the left Caputo derivative and solves the resulting memory
equations with an Adams-Bashforth-Moulton predictor-corrector (fractional
Adams scheme, one corrector sweep), whose history sums are blocked FFT
convolutions; runs are deterministic and byte-identical on rerun.  The
weights and history sums are the fracops kernels; both solvers step on
Python floats, and only the history sums run in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, OutOfRangeError
from .fracops import FracOrder, _history_sums, _power_increments, _pt_weights
from .grids import TimeGrid, Trajectory
from .systems import NaturalSystem

__all__ = [
    "FdeSolution",
    "solve_classical",
    "solve_fde",
    "solve_fde_system",
]

# a state diverges once |y| passes this many times the data's scale,
# max(1, max |y0|), or turns non-finite
_DIVERGENCE_CAP = 1e12
# steps per leaf of the blocked fractional Adams history
_FDE_LEAF = 128


@dataclass(frozen=True)
class FdeSolution:
    """Solution of the Caputo canonical system on a grid.

    y stacks position over momentum: column 0 holds x, column 1 holds p.
    The initial node equals y0 exactly; no fractional initial data is
    needed because the Caputo formulation sees only y(a).
    """

    grid: TimeGrid
    y: Trajectory
    alpha: FracOrder

    def x_part(self) -> Trajectory:
        return Trajectory(self.grid, self.y.values[:, :1].copy())

    def p_part(self) -> Trajectory:
        return Trajectory(self.grid, self.y.values[:, 1:].copy())


def _phase_point(y0) -> list:
    """y0 as the two floats [x, p]."""
    y = np.asarray(y0, dtype=float).ravel().tolist()
    if len(y) != 2:
        raise OutOfRangeError(f"y0 must stack x and p (2 values), got {len(y)}")
    return y


def _check_state(y, t: float, scale: float, what: str = "solution") -> None:
    """Refuse floats y that are non-finite or beyond 1e12 times the scale."""
    # a NaN compares False, so this also catches non-finite states; |y| is
    # divided by the scale, as 1e12 times it may overflow to inf
    if not all(abs(v) / scale <= _DIVERGENCE_CAP for v in y):
        raise DivergenceError(f"{what} diverged near t = {t:.6g}")


def solve_classical(H: NaturalSystem, y0, grid: TimeGrid) -> Trajectory:
    """Integrate the canonical equations with the Verlet step.

    Raises:
        OutOfRangeError: y0 is not two values.
        DivergenceError: a non-finite state or |y| beyond 1e12 max(1, max |y0|).
    """
    return Trajectory(grid, _verlet(H, *_phase_point(y0), grid))


def _verlet(H: NaturalSystem, x: float, p: float, grid: TimeGrid) -> np.ndarray:
    n, h, m = grid.n, grid.h, H.mass
    half = 0.5 * h
    du = H.potential_grad
    scale = max(1.0, abs(x), abs(p))
    out = np.empty((n + 1, 2))
    # a store through a flat memoryview costs half a numpy row assignment
    flat = memoryview(out.reshape(-1))
    flat[0], flat[1] = x, p
    # the force at the end of one step starts the next
    force = du(x)
    for k in range(1, n + 1):
        p_half = p - half * force
        x = x + h * p_half / m
        force = du(x)
        p = p_half - half * force
        flat[2 * k], flat[2 * k + 1] = x, p
        if k % 64 == 1:
            _check_state((x, p), grid.a + k * h, scale)
    _check_state((x, p), grid.b, scale)
    return out


def solve_fde_system(
    rhs: Callable[[float, list], Sequence[float]],
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

    rhs(t, y) receives the m components of the state as a list of floats
    and returns its m values as a sequence (a list, a tuple or an array).
    It may return one buffer that it overwrites on every call: the solver
    reads each result before the next call.

    Raises:
        OutOfRangeError: the first rhs result is not a sequence of m values.
        DivergenceError: state magnitude beyond 1e12 max(1, max |y0|), or
            non-finite.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    scale = float(np.abs(y0).max(initial=1.0))
    n, h, alpha = grid.n, grid.h, order.alpha
    t = grid.nodes()
    m = y0.size
    h1 = h**alpha / math.gamma(alpha + 1.0)
    h2 = h**alpha / math.gamma(alpha + 2.0)
    bw = np.concatenate(([0.0], _power_increments(alpha, n + 1)))
    a0, cw = _pt_weights(alpha, n + 1)
    y = np.empty((n + 1, m))
    fhist = np.empty((n + 1, m))
    # far history of step i: predictor sum over bw[i - j] f_j, corrector
    # sum over cw[i - j] f_j for j >= 1; filled in as halves are solved
    pred_hist = np.zeros_like(y)
    corr_hist = np.zeros_like(y)
    y[0] = y0
    y0 = y0.tolist()
    f0 = rhs(float(t[0]), y0)
    if np.shape(f0) != (m,):  # the leaf's zip would drop extra values unseen
        raise OutOfRangeError(f"rhs must return m = {m} values, got shape {np.shape(f0)}")
    fhist[0] = f0
    # bw[1 : k + 1][::-1] is bw_rev[n + 1 - k : n + 1] and cw[1 : k + 1][::-1]
    # is cw_rev[n - k : n]; the near sums keep these negative-stride views,
    # since a contiguous reversed copy sends @ down a path that sums in
    # another order
    bw_rev, cw_rev = bw[::-1], cw[::-1]

    def leaf(lo: int, hi: int) -> None:
        start = max(lo, 1)
        # the corrector sums ((a0 f0 + corr_hist) + near) + fpred; the far
        # part is complete once the leaf starts, so it is formed for all
        # rows; each step's state is formed on floats, row by row
        far = (a0[start - 1 : hi - 1, None] * fhist[0] + corr_hist[start:hi]).tolist()
        pred_far = pred_hist[start:hi].tolist()
        for i, ti, corr, pred_i in zip(range(start, hi), t[start:hi].tolist(), far, pred_far):
            near_p = (bw_rev[n + 1 - i + lo : n + 1] @ fhist[lo:i]).tolist()
            pred = [u + h1 * (f + g) for u, f, g in zip(y0, pred_i, near_p)]
            fpred = rhs(ti, pred)
            near_c = (cw_rev[n - i + start : n] @ fhist[start:i]).tolist()
            yi = [u + h2 * ((f + g) + e) for u, f, g, e in zip(y0, corr, near_c, fpred)]
            y[i] = yi
            fhist[i] = rhs(ti, yi)
            _check_state(yi, ti, scale, "fractional solution")

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
    m, du = H.mass, H.potential_grad

    def rhs(t, y):
        x, p = y
        return p / m, -du(x)

    # an overflowing force becomes an inf, which the divergence rule refuses
    with np.errstate(over="ignore", invalid="ignore"):
        y = solve_fde_system(rhs, _phase_point(y0), grid, order)
    return FdeSolution(grid=grid, y=y, alpha=order)
