"""Classical and fractional solvers for natural canonical dynamics.

The classical route integrates dx/dt = p/m, dp/dt = -U'(x), one degree of
freedom, with a symplectic Verlet step.  The fractional route replaces
d/dt by the left Caputo derivative and solves the resulting memory
equations with an Adams-Bashforth-Moulton predictor-corrector (fractional
Adams scheme, one corrector sweep), whose history sums are blocked FFT
convolutions; runs are deterministic and byte-identical on rerun.  The
weights and history sums are the fracops kernels; both Adams leaves take
the near sums of both kernels from one small product per step.  Verlet and
solve_fde step on Python floats, solve_fde checking each leaf of steps
once; solve_fde_system steps numpy rows of any number of components and
checks every step, with the same bits.
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
# steps per leaf of the blocked fractional Adams history: a leaf sums its
# near history directly, one product per step, and solve_fde checks its
# states for divergence once, when it is done
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


def _check_state(y, t: float, scale: float) -> None:
    """Refuse floats y that are non-finite or beyond 1e12 times the scale."""
    # a NaN compares False, so this also catches non-finite states; |y| is
    # divided by the scale, as 1e12 times it may overflow to inf
    if not all(abs(v) / scale <= _DIVERGENCE_CAP for v in y):
        raise DivergenceError(f"solution diverged near t = {t:.6g}")


def _check_rows(y: np.ndarray, t: np.ndarray, scale: float) -> None:
    """Refuse the first row of y that is non-finite or beyond 1e12 times the
    scale, naming its node in t."""
    ok = (np.abs(y) / scale <= _DIVERGENCE_CAP).all(axis=1)
    if not ok.all():
        raise DivergenceError(f"fractional solution diverged near t = {t[ok.argmin()]:.6g}")


def solve_classical(H: NaturalSystem, y0, grid: TimeGrid) -> Trajectory:
    """Integrate the canonical equations with the Verlet step.

    Raises:
        OutOfRangeError: y0 is not two values.
        DivergenceError: a non-finite state or |y| beyond 1e12 max(1, max |y0|).
    """
    return Trajectory(grid, _verlet(H, *_phase_point(y0), grid))


def _verlet(H: NaturalSystem, x0: float, p0: float, grid: TimeGrid) -> np.ndarray:
    """Verlet steps of the offsets u = x - x0 and v = p - p0, so that each
    step's increment is not rounded to the ulp of a large x0 or p0."""
    n, h, m = grid.n, grid.h, H.mass
    half = 0.5 * h
    du = H.potential_grad
    scale = max(1.0, abs(x0), abs(p0))
    out = np.empty((n + 1, 2))
    # a store through a flat memoryview costs half a numpy row assignment
    flat = memoryview(out.reshape(-1))
    flat[0], flat[1] = x0, p0
    u = v = 0.0
    # the force at the end of one step starts the next
    force = du(x0)
    for k in range(1, n + 1):
        v_half = v - half * force
        u = u + h * (p0 + v_half) / m
        x = x0 + u
        force = du(x)
        v = v_half - half * force
        p = p0 + v
        flat[2 * k], flat[2 * k + 1] = x, p
        if k % 64 == 1:
            _check_state((x, p), grid.a + k * h, scale)
    _check_state((x, p), grid.b, scale)
    return out


def _adams_history(fhist: np.ndarray, grid: TimeGrid, order: FracOrder):
    """The fractional Adams scheme's weights and blocked history sums.

    fhist[0] holds f(t_0, y_0); the caller fills fhist[i] = f(t_i, y_i) leaf
    by leaf.  Returns (h1, h2, w, far, leaves): w[0] and w[1] hold the
    predictor's and the corrector's weights reversed, so w[:, n - k] weighs
    the value k steps back; far[i, 0] and far[i, 1] hold their sums for step
    i over all values below its leaf; leaves yields each leaf (s, hi) in
    order, whose near sums over s <= j < i come from w[:, n - i + s : n]
    times fhist[s:i].  Once the caller has filled a left half, the next item
    adds its lagged sums to the right half's far history, one FFT
    convolution per kernel (Hairer-Lubich-Schlichte).
    """
    n, h, alpha = grid.n, grid.h, order.alpha
    h1 = h**alpha / math.gamma(alpha + 1.0)
    h2 = h**alpha / math.gamma(alpha + 2.0)
    w = np.empty((2, n + 1))
    bw, cw = w[0, ::-1], w[1, ::-1]
    bw[0] = 0.0
    bw[1:] = _power_increments(alpha, n)
    a0, c = _pt_weights(alpha, n + 1)
    cw[:] = c
    # f_0's terms seed the far history, so both near sums start at step 1
    far = np.empty((n + 1, 2, fhist.shape[1]))
    far[1:, 0] = bw[1:, None] * fhist[0]
    far[1:, 1] = a0[:n, None] * fhist[0]

    def leaves(lo: int, hi: int):
        s = max(lo, 1)
        if hi - lo <= _FDE_LEAF:
            yield s, hi
            return
        mid = (lo + hi) // 2
        yield from leaves(lo, mid)
        far[mid:hi, 0] += _history_sums(fhist[s:mid], bw[: hi - s])[mid - s :]
        far[mid:hi, 1] += _history_sums(fhist[s:mid], cw[: hi - s])[mid - s :]
        yield from leaves(mid, hi)

    return h1, h2, w, far, leaves(0, n + 1)


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
    history directly, both kernels in one product per step, and each
    solved left half adds its contribution to the right half with one FFT
    convolution per kernel, O(n log^2 n) in all.  Results are
    deterministic, byte-identical on rerun, and match the direct quadratic
    sums to roundoff.

    rhs(t, y) receives the state's m components as a list of floats and
    returns m values as a list, tuple or array, which may be one buffer it
    overwrites per call.  Steps run on numpy rows, which round as Python
    floats do, and each step's state is checked before the next starts.

    Raises:
        OutOfRangeError: the first rhs result is not a sequence of m values.
        DivergenceError: state magnitude beyond 1e12 max(1, max |y0|), or
            non-finite.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    scale = float(np.abs(y0).max(initial=1.0))
    n, m, t = grid.n, y0.size, grid.nodes()
    y = np.empty((n + 1, m))
    fhist = np.empty((n + 1, m))
    y[0] = y0
    f0 = rhs(float(t[0]), y0.tolist())
    if np.shape(f0) != (m,):  # a row would broadcast one value unseen
        raise OutOfRangeError(f"rhs must return m = {m} values, got shape {np.shape(f0)}")
    fhist[0] = f0
    h1, h2, w, far, leaves = _adams_history(fhist, grid, order)
    # an overflow becomes an inf, which the divergence rule refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for s, hi in leaves:
            for i, ti in zip(range(s, hi), t[s:hi].tolist()):
                pred_near, corr_near = w[:, n - i + s : n].dot(fhist[s:i])
                pred = y0 + h1 * (far[i, 0] + pred_near)
                y[i] = y0 + h2 * ((far[i, 1] + corr_near) + rhs(ti, pred.tolist()))
                fhist[i] = rhs(ti, y[i].tolist())
                _check_rows(y[i : i + 1], t[i : i + 1], scale)
    return Trajectory(grid, y)


def solve_fde(H: NaturalSystem, y0, grid: TimeGrid, order: FracOrder) -> FdeSolution:
    """Solve the Caputo canonical system D^a x = p/m, D^a p = -U'(x).

    The fractional Adams scheme of solve_fde_system on the canonical
    right-hand side, with the same bits, stepped on the two floats x and
    p.  Each leaf's states are checked once it is done, naming the first
    that diverged, so U' must take non-finite floats, as a product does.

    Raises:
        OutOfRangeError: y0 is not two values.
        DivergenceError: a non-finite state or |y| beyond 1e12 max(1, max |y0|).
    """
    x0, p0 = _phase_point(y0)
    m, du = H.mass, H.potential_grad
    scale = max(1.0, abs(x0), abs(p0))
    n, t = grid.n, grid.nodes()
    y = np.empty((n + 1, 2))
    fhist = np.empty((n + 1, 2))
    # stores through flat memoryviews cost half a numpy row assignment
    ys, fs = memoryview(y.reshape(-1)), memoryview(fhist.reshape(-1))
    # an overflowing force becomes an inf, which the divergence rule refuses
    with np.errstate(over="ignore", invalid="ignore"):
        ys[0], ys[1] = x0, p0
        fs[0], fs[1] = p0 / m, -du(x0)
        h1, h2, w, far, leaves = _adams_history(fhist, grid, order)
        for s, hi in leaves:
            # far sums f and near sums a of the predictor (xp, pp), g and b
            # of the corrector, each an (x, p) pair
            for i, ((fx, fp), (gx, gp)) in zip(range(s, hi), far[s:hi].tolist()):
                (ax, ap), (bx, bp) = w[:, n - i + s : n].dot(fhist[s:i]).tolist()
                xp = x0 + h1 * (fx + ax)
                pp = p0 + h1 * (fp + ap)
                x = x0 + h2 * ((gx + bx) + pp / m)
                p = p0 + h2 * ((gp + bp) + -du(xp))
                ys[2 * i], ys[2 * i + 1] = x, p
                fs[2 * i], fs[2 * i + 1] = p / m, -du(x)
            _check_rows(y[s:hi], t[s:hi], scale)
    return FdeSolution(grid=grid, y=Trajectory(grid, y), alpha=order)
