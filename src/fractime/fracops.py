"""Discrete fractional operators on uniform grids.

Left and right Caputo derivatives via the L1 scheme, left and right
Riemann-Liouville integrals via product-trapezoid quadrature, the
integration-by-parts residual that ties them together, and the fractional
embedding of a differential operator (d/dt replaced by the left Caputo
derivative); the fractional Adams solver in dynamics reads its weights and
history sums from here, so every fractional kernel is built in this module.

Conventions: the left derivative is 0 at the first node and the right
derivative is 0 at the last node, where the defining integrals are empty.
Right-sided operators are evaluated by reflecting the trajectory, applying
the left operator, and reflecting back; this equality is exact for the
discrete schemes, so the reflection property holds bitwise.  All operators
act componentwise through one FFT convolution primitive, so results are
deterministic, byte-identical on rerun, do not depend on how many columns
a caller stacks (unless their sizes lie ~1e300 apart), and match direct
summation to roundoff.  A constant has zero differences, so derivatives 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridError, OutOfRangeError
from .grids import Trajectory, trapezoid

__all__ = [
    "FracOrder",
    "caputo_left",
    "caputo_right",
    "rl_integral_left",
    "rl_integral_right",
    "ibp_residual",
    "embed_operator",
]


@dataclass(frozen=True)
class FracOrder:
    """Order of the fractional operators, restricted to 0 < alpha < 1."""

    alpha: float

    def __post_init__(self) -> None:
        a = self.alpha
        if not (isinstance(a, (int, float)) and math.isfinite(a) and 0.0 < a < 1.0):
            raise OutOfRangeError(f"alpha must lie in (0,1), got {a}")


def _power_increments(p: float, n: int) -> np.ndarray:
    """(j+1)^p - j^p, j < n: L1 weights at p = 1 - alpha, rectangle ones at alpha."""
    j = np.arange(n, dtype=float)
    return (j + 1.0) ** p - j**p


def _pt_weights(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoid weights (a0, c) on n steps: a0[k] of the first value
    up to node k + 1, c[j] of the value j steps back.  a0 is formed in scalar
    pow: a last-bit change of numpy's power would grow in its cancellation."""
    a0 = np.array([k ** (alpha + 1.0) - (k - alpha) * (k + 1.0) ** alpha for k in range(n)])
    m = np.arange(1, n, dtype=float)
    c = (m + 1.0) ** (alpha + 1.0) - 2.0 * m ** (alpha + 1.0) + (m - 1.0) ** (alpha + 1.0)
    return a0, np.concatenate(([1.0], c))


def _history_sums(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per column c, the history sums sum_{j<=i} w_j c_{i-j} for i < len(w).

    cols has shape (k, d) with k <= len(w); rows past k count as zero, so
    a block of k values gives its lagged contribution to len(w) targets.
    One zero-padded real FFT over all columns at once, O(n log n), of the
    columns times 2^-e, max|c| in [2^(e-1), 2^e), then times 2^e: exact (bar
    columns ~1e300 below the largest), so finite wherever the sums are.
    It departs from direct summation by roundoff of order eps sum|w| max|c|.
    """
    n = len(w)
    size = 1 << (n + len(cols) - 2).bit_length()
    e = math.frexp(max(cols.max(), -cols.min()))[1]
    spec = np.zeros((size, cols.shape[1]))
    np.ldexp(cols, -e, out=spec[: len(cols)])
    spec = np.fft.rfft(spec, axis=0)
    spec *= np.fft.rfft(w, size)[:, None]
    sums = np.fft.irfft(spec, size, axis=0)[:n]
    return np.ldexp(sums, e, out=sums)


def caputo_left(x: Trajectory, order: FracOrder) -> Trajectory:
    """Left Caputo derivative, L1 scheme, componentwise.

    D^a x(t_i) = h^{-a}/Gamma(2-a) * sum_j w_j (x_{i-j} - x_{i-j-1}) with
    w_j = (j+1)^{1-a} - j^{1-a}.  Exact on constants and piecewise-linear
    data; O(h^{2-a}) on smooth trajectories.  Node t_0 maps to 0.  A step
    so small that h^{-a} overflows a double raises OutOfRangeError.
    """
    grid, alpha = x.grid, order.alpha
    try:
        scale = grid.h ** (-alpha) / math.gamma(2.0 - alpha)
    except (OverflowError, ZeroDivisionError):
        msg = f"step (b - a)/n = {grid.h:g} is too small for alpha = {alpha}: h^-alpha overflows"
        raise OutOfRangeError(msg) from None
    w = _power_increments(1.0 - alpha, grid.n)
    out = np.zeros_like(x.values)
    out[1:] = scale * _history_sums(np.diff(x.values, axis=0), w)
    return Trajectory(grid, out)


def _reflect(op, x: Trajectory, order: FracOrder) -> Trajectory:
    """op applied to x reversed in time, reversed back: the right-sided op."""
    rev = Trajectory(x.grid, x.values[::-1].copy())
    return Trajectory(x.grid, op(rev, order).values[::-1].copy())


def caputo_right(x: Trajectory, order: FracOrder) -> Trajectory:
    """Right Caputo derivative: reflection of caputo_left about the midpoint.

    Node t_n maps to 0.  Sign convention: the right derivative of b - t is
    positive, matching the kernel -(1/Gamma(1-a)) int_t^b (s-t)^{-a} x'(s) ds.
    """
    return _reflect(caputo_left, x, order)


def rl_integral_left(x: Trajectory, order: FracOrder) -> Trajectory:
    """Left Riemann-Liouville integral of order alpha, product-trapezoid.

    The weakly singular kernel (t - s)^{a-1}/Gamma(a) is integrated exactly
    against the piecewise-linear interpolant of x, so the rule is exact for
    linear trajectories and O(h^2) on smooth ones.
    """
    grid, alpha = x.grid, order.alpha
    scale = grid.h ** alpha / math.gamma(alpha + 2.0)
    a0, c = _pt_weights(alpha, grid.n)
    out = np.zeros_like(x.values)
    out[1:] = scale * (a0[:, None] * x.values[0] + _history_sums(x.values[1:], c))
    return Trajectory(grid, out)


def rl_integral_right(x: Trajectory, order: FracOrder) -> Trajectory:
    """Right Riemann-Liouville integral: reflection of rl_integral_left."""
    return _reflect(rl_integral_left, x, order)


def ibp_residual(f: Trajectory, g: Trajectory, order: FracOrder) -> float:
    """Defect of the fractional integration-by-parts identity.

    Returns |int (D^a_left f) g - int f (D^a_right g) - B| with
    B = g(b) (I^{1-a}_left f)(b) - f(a) (I^{1-a}_right g)(a), all pieces
    evaluated with this module's discrete operators and trapezoid
    quadrature.  Zero up to discretization error for any pair of smooth
    scalar trajectories.
    """
    f.same_grid(g)
    if f.dim != 1 or g.dim != 1:
        raise GridError("ibp_residual expects scalar trajectories")
    comp = FracOrder(1.0 - order.alpha)
    h = f.grid.h
    lhs = trapezoid(caputo_left(f, order).values[:, 0] * g.values[:, 0], h)
    rhs = trapezoid(f.values[:, 0] * caputo_right(g, order).values[:, 0], h)
    i_left_f = rl_integral_left(f, comp).values[-1, 0]
    i_right_g = rl_integral_right(g, comp).values[0, 0]
    boundary = g.values[-1, 0] * i_left_f - f.values[0, 0] * i_right_g
    return abs(lhs - rhs - boundary)


def embed_operator(operator: Callable, order: FracOrder) -> Callable[[Trajectory], Trajectory]:
    """Fractional embedding of a differential operator.

    operator(x, d) evaluates the classical operator on node values x, of
    shape (n+1, dim), with d the time derivative of node values.  The
    evaluator returned maps a Trajectory x to operator(x, d) with d the left
    Caputo derivative on x's grid: as alpha -> 1, the classical operator.
    """

    def evaluator(x: Trajectory) -> Trajectory:
        def d(values: np.ndarray) -> np.ndarray:
            return caputo_left(Trajectory(x.grid, values), order).values

        return Trajectory(x.grid, operator(x.values, d))

    return evaluator
