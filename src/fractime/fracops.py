"""Discrete fractional operators on uniform grids.

Left and right Caputo derivatives via the L1 scheme, left and right
Riemann-Liouville integrals via product-trapezoid quadrature, the
integration-by-parts residual that ties them together, and the fractional
embedding of first-order differential operators, each given as a tuple of
terms (time derivative replaced by the left Caputo derivative).

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

from .errors import GridError, OutOfRangeError, UnsupportedOperatorError
from .grids import Trajectory, trapezoid

__all__ = [
    "FracOrder",
    "OperatorTerm",
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


def _l1_weights(alpha: float, n: int) -> np.ndarray:
    j = np.arange(n, dtype=float)
    return (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)


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
    data; O(h^{2-a}) on smooth trajectories.  Node t_0 maps to 0.
    """
    grid = x.grid
    n = grid.n
    w = _l1_weights(order.alpha, n)
    scale = grid.h ** (-order.alpha) / math.gamma(2.0 - order.alpha)
    out = np.zeros_like(x.values)
    out[1:] = scale * _history_sums(np.diff(x.values, axis=0), w)
    return Trajectory(grid, out)


def caputo_right(x: Trajectory, order: FracOrder) -> Trajectory:
    """Right Caputo derivative: reflection of caputo_left about the midpoint.

    Node t_n maps to 0.  Sign convention: the right derivative of b - t is
    positive, matching the kernel -(1/Gamma(1-a)) int_t^b (s-t)^{-a} x'(s) ds.
    """
    rev = Trajectory(x.grid, x.values[::-1].copy())
    return Trajectory(x.grid, caputo_left(rev, order).values[::-1].copy())


def _pt_corrector_weights(alpha: float, n: int) -> np.ndarray:
    m = np.arange(1, n, dtype=float)
    c = (m + 1.0) ** (alpha + 1.0) - 2.0 * m ** (alpha + 1.0) + (m - 1.0) ** (alpha + 1.0)
    return np.concatenate(([1.0], c))


def rl_integral_left(x: Trajectory, order: FracOrder) -> Trajectory:
    """Left Riemann-Liouville integral of order alpha, product-trapezoid.

    The weakly singular kernel (t - s)^{a-1}/Gamma(a) is integrated exactly
    against the piecewise-linear interpolant of x, so the rule is exact for
    linear trajectories and O(h^2) on smooth ones.
    """
    alpha = order.alpha
    grid = x.grid
    n = grid.n
    scale = grid.h ** alpha / math.gamma(alpha + 2.0)
    i = np.arange(1, n + 1, dtype=float)
    a0 = (i - 1.0) ** (alpha + 1.0) - (i - 1.0 - alpha) * i ** alpha
    c = _pt_corrector_weights(alpha, n)
    out = np.zeros_like(x.values)
    out[1:] = scale * (a0[:, None] * x.values[0] + _history_sums(x.values[1:], c))
    return Trajectory(grid, out)


def rl_integral_right(x: Trajectory, order: FracOrder) -> Trajectory:
    """Right Riemann-Liouville integral: reflection of rl_integral_left."""
    rev = Trajectory(x.grid, x.values[::-1].copy())
    return Trajectory(x.grid, rl_integral_left(rev, order).values[::-1].copy())


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


# Maps receive node-aligned arrays: x and v of shape (n+1, d) and t of
# shape (n+1,), and return an array broadcastable to (n+1, d).
PhaseMap = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OperatorTerm:
    """One term f * (d/dt)^power g of a differential operator."""

    factor: PhaseMap
    target: PhaseMap
    power: int


def embed_operator(
    terms: tuple[OperatorTerm, ...], order: FracOrder
) -> Callable[[Trajectory], Trajectory]:
    """Fractional embedding of a first-order differential operator.

    The operator is the sum of its terms; each map's middle argument
    receives the trajectory's derivative.  Every time derivative, both
    the applied power and that derivative slot, is replaced by the left
    Caputo derivative.  The returned evaluator maps a Trajectory x to
    sum_i f_i(x, D^a x, t) * (D^a_left)^{power_i} g_i(x, D^a x, t).
    As alpha -> 1 this approaches the classical operator evaluation.
    """
    for term in terms:
        if term.power not in (0, 1):
            raise UnsupportedOperatorError(
                f"derivative power {term.power} not supported (only 0 and 1)"
            )

    def evaluator(x: Trajectory) -> Trajectory:
        t = x.grid.nodes()
        xv = x.values
        vv = caputo_left(x, order).values
        acc = None
        for term in terms:
            gv = np.broadcast_to(
                np.asarray(term.target(xv, vv, t), dtype=float), xv.shape
            )
            if term.power == 1:
                gv = caputo_left(Trajectory(x.grid, gv.copy()), order).values
            fv = np.asarray(term.factor(xv, vv, t), dtype=float)
            contrib = fv * gv
            acc = contrib if acc is None else acc + contrib
        return Trajectory(x.grid, np.broadcast_to(acc, xv.shape).copy())

    return evaluator
