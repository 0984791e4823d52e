"""Two-parameter Mittag-Leffler function.

E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a k + b) generalizes the exponential
(a = b = 1) and solves linear Caputo equations, so it serves as the analytic
oracle for most of this package.  Evaluation is real-only and restricted to
|z| <= Z_MAX; the accuracy target is 1e-10 absolute, relaxing to relative
once |E| exceeds 1.

Evaluation routes, tried in order, each carrying its own error estimate and
returning only when that estimate clears the target:

1. Taylor series with compensated summation.  When alpha and beta are small
   integers each term is one correctly rounded ratio of exact integers,
   from ``z.as_integer_ratio()`` and the factorial, and the terms are summed
   with ``math.fsum``, which removes the term-rounding error that otherwise
   dominates alternating sums such as E_1(-10).
2. For z <= -15, the algebraic tail expansion -sum_k z^{-k}/Gamma(b - a k)
   truncated where its term envelope is smallest.  The error estimate adds
   the exponentially small oscillatory contribution that the negative axis
   carries for a >= 2/3; for a < 2/3 no such term exists.
3. For remaining z < 0 with a in (0,1), b = 1: the completely monotone
   spectral representation, integrated by double-precision tanh-sinh
   quadrature after the substitution v = u^a removes the endpoint
   singularity; the step is halved until successive levels agree, and the
   route raises if they never do.  This covers the band of moderate
   negative z where neither series route can certify 1e-10.
4. Otherwise a high-precision Taylor fallback with a hard work cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, PrecisionLossError

__all__ = ["MLParams", "Z_MAX", "mittag_leffler"]

Z_MAX = 50.0

_EPS = 2.220446049250313e-16
_TOL = 1e-10
_MAX_TERMS = 400
_ASYM_CUTOFF = 15.0
_LOG_PI = math.log(math.pi)
# exp() overflows just above 709; stay clear of it
_EXP_CAP = 705.0
# tanh-sinh: at t = 4 the nodes lie within 6e-38 of the panel ends (relative
# to the panel), so the truncated tails are nil; the step is 2^-k for
# k <= _TS_LEVELS.  The halving estimate measures the coarser of two levels,
# so it is held well below _TOL and the finer level is accurate to roundoff.
_TS_TMAX = 4.0
_TS_LEVELS = 8
_SPECTRAL_TOL = 1e-12


@dataclass(frozen=True)
class MLParams:
    """Parameters (alpha, beta) of E_{alpha,beta}; beta = 1 is the classic case."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise OutOfRangeError(f"alpha must be positive, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise OutOfRangeError(f"beta must be positive, got {self.beta}")


def _taylor_exact(ia: int, ib: int, z: float) -> tuple[float, float, bool]:
    """Taylor route for integer (alpha, beta): exact terms, fsum total.

    With z = n/d exactly, each term z^k/(ia k + ib - 1)! is the integer
    ratio n^k / (d^k (ia k + ib - 1)!), rounded once to double by Python's
    correctly rounded int/int division, so term error is half an ulp and
    the only other error is the final fsum rounding.  Returns (value,
    error estimate, converged).
    """
    n, d = z.as_integer_ratio()
    num = 1
    den = math.factorial(ib - 1)
    m = ib - 1
    terms: list[float] = []
    s = 0.0
    absum = 0.0
    for k in range(_MAX_TERMS):
        try:
            t = num / den
        except OverflowError:
            return s, math.inf, False
        if k > 0 and abs(t) < 1e-16 * (1.0 + abs(s)):
            value = math.fsum(terms)
            return value, _EPS * (0.5 * absum + abs(value) + abs(t)), True
        terms.append(t)
        s += t
        absum += abs(t)
        num *= n
        m += ia
        den *= d * math.perm(m, ia)
    return s, math.inf, False


def _taylor_general(alpha: float, beta: float, z: float) -> tuple[float, float, bool]:
    """Kahan-compensated Taylor series with a running error bound.

    Terms are exp(k log|z| - lgamma(alpha k + beta)); the estimate charges
    each term for lgamma's relative error and for the rounding of its
    argument, which dominates once the terms grow large.
    """
    logz = math.log(abs(z))
    neg = z < 0.0
    s = 0.0
    c = 0.0
    absum = 0.0
    errsum = 0.0
    for k in range(_MAX_TERMS):
        y = alpha * k + beta
        lg = math.lgamma(y)
        e = k * logz - lg
        if e > _EXP_CAP:
            return s, math.inf, False
        mag = math.exp(e)
        if k > 0 and mag < 1e-16 * (1.0 + abs(s)):
            return s, _EPS * (errsum + 4.0 * absum) + mag, True
        t = -mag if (neg and k & 1) else mag
        yk = t - c
        u = s + yk
        c = (u - s) - yk
        s = u
        absum += mag
        errsum += mag * (3.0 + abs(lg) + 0.5 * y * max(1.0, math.log(y)) + 0.5 * k * abs(logz))
    return s, math.inf, False


def _asymptotic_neg(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """Algebraic tail series for large negative z, optimally truncated.

    Truncation tracks the sine-free term envelope x^{-k} / |Gamma(b - a k)|
    so the oscillating reflection factor cannot fake an early minimum.
    Returns (value, error estimate); the estimate is the envelope at the
    break point plus, for a >= 2/3, the exponentially small contribution
    (2/a) exp(x^{1/a} cos(pi/a)) present on the negative real axis.
    """
    x = -z
    logx = math.log(x)
    s = 0.0
    c = 0.0
    absum = 0.0
    prev_env = math.inf
    tail = None
    for k in range(1, 201):
        y = beta - alpha * k
        if y > 0.5:
            lenv = -k * logx - math.lgamma(y)
            sign = 1.0
            sin_f = 1.0
        else:
            n = round(y)
            f = y - n
            lenv = -k * logx + math.lgamma(1.0 - y) - _LOG_PI
            if f == 0.0:
                sign = 0.0
                sin_f = 0.0
            else:
                sv = math.sin(math.pi * f)
                sin_f = abs(sv)
                sign = math.copysign(1.0, sv) * (1.0 if n % 2 == 0 else -1.0)
        if lenv > _EXP_CAP:
            return s, math.inf
        env = math.exp(lenv)
        if env > prev_env:
            tail = env
            break
        prev_env = env
        if sign != 0.0:
            mag = env * sin_f
            t = sign * mag * (1.0 if k & 1 else -1.0)
            yk = t - c
            u = s + yk
            c = (u - s) - yk
            s = u
            absum += mag
        if env < 1e-17 * (1.0 + abs(s)):
            tail = env
            break
    if tail is None:
        tail = prev_env
    est = 3.0 * tail + 4.0 * _EPS * absum
    if alpha >= 2.0 / 3.0 - 1e-12:
        arg = x ** (1.0 / alpha) * math.cos(math.pi / alpha)
        est += (2.0 / alpha) * math.exp(min(arg, _EXP_CAP))
    return s, est


def _tanh_sinh_level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of tanh-sinh level k (step h = 2^-k) on [0, 1], right half.

    For t >= 0 on the level's new points, r = 1/(1 + exp(pi sinh t)) is the
    distance of the mirrored nodes r and 1 - r from the ends of [0, 1],
    formed directly so that nodes hugging an end keep full precision; w is
    h times the Jacobian pi cosh(t) r (1 - r).  Level 0 includes t = 0,
    whose weight is halved because it is its own mirror.
    """
    h = 2.0**-k
    t = np.arange(0.0 if k == 0 else h, _TS_TMAX + 0.5 * h, h if k == 0 else 2.0 * h)
    r = 1.0 / (1.0 + np.exp(math.pi * np.sinh(t)))
    w = h * math.pi * np.cosh(t) * r * (1.0 - r)
    if k == 0:
        w[0] *= 0.5
    return r, w


_TS_NODES = [_tanh_sinh_level(k) for k in range(_TS_LEVELS + 1)]


def _spectral_neg(alpha: float, x: float) -> float:
    """E_alpha(-x) via its completely monotone spectral representation.

    With v = u^alpha the weight's endpoint singularity disappears:

        E_a(-x) = sin(a pi)/(pi x a) *
                  int_0^inf exp(-v^{1/a}) / ((v - v0)^2/x^2 + sin^2(a pi)) dv

    with v0 = -x cos(a pi).  The denominator is bounded below by
    sin^2(a pi) > 0; for a > 1/2 it dips at v0 > 0, which gets quadrature
    breakpoints v0/2, v0, 2 v0, and (v - v0) is formed from the offset of
    each node from its panel's end so the dip keeps full precision.  The
    integral stops at the last breakpoint, at least 80^a, past which the
    integrand is below e^-80/sin^2(a pi).  Each panel is integrated by
    double-precision tanh-sinh (Takahasi & Mori, Publ. RIMS 9, 1974),
    halving the step until successive levels agree to _SPECTRAL_TOL.

    Raises:
        PrecisionLossError: no level up to _TS_LEVELS clears the target.
    """
    # sin and cos of pi a from exactly reduced arguments (Sterbenz), so
    # a near 1/2 or 1 does not lose digits to the rounding of pi a
    sin_api = math.sin(math.pi * (1.0 - alpha if alpha > 0.5 else alpha))
    cos_api = math.sin(math.pi * (0.5 - alpha))
    v0 = -x * cos_api
    pts = {0.0, 80.0**alpha}
    if cos_api < 0.0:
        pts |= {0.5 * v0, v0, 2.0 * v0}
    ends = np.array(sorted(pts))
    lo, hi = ends[:-1, None], ends[1:, None]
    width = hi - lo
    inv_a = 1.0 / alpha
    ssq = sin_api * sin_api

    def f(v, off):
        return np.exp(-(v**inv_a)) / ((off / x) ** 2 + ssq)

    def level_sum(r, w):
        dr = width * r
        return float(np.sum((f(lo + dr, lo - v0 + dr) + f(hi - dr, hi - v0 - dr)) * (width * w)))

    scale = sin_api / (math.pi * x * alpha)
    total = level_sum(*_TS_NODES[0])
    for k in range(1, _TS_LEVELS + 1):
        prev = total
        total = 0.5 * total + level_sum(*_TS_NODES[k])
        value = scale * total
        if scale * abs(total - prev) <= _SPECTRAL_TOL * (1.0 + value):
            return value
    raise PrecisionLossError(f"spectral quadrature for E_{alpha}({-x}) did not converge")


def _mp_series(alpha: float, beta: float, z: float) -> float:
    """Arbitrary-precision Taylor fallback with a hard work cap.

    Used for alpha in [1, 2] (where the largest term is at most e^50, so
    the working precision stays small) and for off-axis beta cases; raises
    rather than grind through astronomically scaled series.
    """
    import mpmath as mp

    x = abs(z)
    peak = x ** (1.0 / alpha)
    dps = 60 + int(peak / 2.302585)
    if dps > 320:
        raise PrecisionLossError(
            f"E_({alpha},{beta})({z}) is outside the certified evaluation range"
        )
    k_min = int(peak / alpha) + 2
    with mp.workdps(dps):
        zz = mp.mpf(z)
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        s = mp.mpf(0)
        cutoff = mp.mpf("1e-25")
        k = 0
        while True:
            t = zz ** k / mp.gamma(a * k + b)
            s += t
            if k > k_min and abs(t) < cutoff * (1 + abs(s)):
                break
            k += 1
            if k > 50000:
                raise PrecisionLossError("high-precision series did not terminate")
        return float(s)


def mittag_leffler(p: MLParams, z: float) -> float:
    """E_{alpha,beta}(z) for real z with |z| <= Z_MAX and alpha in (0, 2].

    Raises:
        OutOfRangeError: alpha > 2 or |z| > Z_MAX.
        PrecisionLossError: the accuracy target is unreachable (large
            positive z with slow convergence, overflowing values, or
            uncertified corners of the (alpha, beta) plane).
    """
    z = float(z)
    if not math.isfinite(z):
        raise OutOfRangeError(f"z must be finite, got {z}")
    if p.alpha > 2.0:
        raise OutOfRangeError(f"alpha must lie in (0, 2], got {p.alpha}")
    if abs(z) > Z_MAX:
        raise OutOfRangeError(f"|z| = {abs(z)} exceeds the validated range {Z_MAX}")
    alpha, beta = p.alpha, p.beta
    if z == 0.0:
        return 1.0 / math.gamma(beta)

    exact_ok = alpha in (1.0, 2.0) and beta == round(beta) and beta <= 100.0
    if exact_ok:
        val, est, converged = _taylor_exact(int(alpha), int(round(beta)), z)
    else:
        val, est, converged = _taylor_general(alpha, beta, z)
    if converged and math.isfinite(val) and est <= _TOL * (1.0 + abs(val)):
        return val

    if z < 0.0:
        if -z >= _ASYM_CUTOFF:
            aval, aest = _asymptotic_neg(alpha, beta, z)
            if aest <= _TOL * (1.0 + abs(aval)):
                return aval
        if alpha < 1.0 and beta == 1.0:
            return _spectral_neg(alpha, -z)
        return _mp_series(alpha, beta, z)

    if not converged:
        raise PrecisionLossError(
            f"series for E_({alpha},{beta})({z}) did not converge in {_MAX_TERMS} terms"
        )
    # z > 0 never cancels, so a converged sum that misses the target can
    # only mean an overflowed value
    raise PrecisionLossError(f"E_({alpha},{beta})({z}) exceeds double range")
