"""Two-parameter Mittag-Leffler function.

E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a k + b) generalizes the exponential
(a = b = 1) and solves linear Caputo equations, so it serves as the analytic
oracle for most of this package.  Evaluation is real-only and restricted to
|z| <= Z_MAX; the accuracy target is 1e-10 absolute, relaxing to relative
once |E| exceeds 1.

Evaluation routes, tried in order:

1. Exact Taylor series, when alpha and beta are small integers.  Each term
   is one correctly rounded ratio of exact integers, from
   ``z.as_integer_ratio()`` and the factorial, and the terms are summed
   with ``math.fsum``, which removes the term-rounding error that otherwise
   dominates alternating sums such as E_1(-10).
2. General Taylor series with compensated summation and a running error
   bound.
3. Otherwise, Garrappa's optimal parabolic contour (OPC): the inverse
   Laplace transform of s^(alpha-beta)/(s^alpha - z), a trapezoid sum on a
   parabola chosen between the transform's singularities plus the residues
   of the poles right of it, for every alpha in (0, 2] and beta > 0.  When
   beta is too large for any parabola, the recurrence in beta moves the
   inversion to a smaller beta.

The Taylor routes return only when their error estimate clears the target;
the contour route raises PrecisionLossError when its optimal parameters
cannot reach it or the value overflows, unless z > 0 and the largest term
bounds the whole series below the target: then its positive terms are summed
in log space past their peak, to full relative accuracy, or, past 50,000
terms, the Taylor partial sum is returned, which is within the target.
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
# terms of a positive series below the target that the log-space sum may take
_MAX_LOG_TERMS = 50_000
# exp() overflows just above 709; stay clear of it
_EXP_CAP = 705.0
_LOG_EPS = math.log(_EPS)
# contour targets: 1e-15, loosened by factors of 10 down to _TOL
_OPC_TOLS = [10.0**-d for d in range(15, 9, -1)]
_OPC_MAX_NODES = 200
# beta recurrence steps the contour route may take, one gamma call each
_OPC_MAX_SHIFTS = 1000


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


def _rgamma(x: float) -> float:
    """1/Gamma(x) for x > 0; 0 once Gamma(x) passes the double range."""
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def _taylor_exact(ia: int, ib: int, z: float) -> tuple[float, float, bool]:
    """Taylor route for integer (alpha, beta): exact terms, fsum total.

    With z = n/d exactly, each term z^k/(ia k + ib - 1)! is the integer
    ratio n^k / (d^k (ia k + ib - 1)!), rounded once to double by Python's
    correctly rounded int/int division, so term error is half an ulp and
    the only other error is the final fsum rounding.  For z > 0 the stop
    test waits until the terms fall.  Returns (value, error, converged).
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
        if k > 0 and abs(t) < 1e-16 * (1.0 + abs(s)) and (z < 0.0 or t < terms[-1]):
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
    argument, which dominates once the terms grow large.  For z > 0 the terms
    are log-concave in k, so the stop test waits until they fall.
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
        if k > 0 and mag < 1e-16 * (1.0 + abs(s)) and (neg or e < prev):
            return s, _EPS * (errsum + 4.0 * absum) + mag, True
        t = -mag if (neg and k & 1) else mag
        yk = t - c
        u = s + yk
        c = (u - s) - yk
        s = u
        absum += mag
        prev = e
        errsum += mag * (3.0 + abs(lg) + 0.5 * y * max(1.0, math.log(y)) + 0.5 * k * abs(logz))
    return s, math.inf, False


def _log_series_bound(alpha: float, beta: float, z: float) -> float:
    """Upper bound on log E_{alpha,beta}(z) for z > 0, from its largest term.

    With x = alpha k + beta, term k is exp(g(x)), g(x) = (x - beta) log(z) /
    alpha - lgamma(x), concave in x.  As log(x - 1/2) < psi(x) < log(x), g
    peaks in [u, u + 1/2], u = max(beta, z^(1/alpha)), at most log(2)/2
    above g(u) once u >= 1, and falls by at least alpha log(3/2) per term
    past x = 2u.  So the at most 2u/alpha + 1 terms below 2u and the
    geometric tail above it bound the sum.  inf when u < 1 or z^(1/alpha)
    passes the double range.
    """
    rate = math.log(z) / alpha
    u = max(beta, math.exp(min(rate, _EXP_CAP)))
    if rate > _EXP_CAP or u < 1.0:
        return math.inf
    peak = (u - beta) * rate - math.lgamma(u) + 0.5 * math.log(2.0)
    return peak + math.log(2.0 * u / alpha + 1.0 + 1.0 / (1.0 - (2.0 / 3.0) ** alpha))


def _log_space_sum(alpha: float, beta: float, z: float) -> float | None:
    """E_{alpha,beta}(z) for z > 0 as exp(e_max) sum_k exp(e_k - e_max),
    with e_k = k log z - lgamma(alpha k + beta).

    The terms are log-concave in k, so once they fall past the peak and
    below 1e-16 of the largest, the rest is below 1e-16 of the sum; scaling
    by the largest keeps every digit of values far below the double range
    of the terms themselves.  None past _MAX_LOG_TERMS terms.
    """
    logz = math.log(z)
    exps: list[float] = []
    top = -math.inf
    for k in range(_MAX_LOG_TERMS):
        e = k * logz - math.lgamma(alpha * k + beta)
        if exps and e < exps[-1] and e < top + _LOG_EPS:
            return math.exp(top) * math.fsum(math.exp(x - top) for x in exps)
        exps.append(e)
        top = max(top, e)
    return None


def _bounded_fit(phi_l: float, phi_r: float, p: float, log_tol: float):
    """Optimal (mu, h, N) for a parabola between two singularities.

    The left singularity (the origin, of strength p, or a simple pole) sits
    at sqrt(mu) = sqrt(phi_l), the simple pole on the right at
    sqrt(phi_r); the right end is capped where round-off exp(mu) eps would
    exceed the target.  Both ends are pulled inward by the factor f_bar
    that the strengths allow, which spends log f_bar of the target, and the
    fit balances discretization against truncation on the shrunk strip.
    Returns None when the strip is too narrow for the target, or so narrow
    in double precision that the fit degenerates (h or mu 0, or N < 0).
    """
    sl = math.sqrt(phi_l)
    sr = min(math.sqrt(phi_r), 2.0 * math.sqrt(log_tol - _LOG_EPS) - sl)
    f_max = math.exp(log_tol - _LOG_EPS)
    if p < 1e-14:
        f_min = 1.01
    else:
        try:
            f_min = max(1.01 * (sl + sr) / (sr - sl) ** max(p, 1.0), 1.5)
        except OverflowError:  # the power passes the double range: the ratio is 0
            f_min = 1.5
        except ZeroDivisionError:  # a zero-width strip, or the power underflows
            return None
    if f_min >= f_max:
        return None
    f_bar = f_min + f_min / f_max * (f_max - f_min)
    fq = 1.0 / f_bar
    if p < 1e-14:
        bl, br = sl, (2.0 * sr - fq * sl) / (2.0 + fq)
    else:
        fp = f_bar ** (-1.0 / p)
        w = -phi_r / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        bl = ((2.0 + w + fq) * sl + fp * sr) / den
        br = (-(1.0 + w) * fq * sl + (2.0 + w - (1.0 + w) * fp) * sr) / den
    log_tol -= math.log(f_bar)
    w = -br * br / log_tol
    mu = (((1.0 + w) * bl + br) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (br - bl) / ((1.0 + w) * bl + br)
    if mu == 0.0 or h == 0.0:
        return None
    n = math.ceil(math.sqrt(1.0 - log_tol / mu) / h)
    return (mu, h, n) if n >= 0 else None


def _unbounded_fit(phi_l: float, p: float, log_tol: float):
    """Optimal (mu, h, N) for a parabola right of every singularity.

    The distance to the last singularity, of strength p, is tuned until
    its error factor lies in (1, 10); if the resulting mu would let
    round-off exp(mu) eps exceed the target, mu is lowered to that bound
    and (h, N) refit.  Returns None when no such parabola exists.
    """
    sl = math.sqrt(phi_l)
    phi = 1.01 * phi_l if phi_l > 0.0 else 0.01
    sb = math.sqrt(phi)
    # settles in a few steps; the cap only rules out an endless loop
    for _ in range(100):
        r = log_tol / phi
        n = math.ceil(phi / math.pi * (1.0 - 1.5 * r + math.sqrt(1.0 - 2.0 * r)))
        a = math.pi * n / phi
        smu = sb * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if p < 1e-14 or 1.0 < ((sb - sl) / smu) ** -p < 10.0:
            break
        sb = 5.0 ** (-1.0 / p) * smu + sl
        phi = sb * sb
    else:
        return None
    mu = smu * smu
    h = (2.0 * math.sqrt(1.0 + 12.0 * a) - 3.0 * a - 2.0) / (4.0 - a) / n
    cap = log_tol - _LOG_EPS
    if mu > cap:
        reach = (0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * smu) + sl
        if reach * reach >= cap:
            return None
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = reach * math.sqrt(-1.0 / _LOG_EPS)
        n = math.ceil(w * log_tol / (2.0 * math.pi * (u * w - 1.0)))
        mu, h = cap, w / n
    return mu, h, n


def _contour(alpha: float, beta: float, z: float) -> float | None:
    """E_{alpha,beta}(z) by inverting its Laplace transform on a parabola.

    E_{a,b}(z) is the inverse Laplace transform of s^(a-b)/(s^a - z) at
    t = 1.  Its singularities are the branch point s = 0, of strength
    2(b - a - 1) when that is positive, and the poles
    s* = |z|^(1/a) e^{i(arg z + 2 k pi)/a} on the principal sheet, with
    residues (1/a) s*^(1-b) e^{s*}.  A parabola s(u) = mu (1 + iu)^2
    passes through s when mu = phi(s) = (Re s + |s|)/2, so the values of
    phi split the plane into regions between singularities; in each the
    optimal (mu, h, N) of Garrappa (SIAM J. Numer. Anal. 53(3), 2015)
    reach the target with a trapezoid sum over u = h k, |k| <= N, and the
    poles right of the parabola add their residues.  The region with the
    fewest nodes wins.  The target is 1e-15, loosened by factors of 10
    down to _TOL while every region needs more than _OPC_MAX_NODES nodes.
    For real z the sum over k < 0 mirrors k > 0, so only k >= 0 is summed.
    Returns None when no region reaches _TOL within _OPC_MAX_NODES nodes.
    """
    if z > 0.0 and math.log(z) > alpha * _EXP_CAP:
        return math.inf  # E grows like exp(z^(1/a)) / a
    theta = math.pi if z < 0.0 else 0.0
    k = np.arange(
        math.ceil(-0.5 * alpha - theta / (2.0 * math.pi)),
        math.floor(0.5 * alpha - theta / (2.0 * math.pi)) + 1,
    )
    ang = (theta + 2.0 * math.pi * k) / alpha
    # without poles, |z|^(1/a) may overflow unused
    r = abs(z) ** (1.0 / alpha) if k.size else 0.0
    # phi = r cos^2(ang/2) keeps poles on the cut |ang| = pi at phi ~ 0
    phi = r * np.cos(0.5 * ang) ** 2
    order = np.argsort(phi, kind="stable")
    order = order[phi[order] > 1e-15]
    poles = r * np.exp(1j * ang[order])
    phis = [0.0, *phi[order].tolist(), math.inf]
    strength = [max(0.0, 2.0 * (beta - alpha - 1.0))] + [1.0] * len(poles)
    for tol in _OPC_TOLS:
        log_tol = math.log(tol)
        fits = {}
        for j in range(len(poles) + 1):
            if phis[j] < log_tol - _LOG_EPS and phis[j] < phis[j + 1]:
                fit = (
                    _bounded_fit(phis[j], phis[j + 1], strength[j], log_tol)
                    if j < len(poles)
                    else _unbounded_fit(phis[j], strength[j], log_tol)
                )
                if fit is not None and fit[2] <= _OPC_MAX_NODES:
                    fits[j] = fit
        if fits:
            break
    else:
        return None
    j = min(fits, key=lambda i: fits[i][2])
    mu, h, n = fits[j]
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    terms = np.exp(s) * s ** (alpha - beta) / (s**alpha - z) * (2.0 * mu * (1j - u))
    terms[0] *= 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        residues = poles[j:] ** (1.0 - beta) * np.exp(poles[j:]) / alpha
        return h / math.pi * float(np.sum(terms.imag)) + float(np.sum(residues.real))


def _opc(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) by the contour route, lowering beta if it must.

    The origin's strength grows with beta until no parabola meets the
    target.  Then E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, applied
    s times, moves the inversion to beta - s a in (1, 1 + a], where the
    origin is regular; for |z| >= 1 each step shrinks the error.

    Raises:
        PrecisionLossError: no region reaches _TOL within _OPC_MAX_NODES
            nodes, or the value overflows.
    """
    value = _contour(alpha, beta, z)
    steps = math.ceil((beta - alpha - 1.0) / alpha)
    if value is None and 0 < steps <= _OPC_MAX_SHIFTS and abs(z) >= 1.0:
        value = _contour(alpha, beta - steps * alpha, z)
        if value is not None:
            for k in range(steps, 0, -1):
                value = (value - _rgamma(beta - k * alpha)) / z
    if value is None:
        raise PrecisionLossError(
            f"contour inversion for E_({alpha},{beta})({z}) needs more than"
            f" {_OPC_MAX_NODES} nodes"
        )
    if not math.isfinite(value):
        raise PrecisionLossError(f"E_({alpha},{beta})({z}) exceeds double range")
    return value


def mittag_leffler(p: MLParams, z: float) -> float:
    """E_{alpha,beta}(z) for real z with |z| <= Z_MAX and alpha in (0, 2].

    Raises:
        OutOfRangeError: alpha > 2 or |z| > Z_MAX.
        PrecisionLossError: the accuracy target is unreachable (overflowing
            values, or corners of the (alpha, beta) plane where no parabola
            meets it).
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
        return _rgamma(beta)

    exact_ok = alpha in (1.0, 2.0) and beta == round(beta) and beta <= 100.0
    if exact_ok:
        val, est, converged = _taylor_exact(int(alpha), int(round(beta)), z)
    else:
        val, est, converged = _taylor_general(alpha, beta, z)
    if converged and math.isfinite(val) and est <= _TOL * (1.0 + abs(val)):
        return val

    try:
        return _opc(alpha, beta, z)
    except PrecisionLossError:
        # for z > 0 every term is positive: the partial sum is within the
        # sum, and so within the target when it is too long to complete
        if z > 0.0 and _log_series_bound(alpha, beta, z) <= math.log(_TOL):
            total = _log_space_sum(alpha, beta, z)
            return val if total is None else total
        raise
