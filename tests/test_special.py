"""Mittag-Leffler evaluation against independent classical oracles.

Every tolerance here is absolute.  The closed forms used as references
(exp, cos, cosh, erfc, the geometric series at alpha = beta = 1 shortcut)
are computed with the standard library, not with the code under test.
Two internal routes are also held against slow references kept here: the
contour route against 40-digit mpmath, by quadrature of the spectral
integral for beta = 1 (a checked-in table of its values, a few of them
recomputed live) and by the Taylor series elsewhere, and the
integer-ratio Taylor terms against Fraction arithmetic.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fractime.special as special
from fractime import MLParams, TimeGrid, mittag_leffler
from fractime.special import Z_MAX
from fractime.errors import FractimeError, OutOfRangeError, PrecisionLossError

# E_{1/2}(-1) = e * erfc(1) in the classical erfc closed form
ERFC_ORACLE = math.exp(1.0) * math.erfc(1.0)


def test_exponential_special_case_on_wide_interval():
    for z in np.linspace(-10.0, 5.0, 151):
        assert mittag_leffler(MLParams(1.0), float(z)) == pytest.approx(
            math.exp(z), abs=1e-10
        )


def test_cosine_special_case():
    for z in np.linspace(0.0, 7.0, 71):
        assert mittag_leffler(MLParams(2.0), float(-z * z)) == pytest.approx(
            math.cos(z), abs=1e-10
        )


def test_hyperbolic_cosine_special_case():
    for z in np.linspace(0.0, 6.0, 25):
        assert mittag_leffler(MLParams(2.0), float(z * z)) == pytest.approx(
            math.cosh(z), abs=1e-10 * math.cosh(z)
        )


def test_half_order_at_minus_one_matches_erfc_oracle():
    assert mittag_leffler(MLParams(0.5), -1.0) == pytest.approx(
        ERFC_ORACLE, abs=1e-8
    )
    assert ERFC_ORACLE == pytest.approx(0.4275835761558072, abs=1e-15)


def test_half_order_matches_scaled_erfc_on_negative_axis():
    # E_{1/2}(-x) = exp(x^2) erfc(x) for x >= 0
    for x in (0.25, 0.5, 1.0, 2.0, 4.0):
        oracle = math.exp(x * x) * math.erfc(x)
        assert mittag_leffler(MLParams(0.5), -x) == pytest.approx(oracle, abs=1e-9)


def test_beta_two_is_shifted_exponential():
    # E_{1,2}(z) = (e^z - 1)/z
    for z in (-5.0, -1.0, -0.1, 0.3, 2.0):
        assert mittag_leffler(MLParams(1.0, 2.0), z) == pytest.approx(
            math.expm1(z) / z, abs=1e-10
        )


def test_beta_two_order_two_is_sinh_ratio():
    # E_{2,2}(z^2) = sinh(z)/z
    for z in (0.5, 1.0, 3.0):
        assert mittag_leffler(MLParams(2.0, 2.0), z * z) == pytest.approx(
            math.sinh(z) / z, abs=1e-10 * math.cosh(z)
        )


def test_value_at_zero_is_reciprocal_gamma_beta():
    for beta in (0.5, 1.0, 2.0, 3.5):
        assert mittag_leffler(MLParams(0.7, beta), 0.0) == pytest.approx(
            1.0 / math.gamma(beta), abs=1e-12
        )


def test_deep_negative_arguments_stay_accurate():
    # E_{1/2}(-x) for large x behaves like 1/(x sqrt(pi)); erfc oracle
    for x in (10.0, 25.0, 49.0):
        oracle = math.exp(x * x) * math.erfc(x) if x < 20 else None
        value = mittag_leffler(MLParams(0.5), -x)
        if oracle is not None:
            assert value == pytest.approx(oracle, rel=1e-8)
        else:
            tail = 1.0 / (x * math.sqrt(math.pi))
            assert value == pytest.approx(tail, rel=1e-2)


def test_monotone_decay_on_negative_axis():
    values = [mittag_leffler(MLParams(0.6), -x) for x in np.linspace(0.0, 30.0, 61)]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert all(a > b > 0.0 for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.25, 1.8),
    beta=st.floats(0.3, 3.0),
    z=st.floats(-20.0, 2.0),
)
def test_recurrence_shifts_beta(alpha, beta, z):
    # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b)
    try:
        lhs = mittag_leffler(MLParams(alpha, beta), z)
        inner = mittag_leffler(MLParams(alpha, alpha + beta), z)
    except PrecisionLossError:
        assume(False)
        return
    rhs = z * inner + 1.0 / math.gamma(beta)
    assert lhs == pytest.approx(rhs, abs=5e-9 * (1.0 + abs(lhs)))


def test_params_validation_messages():
    with pytest.raises(OutOfRangeError, match="alpha must be positive"):
        MLParams(0.0)
    with pytest.raises(OutOfRangeError, match="alpha must be positive"):
        MLParams(-0.5)
    with pytest.raises(OutOfRangeError, match="beta must be positive"):
        MLParams(1.0, 0.0)


def test_argument_domain_is_capped():
    assert Z_MAX == 50.0
    with pytest.raises(OutOfRangeError):
        mittag_leffler(MLParams(0.5), 51.0)
    with pytest.raises(OutOfRangeError):
        mittag_leffler(MLParams(0.5), -51.0)
    with pytest.raises(OutOfRangeError):
        mittag_leffler(MLParams(2.5), 1.0)


def test_unreachable_accuracy_is_reported_not_fudged():
    # growth like exp(z^(1/alpha)) makes small-alpha large-z evaluations
    # overflow any double-precision series
    with pytest.raises(PrecisionLossError):
        mittag_leffler(MLParams(0.5), 49.0)


def test_runtime_budget_for_oracle_suite(monkeypatch):
    start = time.perf_counter()
    for z in np.linspace(-10.0, 5.0, 151):
        mittag_leffler(MLParams(1.0), float(z))
    for z in np.linspace(0.0, 7.0, 71):
        mittag_leffler(MLParams(2.0), float(-z * z))
    mittag_leffler(MLParams(0.5), -1.0)
    assert time.perf_counter() - start < 1.0

    # the 2049-node oracle of `solve-fde --alpha 0.4 --b 10`,
    # E_0.8(-t^0.8) on [0, 10], which crosses into the contour route
    contour_calls = []
    route = special._opc
    monkeypatch.setattr(
        special, "_opc", lambda a, b, z: contour_calls.append(z) or route(a, b, z)
    )
    start = time.perf_counter()
    for t in TimeGrid(0.0, 10.0, 2048).nodes():
        mittag_leffler(MLParams(2.0 * 0.4), -(t ** (2.0 * 0.4)))
    assert time.perf_counter() - start < 1.5
    assert len(contour_calls) > 100


def _mpmath_spectral_neg(alpha: float, x: float) -> float:
    """Reference: E_alpha(-x) from its spectral integral by 40-digit
    mpmath tanh-sinh quadrature.

    With v = u^alpha the weight's endpoint singularity disappears:

        E_a(-x) = sin(a pi)/(pi x a) *
                  int_0^inf exp(-v^{1/a}) / (v^2/x^2 + 2 v cos(a pi)/x + 1) dv

    The denominator is bounded below by sin^2(a pi) > 0; for a > 1/2 it
    dips near v0 = -x cos(a pi), which gets explicit quadrature
    breakpoints.
    """
    import mpmath as mp

    with mp.workdps(40):
        a = mp.mpf(alpha)
        big_x = mp.mpf(x)
        cos_api = mp.cos(a * mp.pi)
        inv_a = 1.0 / a

        def f(v):
            return mp.exp(-(v ** inv_a)) / ((v / big_x) ** 2 + 2 * v * cos_api / big_x + 1)

        pts = [0.0]
        if cos_api < 0:
            v0 = float(-big_x * cos_api)
            pts += [v0 / 2, v0, 2 * v0]
        pts.append(float(mp.mpf(80) ** a))
        points = [mp.mpf(p) for p in sorted(set(pts))] + [mp.inf]
        val, qerr = mp.quad(f, points, error=True, maxdegree=8)
        result = mp.sin(a * mp.pi) / mp.pi / big_x / a * val
        if qerr > mp.mpf("1e-16") * (1 + abs(val)):
            val, qerr = mp.quad(f, points, error=True, maxdegree=10)
            result = mp.sin(a * mp.pi) / mp.pi / big_x / a * val
            if qerr > mp.mpf("1e-16") * (1 + abs(val)):
                raise PrecisionLossError(
                    f"spectral quadrature for E_{alpha}({-x}) did not converge"
                )
        return float(result)


# E_alpha(-x) by _mpmath_spectral_neg on the (alpha, x) sweep, one row
# "alpha,x,value" per point; each reference costs 30-120 ms, so the 1,000
# values are computed once by running this module as a script
SPECTRAL_TABLE = os.path.join(os.path.dirname(__file__), "ml_spectral_reference.csv")


def _spectral_sweep() -> list:
    return [
        (float(alpha), float(x))
        for alpha in np.linspace(0.05, 0.9999, 20)
        for x in np.linspace(0.0, Z_MAX, 51)[1:]
    ]


def _spectral_table() -> list:
    with open(SPECTRAL_TABLE) as fh:
        rows = [line.split(",") for line in fh if not line.startswith("#")]
    return [tuple(float(v) for v in row) for row in rows]


def test_contour_route_matches_mpmath_spectral_reference():
    # every point of the (alpha, x) sweep, whichever route the dispatcher
    # would pick for it
    table = _spectral_table()
    assert [(a, x) for a, x, _ in table] == _spectral_sweep()
    worst = max(abs(special._opc(a, 1.0, -x) - ref) for a, x, ref in table)
    assert worst <= 1e-12


def test_spectral_reference_table_matches_live_mpmath():
    # a few entries across alpha, recomputed, so the table cannot drift
    # from its generator
    for a, x, ref in _spectral_table()[::249]:
        assert abs(_mpmath_spectral_neg(a, x) - ref) <= 1e-15 * max(1.0, abs(ref)), (a, x)


def _mpmath_taylor(alpha: float, beta: float, z: float) -> float:
    """Reference: E_{alpha,beta}(z) from its Taylor series in mpmath, with
    40 digits beyond those the largest term, about exp(|z|^(1/alpha)),
    cancels (none for z > 0, where every term is positive), summed past the
    peak until a term falls below 1e-45 of the sum."""
    import mpmath as mp

    peak = abs(z) ** (1.0 / alpha)
    cancelled = int(peak / math.log(10.0)) if z < 0.0 else 0
    with mp.workdps(40 + cancelled):
        zz, a, b = mp.mpf(z), mp.mpf(alpha), mp.mpf(beta)
        s = mp.mpf(0)
        k = 0
        while True:
            t = zz**k / mp.gamma(a * k + b)
            s += t
            if k > peak / alpha + 2 and abs(t) < mp.mpf("1e-45") * abs(s):
                return float(s)
            k += 1


def test_contour_route_matches_mpmath_taylor_reference():
    worst = 0.0
    for alpha in np.linspace(1.0, 2.0, 11):
        for beta in (0.5, 1.0, 1.7, 3.0):
            for z in np.linspace(-Z_MAX, 0.0, 26)[:-1]:
                a, z = float(alpha), float(z)
                ref = _mpmath_taylor(a, beta, z)
                err = abs(special._opc(a, beta, z) - ref) / max(1.0, abs(ref))
                worst = max(worst, err)
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "alpha, beta, z", [(0.9, 7.0, -20.0), (0.45, 10.0, -6.0), (0.3, 5.5, -2.5)]
)
def test_contour_route_lowers_beta_past_the_strength_limit(alpha, beta, z):
    # the origin's strength 2(beta - alpha - 1) is too large for any
    # parabola here; the route shifts beta down by the recurrence
    assert special._contour(alpha, beta, z) is None
    ref = _mpmath_taylor(alpha, beta, z)
    assert abs(mittag_leffler(MLParams(alpha, beta), z) - ref) <= 1e-12


def test_positive_z_series_runs_past_a_tiny_first_term():
    # from beta = 19 on, the first term 1/Gamma(beta) is below the stop
    # threshold while the later terms of a positive z still grow.  Where
    # exp(|z|^(1/alpha)), the size of the largest term and of the contour's
    # pole residue, passes the double range the route may refuse instead
    for alpha in (0.3, 0.5, 0.7, 1.0, 2.0):
        for beta in (19.0, 20.0, 30.0):
            for z in (0.5, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0):
                if z ** (1.0 / alpha) > 1500.0:
                    continue
                ref = _mpmath_taylor(alpha, beta, z)
                try:
                    value = mittag_leffler(MLParams(alpha, beta), z)
                except PrecisionLossError:
                    assert z ** (1.0 / alpha) > math.log(np.finfo(float).max), (alpha, beta, z)
                    continue
                assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref)), (alpha, beta, z)


@pytest.mark.parametrize("alpha, beta, z", [(0.5, 200.0, 30.0), (0.5, 150.0, 30.0), (0.1, 200.0, 2.0)])
def test_positive_z_series_below_the_target_returns_within_it(alpha, beta, z):
    # the terms peak near k = 1400, 1500 and 8200, past the 400 the Taylor
    # route sums, and the contour's beta recurrence overflows; the largest
    # term bounds the whole series below 1e-10, so the terms are summed in
    # log space past the peak, to full relative accuracy (the 400-term
    # partial sum read 8.76e-276, 3.29e-147 and 0.0)
    ref = _mpmath_taylor(alpha, beta, z)
    assert 0.0 < ref < 1e-40
    assert math.log(ref) <= special._log_series_bound(alpha, beta, z) <= math.log(1e-10)
    with pytest.raises(PrecisionLossError, match="exceeds double range"):
        special._opc(alpha, beta, z)
    value = mittag_leffler(MLParams(alpha, beta), z)
    assert abs(value - ref) <= 1e-12 * ref


def test_positive_z_series_peaking_past_the_log_sum_cap_returns_its_partial_sum():
    # the terms of E_{0.1,2e6}(5) peak near k = 7.8e7, past the 50,000 terms
    # the log-space sum may take; the whole series is below e^-2.2e7, so the
    # 400-term partial sum is within the target
    assert special._log_space_sum(0.1, 2e6, 5.0) is None
    assert special._log_series_bound(0.1, 2e6, 5.0) < -2e7
    assert mittag_leffler(MLParams(0.1, 2e6), 5.0) == 0.0


def test_reciprocal_gamma_past_the_double_range_is_zero():
    # Gamma(200) overflows a double, and 1/Gamma(200) ~ 1e-373 is 0 in one
    assert mittag_leffler(MLParams(0.5, 200.0), 0.0) == 0.0
    # 400 terms stop short of the peak, so the contour route runs its beta
    # recurrence through 1/Gamma(199.5), ...; the value is about e^-797
    assert mittag_leffler(MLParams(0.5, 200.0), 20.0) == 0.0


@pytest.mark.parametrize(
    "alpha, beta, z",
    [(0.5, 1e20, 2.0), (0.5, 1e20, 0.5), (0.5, 1e20, 50.0), (0.05, 1e33, 50.0), (1.5, 1e25, 3.0)],
)
def test_huge_beta_below_the_target_is_zero(alpha, beta, z):
    # the contour's strip degenerates in double precision (an underflowed
    # width, h = 0 or N < 0: once an IndexError or a ZeroDivisionError);
    # the largest term bounds the true value far below the target
    assert special._log_series_bound(alpha, beta, z) < -1e19
    assert mittag_leffler(MLParams(alpha, beta), z) == 0.0


@pytest.mark.filterwarnings("error")
def test_huge_beta_sweep_returns_a_value_or_a_typed_error():
    rng = np.random.default_rng(23)
    for _ in range(300):
        alpha = float(rng.uniform(0.01, 2.0))
        beta = float(10.0 ** rng.uniform(16.0, 30.0))
        z = float(rng.uniform(-50.0, 50.0))
        try:
            value = mittag_leffler(MLParams(alpha, beta), z)
        except FractimeError:
            continue
        assert math.isfinite(value), (alpha, beta, z)


# (alpha, beta, z, value by _mpmath_taylor) where neither Taylor route
# certifies the target: a high-precision series once took seconds on the
# first two, the third (about 0.128397569276213) raised
# PrecisionLossError, and the fourth went to an asymptotic series
FALLBACK_CORNERS = [
    (0.27, 1.4, -5.5, 0.1670682895868367),
    (0.35, 0.7, -8.4, 0.04637683371950777),
    (0.3, 1.3, -7.0, 0.12839756927621343),
    (0.5, 1.0, -30.0, 0.01879588886141675),
]


def test_former_fallback_corners_are_fast_and_accurate():
    start = time.perf_counter()
    for alpha, beta, z, ref in FALLBACK_CORNERS:
        assert mittag_leffler(MLParams(alpha, beta), z) == pytest.approx(ref, abs=1e-12)
    assert time.perf_counter() - start < 0.05


def test_contour_route_raises_when_node_cap_is_too_small(monkeypatch):
    # E_0.9(-10) needs a few dozen nodes even at the loosest target
    monkeypatch.setattr(special, "_OPC_MAX_NODES", 5)
    with pytest.raises(PrecisionLossError, match="needs more than 5 nodes"):
        special._opc(0.9, 1.0, -10.0)
    with pytest.raises(PrecisionLossError):
        mittag_leffler(MLParams(0.9), -10.0)


def _fraction_taylor_exact(ia: int, ib: int, z: float) -> tuple[float, float, bool]:
    """Reference: the integer-order Taylor route with Fraction terms."""
    eps = 2.220446049250313e-16
    zq = Fraction(z)
    num = Fraction(1)
    terms = []
    s = 0.0
    absum = 0.0
    for k in range(400):
        try:
            t = float(num / math.factorial(ia * k + ib - 1))
        except OverflowError:
            return s, math.inf, False
        if k > 0 and abs(t) < 1e-16 * (1.0 + abs(s)) and (z < 0.0 or t < terms[-1]):
            value = math.fsum(terms)
            return value, eps * (0.5 * absum + abs(value) + abs(t)), True
        terms.append(t)
        s += t
        absum += abs(t)
        num *= zq
    return s, math.inf, False


@settings(max_examples=300, deadline=None)
@given(
    ia=st.sampled_from([1, 2]),
    # 20 and 30 put 1/Gamma(beta) below the stop threshold
    ib=st.one_of(st.integers(1, 5), st.sampled_from([20, 30])),
    z=st.floats(-Z_MAX, Z_MAX),
)
def test_integer_ratio_taylor_terms_are_bitwise_fraction_terms(ia, ib, z):
    value, est, converged = special._taylor_exact(ia, ib, z)
    ref_value, ref_est, ref_converged = _fraction_taylor_exact(ia, ib, z)
    assert value.hex() == ref_value.hex()
    assert est.hex() == ref_est.hex()
    assert converged is ref_converged


if __name__ == "__main__":
    # regenerate the spectral reference table: PYTHONPATH=src python tests/test_special.py
    with open(SPECTRAL_TABLE, "w", newline="\n") as fh:
        fh.write("# E_alpha(-x) by _mpmath_spectral_neg (40-digit mpmath) on the sweep of\n")
        fh.write("# test_contour_route_matches_mpmath_spectral_reference; columns alpha,x,value\n")
        fh.write("# generated by: PYTHONPATH=src python tests/test_special.py\n")
        for a, x in _spectral_sweep():
            fh.write(f"{a!r},{x!r},{_mpmath_spectral_neg(a, x)!r}\n")
