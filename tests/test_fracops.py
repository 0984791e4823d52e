"""Discrete Caputo derivatives, fractional integrals, and embeddings.

Power-rule closed forms are the oracles: on [0, b],

    D^a t^k   = Gamma(k+1)/Gamma(k+1-a) t^(k-a)      (left)
    I^a t^k   = Gamma(k+1)/Gamma(k+1+a) t^(k+a)      (left)

and right-sided operators obey the mirror rule in (b - t).  The scheme is
exact on constants and affine functions and converges at order 2 - a on
smoother inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractime import FracOrder, TimeGrid
from fractime.errors import GridError, OutOfRangeError
from fractime.fracops import (
    _history_sums,
    _power_increments,
    _pt_weights,
    caputo_left,
    caputo_right,
    embed_operator,
    ibp_residual,
    rl_integral_left,
    rl_integral_right,
)
from fractime.grids import Trajectory
from fractime.reports import interior_window
from fractime.systems import quartic
from fractime.variational import causal_el_residual

HALF = FracOrder(0.5)


def _interior(values, n):
    w = interior_window(n)
    return values[w : n + 1 - w]


def test_order_validation_names_open_interval():
    with pytest.raises(OutOfRangeError, match=r"alpha must lie in \(0,1\), got 1.5"):
        FracOrder(1.5)
    with pytest.raises(OutOfRangeError):
        FracOrder(0.0)
    with pytest.raises(OutOfRangeError):
        FracOrder(1.0)
    assert FracOrder(0.5).alpha == 0.5


def _direct_history_sums(cols, w):
    # the direct quadratic sums the FFT primitive replaces
    return np.stack([np.convolve(c, w)[: len(w)] for c in cols.T], axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 4097])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_history_sums_match_direct_convolution(n, d, alpha):
    rng = np.random.default_rng(n * 10 + d)
    # full history, and a block of the first rows feeding every target
    for k in sorted({n, max(1, n // 3)}):
        cols = rng.standard_normal((k, d))
        for w in (_power_increments(1.0 - alpha, n), _pt_weights(alpha, n)[1]):
            got = _history_sums(cols, w)
            want = _direct_history_sums(cols, w)
            assert got.shape == (n, d)
            bound = 1e-13 * np.abs(w).sum() * np.abs(cols).max()
            assert np.abs(got - want).max() <= bound


@pytest.mark.parametrize("n", [17, 4097])
def test_history_sums_scale_exactly_by_powers_of_two(n):
    rng = np.random.default_rng(n)
    cols = rng.standard_normal((n, 3))
    cols[:, 1] = 0.0
    w = _power_increments(0.5, n)
    sums = _history_sums(cols, w)
    for k in (-900, -40, 1, 40, 1000):
        assert np.array_equal(_history_sums(np.ldexp(cols, k), w), np.ldexp(sums, k)), k


def test_history_sums_stay_finite_where_the_sums_do():
    # positive columns near 1e307 with sums near 4e307: the unscaled
    # transform's spectrum times the weights' would pass the double range
    rng = np.random.default_rng(5)
    cols = rng.uniform(0.5e307, 1e307, size=(17, 2))
    w = _power_increments(0.5, 17)
    got = _history_sums(cols, w)
    want = _direct_history_sums(cols, w)
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(w).sum() * cols.max()


def test_left_derivative_annihilates_constants_exactly():
    grid = TimeGrid(0.0, 2.0, 64)
    out = caputo_left(Trajectory.constant(grid, 3.7), HALF)
    assert np.all(out.values == 0.0)


def test_left_derivative_exact_on_affine_functions():
    grid = TimeGrid(0.0, 1.0, 64)
    traj = Trajectory.from_callable(grid, lambda t: 2.0 + 3.0 * t)
    got = caputo_left(traj, HALF).values[:, 0]
    oracle = 3.0 * grid.nodes() ** 0.5 / math.gamma(1.5)
    assert np.abs(got - oracle).max() < 1e-12


def test_left_derivative_power_rule_on_square():
    grid = TimeGrid(0.0, 1.0, 1024)
    traj = Trajectory.from_callable(grid, lambda t: t * t)
    got = caputo_left(traj, HALF).values[:, 0]
    oracle = 2.0 * grid.nodes() ** 1.5 / math.gamma(2.5)
    dev = np.abs(_interior(got - oracle, grid.n)).max()
    assert dev < 50.0 * grid.h**1.5


def test_left_derivative_vanishes_at_initial_node():
    grid = TimeGrid(0.0, 1.0, 32)
    traj = Trajectory.from_callable(grid, np.exp)
    assert caputo_left(traj, HALF).values[0, 0] == 0.0


def test_observed_convergence_order_beats_1_4():
    errs = {}
    for n in (128, 256, 512, 1024):
        grid = TimeGrid(0.0, 1.0, n)
        traj = Trajectory.from_callable(grid, lambda t: t * t)
        got = caputo_left(traj, HALF).values[:, 0]
        oracle = 2.0 * grid.nodes() ** 1.5 / math.gamma(2.5)
        errs[n] = np.abs(_interior(got - oracle, n)).max()
    for n in (128, 256, 512):
        assert math.log2(errs[n] / errs[2 * n]) >= 1.4


def test_right_derivative_mirrors_power_rule():
    grid = TimeGrid(0.0, 1.0, 1024)
    traj = Trajectory.from_callable(grid, lambda t: (1.0 - t) ** 2)
    got = caputo_right(traj, HALF).values[:, 0]
    oracle = 2.0 * (1.0 - grid.nodes()) ** 1.5 / math.gamma(2.5)
    dev = np.abs(_interior(got - oracle, grid.n)).max()
    assert dev < 50.0 * grid.h**1.5


def test_right_derivative_of_reversed_ramp_at_start():
    # D_right (b - t) equals (b - t)^(1-a)/Gamma(2-a); at t = 0, b = 1
    # that is 1/Gamma(1.5)
    grid = TimeGrid(0.0, 1.0, 256)
    traj = Trajectory.from_callable(grid, lambda t: 1.0 - t)
    got = caputo_right(traj, HALF).values[0, 0]
    assert got == pytest.approx(1.0 / math.gamma(1.5), abs=1e-12)
    assert got == pytest.approx(1.1283791670955126, abs=1e-12)


def test_right_derivative_vanishes_at_final_node():
    grid = TimeGrid(0.0, 1.0, 32)
    traj = Trajectory.from_callable(grid, np.exp)
    assert caputo_right(traj, HALF).values[-1, 0] == 0.0


def test_reflection_ties_left_and_right_derivatives():
    # reversing time swaps the operators without a sign change
    grid = TimeGrid(0.0, 1.0, 128)
    rng = np.random.default_rng(5)
    coef = rng.standard_normal(4)
    t = grid.nodes()
    vals = coef[0] + coef[1] * t + coef[2] * t**2 + coef[3] * t**3
    right = caputo_right(Trajectory(grid, vals.copy()), HALF).values[:, 0]
    left_rev = caputo_left(Trajectory(grid, vals[::-1].copy()), HALF).values[:, 0]
    np.testing.assert_array_equal(right, left_rev[::-1])


def test_left_integral_exact_on_ramp():
    grid = TimeGrid(0.0, 1.0, 1024)
    traj = Trajectory.from_callable(grid, lambda t: t)
    got = rl_integral_left(traj, HALF).values[-1, 0]
    assert got == pytest.approx(1.0 / math.gamma(2.5), abs=1e-12)


def test_right_integral_matches_left_under_reflection():
    grid = TimeGrid(0.0, 1.0, 512)
    traj = Trajectory.from_callable(grid, lambda t: t)
    got = rl_integral_right(traj, HALF).values[0, 0]
    # int_0^1 s^(-1/2) s ds / Gamma(1/2) = (2/3)/sqrt(pi)
    assert got == pytest.approx((2.0 / 3.0) / math.sqrt(math.pi), abs=1e-6)


def test_integral_then_derivative_recovers_power():
    # D^a I^a t = t on grids starting at zero, up to scheme error
    grid = TimeGrid(0.0, 1.0, 1024)
    ramp = Trajectory.from_callable(grid, lambda t: t)
    composed = caputo_left(rl_integral_left(ramp, HALF), HALF).values[:, 0]
    dev = np.abs(_interior(composed - grid.nodes(), grid.n)).max()
    assert dev < 1e-3


def test_integration_by_parts_residual_small_for_polynomial_pairs():
    grid = TimeGrid(0.0, 1.0, 2048)
    pairs = [
        (lambda t: t * t, lambda t: (1.0 - t) ** 2),
        (lambda t: t * (1.0 + t), lambda t: 1.0 + t * t),
    ]
    for fdef, gdef in pairs:
        f = Trajectory.from_callable(grid, fdef)
        g = Trajectory.from_callable(grid, gdef)
        assert ibp_residual(f, g, HALF) <= 5e-3


def test_integration_by_parts_rejects_vector_trajectories():
    grid = TimeGrid(0.0, 1.0, 16)
    wide = Trajectory(grid, np.ones((17, 2)))
    flat = Trajectory.constant(grid, 1.0)
    with pytest.raises(GridError):
        ibp_residual(wide, flat, HALF)


def test_componentwise_action_on_stacked_trajectories():
    grid = TimeGrid(0.0, 1.0, 128)
    t = grid.nodes()
    stacked = Trajectory(grid, np.stack([t, t * t], axis=1))
    out = caputo_left(stacked, HALF)
    col0 = caputo_left(Trajectory(grid, t.copy()), HALF).values[:, 0]
    col1 = caputo_left(Trajectory(grid, (t * t).copy()), HALF).values[:, 0]
    np.testing.assert_array_equal(out.values[:, 0], col0)
    np.testing.assert_array_equal(out.values[:, 1], col1)
    # 17 curves at n = 2048, as the compatibility check stacks a mean and 16
    # group means, through the causal residual of the quartic (nonlinear U')
    grid = TimeGrid(0.0, 2.0, 2048)
    curves = np.cos(np.outer(grid.nodes(), np.linspace(0.5, 1.5, 17)))
    stacked = causal_el_residual(quartic(), Trajectory(grid, curves), HALF).values
    for k in range(17):
        one = causal_el_residual(quartic(), Trajectory(grid, curves[:, k].copy()), HALF)
        assert stacked[:, k].tobytes() == one.values[:, 0].tobytes()


def test_embed_operator_replaces_time_derivative_with_caputo():
    # classical operator x + 2 (d/dt) x embeds to x + 2 D^a x
    grid = TimeGrid(0.0, 1.0, 256)
    traj = Trajectory.from_callable(grid, lambda t: t * t)
    out = embed_operator(lambda x, d: x + 2.0 * d(x), HALF)(traj).values[:, 0]
    manual = traj.values[:, 0] + 2.0 * caputo_left(traj, HALF).values[:, 0]
    np.testing.assert_array_equal(out, manual)


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(-5, 5, allow_nan=False),
    c2=st.floats(-5, 5, allow_nan=False),
    alpha=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**31),
)
def test_derivative_is_linear(c1, c2, alpha, seed):
    grid = TimeGrid(0.0, 1.0, 48)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(49)
    g = rng.standard_normal(49)
    order = FracOrder(alpha)
    combined = caputo_left(Trajectory(grid, c1 * f + c2 * g), order).values[:, 0]
    split = (
        c1 * caputo_left(Trajectory(grid, f.copy()), order).values[:, 0]
        + c2 * caputo_left(Trajectory(grid, g.copy()), order).values[:, 0]
    )
    scale = np.abs(split).max() + 1.0
    assert np.abs(combined - split).max() <= 1e-10 * scale


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.1, 0.9), scale=st.floats(0.1, 10.0))
def test_derivative_of_increasing_input_is_nonnegative(alpha, scale):
    # monotone nondecreasing data keep a nonnegative Caputo derivative
    grid = TimeGrid(0.0, 1.0, 64)
    traj = Trajectory.from_callable(grid, lambda t: scale * np.sqrt(t + 0.01))
    out = caputo_left(traj, FracOrder(alpha)).values[:, 0]
    assert out.min() >= -1e-12


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.1, 0.9), seed=st.integers(0, 2**31))
def test_derivative_is_deterministic(alpha, seed):
    grid = TimeGrid(0.0, 1.0, 32)
    vals = np.random.default_rng(seed).standard_normal(33)
    order = FracOrder(alpha)
    first = caputo_left(Trajectory(grid, vals.copy()), order).values
    second = caputo_left(Trajectory(grid, vals.copy()), order).values
    np.testing.assert_array_equal(first, second)
