"""Fractional action, its variations, and the two Euler-Lagrange branches.

The load-bearing facts checked here:

* the directional derivative of the action along an admissible variation
  equals the pairing of the general Euler-Lagrange residual with that
  variation (discrete integration by parts makes the boundary terms drop);
* on a fractional canonical solution the causal branch nearly vanishes
  while the general branch stays order one, so the two branches are not
  interchangeable;
* the causal branch is literally the embedded classical operator, node by
  node, bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fractime import FracOrder, TimeGrid, harmonic, solve_fde
from fractime.fracops import embed_operator, rl_integral_left
from fractime.grids import Trajectory, trapezoid
from fractime.reports import interior_max
from fractime.systems import free_particle, quartic
from fractime.variational import (
    action,
    causal_el_residual,
    classical_el_operator,
    directional_derivative,
    general_el_residual,
    hamiltonian_action_residual,
    sample_variation,
)

HALF = FracOrder(0.5)


def _bent_path(grid):
    return Trajectory.from_callable(grid, lambda t: np.cos(t) + 0.3 * t)


def test_action_value_is_a_finite_float():
    grid = TimeGrid(0.0, 1.0, 128)
    val = action(harmonic(), _bent_path(grid), HALF)
    assert isinstance(val, float)
    assert math.isfinite(val)


def test_action_of_rest_state_is_zero_for_free_particle():
    grid = TimeGrid(0.0, 1.0, 64)
    val = action(free_particle(), Trajectory.constant(grid, 2.0), HALF)
    assert val == 0.0


def test_directional_derivative_matches_residual_pairing():
    grid = TimeGrid(0.0, 1.0, 256)
    L = harmonic()
    x = _bent_path(grid)
    a_val = action(L, x, HALF)
    res = general_el_residual(L, x, HALF).values[:, 0]
    budget = 1e-4 * (1.0 + abs(a_val))
    for s in range(5):
        rng = np.random.default_rng(1000 + s)
        h = sample_variation(grid, HALF, rng)
        dd = directional_derivative(L, x, h, HALF)
        pairing = trapezoid(res * h.values[:, 0], grid.h)
        assert abs(dd - pairing) <= budget


def test_sampled_variations_drop_the_ibp_boundary_terms():
    # h(a) = h(b) = 0 and I^{1-a}_left h(b) = 0 remove both boundary terms
    # of the integration-by-parts pairing with the general residual
    grid = TimeGrid(0.0, 1.0, 256)
    for alpha in (0.3, 0.5, 0.8):
        order, comp = FracOrder(alpha), FracOrder(1.0 - alpha)
        for s in range(3):
            h = sample_variation(grid, order, np.random.default_rng(s))
            assert h.values[0, 0] == 0.0 and h.values[-1, 0] == 0.0
            tail = rl_integral_left(h, comp).values[-1, 0]
            assert abs(tail) <= 1e-14 * np.abs(h.values).max(), (alpha, s, tail)


def test_causal_branch_vanishes_on_fractional_solution():
    L = harmonic()
    grid = TimeGrid(0.0, 2.0, 2048)
    sol = solve_fde(L, np.array([1.0, 0.0]), grid, HALF)
    causal = causal_el_residual(L, sol.x_part(), HALF)
    assert interior_max(causal) <= 5e-3


def test_general_branch_stays_large_on_fractional_solution():
    L = harmonic()
    grid = TimeGrid(0.0, 2.0, 2048)
    sol = solve_fde(L, np.array([1.0, 0.0]), grid, HALF)
    causal = causal_el_residual(L, sol.x_part(), HALF)
    general = general_el_residual(L, sol.x_part(), HALF)
    assert interior_max(general) >= 0.1
    assert interior_max(general) >= 10.0 * interior_max(causal)


def test_causal_branch_is_embedded_classical_operator_bitwise():
    for L in (harmonic(), quartic()):
        grid = TimeGrid(0.0, 2.0, 512)
        x = _bent_path(grid)
        causal = causal_el_residual(L, x, HALF).values
        embedded = embed_operator(classical_el_operator(L), HALF)(x).values
        np.testing.assert_array_equal(causal, embedded)


@settings(max_examples=60, deadline=None)
@given(
    L=st.one_of(
        st.builds(free_particle, m=st.floats(0.1, 10.0)),
        st.builds(harmonic, m=st.floats(0.1, 10.0), omega=st.floats(0.1, 10.0)),
        st.builds(quartic, lam=st.floats(0.1, 10.0)),
    ),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    c=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    n=st.integers(2, 256),
)
def test_causal_branch_is_embedded_classical_operator_for_random_systems(L, alpha, c, n):
    grid = TimeGrid(0.0, 2.0, n)
    x = Trajectory.from_callable(
        grid, lambda t: c[0] + c[1] * t + c[2] * np.sin(t) + c[3] * np.cos(3.0 * t)
    )
    order = FracOrder(alpha)
    causal = causal_el_residual(L, x, order).values
    embedded = embed_operator(classical_el_operator(L), order)(x).values
    np.testing.assert_array_equal(causal, embedded)


def test_canonical_action_residual_small_on_fractional_solution():
    H = harmonic()
    grid = TimeGrid(0.0, 2.0, 2048)
    sol = solve_fde(H, np.array([1.0, 0.0]), grid, HALF)
    residual = hamiltonian_action_residual(H, sol.x_part(), sol.p_part(), HALF)
    assert interior_max(residual) < 5e-3


def test_canonical_residual_large_on_wrong_trajectory():
    H = harmonic()
    grid = TimeGrid(0.0, 2.0, 512)
    x = Trajectory.from_callable(grid, lambda t: np.cos(2.0 * t))
    p = Trajectory.from_callable(grid, lambda t: np.sin(3.0 * t))
    residual = hamiltonian_action_residual(H, x, p, HALF)
    assert interior_max(residual) > 0.1
