"""Fractional action functionals and Euler-Lagrange residuals.

The action integrates L(x, D^a x, t) over the grid.  Its directional
derivative along a sampled variation, which vanishes at both ends and
whose complementary left integral vanishes at b, equals the pairing with
the general residual dL/dx + D^a_right dL/dv, whose right derivative
makes the dynamics anticausal.  The causal branch dL/dx - D^a_left dL/dv
is, node for node, the fractional embedding of the classical
Euler-Lagrange operator: both are assembled from the same discrete
primitives, so they agree bitwise and the embedding commutes with the
causal least-action principle.  The phase-space residual states the same
causal equations in canonical form.  The general and causal equations
have genuinely different solutions; reports on both sides of that
dichotomy use interior norms.
"""

from __future__ import annotations

import numpy as np

from .fracops import (
    FracOrder,
    OperatorTerm,
    caputo_left,
    caputo_right,
    rl_integral_left,
)
from .grids import TimeGrid, Trajectory, trapezoid
from .systems import NaturalSystem

__all__ = [
    "action",
    "directional_derivative",
    "general_el_residual",
    "causal_el_residual",
    "classical_el_operator",
    "hamiltonian_action_residual",
    "sample_variation",
]

# step of the central difference in directional_derivative
_EPS = 1e-5


def action(L: NaturalSystem, x: Trajectory, order: FracOrder) -> float:
    """Trapezoid quadrature of L = 1/2 m (D^a_left x)^2 - U(x) over the grid."""
    v = caputo_left(x, order).values[:, 0]
    return trapezoid(0.5 * L.mass * (v * v) - L.potential(x.values[:, 0]), x.grid.h)


def directional_derivative(
    L: NaturalSystem,
    x: Trajectory,
    h: Trajectory,
    order: FracOrder,
) -> float:
    """Central difference of the action along h: [A(x+eh) - A(x-eh)]/(2e)."""
    x.same_grid(h)
    up = action(L, Trajectory(x.grid, x.values + _EPS * h.values), order)
    dn = action(L, Trajectory(x.grid, x.values - _EPS * h.values), order)
    return (up - dn) / (2.0 * _EPS)


def _el_parts(L: NaturalSystem, x: Trajectory, order: FracOrder):
    """dL/dx = -U'(x) per node and dL/dv = m D^a x as a Trajectory."""
    p2 = L.mass * caputo_left(x, order).values
    return -L.potential_grad(x.values), Trajectory(x.grid, p2)


def general_el_residual(L: NaturalSystem, x: Trajectory, order: FracOrder) -> Trajectory:
    """Per-node value of dL/dx(x, D^a x, t) + D^a_right dL/dv(x, D^a x, t)."""
    dldx, dldv = _el_parts(L, x, order)
    return Trajectory(x.grid, dldx + caputo_right(dldv, order).values)


def causal_el_residual(L: NaturalSystem, x: Trajectory, order: FracOrder) -> Trajectory:
    """Per-node value of dL/dx(x, D^a x, t) - D^a_left dL/dv(x, D^a x, t)."""
    dldx, dldv = _el_parts(L, x, order)
    return Trajectory(x.grid, dldx - caputo_left(dldv, order).values)


def classical_el_operator(L: NaturalSystem) -> tuple[OperatorTerm, ...]:
    """The classical Euler-Lagrange operator dL/dx - d/dt dL/dv as its terms.

    Feeding these to embed_operator reproduces causal_el_residual exactly:
    the embedding and the restricted least-action principle commute.
    """
    return (
        OperatorTerm(lambda x, v, t: 1.0, lambda x, v, t: -L.potential_grad(x), 0),
        OperatorTerm(lambda x, v, t: -1.0, lambda x, v, t: L.mass * v, 1),
    )


def hamiltonian_action_residual(
    H: NaturalSystem, x: Trajectory, p: Trajectory, order: FracOrder
) -> Trajectory:
    """Causal stationarity defect of the phase-space action of p v - H(x, p).

    Stacked components: -U'(x) - D^a_left p and D^a_left x - p/m,
    which is exactly the embedded canonical system, so causal critical
    points and fractional canonical solutions coincide.  The second half
    is the fractional Legendre link p = m D^a_left x, divided by m.
    """
    x.same_grid(p)
    c1 = -H.potential_grad(x.values) - caputo_left(p, order).values
    c2 = caputo_left(x, order).values - p.values / H.mass
    return Trajectory(x.grid, np.hstack([c1, c2]))


def sample_variation(grid: TimeGrid, order: FracOrder, rng) -> Trajectory:
    """Random smooth variation with vanishing boundary data on both sides.

    The sample vanishes at both endpoints and is corrected by a parabolic
    bump so that its left fractional integral of complementary order also
    vanishes at b (to rounding).  These are exactly the conditions under
    which the boundary terms of the discrete integration-by-parts identity
    drop out, making the pairing with the general Euler-Lagrange residual
    equal the directional derivative of the action.
    """
    comp = FracOrder(1.0 - order.alpha)
    s = (grid.nodes() - grid.a) / (grid.b - grid.a)
    window = s * (1.0 - s)
    coeffs = rng.uniform(-1.0, 1.0, 4)
    wave = sum(
        c * np.sin((k + 1) * np.pi * s) for k, c in enumerate(coeffs)
    ) + rng.uniform(-1.0, 1.0)
    h0 = window * wave
    # fracops acts column by column: each integral has its lone call's bits
    i_h0, i_phi = rl_integral_left(Trajectory(grid, np.stack([h0, window], 1)), comp).values[-1]
    return Trajectory(grid, h0 - (i_h0 / i_phi) * window)
