"""Fractional action functionals and Euler-Lagrange residuals.

The action integrates L(x, D^a x, t) over the grid.  Stationarity under
unrestricted endpoint-pinned variations yields the general equation
dL/dx + D^a_right dL/dv = 0, whose right derivative makes the dynamics
anticausal; restricting variations yields the causal branch
dL/dx - D^a_left dL/dv = 0.  The causal residual is, node for node, the
fractional embedding of the classical Euler-Lagrange operator: both are
assembled from the same discrete primitives, so they agree bitwise and
the embedding commutes with the least-action principle.  The general and
causal equations have genuinely different solutions; reports on both
sides of that dichotomy use interior norms.
"""

from __future__ import annotations

import numpy as np

from .fracops import (
    FracOrder,
    OperatorSpec,
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
    "k_alpha_apply",
    "hamiltonian_action_residual",
    "variation_space_check",
    "sample_variation",
]


# membership tolerance on the boundary data of an admissible variation
_VARIATION_TOL = 1e-8


def action(L: NaturalSystem, x: Trajectory, order: FracOrder) -> float:
    """Trapezoid quadrature of L = 1/2 m |D^a_left x|^2 - U(x) over the grid."""
    v = caputo_left(x, order).values
    lag = 0.5 * L.mass * np.sum(np.square(v), axis=-1) - L.potential(x.values)
    return trapezoid(lag, x.grid.h)


def directional_derivative(
    L: NaturalSystem,
    x: Trajectory,
    h: Trajectory,
    order: FracOrder,
    eps: float = 1e-5,
) -> float:
    """Central difference of the action along h: [A(x+eh) - A(x-eh)]/(2e)."""
    x.same_grid(h)
    up = action(L, Trajectory(x.grid, x.values + eps * h.values), order)
    dn = action(L, Trajectory(x.grid, x.values - eps * h.values), order)
    return (up - dn) / (2.0 * eps)


def _el_parts(L: NaturalSystem, x: Trajectory, order: FracOrder):
    """dL/dx = -U'(x) per node and dL/dv = m D^a x as a Trajectory."""
    xv = x.values
    p1 = np.broadcast_to(np.asarray(-L.potential_grad(xv), dtype=float), xv.shape)
    p2 = L.mass * caputo_left(x, order).values
    return p1, Trajectory(x.grid, p2)


def general_el_residual(L: NaturalSystem, x: Trajectory, order: FracOrder) -> Trajectory:
    """Per-node value of dL/dx(x, D^a x, t) + D^a_right dL/dv(x, D^a x, t)."""
    dldx, dldv = _el_parts(L, x, order)
    return Trajectory(x.grid, dldx + caputo_right(dldv, order).values)


def causal_el_residual(L: NaturalSystem, x: Trajectory, order: FracOrder) -> Trajectory:
    """Per-node value of dL/dx(x, D^a x, t) - D^a_left dL/dv(x, D^a x, t)."""
    dldx, dldv = _el_parts(L, x, order)
    return Trajectory(x.grid, dldx - caputo_left(dldv, order).values)


def classical_el_operator(L: NaturalSystem) -> OperatorSpec:
    """The classical Euler-Lagrange operator dL/dx - d/dt dL/dv as a spec.

    Feeding this to embed_operator reproduces causal_el_residual exactly:
    the embedding and the restricted least-action principle commute.
    """
    return OperatorSpec(
        terms=(
            OperatorTerm(lambda x, v, t: 1.0, lambda x, v, t: -L.potential_grad(x), 0),
            OperatorTerm(lambda x, v, t: -1.0, lambda x, v, t: L.mass * v, 1),
        ),
    )


def k_alpha_apply(x: Trajectory, order: FracOrder) -> Trajectory:
    """Sum of left and right Caputo derivatives, componentwise."""
    return Trajectory(
        x.grid, caputo_left(x, order).values + caputo_right(x, order).values
    )


def hamiltonian_action_residual(
    H: NaturalSystem, x: Trajectory, p: Trajectory, order: FracOrder
) -> Trajectory:
    """Causal stationarity defect of the phase-space action of p v - H(x, p).

    Stacked components: -U'(x) - D^a_left p and D^a_left x - p/m,
    which is exactly the embedded canonical system, so causal critical
    points and fractional canonical solutions coincide.
    """
    x.same_grid(p)
    xv, pv = x.values, p.values
    c1 = -np.asarray(H.potential_grad(xv), dtype=float) - caputo_left(p, order).values
    c2 = caputo_left(x, order).values - pv / H.mass
    return Trajectory(x.grid, np.hstack([c1, c2]))


def variation_space_check(
    h: Trajectory, order: FracOrder, strict: bool = False
) -> tuple[bool, dict]:
    """Membership test with diagnostics for the admissible-variation spaces.

    V_alpha demands h(b) = 0 and a vanishing left integral of complementary
    order at a (identically zero for the discrete operator; the computed
    value is reported).  strict selects V_alpha_tilde, which additionally
    demands that left and right derivatives of h cancel.

    Returns (member, diagnostics).  Diagnostics always report the endpoint
    value and the left integral of complementary order at a; the stricter
    space adds the per-node cancellation profile |D^a_left h + D^a_right h|
    and its tolerance 10 * h_step^(2 - a).
    """
    comp = FracOrder(1.0 - order.alpha)
    endpoint = float(np.max(np.abs(h.values[-1])))
    left_integral_at_a = float(
        np.max(np.abs(rl_integral_left(h, comp).values[0]))
    )
    ok = endpoint <= _VARIATION_TOL and left_integral_at_a <= _VARIATION_TOL
    diag = {
        "endpoint_value": endpoint,
        "left_integral_at_a": left_integral_at_a,
    }
    if strict:
        profile = np.max(np.abs(k_alpha_apply(h, order).values), axis=1)
        tol = 10.0 * h.grid.h ** (2.0 - order.alpha)
        diag["k_alpha_profile"] = profile
        diag["k_alpha_max"] = float(np.max(profile))
        diag["k_alpha_tol"] = tol
        ok = ok and diag["k_alpha_max"] <= tol
    return ok, diag


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
    phi = window
    i_h0 = rl_integral_left(Trajectory(grid, h0), comp).values[-1, 0]
    i_phi = rl_integral_left(Trajectory(grid, phi), comp).values[-1, 0]
    return Trajectory(grid, h0 - (i_h0 / i_phi) * phi)
