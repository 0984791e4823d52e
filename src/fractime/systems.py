"""Lagrangian and Hamiltonian systems with evaluatable gradients.

Callables are vectorized: x, v, p are float arrays of shape (..., d), t
broadcasts against the leading axes, and scalar-valued maps return shape
(...).  Built-in factories cover the natural family L = 1/2 m v^2 - U(x),
whose Legendre partner is H = p^2/(2m) + U(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NaturalForm",
    "LagrangianSystem",
    "HamiltonianSystem",
    "free_particle",
    "harmonic",
    "quartic",
]

Array = np.ndarray


@dataclass(frozen=True)
class NaturalForm:
    """Mass and potential with its gradient: L = 1/2 m v^2 - U(x), or its
    Legendre partner H = p^2/(2m) + U(x), the shape symplectic splitting
    relies on."""

    mass: float
    potential: Callable[[Array], Array]
    potential_grad: Callable[[Array], Array]


@dataclass(frozen=True)
class LagrangianSystem:
    """L(x, v, t) with partial derivatives; natural carries closed-form data."""

    dim: int
    lagrangian: Callable[[Array, Array, Array], Array]
    dLdx: Callable[[Array, Array, Array], Array]
    dLdv: Callable[[Array, Array, Array], Array]
    natural: NaturalForm | None = None


@dataclass(frozen=True)
class HamiltonianSystem:
    """H(x, p) with partial derivatives; separable carries splitting data."""

    dim: int
    hamiltonian: Callable[[Array, Array], Array]
    dHdx: Callable[[Array, Array], Array]
    dHdp: Callable[[Array, Array], Array]
    separable: NaturalForm | None = None


def _natural_pair(m: float, u, du, dim: int = 1) -> LagrangianSystem:
    def lag(x, v, t):
        return 0.5 * m * np.sum(np.square(v), axis=-1) - u(x)

    def dldx(x, v, t):
        return -du(x)

    def dldv(x, v, t):
        return m * v

    return LagrangianSystem(
        dim=dim,
        lagrangian=lag,
        dLdx=dldx,
        dLdv=dldv,
        natural=NaturalForm(mass=m, potential=u, potential_grad=du),
    )


def free_particle(m: float = 1.0) -> LagrangianSystem:
    """L = 1/2 m v^2."""
    return _natural_pair(
        m, lambda x: np.zeros(np.shape(x)[:-1]), lambda x: np.zeros_like(x, dtype=float)
    )


def harmonic(m: float = 1.0, omega: float = 1.0) -> LagrangianSystem:
    """L = 1/2 m v^2 - 1/2 m omega^2 x^2."""
    mw2 = m * omega * omega
    return _natural_pair(
        m, lambda x: 0.5 * mw2 * np.sum(np.square(x), axis=-1), lambda x: mw2 * x
    )


def quartic(lam: float = 1.0) -> LagrangianSystem:
    """L = 1/2 v^2 - 1/4 lambda x^4."""
    return _natural_pair(
        1.0, lambda x: 0.25 * lam * np.sum(x**4, axis=-1), lambda x: lam * x**3
    )
