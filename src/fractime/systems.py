"""Natural mechanical systems of one degree of freedom: a mass and a
potential with its gradient.

One record is both pictures, L = 1/2 m v^2 - U(x) and its Legendre
partner H = p^2/(2m) + U(x); callers read m, U and U' from it, so
dL/dx = -U'(x), dL/dv = m v, dH/dx = U'(x) and dH/dp = p/m.  U and U' act
elementwise, on a float or an array of positions alike, and give the same
bits on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["NaturalSystem", "free_particle", "harmonic", "quartic"]


@dataclass(frozen=True)
class NaturalSystem:
    """Mass m and potential U with its gradient U', of one degree of freedom."""

    mass: float
    potential: Callable
    potential_grad: Callable


def free_particle(m: float = 1.0) -> NaturalSystem:
    """L = 1/2 m v^2."""
    # +0.0 at every finite x, in x's shape
    zero = lambda x: 0.0 * x + 0.0
    return NaturalSystem(m, zero, zero)


def harmonic(m: float = 1.0, omega: float = 1.0) -> NaturalSystem:
    """L = 1/2 m v^2 - 1/2 m omega^2 x^2."""
    mw2 = m * omega * omega
    return NaturalSystem(m, lambda x: 0.5 * mw2 * (x * x), lambda x: mw2 * x)


def quartic(lam: float = 1.0) -> NaturalSystem:
    """L = 1/2 v^2 - 1/4 lambda x^4."""
    # products, not powers: a float power calls libm pow, whose last bit may
    # differ from numpy's array power, and raises where a product gives inf
    return NaturalSystem(1.0, lambda x: 0.25 * lam * (x * x) * (x * x), lambda x: lam * (x * x * x))
