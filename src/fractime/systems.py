"""Natural mechanical systems: a mass and a potential with its gradient.

One record is both pictures, L = 1/2 m |v|^2 - U(x) and its Legendre
partner H = |p|^2/(2m) + U(x); callers read m, U and U' from it, so
dL/dx = -U'(x), dL/dv = m v, dH/dx = U'(x) and dH/dp = p/m.  U and U' are
vectorized: x is a float array of shape (..., d), U returns shape (...)
and U' shape (..., d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["NaturalSystem", "free_particle", "harmonic", "quartic"]

Array = np.ndarray


@dataclass(frozen=True)
class NaturalSystem:
    """Mass m and potential U with its gradient U', in d dimensions."""

    mass: float
    potential: Callable[[Array], Array]
    potential_grad: Callable[[Array], Array]
    dim: int = 1


def free_particle(m: float = 1.0) -> NaturalSystem:
    """L = 1/2 m v^2."""
    return NaturalSystem(
        m, lambda x: np.zeros(np.shape(x)[:-1]), lambda x: np.zeros_like(x, dtype=float)
    )


def harmonic(m: float = 1.0, omega: float = 1.0) -> NaturalSystem:
    """L = 1/2 m v^2 - 1/2 m omega^2 x^2."""
    mw2 = m * omega * omega
    return NaturalSystem(
        m, lambda x: 0.5 * mw2 * np.sum(np.square(x), axis=-1), lambda x: mw2 * x
    )


def quartic(lam: float = 1.0) -> NaturalSystem:
    """L = 1/2 v^2 - 1/4 lambda x^4."""
    return NaturalSystem(
        1.0, lambda x: 0.25 * lam * np.sum(x**4, axis=-1), lambda x: lam * x**3
    )
