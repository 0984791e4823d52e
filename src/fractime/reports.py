"""Residual reports: per-node equation defects with interior norms.

One-sided fractional operators lose accuracy in boundary layers, so norms
exclude the first and last ceil(n/64) nodes; the full residual trajectory
is kept for inspection and serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Trajectory

__all__ = ["ResidualReport", "make_report", "interior_window"]


def interior_window(n: int) -> int:
    """Number of nodes trimmed at each end when forming norms."""
    return max(1, math.ceil(n / 64))


@dataclass(frozen=True)
class ResidualReport:
    """Equation residual per node plus interior norms.

    kind is one of general_EL, causal_EL, canonical, FLH.  component_max
    holds the interior max-norm of each residual column.
    """

    kind: str
    residual: Trajectory
    window: int
    max_norm: float
    l2_norm: float
    component_max: tuple[float, ...]

    def interior_values(self) -> np.ndarray:
        n = self.residual.grid.n
        return self.residual.values[self.window : n + 1 - self.window]


def make_report(kind: str, residual: Trajectory) -> ResidualReport:
    n = residual.grid.n
    w = interior_window(n)
    interior = residual.values[w : n + 1 - w]
    comp = tuple(float(np.max(np.abs(interior[:, k]))) for k in range(residual.dim))
    return ResidualReport(
        kind=kind,
        residual=residual,
        window=w,
        max_norm=max(comp),
        l2_norm=float(np.sqrt(residual.grid.h * np.sum(np.square(interior)))),
        component_max=comp,
    )

