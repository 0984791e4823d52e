"""Residual reports: per-node equation defects with an interior max-norm.

One-sided fractional operators lose accuracy in boundary layers, so the norm
excludes the first and last ceil(n/64) nodes; the full residual trajectory
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
    """Equation residual per node plus its interior max-norm."""

    residual: Trajectory
    max_norm: float


def make_report(residual: Trajectory) -> ResidualReport:
    n = residual.grid.n
    w = interior_window(n)
    interior = residual.values[w : n + 1 - w]
    return ResidualReport(residual=residual, max_norm=float(np.max(np.abs(interior))))
