"""Checks and residual reports.

A Check is one verdict: a value held against a bound by a relation, with
the text its report line prints.  Its pass/fail is derived from those
three, so NaN never passes, and every report line and summary file renders
the same record.

Residual reports hold per-node equation defects with an interior max-norm.
One-sided fractional operators lose accuracy in boundary layers, so the norm
excludes the first and last ceil(n/64) nodes; the full residual trajectory
is kept for inspection and serialization.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .grids import Trajectory

__all__ = ["Check", "verdict", "ResidualReport", "make_report", "interior_window"]

_RELATIONS = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Check:
    """One verdict: passed iff value <relation> bound.

    detail is the text after the name on the report line; it prints value
    (and usually the bound) in the check's own format.
    """

    name: str
    value: float
    relation: str
    bound: float
    detail: str

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.value, self.bound))

    def line(self) -> str:
        return f"check [{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def verdict(checks) -> str:
    """PASS iff every check passes."""
    return "PASS" if all(c.passed for c in checks) else "FAIL"


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
