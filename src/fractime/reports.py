"""Checks and residual reports.

A Check is one verdict: a value held against a bound by a relation, with a
label naming the value.  Its pass/fail is derived from value, relation and
bound alone, so NaN never passes; its report line prints those three, so a
line shows the numbers its verdict reads, and every report line and summary
file renders the same record.

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

    what names the value and prints no measurement: the line prints value
    and bound themselves, in one format, and any constant what mentions is
    formatted from the constant the verdict reads.
    """

    name: str
    value: float
    relation: str
    bound: float
    what: str

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.value, self.bound))

    def line(self) -> str:
        values = f"{self.value:.6g} {self.relation} {self.bound:.6g}"
        return f"check [{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.what} = {values}"


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
