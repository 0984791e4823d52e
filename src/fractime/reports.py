"""Checks and interior residual norms.

A Check is one verdict: a value held against a bound by a relation, with a
label naming the value.  Its pass/fail is derived from value, relation and
bound alone, so NaN never passes; its report line prints those three, so a
line shows the numbers its verdict reads, and every report line and summary
file renders the same record.

A residual is a Trajectory of per-node equation defects; interior_max is
its norm.  One-sided fractional operators lose accuracy in boundary layers,
so the norm excludes the first and last ceil(n/64) nodes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .grids import Trajectory

__all__ = ["Check", "verdict", "interior_window", "interior_max"]

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


def interior_max(traj: Trajectory) -> float:
    """Max |value| over the nodes interior_window leaves at each end."""
    n = traj.grid.n
    w = interior_window(n)
    return float(np.max(np.abs(traj.values[w : n + 1 - w])))
