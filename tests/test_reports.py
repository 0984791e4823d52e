"""The Check record, one relation table deciding every verdict, and the
interior norm of residuals."""

import math

import numpy as np
import pytest

from fractime.grids import TimeGrid, Trajectory
from fractime.reports import Check, interior_max, interior_window, verdict


@pytest.mark.parametrize("relation", ["<=", "<", ">=", ">", "=="])
def test_nan_never_passes(relation):
    assert not Check("c", math.nan, relation, 0.0, "x").passed
    assert not Check("c", 0.0, relation, math.nan, "x").passed


def test_line_renders_verdict_name_and_comparison():
    finite = Check("finite", 1.0, "<", math.inf, "max |y|")
    zero = Check("zero", 1e-300, "==", 0.0, "max gap")
    near = Check("near", 1.3579246e-13, "<=", 5e-3, "max significance")
    assert finite.line() == "check [PASS] finite: max |y| = 1 < inf"
    assert zero.line() == "check [FAIL] zero: max gap = 1e-300 == 0"
    # six significant digits, so a value far below its bound still shows
    assert near.line() == "check [PASS] near: max significance = 1.35792e-13 <= 0.005"
    assert verdict([finite]) == "PASS"
    assert verdict([finite, zero]) == "FAIL"


def test_interior_max_ignores_the_trimmed_end_nodes_only():
    grid = TimeGrid(0.0, 1.0, 128)
    w = interior_window(grid.n)
    assert w == 2
    values = np.full((grid.n + 1, 2), 0.25)
    values[[0, w - 1], 0] = 50.0
    values[[grid.n + 1 - w, grid.n], 1] = -50.0
    assert interior_max(Trajectory(grid, values)) == 0.25
    for node in (w, grid.n - w):
        spiked = values.copy()
        spiked[node, 1] = -3.0
        assert interior_max(Trajectory(grid, spiked)) == 3.0
