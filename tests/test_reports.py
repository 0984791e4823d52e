"""The Check record: one relation table decides every verdict."""

import math

import pytest

from fractime.reports import Check, verdict


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
