"""The Check record: one relation table decides every verdict."""

import math

import pytest

from fractime.reports import Check, verdict


@pytest.mark.parametrize("relation", ["<=", "<", ">=", ">", "=="])
def test_nan_never_passes(relation):
    assert not Check("c", math.nan, relation, 0.0, "").passed
    assert not Check("c", 0.0, relation, math.nan, "").passed


def test_line_renders_verdict_name_and_detail():
    finite = Check("finite", 1.0, "<", math.inf, "max = 1")
    zero = Check("zero", 1e-300, "==", 0.0, "gap = 1e-300")
    assert finite.line() == "check [PASS] finite: max = 1"
    assert zero.line() == "check [FAIL] zero: gap = 1e-300"
    assert verdict([finite]) == "PASS"
    assert verdict([finite, zero]) == "FAIL"
