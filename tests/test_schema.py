"""Tests for the one range rule of `schema`: a bound declared as `Annotated[T, Range(...)]`."""

from typing import Annotated

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragmeter.schema import Range, refusal

NUMBERS = st.integers(-10**6, 10**6) | st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def ranges(draw) -> Range:
    low = draw(NUMBERS)
    high = draw(st.none() | NUMBERS.filter(lambda high: high >= low))
    return Range(low, high, open_low=draw(st.booleans()), open_high=draw(st.booleans()))


def written_out(bound: Range) -> str:
    if bound.high is None:
        return f"> {bound.low}" if bound.open_low else f">= {bound.low}"
    left, right = "(["[not bound.open_low], ")]"[not bound.open_high]
    return f"in {left}{bound.low}, {bound.high}{right}"


@given(bound=ranges(), value=NUMBERS | st.floats(allow_nan=False, allow_infinity=False))
def test_a_number_is_refused_exactly_outside_its_bound(bound, value):
    above = value > bound.low or (value == bound.low and not bound.open_low)
    below = bound.high is None or value < bound.high or (value == bound.high and not bound.open_high)
    problem = refusal(value, Annotated[float, bound], "x")
    assert problem == (None if above and below else f"x must be {written_out(bound)}, got {value!r}")


@given(bound=ranges())
def test_none_is_outside_a_bounds_reach(bound):
    assert refusal(None, Annotated[int | None, bound], "x") is None


@pytest.mark.parametrize("value, message", [
    ("1", "x must be a number, got '1'"),
    (float("nan"), "x must be a number, got nan"),
    (True, "x must be a number, got True"),
])
def test_the_type_is_checked_before_the_bound(value, message):
    assert refusal(value, Annotated[float, Range(0, 1)], "x") == message


@pytest.mark.parametrize("bound, wording", [
    (Range(1), ">= 1"),
    (Range(0, open_low=True), "> 0"),
    (Range(0, 1), "in [0, 1]"),
    (Range(0, 1, open_low=True), "in (0, 1]"),
    (Range(0, 1, open_high=True), "in [0, 1)"),
    (Range(0, 1, open_low=True, open_high=True), "in (0, 1)"),
])
def test_each_bound_has_one_wording(bound, wording):
    assert refusal(-1, Annotated[int, bound], "x") == f"x must be {wording}, got -1"
