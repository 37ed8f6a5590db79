import math

import pytest

from auditloop.errors import InvalidParams, check_number

INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "value, interval, inside",
    [
        (0.0, "(0, 1]", False), (5e-324, "(0, 1]", True), (1.0, "(0, 1]", True), (1.0, "(0, 1)", False),
        (0, "[0, 1]", True), (1, "[0, 1]", True), (-0.0, "[0, inf)", True), (-1e-300, "[0, inf)", False),
        (1e308, "[0, inf)", True), (INF, "[0, inf)", False), (-INF, "(-inf, inf)", False),
        (NAN, "(-inf, inf)", False), (NAN, "[0, 1]", False),
    ],
)
def test_check_number_keeps_a_value_inside_its_interval(value, interval, inside):
    if inside:
        assert check_number("x", value, interval) == float(value)
    else:
        with pytest.raises(InvalidParams) as exc:
            check_number("x", value, interval)
        assert str(exc.value) == f"x must lie in {interval}"


@pytest.mark.parametrize(
    "value, message",
    [(True, "x must be a number, not True"), ("0.5", "x must be a number, not '0.5'"),
     (None, "x must be a number, not None"), ([1.0], "x must be a number, not [1.0]"),
     (10**400, "x must be a number within a float's range")],
    ids=["bool", "string", "null", "array", "huge-integer"],
)
def test_check_number_refuses_what_is_not_a_float_before_any_interval(value, message):
    for interval in (None, "(-inf, inf)"):
        with pytest.raises(InvalidParams) as exc:
            check_number("x", value, interval)
        assert str(exc.value) == message


def test_check_number_without_an_interval_takes_nan_and_infinities():
    assert math.isnan(check_number("score", NAN))
    assert check_number("score", -INF) == -INF
