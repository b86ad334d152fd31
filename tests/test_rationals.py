"""Canonical rational strings: lowest terms out, exact values in."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetlift.rationals import (
    MAX_DECIMAL_EXPONENT,
    MAX_RATIONAL_DIGITS,
    format_rational,
    parse_rational,
)


def test_format_examples():
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(5, -10)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


def test_parse_examples():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(12) == Fraction(12)
    assert parse_rational("0.5") == Fraction(1, 2)


def test_parse_rejects_non_rationals():
    with pytest.raises(ValueError):
        parse_rational("abc")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational(0.5)


def test_parse_accepts_exponents_and_digits_up_to_the_caps():
    cap = MAX_DECIMAL_EXPONENT
    assert parse_rational(f"1e{cap}") == 10**cap
    assert parse_rational(f"3E-{cap}") == Fraction(3, 10**cap)
    assert parse_rational(f"1e+{cap}") == 10**cap
    nines = 10**MAX_RATIONAL_DIGITS - 1
    assert parse_rational("9" * MAX_RATIONAL_DIGITS) == nines
    both = "9" * MAX_RATIONAL_DIGITS + "/" + "9" * (MAX_RATIONAL_DIGITS - 1)
    assert parse_rational(both) == Fraction(nines, nines // 10)


@pytest.mark.parametrize(
    "text",
    [
        f"1e{MAX_DECIMAL_EXPONENT + 1}",
        f"1e-{MAX_DECIMAL_EXPONENT + 1}",
        f"2.5E+{MAX_DECIMAL_EXPONENT + 1}",
        f"1e{MAX_DECIMAL_EXPONENT // 10}_{MAX_DECIMAL_EXPONENT % 10 + 1}",
        "1e400",
        # An exponent string long enough that building 10**N would never
        # finish; it is refused by the digit cap before any arithmetic.
        "1e" + "9" * (MAX_RATIONAL_DIGITS + 1),
        "1e" + "9" * MAX_RATIONAL_DIGITS,
        "9" * (MAX_RATIONAL_DIGITS + 1),
        "1/" + "7" * (MAX_RATIONAL_DIGITS + 1),
        "0." + "5" * (MAX_RATIONAL_DIGITS + 1),
    ],
)
def test_parse_refuses_strings_over_the_caps(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@given(st.fractions(max_denominator=10**6))
def test_roundtrip_is_identity(q):
    assert parse_rational(format_rational(q)) == q
