"""Canonical rational strings: lowest terms out, exact values in."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetlift.rationals import (
    MAX_DECIMAL_EXPONENT,
    MAX_RATIONAL_DIGITS,
    exact_sum,
    format_rational,
    parse_rational,
)


def test_format_examples():
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(5, -10)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


@pytest.mark.parametrize(
    "x, text",
    [(0, "0"), (7, "7"), (-12, "-12"), (Fraction(-4, 6), "-2/3"), (Fraction(9, -3), "-3")],
)
def test_format_prints_ints_negatives_and_fractions_as_str_of_a_fraction(x, text):
    assert format_rational(x) == str(Fraction(x)) == text


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
    # Longer than the cap with short digit runs: read, not refused.
    assert parse_rational(" " * MAX_RATIONAL_DIGITS + "-2/3") == Fraction(-2, 3)


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


# Most of these denominators share factors, so a sum's common denominator
# is not the product of its terms' denominators.
SUM_TERMS = st.lists(
    st.tuples(
        st.integers(-10**6, 10**6),
        st.builds(
            Fraction,
            st.integers(-(2**80), 2**80),
            st.sampled_from([1, 2, 6, 9, 12, 2**40, 3 * 2**39, 10**30 + 7]),
        ),
    ),
    max_size=8,
)


@given(SUM_TERMS)
def test_exact_sum_is_the_sum_of_fractions(terms):
    want = sum((c * v for c, v in terms), Fraction(0))
    got = exact_sum(terms)
    assert type(got) is Fraction and got == want
