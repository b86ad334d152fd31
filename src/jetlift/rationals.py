"""Canonical string form for exact rationals used in every JSON interface."""

from __future__ import annotations

import re
from fractions import Fraction

# Caps on rational strings, checked before ``Fraction`` sees them: a long
# exponent makes ``Fraction`` build a huge power of ten, and a long digit
# string costs quadratic time to convert on Python 3.10.  With both caps a
# numerator or denominator read has at most 4,100 digits, under the 4,300
# that ``int`` and ``str`` convert by default on Python 3.11+, so what is
# read can be written back.
MAX_RATIONAL_DIGITS = 4000
MAX_DECIMAL_EXPONENT = 100
_DIGIT_RUN = re.compile(r"\d+")
_EXPONENT = re.compile(r"[eE][-+]?(\d+)\s*\Z")


def format_rational(x: Fraction) -> str:
    """Lowest terms, sign on the numerator; integers print bare."""
    return str(Fraction(x))


def parse_rational(value: int | str) -> Fraction:
    """Accept an integer or a string ``Fraction`` understands (``p/q``,
    ``p``, exact decimal literals).  Float objects are refused: every
    interface is exact.  Strings with a number of more than
    ``MAX_RATIONAL_DIGITS`` digits (numerator, denominator, integer or
    fractional part) or a decimal exponent beyond ``MAX_DECIMAL_EXPONENT``
    in magnitude are refused before any arithmetic."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Digit groups may be split by underscores ("1_000").
        digits = value.replace("_", "")
        longest = max((len(run) for run in _DIGIT_RUN.findall(digits)), default=0)
        if longest > MAX_RATIONAL_DIGITS:
            raise ValueError(
                f"a number of {longest} digits in a rational string; "
                f"at most {MAX_RATIONAL_DIGITS} accepted"
            )
        exp = _EXPONENT.search(digits)
        if exp and int(exp.group(1)) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r} (exact strings or integers only)")


def parse_int(value, what: str) -> int:
    """An exact integer field; bools, floats and strings are refused rather
    than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def parse_int_list(value, what: str) -> tuple[int, ...]:
    """A list of exact integers, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(parse_int(x, what) for x in value)
