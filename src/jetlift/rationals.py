"""Canonical string form for exact rationals used in every JSON interface."""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

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


_ZERO = Fraction(0)


def exact_sum(terms: Iterable[tuple[int, Fraction]]) -> Fraction:
    """The exact value of ``sum(c * v for c, v in terms)``, in lowest terms.

    The numerators are summed in integers over the least common multiple
    ``d`` of these terms' denominators, grown term by term, and the result
    is normalised once, where adding ``Fraction``s normalises after every
    term.  Scaling is per sum: ``d`` divides the product of this sum's own
    denominators, so no term grows past them.  A denominator shared by a
    whole table row could have the row's cell count times
    ``MAX_RATIONAL_DIGITS`` digits, and would make every term a bignum
    product.  A zero sum is a shared ``Fraction(0)``; none is built."""
    n, d = 0, 1
    for c, v in terms:
        q = v.denominator
        if d % q:  # n over d becomes n over lcm(d, q)
            n, d = n * (q // gcd(d, q)), lcm(d, q)
        n += c * v.numerator * (d // q)
    return Fraction(n, d) if n else _ZERO


def format_rational(x: Fraction | int) -> str:
    """Lowest terms, sign on the numerator; integers print bare.  A
    ``Fraction`` is held in that form already, so it prints as it is."""
    return str(x)


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
        # Digit groups may be split by underscores ("1_000").  A string of
        # at most MAX_RATIONAL_DIGITS characters holds no longer digit run,
        # and only one with an "e" or "E" can hold an exponent.
        if len(value) > MAX_RATIONAL_DIGITS:
            longest = max(map(len, _DIGIT_RUN.findall(value.replace("_", ""))), default=0)
            if longest > MAX_RATIONAL_DIGITS:
                raise ValueError(
                    f"a number of {longest} digits in a rational string; "
                    f"at most {MAX_RATIONAL_DIGITS} accepted"
                )
        if "e" in value or "E" in value:
            exp = _EXPONENT.search(value.replace("_", ""))
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
    """A list of exact integers, as a tuple.  A list of plain ``int``s,
    all that JSON gives, is taken whole; any other is read entry by entry
    and refused at its first bad entry."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    if set(map(type, value)) <= {int}:
        return tuple(value)
    return tuple(parse_int(x, what) for x in value)


def parse_objects(value, what: str, *keys: str) -> list[dict]:
    """A JSON list of objects, each with exactly the keys ``keys``.  One
    object is read as the list of it."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} objects must come in a list, got {value!r}")
    want = set(keys)
    for entry in value:
        if not isinstance(entry, dict) or entry.keys() != want:
            got = sorted(entry) if isinstance(entry, dict) else repr(entry)
            raise ValueError(f"{what} object needs keys {', '.join(keys)}; got {got}")
    return list(value)
