"""Canonical string form for exact rationals used in every JSON interface."""

from __future__ import annotations

from fractions import Fraction


def format_rational(x: Fraction) -> str:
    """Lowest terms, sign on the numerator; integers print bare."""
    return str(Fraction(x))


def parse_rational(value: int | str) -> Fraction:
    """Accept an integer or a string ``Fraction`` understands (``p/q``,
    ``p``, exact decimal literals).  Float objects are refused: every
    interface is exact."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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
