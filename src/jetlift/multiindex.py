"""Exact combinatorics of exponent vectors.

A multi-index is a plain tuple of non-negative integers, one exponent per
variable, so ``x^a`` means ``x1^a[0] * ... * xk^a[k-1]``.  Axis arguments are
1-based in every public signature.
"""

from __future__ import annotations

import math
from typing import Iterator

MultiIndex = tuple[int, ...]

# Counts (dimensions, unknowns) are computed exactly up to ``COUNT_CAP``, the
# largest number of ``MAX_COUNT_DIGITS`` decimal digits, the most Python
# 3.11+ writes as text by default; larger ones are bounded with
# ``capped_binomial`` and refused.
MAX_COUNT_DIGITS = 4300
COUNT_CAP = 10**MAX_COUNT_DIGITS - 1


def degree(a: MultiIndex) -> int:
    """Total degree of ``a``: the sum of its exponents."""
    return sum(a)


def add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Entrywise sum, the exponent of the product ``x^a * x^b``."""
    if len(a) != len(b):
        raise ValueError(f"multi-index lengths differ: {len(a)} != {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def unit(k: int, j: int) -> MultiIndex:
    """The standard basis vector e_j in N^k (1-based axis)."""
    if not 1 <= j <= k:
        raise ValueError(f"axis {j} out of range 1..{k}")
    return tuple(int(i == j - 1) for i in range(k))


def sub_unit(a: MultiIndex, j: int) -> MultiIndex:
    """``a - e_j`` for a 1-based axis ``j`` that must lie in the support."""
    if not 1 <= j <= len(a):
        raise ValueError(f"axis {j} out of range 1..{len(a)}")
    if a[j - 1] == 0:
        raise ValueError(f"axis {j} is not in the support of {a}")
    return a[: j - 1] + (a[j - 1] - 1,) + a[j:]


def support(a: MultiIndex) -> tuple[int, ...]:
    """Ascending 1-based axes with a positive exponent."""
    return tuple(j for j, x in enumerate(a, start=1) if x > 0)


def _compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    # Largest leading exponent first; this is exactly the canonical order
    # within one degree.
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_degree_exactly(k: int, d: int) -> list[MultiIndex]:
    """All multi-indices in N^k of total degree exactly ``d``, canonical order."""
    if k < 0:
        raise ValueError(f"variable count must be non-negative, got {k}")
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    return list(_compositions(d, k))


def enumerate_degree_at_most(k: int, d: int) -> list[MultiIndex]:
    """All multi-indices in N^k of total degree at most ``d``.

    The result is in canonical (graded-lexicographic) order; every other
    module indexes monomials by position in this list.
    """
    if k < 0:
        raise ValueError(f"variable count must be non-negative, got {k}")
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    out: list[MultiIndex] = []
    for v in range(d + 1):
        out.extend(_compositions(v, k))
    return out


def binomial(n: int, m: int) -> int:
    """Binomial coefficient with fixed edge conventions.

    ``binomial(n, 0) == 1`` for every ``n`` (including negative ``n``),
    ``binomial(n, m) == 0`` whenever ``m < 0`` or ``n < m``.  These are the
    conventions under which the closed-form dimension count stays valid in
    the degenerate parameter ranges.
    """
    if m == 0:
        return 1
    if m < 0 or n < m:
        return 0
    return math.comb(n, m)


def capped_binomial(n: int, m: int, cap: int) -> int:
    """``binomial(n, m)``, or ``cap + 1`` if it is larger.
    The running value ``binomial(n, i)`` is at least ``2**i`` for
    ``i <= n/2``, so the loop passes the cap within about ``log2(cap)``
    steps and never holds a number above ``cap * n``."""
    if m == 0:
        return 1
    m = min(m, n - m)
    if m < 0:
        return 0
    value = 1
    for i in range(m):
        value = value * (n - i) // (i + 1)
        if value > cap:
            return cap + 1
    return value
