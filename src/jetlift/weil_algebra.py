"""Truncated polynomial algebras with exact rational coefficients.

The algebra with parameters ``(r, k)`` is spanned by the monomials ``x^e``
of total degree at most ``r`` in ``k`` variables; a product whose degree
overflows ``r`` is zero.  For ``r == 0`` or ``k == 0`` the algebra collapses
to the scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .multiindex import MultiIndex, add, degree, enumerate_degree_at_most, support
from .rationals import parse_int


@dataclass(frozen=True)
class AlgebraParams:
    """Truncation order ``r`` and variable count ``k``, with the derived
    monomial basis in canonical order."""

    r: int
    k: int

    def __post_init__(self) -> None:
        if parse_int(self.r, "truncation order") < 0:
            raise ValueError(f"truncation order must be non-negative, got {self.r}")
        if parse_int(self.k, "variable count") < 0:
            raise ValueError(f"variable count must be non-negative, got {self.k}")

    @cached_property
    def basis(self) -> tuple[MultiIndex, ...]:
        return tuple(enumerate_degree_at_most(self.k, self.r))

    @cached_property
    def basis_index(self) -> Mapping[MultiIndex, int]:
        return {a: i for i, a in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(degree(a) for a in self.basis)

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(support(a) for a in self.basis)

    @cached_property
    def product_index(self) -> tuple[tuple[int | None, ...], ...]:
        """Basis-position product table; ``None`` marks a truncated product.
        The tests' reference: the product-rule routes read each product
        from the integer codes (``MonomialCodes.factors``) instead."""
        idx = self.basis_index
        return tuple(
            tuple(idx.get(add(z, e)) for e in self.basis) for z in self.basis
        )


def _as_fraction(c) -> Fraction:
    """An exact coefficient.  Floats, bools and strings are refused rather
    than coerced; strings are read with ``parse_rational`` at the JSON
    boundary."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (float, bool, str)):
        raise TypeError(f"{type(c).__name__} coefficient {c!r} refused: coefficients are exact")
    return Fraction(c)


@dataclass(frozen=True)
class AlgebraElement:
    """A finite rational combination of basis monomials, the argument and
    target type of ``evaluate``.

    ``coeffs`` maps basis positions (``int``) to nonzero coefficients;
    zeros are dropped on construction so equality is plain dict equality.
    """

    params: AlgebraParams
    coeffs: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        dim = self.params.dim
        clean: dict[int, Fraction] = {}
        for pos, c in self.coeffs.items():
            if not 0 <= parse_int(pos, "basis position") < dim:
                raise ValueError(f"basis position {pos} out of range 0..{dim - 1}")
            f = _as_fraction(c)
            if f:
                clean[pos] = f
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def from_terms(cls, params: AlgebraParams, terms: Mapping[MultiIndex, object]) -> "AlgebraElement":
        coeffs: dict[int, Fraction] = {}
        for alpha, c in terms.items():
            alpha = tuple(alpha)
            pos = params.basis_index.get(alpha)
            if pos is None:
                raise ValueError(f"monomial {alpha} is not in the degree-{params.r} basis")
            coeffs[pos] = coeffs.get(pos, Fraction(0)) + _as_fraction(c)
        return cls(params, coeffs)
