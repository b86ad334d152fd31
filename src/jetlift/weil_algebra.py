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
from .rationals import (
    format_rational,
    parse_int,
    parse_int_list,
    parse_object,
    parse_objects,
    parse_rational,
)


@dataclass(frozen=True)
class AlgebraParams:
    """Truncation order ``r`` and variable count ``k``, with the derived
    monomial basis in canonical order."""

    r: int
    k: int

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"truncation order must be non-negative, got {self.r}")
        if self.k < 0:
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
        """Basis-position product table; ``None`` marks a truncated product."""
        idx = self.basis_index
        return tuple(
            tuple(idx.get(add(z, e)) for e in self.basis) for z in self.basis
        )


def _as_fraction(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r} refused: coefficients are exact")
    return Fraction(c)


@dataclass(frozen=True)
class AlgebraElement:
    """A finite rational combination of basis monomials.

    ``coeffs`` maps basis positions to nonzero coefficients; zeros are
    dropped on construction so equality is plain dict equality.
    """

    params: AlgebraParams
    coeffs: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        dim = self.params.dim
        clean: dict[int, Fraction] = {}
        for pos, c in self.coeffs.items():
            pos = int(pos)
            if not 0 <= pos < dim:
                raise ValueError(f"basis position {pos} out of range 0..{dim - 1}")
            f = _as_fraction(c)
            if f:
                clean[pos] = f
        object.__setattr__(self, "coeffs", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: AlgebraParams) -> "AlgebraElement":
        return cls(params, {})

    @classmethod
    def one(cls, params: AlgebraParams) -> "AlgebraElement":
        return cls(params, {0: Fraction(1)})

    @classmethod
    def monomial(cls, params: AlgebraParams, alpha: MultiIndex, coeff=1) -> "AlgebraElement":
        return cls.from_terms(params, {tuple(alpha): coeff})

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

    # -- queries -----------------------------------------------------------

    def coefficient(self, alpha: MultiIndex) -> Fraction:
        pos = self.params.basis_index.get(tuple(alpha))
        if pos is None:
            raise ValueError(f"monomial {tuple(alpha)} is not in the degree-{self.params.r} basis")
        return self.coeffs.get(pos, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic ---------------------------------------------------------

    def _require_same(self, other: "AlgebraElement") -> None:
        if self.params != other.params:
            raise ValueError("algebra parameters differ")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        acc = dict(self.coeffs)
        for pos, c in other.coeffs.items():
            acc[pos] = acc.get(pos, Fraction(0)) + c
        return AlgebraElement(self.params, acc)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.params, {p: -c for p, c in self.coeffs.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scaled(self, c) -> "AlgebraElement":
        f = _as_fraction(c)
        return AlgebraElement(self.params, {p: f * v for p, v in self.coeffs.items()})

    def add_scaled(self, c, other: "AlgebraElement") -> "AlgebraElement":
        """``self + c * other`` in one step."""
        self._require_same(other)
        f = _as_fraction(c)
        acc = dict(self.coeffs)
        for pos, v in other.coeffs.items():
            acc[pos] = acc.get(pos, Fraction(0)) + f * v
        return AlgebraElement(self.params, acc)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            prod = self.params.product_index
            acc: dict[int, Fraction] = {}
            for i, ci in self.coeffs.items():
                row = prod[i]
                for j, cj in other.coeffs.items():
                    t = row[j]
                    if t is None:
                        continue
                    acc[t] = acc.get(t, Fraction(0)) + ci * cj
            return AlgebraElement(self.params, acc)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "r": self.params.r,
            "k": self.params.k,
            "terms": [
                {"exp": list(self.params.basis[pos]), "coeff": format_rational(c)}
                for pos, c in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AlgebraElement":
        data = parse_object(data, "element", "r", "k", "terms")
        params = AlgebraParams(parse_int(data["r"], "r"), parse_int(data["k"], "k"))
        terms: dict[MultiIndex, Fraction] = {}
        for entry in parse_objects(data["terms"], "term", "exp", "coeff"):
            exp = parse_int_list(entry["exp"], "exp")
            terms[exp] = terms.get(exp, Fraction(0)) + parse_rational(entry["coeff"])
        return cls.from_terms(params, terms)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for pos in sorted(self.coeffs):
            mono = "*".join(
                f"x{j}^{e}" if e > 1 else f"x{j}"
                for j, e in enumerate(self.params.basis[pos], start=1)
                if e
            )
            c = self.coeffs[pos]
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits)
