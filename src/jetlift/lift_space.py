"""Skew-symmetric multilinear lift tables over a truncated polynomial algebra.

A lift table stores the values ``F(x_{i1}, ..., x_{is})(x^a)`` of a
skew-symmetric s-linear map with functional values: one row per strictly
increasing axis tuple, one column per basis monomial.  The distinguished
*free cells* are the positions whose values can be chosen independently;
``construct`` completes a choice of free values to the full table and
``evaluate`` extends the table multilinearly to arbitrary algebra elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Mapping, NamedTuple, Sequence

from .multiindex import MultiIndex, add, binomial, degree, sub_unit, support, unit
from .rationals import (
    format_rational,
    parse_int,
    parse_int_list,
    parse_object,
    parse_objects,
    parse_rational,
)
from .weil_algebra import AlgebraElement, AlgebraParams, _as_fraction

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class LiftParams:
    """Algebra parameters plus the arity ``s`` of the multilinear maps."""

    algebra: AlgebraParams
    s: int

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError(f"arity must be non-negative, got {self.s}")

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Strictly increasing axis s-tuples in lexicographic order; one
        table row each."""
        return tuple(combinations(range(1, self.algebra.k + 1), self.s))

    @cached_property
    def row_index(self) -> Mapping[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.rows)}


def read_params(data, what: str, field: str) -> LiftParams:
    """The parameters of a JSON ``what`` object with keys ``r``, ``k``,
    ``s`` and ``field``, read without enumerating anything."""
    data = parse_object(data, what, "r", "k", "s", field)
    return LiftParams(
        AlgebraParams(parse_int(data["r"], "r"), parse_int(data["k"], "k")),
        parse_int(data["s"], "s"),
    )


class FreeCell(NamedTuple):
    """A table position (axis tuple, target monomial)."""

    axes: tuple[int, ...]
    alpha: MultiIndex


def _is_free(axes: tuple[int, ...], alpha: MultiIndex, r: int) -> bool:
    # Bound cells are exactly the full-degree columns whose supported axes
    # all sit at or below the row's last axis; for 0-ary tables every cell
    # is free (the maps are plain functionals, nothing constrains them).
    if not axes:
        return True
    if degree(alpha) < r:
        return True
    sup = support(alpha)
    return bool(sup) and axes[-1] < sup[-1]


def free_cells(params: LiftParams) -> list[FreeCell]:
    """The cells whose values determine the whole table, ordered row-major:
    axis tuples lexicographically, monomials canonically within a row."""
    r = params.algebra.r
    return [
        FreeCell(axes, a)
        for axes in params.rows
        for a in params.algebra.basis
        if _is_free(axes, a, r)
    ]


def dimension(params: LiftParams) -> int:
    """Closed-form count of the free cells, valid in every degenerate
    parameter range under the fixed binomial conventions."""
    r, k, s = params.algebra.r, params.algebra.k, params.s
    # The second factor first: it is 0 for s > k, where the first can be huge.
    tail = binomial(r + k, r + s)
    return binomial(r + s - 1, s) * tail if tail else 0


def sort_with_sign(t: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sorted copy of ``t`` and the sign of the sorting permutation, or
    ``None`` when an entry repeats."""
    n = len(t)
    inv = 0
    for i in range(n):
        ti = t[i]
        for j in range(i + 1, n):
            if ti == t[j]:
                return None
            if ti > t[j]:
                inv += 1
    return tuple(sorted(t)), (-1 if inv & 1 else 1)


@dataclass(frozen=True)
class CoefficientAssignment:
    """One exact rational per free cell; the coordinates of a lift map."""

    params: LiftParams
    values: Mapping[FreeCell, Fraction]

    def __post_init__(self) -> None:
        clean = {
            FreeCell(tuple(cell[0]), tuple(cell[1])): _as_fraction(v)
            for cell, v in self.values.items()
        }
        expected = set(free_cells(self.params))
        if set(clean) != expected:
            missing = sorted(expected - set(clean))[:3]
            extra = sorted(set(clean) - expected)[:3]
            raise ValueError(
                "assignment does not cover the free cells exactly"
                + (f"; missing {missing}" if missing else "")
                + (f"; extra {extra}" if extra else "")
            )
        object.__setattr__(self, "values", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, params: LiftParams) -> "CoefficientAssignment":
        return cls(params, {c: Fraction(0) for c in free_cells(params)})

    @classmethod
    def unit(cls, params: LiftParams, cell: FreeCell) -> "CoefficientAssignment":
        cell = FreeCell(tuple(cell[0]), tuple(cell[1]))
        vals = {c: Fraction(0) for c in free_cells(params)}
        if cell not in vals:
            raise ValueError(f"{cell} is not a free cell")
        vals[cell] = Fraction(1)
        return cls(params, vals)

    @classmethod
    def random(cls, params: LiftParams, seed: int = DEFAULT_SEED) -> "CoefficientAssignment":
        rng = random.Random(seed)
        return cls(
            params,
            {
                c: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for c in free_cells(params)
            },
        )

    # -- arithmetic (linearity in the assignment) ---------------------------

    def scaled(self, c) -> "CoefficientAssignment":
        f = _as_fraction(c)
        return CoefficientAssignment(self.params, {z: f * v for z, v in self.values.items()})

    def __rmul__(self, c) -> "CoefficientAssignment":
        return self.scaled(c)

    def __add__(self, other: "CoefficientAssignment") -> "CoefficientAssignment":
        if self.params != other.params:
            raise ValueError("lift parameters differ")
        return CoefficientAssignment(
            self.params, {z: v + other.values[z] for z, v in self.values.items()}
        )

    def vector(self) -> tuple[Fraction, ...]:
        """Values in the canonical free-cell order."""
        return tuple(self.values[c] for c in free_cells(self.params))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        p = self.params
        return {
            "r": p.algebra.r,
            "k": p.algebra.k,
            "s": p.s,
            "values": [
                {
                    "i": list(c.axes),
                    "alpha": list(c.alpha),
                    "c": format_rational(self.values[c]),
                }
                for c in free_cells(p)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoefficientAssignment":
        params = read_params(data, "assignment", "values")
        vals: dict[FreeCell, Fraction] = {}
        for entry in parse_objects(data["values"], "value", "i", "alpha", "c"):
            cell = FreeCell(
                parse_int_list(entry["i"], "i"), parse_int_list(entry["alpha"], "alpha")
            )
            if cell in vals:
                raise ValueError(f"duplicate cell {cell}")
            vals[cell] = parse_rational(entry["c"])
        return cls(params, vals)


@dataclass(frozen=True)
class LiftTable:
    """The full grid of generator values, rows in ``params.rows`` order and
    columns in canonical monomial order.  Tables are immutable; use
    ``with_cell`` to build perturbed copies."""

    params: LiftParams
    cells: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = self.params.rows
        dim = self.params.algebra.dim
        if len(self.cells) != len(rows):
            raise ValueError(f"expected {len(rows)} rows, got {len(self.cells)}")
        frozen = []
        for row in self.cells:
            if len(row) != dim:
                raise ValueError(f"expected {dim} columns, got {len(row)}")
            frozen.append(tuple(_as_fraction(v) for v in row))
        object.__setattr__(self, "cells", tuple(frozen))

    def cell(self, axes: tuple[int, ...], alpha: MultiIndex) -> Fraction:
        p = self.params
        return self.cells[p.row_index[tuple(axes)]][p.algebra.basis_index[tuple(alpha)]]

    def with_cell(self, axes: tuple[int, ...], alpha: MultiIndex, value) -> "LiftTable":
        p = self.params
        ri = p.row_index[tuple(axes)]
        ci = p.algebra.basis_index[tuple(alpha)]
        rows = [list(row) for row in self.cells]
        rows[ri][ci] = _as_fraction(value)
        return LiftTable(p, tuple(tuple(row) for row in rows))

    # -- pointwise linear structure ------------------------------------------

    def scaled(self, c) -> "LiftTable":
        f = _as_fraction(c)
        return LiftTable(
            self.params, tuple(tuple(f * v for v in row) for row in self.cells)
        )

    def __rmul__(self, c) -> "LiftTable":
        return self.scaled(c)

    def __add__(self, other: "LiftTable") -> "LiftTable":
        if self.params != other.params:
            raise ValueError("lift parameters differ")
        return LiftTable(
            self.params,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.cells, other.cells)
            ),
        )

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        p = self.params
        return {
            "r": p.algebra.r,
            "k": p.algebra.k,
            "s": p.s,
            "cells": [
                {
                    "i": list(axes),
                    "alpha": list(alpha),
                    "v": format_rational(self.cells[ri][ci]),
                }
                for ri, axes in enumerate(p.rows)
                for ci, alpha in enumerate(p.algebra.basis)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LiftTable":
        params = read_params(data, "table", "cells")
        seen: dict[tuple[tuple[int, ...], MultiIndex], Fraction] = {}
        for entry in parse_objects(data["cells"], "cell", "i", "alpha", "v"):
            key = (parse_int_list(entry["i"], "i"), parse_int_list(entry["alpha"], "alpha"))
            if key in seen:
                raise ValueError(f"duplicate cell {key}")
            seen[key] = parse_rational(entry["v"])
        rows = []
        for axes in params.rows:
            row = []
            for alpha in params.algebra.basis:
                if (axes, alpha) not in seen:
                    raise ValueError(f"missing cell ({axes}, {alpha})")
                row.append(seen.pop((axes, alpha)))
            rows.append(tuple(row))
        if seen:
            raise ValueError(f"unexpected cells {sorted(seen)[:3]}")
        return cls(params, tuple(rows))


# -- construction ------------------------------------------------------------


def construct(assignment: CoefficientAssignment) -> LiftTable:
    """Complete an assignment on the free cells to the full table.

    A bound cell sits at a row ``i1 < ... < is`` and a full-degree monomial
    ``a`` whose supported axes all lie at or below ``is``.  Expanding the
    vanishing product ``x^(a + e_is)`` along the last slot must give zero,
    and solving that single relation for the bound cell expresses it through
    cells at strictly smaller last axes -- which are all free, so one pass
    over the grid suffices.
    """
    p = assignment.params
    alg = p.algebra
    free = assignment.values
    k = alg.k
    rows = []
    for axes in p.rows:
        row = []
        for a in alg.basis:
            probe = FreeCell(axes, a)
            if probe in free:
                row.append(free[probe])
            else:
                row.append(_bound_cell(free, axes, a, k))
        rows.append(tuple(row))
    return LiftTable(p, tuple(rows))


def _bound_cell(
    free: Mapping[FreeCell, Fraction], axes: tuple[int, ...], alpha: MultiIndex, k: int
) -> Fraction:
    i_last = axes[-1]
    lead = axes[:-1]
    raised = add(alpha, unit(k, i_last))
    acc = Fraction(0)
    for j in support(alpha):
        if j == i_last:
            continue
        res = sort_with_sign(lead + (j,))
        if res is None:
            continue
        tup, sign = res
        cell = FreeCell(tup, sub_unit(raised, j))
        if cell not in free:
            # Unreachable when the free-cell predicate is right: the lookup's
            # last axis is below the raised monomial's top supported axis.
            raise AssertionError(
                f"bound cell ({axes}, {alpha}) referenced non-free cell {cell}"
            )
        acc += alpha[j - 1] * sign * free[cell]
    return Fraction(-1, alpha[i_last - 1] + 1) * acc


def extract_coefficients(table: LiftTable) -> CoefficientAssignment:
    """Read the free cells back out of a table."""
    p = table.params
    bi = p.algebra.basis_index
    return CoefficientAssignment(
        p,
        {
            c: table.cells[p.row_index[c.axes]][bi[c.alpha]]
            for c in free_cells(p)
        },
    )


# -- evaluation ---------------------------------------------------------------


def lookup_skew(table: LiftTable, axes: Sequence[int], alpha: MultiIndex) -> Fraction:
    """Table value at an arbitrary axis tuple: zero on a repeated axis,
    otherwise the signed cell at the sorted tuple."""
    p = table.params
    axes = tuple(axes)
    alpha = tuple(alpha)
    if len(axes) != p.s:
        raise ValueError(f"expected {p.s} axes, got {len(axes)}")
    k = p.algebra.k
    for j in axes:
        if not 1 <= j <= k:
            raise ValueError(f"axis {j} out of range 1..{k}")
    ci = p.algebra.basis_index.get(alpha)
    if ci is None:
        raise ValueError(f"monomial {alpha} is not in the degree-{p.algebra.r} basis")
    res = sort_with_sign(axes)
    if res is None:
        return Fraction(0)
    tup, sign = res
    return sign * table.cells[p.row_index[tup]][ci]


class TableEvaluator:
    """Memoising evaluator of a fixed table on tuples of basis monomials.

    Values are computed honestly from the stored cells: each argument
    monomial is peeled one supported axis at a time, the leftover exponents
    migrate into the target, and the resulting degree-one tuple is read off
    the table with the sign of its sorting permutation.  Everything is keyed
    by basis position; the verifier's sweeps and the oracle's table
    expansion lean on this.

    Two kinds of tuple give zero before any cell is read: one with a
    constant argument monomial, and one whose argument and target degrees
    sum past r + s.  The verifier's sweeps decide the tuples that hit these
    zeros without calling the evaluator, and the oracle's ``expand_table``
    evaluates only the unknowns that miss both (``live_columns``), so they
    must stay exactly as they are in ``_compute``.
    """

    def __init__(self, table: LiftTable):
        self.table = table
        p = table.params
        alg = p.algebra
        self._s = p.s
        self._cap = alg.r + p.s
        self._deg = alg.degrees
        self._sup = alg.supports
        self._exps = alg.basis
        self._index = alg.basis_index
        self._row_index = p.row_index
        self._cells = table.cells
        self._resolved: dict[tuple[int, ...], tuple[tuple[Fraction, ...], int] | None] = {}
        self._memo: dict[tuple[int, ...], Fraction] = {}

    def _resolve(self, axes: tuple[int, ...]):
        try:
            return self._resolved[axes]
        except KeyError:
            res = sort_with_sign(axes)
            out = None if res is None else (self._cells[self._row_index[res[0]]], res[1])
            self._resolved[axes] = out
            return out

    def monomials_by_index(self, gammas: tuple[int, ...], delta: int) -> Fraction:
        key = gammas + (delta,)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        val = self._compute(gammas, delta)
        self._memo[key] = val
        return val

    def _compute(self, gammas: tuple[int, ...], delta: int) -> Fraction:
        deg = self._deg
        total = deg[delta]
        for g in gammas:
            total += deg[g]
        if total > self._cap:
            return Fraction(0)
        sup = self._sup
        supports = []
        for g in gammas:
            sg = sup[g]
            if not sg:
                return Fraction(0)
            supports.append(sg)
        exps = self._exps
        gs = [exps[g] for g in gammas]
        base = list(exps[delta])
        for e in gs:
            for i, x in enumerate(e):
                base[i] += x
        index = self._index
        acc = Fraction(0)
        for jt in product(*supports):
            res = self._resolve(jt)
            if res is None:
                continue
            row, sign = res
            coeff = sign
            exp = list(base)
            for e, j in zip(gs, jt):
                coeff *= e[j - 1]
                exp[j - 1] -= 1
            cell = row[index[tuple(exp)]]
            if cell:
                acc += coeff * cell
        return acc


def evaluate(
    table: LiftTable, elements: Sequence[AlgebraElement], target: AlgebraElement
) -> Fraction:
    """Full multilinear extension: expand every argument and the target over
    the basis and sum the monomial values."""
    p = table.params
    if len(elements) != p.s:
        raise ValueError(f"expected {p.s} argument elements, got {len(elements)}")
    for e in (*elements, target):
        if e.params != p.algebra:
            raise ValueError("element algebra parameters differ from the table's")
    ev = TableEvaluator(table)
    acc = Fraction(0)
    for combo in product(*(e.coeffs.items() for e in elements)):
        cf = Fraction(1)
        for _, c in combo:
            cf *= c
        gidx = tuple(pos for pos, _ in combo)
        for dpos, dc in target.coeffs.items():
            val = ev.monomials_by_index(gidx, dpos)
            if val:
                acc += cf * dc * val
    return acc
