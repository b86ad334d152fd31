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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, product, repeat
from struct import Struct
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .multiindex import MultiIndex, add, binomial, degree, sub_unit, support, unit
from .rationals import (
    exact_sum,
    format_rational,
    parse_int,
    parse_int_list,
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
        if not isinstance(self.algebra, AlgebraParams):
            raise TypeError(f"algebra must be an AlgebraParams, got {self.algebra!r}")
        if parse_int(self.s, "arity") < 0:
            raise ValueError(f"arity must be non-negative, got {self.s}")

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Strictly increasing axis s-tuples in lexicographic order; one
        table row each."""
        return tuple(combinations(range(1, self.algebra.k + 1), self.s))

    @cached_property
    def row_index(self) -> Mapping[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.rows)}

    @cached_property
    def free_cell_set(self) -> frozenset[FreeCell]:
        """The free cells as a set, listed once per parameters."""
        return frozenset(free_cells(self))

    @cached_property
    def codes(self) -> MonomialCodes:
        """The integer codes of exponent vectors, built once per parameters."""
        return MonomialCodes(self)


def read_params(data, what: str, field: str) -> LiftParams:
    """The parameters of a JSON ``what`` object with keys ``r``, ``k``,
    ``s`` and ``field``, read without enumerating anything."""
    data = parse_objects([data], what, "r", "k", "s", field)[0]
    return LiftParams(
        AlgebraParams(parse_int(data["r"], "r"), parse_int(data["k"], "k")),
        parse_int(data["s"], "s"),
    )


class FreeCell(NamedTuple):
    """A table position (axis tuple, target monomial)."""

    axes: tuple[int, ...]
    alpha: MultiIndex


def free_cells(params: LiftParams) -> list[FreeCell]:
    """The cells whose values determine the whole table, ordered row-major:
    axis tuples lexicographically, monomials canonically within a row."""
    alg = params.algebra
    # For 0-ary tables every cell is free (the maps are plain functionals,
    # nothing constrains them).
    if not params.s:
        return [FreeCell((), a) for a in alg.basis]
    # Bound cells are exactly the full-degree columns whose supported axes
    # all sit at or below the row's last axis.
    return [
        FreeCell(axes, a)
        for axes in params.rows
        for a, d, sup in zip(alg.basis, alg.degrees, alg.supports)
        if d < alg.r or (sup and axes[-1] < sup[-1])
    ]


def multidegree(axes: Sequence[int], alpha: MultiIndex) -> MultiIndex:
    """The block of the cell ``(axes, alpha)``: its multidegree
    ``e_axes + alpha``."""
    m = list(alpha)
    for j in axes:
        m[j - 1] += 1
    return tuple(m)


def block_cells(params: LiftParams, m: MultiIndex) -> list[FreeCell]:
    """The cells of block ``m`` in row order: one per ``s``-subset ``I`` of
    the support of ``m``, with ``alpha = m - e_I``, when ``alpha`` is in
    the basis (``|m| - s <= r``)."""
    if degree(m) - params.s > params.algebra.r:
        return []
    out = []
    for axes in combinations(support(m), params.s):
        alpha = list(m)
        for j in axes:
            alpha[j - 1] -= 1
        out.append(FreeCell(axes, tuple(alpha)))
    return out


class MonomialCodes:
    """Exponent vectors coded as integers, and the divisor listings that
    both product-rule routes, the verifier's sweep and the oracle's block
    generator, walk to list the instances of one multidegree block.

    A code has a field of ``stride`` bits per variable (8, 16, 32 or 64)
    with room for ``(s + 1) * r``, an unknown's top degree, below the
    field's guard bit.  With ``G`` the guard bits, a field of
    ``(m | G) - g`` keeps its guard bit, and borrows nothing, exactly when
    ``g_i <= m_i``; so ``x^g`` divides ``x^m`` when
    ``((m | G) - g) & G == G``, and the quotient is ``m - g``.
    """

    def __init__(self, params: LiftParams):
        self.params = params

    @cached_property
    def stride(self) -> int:
        """The bits per variable: room for ``(s + 1) * r`` below a guard bit
        (with ``k > 0``, a basis past ``2**63`` is unlistable)."""
        top = (self.params.s + 1) * self.params.algebra.r
        return next((w for w in (8, 16, 32) if top < 1 << w - 1), 64)

    @cached_property
    def guard(self) -> int:
        """The top bit of every variable's field."""
        w = self.stride
        return ((1 << self.params.algebra.k * w) - 1) // ((1 << w) - 1) << w - 1

    @cached_property
    def _pack(self) -> Struct:
        kind = {8: "B", 16: "H", 32: "I", 64: "Q"}[self.stride]
        return Struct(f"<{self.params.algebra.k}{kind}")

    def code(self, m: MultiIndex) -> int:
        return int.from_bytes(self._pack.pack(*m), "little")

    @cached_property
    def codes(self) -> list[int]:
        """The code of each basis monomial, by basis position."""
        return [self.code(e) for e in self.params.algebra.basis]

    @cached_property
    def positions(self) -> dict[int, int]:
        """Basis position by code."""
        return {c: g for g, c in enumerate(self.codes)}

    def divisors(self, m: int, size: int) -> list[tuple[int, int]]:
        """The basis monomials dividing the code ``m`` of degree ``size``, as
        (position, code of the quotient), by ascending position."""
        found = self._divisor_cache.get(m)
        if found is None:
            guard, top = self.guard, m | self.guard
            codes = self.codes[: bisect_right(self.params.algebra.degrees, size)]
            found = [(g, m - c) for g, c in enumerate(codes) if (top - c) & guard == guard]
            self._divisor_cache[m] = found
        return found

    def picks(self, found: list, t: int, top: int) -> list[tuple[tuple[int, ...], int, int]]:
        """Each (combination, code of the rest, degree of the rest) of
        ``found`` extended by ``t`` picks of basis positions past its last,
        each dividing what is left, the last leaving a rest of degree at
        most ``top``.  A basis monomial has degree at most ``r``, so a pick
        must leave at most ``top`` plus ``r`` per pick still to come, and
        a basis position for each of those past its own."""
        alg = self.params.algebra
        deg, r, B, divisors = alg.degrees, alg.r, alg.dim, self.divisors
        for left in range(t - 1, -1, -1):
            if not found:
                break
            grown = []
            for combo, rest, size in found:
                divs = divisors(rest, size)
                # Basis positions are graded: the degree-d monomials start
                # at bisect_left(deg, d).
                low = bisect_left(deg, size - top - left * r)
                start = bisect_left(divs, (max(low, combo[-1] + 1 if combo else 0),))
                stop = bisect_left(divs, (B - left,))
                grown.extend([(combo + (g,), q, size - deg[g]) for g, q in divs[start:stop]])
            found = grown
        return found

    def factors(self, m: int, size: int) -> list[tuple[int, ...]]:
        """The live factorisations ``x^m = x^b x^c x^d`` into basis
        monomials with ``1 <= b <= c``, for the code ``m`` of degree
        ``size``, as basis positions ``(b, c, d, bc, bd, cd)``: those with
        ``bc``, ``bd`` or ``cd`` in the basis, the others giving no term; a
        product past the basis is ``None``.  Positions are graded, so
        ``deg b <= deg c`` and that holds exactly when
        ``deg b + min(deg c, deg d) <= r``; past ``size = 2r`` none does.
        The products are read from the codes: ``b``, ``c`` and ``d``
        multiply to ``x^m``, so the sum of two of their codes has no carry
        and is the code of their product."""
        alg = self.params.algebra
        deg, r, at, code, divisors = alg.degrees, alg.r, self.positions, self.codes, self.divisors
        get, out = at.get, []
        for b, after_b in divisors(m, size)[1:]:
            left, low, xb = size - deg[b], r - deg[b], code[b]
            cs = divisors(after_b, left)
            # c >= b, and x^d has degree at most r; then deg c <= low or
            # deg d = left - deg c <= low.
            start = bisect_left(cs, (max(b, bisect_left(deg, left - r)),))
            for c, dc in cs[start:]:
                if not low < deg[c] < left - low:
                    out.append((b, c, at[dc], get(xb + code[c]), get(xb + dc), get(code[c] + dc)))
        return out

    @cached_property
    def _divisor_cache(self) -> dict:
        return {}


def dimension(params: LiftParams) -> int:
    """Closed-form count of the free cells, valid in every degenerate
    parameter range under the fixed binomial conventions."""
    r, k, s = params.algebra.r, params.algebra.k, params.s
    # The second factor first: it is 0 for s > k, where the first can be huge.
    tail = binomial(r + k, r + s)
    return binomial(r + s - 1, s) * tail if tail else 0


def graded_dimension(params: LiftParams, m: MultiIndex) -> int:
    """Dimension of the summand of multidegree ``m`` in ``N^k``.

    The multidegree of a cell ``(I, alpha)`` is ``e_I + alpha``, and both
    ``construct`` and the product rule keep it, so the lift space splits
    into one summand per ``m`` whose dimension is its count of free cells.
    ``block_cells`` lists the cells of multidegree ``m``: the ``s``-subsets
    ``I`` of the support of ``m`` (with ``alpha = m - e_I``, of degree
    ``|m| - s``).  Let ``q`` be the size of that support.  Below the top
    degree, ``|m| < r + s``, every such cell is free: ``C(q, s)``.  At
    ``|m| = r + s`` a cell is free exactly when the top axis of ``m`` is
    not in ``I``, so it lies in the support of ``alpha`` above the last
    axis of ``I``: ``C(q - 1, s)``.  Otherwise no cell exists (``|m| < s``
    leaves ``C(q, s) = 0``, and past ``r + s`` ``alpha`` is not in the
    basis).  With ``binomial``'s conventions this covers ``s = 0`` and
    ``m = 0`` too, and the sum over ``m`` is ``dimension(params)``.
    """
    k = params.algebra.k
    m = tuple(parse_int(x, "multidegree entry") for x in m)
    if len(m) != k or any(x < 0 for x in m):
        raise ValueError(f"multidegree must be {k} non-negative integers, got {m}")
    top, q = params.algebra.r + params.s, len(support(m))
    if degree(m) < top:
        return binomial(q, params.s)
    if degree(m) == top:
        return binomial(q - 1, params.s)
    return 0


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


def peelings(alg: AlgebraParams, combo: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """The peelings of the argument monomials at basis positions ``combo``:
    one supported axis ``j_t`` of each ``g_t``, all distinct, as (the sorted
    axes, the sign of the sort times ``prod_t g_t[j_t]``), in the order of
    ``product`` over the supports.  A constant argument has no supported
    axis, so then there is no peeling.

    The peelings grow one argument at a time, sorted as they grow: the next
    axis is skipped when already taken, and otherwise goes in at its place
    among the sorted axes, after the larger axes taken before it, each of
    which flips the sign once.  No tuple is sorted or discarded whole."""
    grown = [((), 1)]
    for g in combo:
        longer = []
        for axes, c in grown:
            for j in alg.supports[g]:
                i = bisect_left(axes, j)
                if axes[i : i + 1] != (j,):
                    x = c * alg.basis[g][j - 1]
                    longer.append((axes[:i] + (j,) + axes[i:], -x if len(axes) - i & 1 else x))
        grown = longer
    return grown


def _cells_json(params: LiftParams, field: str, key: str, items) -> dict:
    """The JSON object of ``params`` whose ``field`` lists one entry
    ``{"i": axes, "alpha": alpha, key: value}`` per ``((axes, alpha),
    value)`` of ``items``."""
    return {
        "r": params.algebra.r,
        "k": params.algebra.k,
        "s": params.s,
        field: [
            {"i": list(axes), "alpha": list(alpha), key: format_rational(v)}
            for (axes, alpha), v in items
        ],
    }


def _json_ints(xs: Sequence[int], depth: int) -> str:
    """``json.dumps(list(xs), indent=2)`` for a list of ints nested
    ``depth`` levels deep."""
    if not xs:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(map(str, xs)) + "\n" + "  " * depth + "]"


def _json_cells(
    cells: Iterable[tuple[str, str]], depth: int, tails: Iterable[str]
) -> Iterator[str]:
    """The text ``json.dumps(..., indent=2)`` gives a list, nested
    ``depth`` levels deep, of one ``{"i": axes, "alpha": alpha}`` object
    per pair of ``cells``, the two lists given as ``_json_ints`` text at
    depth ``depth + 2``, with that cell's text of ``tails`` after
    ``alpha``; one piece per cell."""
    outer, inner = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    start, mid, end = outer + "{" + inner + '"i": ', "," + inner + '"alpha": ', outer + "}"
    head = "["
    for (axes, alpha), tail in zip(cells, tails):
        yield head + start + axes + mid + alpha + tail + end
        head = ","
    yield "[]" if head == "[" else "\n" + "  " * depth + "]"


def cell_list_text(cells: Iterable[FreeCell]) -> Iterator[str]:
    """The text ``json.dumps(..., indent=2) + "\\n"`` gives the list of one
    ``{"i": axes, "alpha": alpha}`` per cell that ``zset`` writes, in
    pieces of one cell each."""
    texts = ((_json_ints(axes, 2), _json_ints(alpha, 2)) for axes, alpha in cells)
    return chain(_json_cells(texts, 0, repeat("")), ["\n"])


def _read_cells(data, what: str, field: str, entry: str, key: str) -> tuple[LiftParams, dict]:
    """The parameters of a JSON ``what`` object that ``_cells_json`` wrote,
    and its values by ``(axes, alpha)``; a cell listed twice is refused."""
    params = read_params(data, what, field)
    values: dict[tuple[tuple[int, ...], MultiIndex], Fraction] = {}
    for obj in parse_objects(data[field], entry, "i", "alpha", key):
        cell = (parse_int_list(obj["i"], "i"), parse_int_list(obj["alpha"], "alpha"))
        if cell in values:
            raise ValueError(f"duplicate cell {cell}")
        values[cell] = parse_rational(obj[key])
    return params, values


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
        expected = self.params.free_cell_set
        if clean.keys() != expected:
            missing = sorted(expected - clean.keys())[:3]
            extra = sorted(clean.keys() - expected)[:3]
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
        if cell not in params.free_cell_set:
            raise ValueError(f"{cell} is not a free cell")
        vals = dict.fromkeys(free_cells(params), Fraction(0))
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

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        cells = free_cells(self.params)
        return _cells_json(self.params, "values", "c", ((c, self.values[c]) for c in cells))

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoefficientAssignment":
        return cls(*_read_cells(data, "assignment", "values", "value", "c"))


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

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        p = self.params
        cells = product(p.rows, p.algebra.basis)
        return _cells_json(p, "cells", "v", zip(cells, chain.from_iterable(self.cells)))

    def json_text(self) -> Iterator[str]:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``, in pieces
        of one cell each.  Every value string is formed before this
        returns, so a value too long to write raises ``ValueError`` here,
        before any piece exists."""
        p = self.params
        values = chain.from_iterable(self.cells)
        tails = [f',\n      "v": "{format_rational(v)}"' for v in values]
        head = f'{{\n  "r": {p.algebra.r},\n  "k": {p.algebra.k},\n  "s": {p.s},\n  "cells": '
        # Each axis tuple and monomial is formatted once, not once per cell.
        rows = [_json_ints(axes, 3) for axes in p.rows]
        columns = [_json_ints(alpha, 3) for alpha in p.algebra.basis]
        return chain([head], _json_cells(product(rows, columns), 1, tails), ["\n}\n"])

    @classmethod
    def from_json_dict(cls, data: dict) -> "LiftTable":
        params, seen = _read_cells(data, "table", "cells", "cell", "v")
        basis = params.algebra.basis
        try:
            rows = [tuple(seen.pop((axes, alpha)) for alpha in basis) for axes in params.rows]
        except KeyError as exc:
            raise ValueError("missing cell ({}, {})".format(*exc.args[0])) from None
        if seen:
            raise ValueError(f"unexpected cells {sorted(seen)[:3]}")
        return cls(params, tuple(rows))


# -- construction ------------------------------------------------------------


def construct(assignment: CoefficientAssignment) -> LiftTable:
    """Complete an assignment on the free cells to the full table, one row
    of ``complete`` values per axis tuple."""
    p = assignment.params
    basis = p.algebra.basis
    B = len(basis)
    values = complete(assignment.values, product(p.rows, basis))
    return LiftTable(p, tuple(tuple(values[i : i + B]) for i in range(0, len(values), B)))


def complete(free: Mapping[FreeCell, Fraction], cells: Iterable[FreeCell]) -> list[Fraction]:
    """The values at ``cells``: a cell of ``free`` keeps its value, and any
    other is bound.

    A bound cell sits at a row ``i1 < ... < is`` and a full-degree monomial
    ``a`` whose supported axes all lie at or below ``is``.  Expanding the
    vanishing product ``x^(a + e_is)`` along the last slot must give zero,
    and solving that single relation for the bound cell expresses it through
    cells at strictly smaller last axes -- which are all free, so one pass
    suffices.  Those cells have the bound cell's multidegree, so ``free``
    needs only the free cells of the blocks that ``cells`` meet.
    """
    get = free.get
    return [
        v if (v := get(cell)) is not None else _bound_cell(free, *cell) for cell in cells
    ]


def _bound_cell(
    free: Mapping[FreeCell, Fraction], axes: tuple[int, ...], alpha: MultiIndex
) -> Fraction:
    """The bound cell ``(axes, alpha)``: minus the sum, over the supported
    axes ``j`` of ``alpha`` not in ``axes``, of ``alpha_j`` times
    the signed free cell at ``lead + (j,)`` and ``alpha + e_last - e_j``,
    over ``alpha_last + 1``.  The sum is taken by ``exact_sum`` over its
    own terms only: its common denominator divides the product of those few
    cells' denominators, where one shared by the row would grow with the
    row's cell count and make every term a bignum product."""
    lead, i_last = axes[:-1], axes[-1]
    raised = add(alpha, unit(len(alpha), i_last))
    terms = []
    for j in support(alpha):
        if j in axes:
            continue
        tup, sign = sort_with_sign(lead + (j,))
        cell = FreeCell(tup, sub_unit(raised, j))
        v = free.get(cell)
        if v is None:
            # Unreachable when the free-cell predicate is right: the lookup's
            # last axis is below the raised monomial's top supported axis.
            raise AssertionError(
                f"bound cell ({axes}, {alpha}) referenced non-free cell {cell}"
            )
        terms.append((alpha[j - 1] * sign, v))
    return exact_sum(terms) / -(alpha[i_last - 1] + 1)


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
    axes = tuple(parse_int(j, "axis") for j in axes)
    alpha = tuple(parse_int(e, "exponent") for e in alpha)
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

    Values are computed honestly from the stored cells, as a sum over the
    ``peelings`` of the arguments: each argument monomial is peeled at one
    supported axis, the leftover exponents migrate into the target, and the
    resulting degree-one tuple is read off the table with the sign of its
    sorting permutation.  Everything is keyed by basis position; the
    verifier's product-rule sweep and the oracle's table expansion lean on
    this.  Signing by sorting makes the values skew-symmetric for every
    table, which ``check_skew`` relies on.

    Three kinds of tuple read zero on every table.  The verifier's
    product-rule sweep decides them without calling the evaluator, so they
    must stay exactly as they are:

    - argument and target degrees summing past r + s, read before any cell
      in ``_compute``;
    - a constant argument monomial: it has no supported axis, so there is
      no peeling and no cell is read;
    - a repeated argument monomial: each peeled axis tuple with a repeated
      axis reads zero and the others cancel in pairs (``check_skew``).

    Evaluation keeps the multidegree, the exponent sum of the arguments and
    the target: each peeled axis ``j`` of an argument moves ``e_j`` into
    the axis tuple and the rest of the argument into the target, so a tuple
    of multidegree ``m`` reads only cells ``(I, alpha)`` with
    ``e_I + alpha = m``.  The oracle's product-rule rows also lie in one
    multidegree each, so the oracle solves one multidegree block at a
    time, and ``compare_with_construction`` reads each unit table only on
    its own block, at its cells: the oracle's docstring proves that this
    sum at every unknown of a block of degree at most ``r + s`` is the
    oracle's expansion of that unknown in the block's cells.  The oracle's
    ``expand_table``, which calls this evaluator, is the tests'
    reference.
    """

    def __init__(self, table: LiftTable):
        self.table = table
        self._memo: dict[tuple[int, ...], Fraction] = {}

    def monomials_by_index(self, gammas: tuple[int, ...], delta: int) -> Fraction:
        key = gammas + (delta,)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        val = self._compute(gammas, delta)
        self._memo[key] = val
        return val

    def _compute(self, gammas: tuple[int, ...], delta: int) -> Fraction:
        p = self.table.params
        alg = p.algebra
        deg, exps = alg.degrees, alg.basis
        if deg[delta] + sum(map(deg.__getitem__, gammas)) > alg.r + p.s:
            return Fraction(0)
        m = list(map(sum, zip(exps[delta], *[exps[g] for g in gammas])))
        cells, rows, index = self.table.cells, p.row_index, alg.basis_index
        terms = []
        for axes, coeff in peelings(alg, gammas):
            alpha = list(m)
            for j in axes:
                alpha[j - 1] -= 1
            terms.append((coeff, cells[rows[axes]][index[tuple(alpha)]]))
        return exact_sum(terms)


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
