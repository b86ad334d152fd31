"""Brute-force model of the lift space, independent of the construction.

The space is re-derived as the exact nullspace of a linear system: one
unknown per pair (increasing tuple of basis monomials, target basis
monomial), one constraint row per instance of the slotwise product rule on
basis elements.  Skew-symmetry is structural -- tuples with a repeated
monomial are identically zero and arbitrary tuples resolve to a signed
unknown by sorting -- so it adds no rows.

Skew-symmetry also makes most instances of the rule redundant, so it is
instantiated only at the last slot, on strictly increasing leading tuples.
At the last slot, permuting the leading tuple multiplies all three terms
of an instance by the sign of the permutation, which the row normalisation
strips, and a repeated leading entry makes all three terms vanish.  Moving
the rule from slot ``t`` to the last slot is one fixed permutation of the
argument tuple, shared by the three terms, so it too yields the same
normalised row.  The reduced instantiation therefore
produces exactly the row set of every slot on every ordered tuple.

At the last slot the instance on the leading tuple ``pre`` and basis
positions ``b, c, d`` is the row
``R(pre; b, c, d) = F(pre, bc)(d) - F(pre, b)(cd) - F(pre, c)(bd)``, and
three facts about it let the builder skip instances without changing the
row set:

(a) ``R(pre; b, c, d)`` and ``R(pre; c, b, d)`` are the same coefficient
    dict (``bc = cb``, the other two terms trade places), so only
    ``b <= c`` is instantiated.
(b) Basis position 0 is the monomial 1.  With ``b = 0`` the first and
    last terms are the same unknown and cancel, leaving the single-entry
    row ``F(pre, 1)(cd)``; ``c = 0`` is the same by (a), and ``cd`` runs
    over every position as ``c`` and ``d`` do.  So these instances give
    exactly the rows ``F(pre, 1)(x)`` for every ``x``, and none when
    ``0`` is in ``pre`` (then ``F(pre, 1)`` has a repeated entry).  They
    are emitted directly and ``b, c`` then run over ``1 .. B-1``.
(c) Without the ``F(pre, bc)`` term (``bc`` truncates or repeats an entry
    of ``pre``) the other two terms exist only for
    ``deg d <= r - deg c`` and ``deg d <= r - deg b`` respectively, so for
    larger ``d`` the row is zero.  The basis is sorted by degree, so ``d``
    runs over a prefix of it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .lift_space import (
    CoefficientAssignment,
    LiftParams,
    TableEvaluator,
    construct,
    dimension,
    free_cells,
    sort_with_sign,
)
from .multiindex import COUNT_CAP, MAX_COUNT_DIGITS, capped_binomial, unit
from .verifier import Failure, VerificationReport

DEFAULT_MAX_UNKNOWNS = 20_000


class OracleSizeError(ValueError):
    """The constraint system would exceed the configured unknown limit."""


def unknown_count(params: LiftParams) -> int:
    """Number of unknowns the brute-force system would use, ``C(B, s) * B``
    for the basis size ``B = C(r + k, r)``, without listing the basis; a
    count above ``COUNT_CAP`` is returned as ``COUNT_CAP + 1`` without
    being built."""
    B = capped_binomial(params.algebra.r + params.algebra.k, params.algebra.r, COUNT_CAP)
    return min(capped_binomial(B, params.s, COUNT_CAP) * B, COUNT_CAP + 1)


@dataclass(frozen=True)
class ConstraintSystem:
    """Deduplicated sparse rows over the unknown cells.

    ``unknowns[i]`` is the (monomial-position tuple, target position) pair
    for column ``i``; rows are sorted tuples of (column, integer coefficient)
    pairs, normalised by content and leading sign.
    """

    params: LiftParams
    unknowns: tuple[tuple[tuple[int, ...], int], ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    slots: tuple[int, ...]

    @cached_property
    def combo_rank(self) -> Mapping[tuple[int, ...], int]:
        B = self.params.algebra.dim
        return {self.unknowns[i * B][0]: i for i in range(len(self.unknowns) // B)}

    def column(self, combo: tuple[int, ...], target: int) -> int:
        return self.combo_rank[combo] * self.params.algebra.dim + target

    @cached_property
    def live_columns(self) -> tuple[int, ...]:
        """The columns a table can make nonzero: ``TableEvaluator`` gives 0
        before reading a cell on a tuple with a constant entry (basis
        position 0) or whose degrees sum past ``r + s``."""
        alg = self.params.algebra
        B, deg, cap = alg.dim, alg.degrees, alg.r + self.params.s
        return tuple(
            i * B + d
            for i, (combo, _) in enumerate(self.unknowns[::B])
            if 0 not in combo
            for d in range(bisect_right(deg, cap - sum(deg[g] for g in combo)))
        )


def build_constraints(
    params: LiftParams, *, max_unknowns: int = DEFAULT_MAX_UNKNOWNS
) -> ConstraintSystem:
    """Instantiate the product rule on basis tuples.

    The rule is imposed at the final slot only, with the leading ``s - 1``
    arguments running over strictly increasing tuples, and the instances
    that facts (a)-(c) of the module docstring show to repeat a row or give
    none are skipped: ``c < b``, a constant ``b`` or ``c`` (whose rows
    ``F(pre, 1)(x)`` are added directly), and ``d`` past the degree bound
    when ``F(pre, bc)`` is absent.  This gives the row set of the rule at
    every slot on every ordered tuple of the other arguments: at the last
    slot a permutation of the leading tuple scales the three terms of an
    instance by one common sign, which row normalisation strips, a repeated
    leading entry zeroes all three terms, and moving the rule from slot
    ``t`` to the last slot is one permutation common to the three terms.
    The test-suite checks the equality.
    """
    n = unknown_count(params)
    if n > max_unknowns:
        count = n if n <= COUNT_CAP else f"at least 10**{MAX_COUNT_DIGITS}"
        raise OracleSizeError(
            f"system would have {count} unknowns, above the limit of {max_unknowns}"
        )
    B = params.algebra.dim
    s = params.s
    combos = list(combinations(range(B), s))
    combo_rank = {c: i for i, c in enumerate(combos)}
    unknowns = tuple((c, d) for c in combos for d in range(B))

    def block(pre: tuple[int, ...]) -> list[tuple[int, int] | None]:
        # (column block, sign) of pre + (x,) for every basis position x,
        # None where an entry repeats
        out = []
        for x in range(B):
            res = sort_with_sign(pre + (x,))
            out.append(None if res is None else (combo_rank[res[0]] * B, res[1]))
        return out

    # For arity zero the slot range is empty.
    slots = tuple(range(max(s - 1, 0), s))
    rowset: set[tuple[tuple[int, int], ...]] = set()
    for t in slots:
        for pre in combinations(range(B), t):
            _add_last_slot_rows(rowset, block(pre), params.algebra)
    return ConstraintSystem(params, unknowns, tuple(sorted(rowset)), slots)


def _add_last_slot_rows(rowset: set, block: list, alg) -> None:
    """Add the rows ``R(pre; b, c, d)`` for all basis positions ``b, c, d``
    from only the instances that can give a new one: facts (a)-(c) of the
    module docstring."""
    B, prod_idx, deg, r = len(block), alg.product_index, alg.degrees, alg.r
    if block[0] is not None:
        rowset.update(((block[0][0] + x, 1),) for x in range(B))
    for b in range(1, B):
        for c in range(b, B):
            bc = prod_idx[b][c]
            if bc is not None and block[bc] is not None:
                lim = r
            else:
                lim = max(r - deg[c] if block[b] else -1, r - deg[b] if block[c] else -1)
            _add_rows_at(rowset, block, prod_idx, b, c, bisect_right(deg, lim))


def _add_rows_at(rowset: set, block: list, prod_idx, b: int, c: int, n: int) -> None:
    """Add the nonzero rows ``F(.., b*c)(d) - F(.., b)(c*d) - F(.., c)(b*d)``
    for ``d < n``, the slot's signed columns read from ``block``."""
    at_b, at_c = block[b], block[c]
    row_b, row_c = prod_idx[b], prod_idx[c]
    bc = row_b[c]
    at_bc = None if bc is None else block[bc]
    for d in range(n):
        coeffs = {} if at_bc is None else {at_bc[0] + d: at_bc[1]}
        cd, bd = row_c[d], row_b[d]
        if cd is not None and at_b is not None:
            col = at_b[0] + cd
            coeffs[col] = coeffs.get(col, 0) - at_b[1]
        if bd is not None and at_c is not None:
            col = at_c[0] + bd
            coeffs[col] = coeffs.get(col, 0) - at_c[1]
        row = {col: v for col, v in coeffs.items() if v}
        if len(row) > 1:
            rowset.add(tuple(sorted(_primitive(row, signed=True).items())))
        elif row:
            (col,) = row
            rowset.add(((col, 1),))


def _primitive(row: dict[int, int], signed: bool = False) -> dict[int, int]:
    """``row`` (no zero entries) divided by its content; ``signed`` also
    makes its entry at the lowest column positive, as rows are stored."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if signed and row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


class _Echelon:
    """Incremental exact row reduction over sparse integer rows.

    Pivot rows are kept content-free with a positive leading coefficient
    (``_primitive``); incoming rows are reduced by cross-multiplication so
    everything stays in integers.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        pivots = self.pivots
        while row:
            lead = min(row)
            p = pivots.get(lead)
            if p is None:
                return _primitive(row, signed=True)
            a, b = p[lead], row[lead]
            new = {c: a * v for c, v in row.items()}
            for c, v in p.items():
                w = new.get(c, 0) - b * v
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            row = _primitive(new)
        return row

    def add(self, row: Iterable[tuple[int, int]] | Mapping[int, int]) -> bool:
        """Reduce and insert; returns True when the row was independent."""
        row = self.reduce(dict(row))
        if row:
            self.pivots[min(row)] = row
        return bool(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def nullspace_basis(self, ncols: int) -> list[dict[int, Fraction]]:
        """One basis vector per free column, as a dict of its nonzero
        entries, via full back-substitution."""
        solved: dict[int, dict[int, Fraction]] = {}
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            inv = Fraction(1, row[lead])
            out: dict[int, Fraction] = {}
            for c, v in row.items():
                if c == lead:
                    continue
                f = v * inv
                sub = solved.get(c)
                if sub is None:
                    out[c] = out.get(c, 0) + f
                else:
                    for cc, vv in sub.items():
                        out[cc] = out.get(cc, 0) - f * vv
            solved[lead] = {c: v for c, v in out.items() if v}
        basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in self.pivots}
        for lead, row in solved.items():
            for f, cf in row.items():
                basis[f][lead] = -cf
        return list(basis.values())


class _NullBasis(list):
    """Dense basis vectors (tuples of Fractions) that keep their nonzero
    entries alongside as ``sparse`` dicts, which ``rank_of`` reads instead
    of scanning the zeros.  A slice or copy is a plain list."""

    def __init__(self, sparse: list[dict[int, Fraction]], ncols: int):
        for vec in sparse:
            row = [Fraction(0)] * ncols
            for c, v in vec.items():
                row[c] = v
            self.append(tuple(row))
        self.sparse = sparse


def nullspace(system: ConstraintSystem) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Exact nullspace dimension and an explicit rational basis, one dense
    tuple per free column."""
    ech = _Echelon()
    for row in sorted(system.rows, key=len):
        ech.add(row)
    n = len(system.unknowns)
    basis = _NullBasis(ech.nullspace_basis(n), n)
    return len(basis), basis


def _integer_row(vec) -> dict[int, int]:
    pairs = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
    items = {c: Fraction(v) for c, v in pairs if v}
    scale = lcm(*(v.denominator for v in items.values()))
    return {c: int(v * scale) for c, v in items.items()}


def rank_of(vectors: Iterable) -> int:
    """Exact rank of a family of rational vectors (dense or sparse); a basis
    from ``nullspace`` is read through its nonzero entries."""
    ech = _Echelon()
    for v in getattr(vectors, "sparse", vectors):
        ech.add(_integer_row(v))
    return ech.rank


def check_iso(system: ConstraintSystem, nullbasis: Sequence[Sequence[Fraction]]) -> bool:
    """Is reading a nullspace vector off at the free cells bijective?

    Builds the free-cell-by-basis-vector matrix and tests squareness plus
    invertibility; a dimension mismatch reports False rather than raising.
    """
    params = system.params
    cells = free_cells(params)
    if len(cells) != len(nullbasis):
        return False
    alg = params.algebra
    bi = alg.basis_index
    rows = []
    for cell in cells:
        combo = tuple(bi[unit(alg.k, i)] for i in cell.axes)
        col = system.column(combo, bi[cell.alpha])
        rows.append({b: nullbasis[b][col] for b in range(len(nullbasis)) if nullbasis[b][col]})
    return rank_of(rows) == len(cells)


def expand_table(system: ConstraintSystem, table) -> list[Fraction]:
    """Evaluate a lift table at every unknown of the system; only the
    ``live_columns`` are evaluated, the others are zero for every table."""
    ev = TableEvaluator(table)
    unknowns = system.unknowns
    vec = [Fraction(0)] * len(unknowns)
    for col in system.live_columns:
        vec[col] = ev.monomials_by_index(*unknowns[col])
    return vec


def compare_with_construction(
    params: LiftParams,
    *,
    system: ConstraintSystem | None = None,
    nullbasis: Sequence[Sequence[Fraction]] | None = None,
    max_unknowns: int = DEFAULT_MAX_UNKNOWNS,
) -> VerificationReport:
    """Cross-validate the closed-form construction against the brute force.

    For each unit assignment the constructed table, expanded to a sparse
    unknown vector, must satisfy every constraint row; and the expanded
    vectors must span exactly the oracle nullspace (mutual containment by
    rank).  A row that touches none of a vector's nonzero columns sums to
    exactly zero, so only the touched rows are evaluated, in row order;
    every row still counts as a case.
    """
    if system is None:
        system = build_constraints(params, max_unknowns=max_unknowns)
    if nullbasis is None:
        _, nullbasis = nullspace(system)
    rows = system.rows
    rows_at: list[list[int]] = [[] for _ in system.unknowns]
    for i, row in enumerate(rows):
        for col, _ in row:
            rows_at[col].append(i)
    rep = VerificationReport(cases={"constraint-rows": 0, "span": 0})
    expanded = []
    for cell in free_cells(params):
        table = construct(CoefficientAssignment.unit(params, cell))
        dense = expand_table(system, table)
        vec = {col: dense[col] for col in system.live_columns if dense[col]}
        expanded.append(vec)
        rep.cases["constraint-rows"] += len(rows)
        touched = {i for col in vec for i in rows_at[col]}
        for i in sorted(touched):
            row = rows[i]
            val = sum((coeff * vec.get(col, 0) for col, coeff in row), Fraction(0))
            if val != 0:
                rep.failures.append(
                    Failure("constraint-rows", (cell, row), Fraction(0), val)
                )
    r_null = rank_of(nullbasis)
    r_exp = rank_of(expanded)
    r_union = rank_of([*getattr(nullbasis, "sparse", nullbasis), *expanded])
    rep.cases["span"] = 1
    if not (r_null == r_exp == r_union == len(nullbasis) == len(expanded)):
        rep.failures.append(
            Failure(
                "span",
                (("nullspace", r_null), ("construction", r_exp), ("union", r_union)),
                Fraction(len(nullbasis)),
                Fraction(r_union),
            )
        )
    return rep


def dump_matrix(system: ConstraintSystem, path) -> None:
    """Write the rows in coordinate text form: a size header, then one
    ``row col value`` triple per nonzero, 1-based."""
    lines = ["%%matrix coordinate rational general"]
    nnz = sum(len(r) for r in system.rows)
    lines.append(f"{len(system.rows)} {len(system.unknowns)} {nnz}")
    for i, row in enumerate(system.rows, start=1):
        for col, v in row:
            lines.append(f"{i} {col + 1} {v}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
