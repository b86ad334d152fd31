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
``R(pre; b, c, d) = F(pre, bc)(d) - F(pre, b)(cd) - F(pre, c)(bd)``.
``R(pre; c, b, d)`` is the same row (``bc = cb``, the other two terms
trade places), so only ``b <= c`` is instantiated.  Basis position 0 is
the monomial 1; with ``b = 0`` the first and last terms cancel, leaving
``F(pre, 1)(cd)``, so these instances give exactly the single-entry rows
``F(pre, 1)(x)`` for every ``x`` (none when ``0`` is in ``pre``).  They
are added directly and ``b, c`` run over ``1 .. B-1``.

Rows have a fixed shape.  A product of two basis monomials is a monomial
with coefficient 1, so each term of ``R(pre; b, c, d)`` has coefficient
+-1, the sign of sorting its tuple.  ``F(pre, bc)`` never shares a column
with the other two terms, because ``bc`` is neither ``b`` nor ``c`` when
``b, c != 1``.  ``F(pre, b)(cd)`` and ``F(pre, c)(bd)`` share a column
exactly when ``b == c``; they then merge into ``-2 * sign``.  So a row
with two or more entries has content 1, and normalising it only flips its
leading sign.  The column block of ``pre + (x,)`` grows with ``x`` over
the ``x`` not in ``pre`` (the increasing tuples are numbered in
lexicographic order), and ``b <= c < bc`` by degree, so the terms come in
the column order ``F(pre, b)(cd)``, ``F(pre, c)(bd)``, ``F(pre, bc)(d)``
and rows are built as sorted tuples directly.

The terms live in regions of ``d``.  Let ``n_x`` count the basis
positions ``d`` with ``deg x + deg d <= r``, a prefix of the
degree-sorted basis.  ``cd`` exists iff ``d < n_c`` and ``bd`` iff
``d < n_b``, and ``n_c <= n_b`` as ``b <= c``.  ``d`` runs only up to the
end of the last region where one of these two terms exists; past it only
``F(pre, bc)(d)`` is left, so those columns are known zeros, added as one
range.  The columns of every single-entry row (``F(pre, 1)(x)``, these
ranges, and the regions with one term) go into one set and are emitted
once each as ``((col, 1),)``.

A row with two or more entries comes from one instance only, so such rows
are listed without a set.  The combinations of its columns share exactly
``pre``, and each adds one of ``b``, ``c``, ``bc``.  A +-2 entry marks
``b == c``; three entries are ``b < c < bc``; of two entries, the pair
``F(pre, b)(cd), F(pre, c)(bd)`` has the opposite relative sign to a pair
with ``F(pre, bc)``, and ``b <= c`` leaves one reading of the latter.  A
term's target then fixes ``d``.

Both routes respect the multidegree grading.  The multidegree of an
unknown is the exponent sum of its combination plus its target,
``e(combo) + alpha``, and that of a table cell ``(I, alpha)`` is
``e_I + alpha``.  Every row lies in one multidegree: each term of
``R(pre; b, c, d)`` has multidegree ``e(pre) + b + c + d``.  And
``TableEvaluator`` at an unknown of multidegree ``m`` reads only cells of
multidegree ``m``.  So ``nullspace`` eliminates one multidegree block at a
time, and ``expand_table`` evaluates a table only in the blocks that hold
one of its nonzero cells.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .lift_space import (
    FreeCell,
    LiftParams,
    LiftTable,
    TableEvaluator,
    block_cells,
    complete,
    construct,  # unused here; the benchmark's tracer patches it on this module
    free_cells,
    multidegree,
    sort_with_sign,
)
from .multiindex import COUNT_CAP, MAX_COUNT_DIGITS, MultiIndex, capped_binomial, unit
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
    def block_columns(self) -> Mapping[MultiIndex, list[int]]:
        """The ascending columns of each multidegree block.  The multidegree
        of an unknown is the exponent sum of its combination plus its
        target."""
        alg = self.params.algebra
        B, exps = alg.dim, alg.basis
        out: dict[MultiIndex, list[int]] = {}
        for i, (combo, _) in enumerate(self.unknowns[::B]):
            base = [sum(col) for col in zip(*(exps[g] for g in combo))] or [0] * alg.k
            for d, e in enumerate(exps):
                out.setdefault(tuple(map(add, base, e)), []).append(i * B + d)
        return out


def build_constraints(
    params: LiftParams, *, max_unknowns: int = DEFAULT_MAX_UNKNOWNS
) -> ConstraintSystem:
    """Instantiate the product rule on basis tuples.

    The rule is imposed at the final slot only, with the leading ``s - 1``
    arguments running over strictly increasing tuples, on ``b <= c``, and
    each row is formed once in its final shape, as the module docstring
    sets out: the rows ``F(pre, 1)(x)`` and every other single-entry row
    are collected as columns of known zeros, and the rows with two or more
    entries (coefficients +-1, one of them -+2 when ``b == c``, content 1)
    only have their leading sign flipped; each of these comes from one
    instance, so they are listed without a set.  ``d`` runs up to the end
    of the last region where ``F(pre, b)(cd)`` or ``F(pre, c)(bd)``
    exists; above it the columns of ``F(pre, bc)`` are added as one range
    of zeros.
    This gives the row set of the rule at every slot on every ordered
    tuple of the other arguments: at the last slot a permutation of the
    leading tuple scales the three terms of an instance by one common
    sign, which row normalisation strips, a repeated leading entry zeroes
    all three terms, and moving the rule from slot ``t`` to the last slot
    is one permutation common to the three terms.  The test-suite checks
    the equality.
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
    rows: list[tuple[tuple[int, int], ...]] = []
    zeros: set[int] = set()
    for t in slots:
        for pre in combinations(range(B), t):
            _add_last_slot_rows(rows, zeros, block(pre), params.algebra)
    rows.extend(((col, 1),) for col in zeros)
    return ConstraintSystem(params, unknowns, tuple(sorted(rows)), slots)


def _add_last_slot_rows(rows: list, zeros: set, block: list, alg) -> None:
    """Add the rows ``R(pre; b, c, d)`` with two or more entries to
    ``rows`` and the columns of the single-entry ones to ``zeros``, each
    ``d`` region of each ``b <= c`` once, as the module docstring sets
    out."""
    B, prod_idx, deg, r = len(block), alg.product_index, alg.degrees, alg.r
    ends = [bisect_right(deg, r - g) for g in deg]
    if block[0] is not None:
        zeros.update(range(block[0][0], block[0][0] + B))
    every_d = range(B)
    for b in range(1, B):
        at_b, off_b, n_b = block[b], prod_idx[b], ends[b]
        for c in range(b, B):
            at_c, n_c = block[c], ends[c]
            # Terms as (column block, coefficient, target by d), in column
            # order: F(pre, b)(cd), F(pre, c)(bd), F(pre, bc)(d).
            head = [] if at_b is None or b == c else [(at_b[0], -at_b[1], prod_idx[c])]
            merged = 2 if b == c else 1
            tail = [] if at_c is None else [(at_c[0], -merged * at_c[1], off_b)]
            bc = off_b[c]
            at_bc = None if bc is None else block[bc]
            if at_bc is not None:
                tail.append((at_bc[0], at_bc[1], every_d))
            # F(pre, b)(cd) or F(pre, c)(bd) exists exactly for d < hi.
            hi = n_b if at_c is not None else n_c if head else 0
            if head:
                _add_region(rows, zeros, head + tail, 0, n_c)
                if n_c < hi:
                    _add_region(rows, zeros, tail, n_c, hi)
            elif hi:
                _add_region(rows, zeros, tail, 0, hi)
            if at_bc is not None:
                zeros.update(range(at_bc[0] + hi, at_bc[0] + B))


def _add_region(rows: list, zeros: set, terms: list, lo: int, hi: int) -> None:
    """Add the rows for ``lo <= d < hi`` whose terms are ``terms``: one
    term is a known zero, two or three form a row whose leading sign is
    made positive."""
    if len(terms) == 1:
        ((at, _, to),) = terms
        zeros.update([at + to[d] for d in range(lo, hi)])
    elif len(terms) == 2:
        (a1, v1, t1), (a2, v2, t2) = terms
        if v1 < 0:
            v1, v2 = -v1, -v2
        rows.extend([((a1 + t1[d], v1), (a2 + t2[d], v2)) for d in range(lo, hi)])
    else:
        (a1, v1, t1), (a2, v2, t2), (a3, v3, t3) = terms
        if v1 < 0:
            v1, v2, v3 = -v1, -v2, -v3
        rows.extend(
            [((a1 + t1[d], v1), (a2 + t2[d], v2), (a3 + t3[d], v3)) for d in range(lo, hi)]
        )


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

    def nullspace_basis(self, columns: Iterable[int]) -> dict[int, dict[int, Fraction]]:
        """The nullspace within ``columns``, which hold every pivot: one
        vector per free column, keyed by it, as a dict of its nonzero
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
        basis = {f: {f: Fraction(1)} for f in columns if f not in self.pivots}
        for lead, row in solved.items():
            for f, cf in row.items():
                basis[f][lead] = -cf
        return basis


def nullspace(system: ConstraintSystem) -> tuple[int, list[dict[int, Fraction]]]:
    """Exact nullspace dimension and an explicit rational basis, one vector
    per free column, in column order, each a dict of its nonzero entries.

    The columns of a single-entry row are known zeros: they are dropped
    from the other rows instead of pivoted on.  Every row lies in one
    multidegree, so the rest is eliminated one multidegree block at a
    time, and only a block with fewer pivots than columns is
    back-substituted.  Each basis vector is the null vector that is 1 at
    its free column and 0 at the others, and the pivot columns are fixed
    by the row space, so the basis is the one whole-system elimination
    gives.
    """
    rows = system.rows
    zeros = {row[0][0] for row in rows if len(row) == 1}
    blocks = []
    echelon_at: dict[int, _Echelon] = {}
    for cols in system.block_columns.values():
        cols = [col for col in cols if col not in zeros]
        ech = _Echelon()
        echelon_at.update(dict.fromkeys(cols, ech))
        blocks.append((cols, ech))
    for row in sorted(rows, key=len):
        kept = [(col, v) for col, v in row if col not in zeros]
        if kept:
            echelon_at[kept[0][0]].add(kept)
    by_free: dict[int, dict[int, Fraction]] = {}
    for cols, ech in blocks:
        if ech.rank < len(cols):
            by_free.update(ech.nullspace_basis(cols))
    return len(by_free), [by_free[f] for f in sorted(by_free)]


def _integer_row(vec: Mapping[int, Fraction]) -> dict[int, int]:
    items = {c: v for c, v in vec.items() if v}
    scale = lcm(*(v.denominator for v in items.values()))
    return {c: int(v * scale) for c, v in items.items()}


def rank_of(vectors: Iterable[Mapping[int, Fraction]]) -> int:
    """Exact rank of a family of sparse rational vectors, each a dict from
    column to value, like the basis ``nullspace`` returns."""
    ech = _Echelon()
    for v in vectors:
        ech.add(_integer_row(v))
    return ech.rank


def check_iso(system: ConstraintSystem, nullbasis: Sequence[Mapping[int, Fraction]]) -> bool:
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
        rows.append({b: v for b, vec in enumerate(nullbasis) if (v := vec.get(col))})
    return rank_of(rows) == len(cells)


def expand_table(system: ConstraintSystem, table: LiftTable) -> dict[int, Fraction]:
    """A lift table evaluated at every unknown of the system, as a dict of
    its nonzero entries.  Only the blocks that hold a nonzero cell of the
    table are evaluated: ``TableEvaluator`` reads at an unknown only cells
    of its multidegree, so the others are zero."""
    p = table.params
    held = {
        multidegree(axes, alpha)
        for axes, row in zip(p.rows, table.cells)
        for alpha, v in zip(p.algebra.basis, row)
        if v
    }
    ev = TableEvaluator(table)
    unknowns, blocks = system.unknowns, system.block_columns
    vec = {}
    for m in held:
        for col in blocks.get(m, ()):
            v = ev.monomials_by_index(*unknowns[col])
            if v:
                vec[col] = v
    return vec


def _unit_table(params: LiftParams, one: FreeCell) -> LiftTable:
    """The table of the assignment that is 1 at the free cell ``one`` and 0
    at the others.  Its nonzero cells lie in the block of ``one``, so only
    that block is completed, from its own free cells; the rest is 0."""
    block = block_cells(params, multidegree(*one))
    free = {c: Fraction(int(c == one)) for c in block if c in params.free_cell_set}
    zero_row = (Fraction(0),) * params.algebra.dim
    rows = [zero_row] * len(params.rows)
    for cell, v in zip(block, complete(free, block)):
        if v:
            row = list(zero_row)
            row[params.algebra.basis_index[cell.alpha]] = v
            rows[params.row_index[cell.axes]] = tuple(row)
    return LiftTable(params, tuple(rows))


def compare_with_construction(
    system: ConstraintSystem, nullbasis: Sequence[Mapping[int, Fraction]]
) -> VerificationReport:
    """Cross-validate the closed-form construction against the brute force.

    For each unit assignment the constructed table, expanded to a sparse
    unknown vector, must satisfy every constraint row; and the expanded
    vectors must span exactly the oracle nullspace (mutual containment by
    rank).  A row that touches none of a vector's nonzero columns sums to
    exactly zero, so only the touched rows are evaluated, in row order;
    every row still counts as a case.  Rows are indexed only at the columns
    some vector fills.
    """
    cells = free_cells(system.params)
    expanded = [expand_table(system, _unit_table(system.params, cell)) for cell in cells]
    rows = system.rows
    rows_at: dict[int, list[int]] = {col: [] for vec in expanded for col in vec}
    for i, row in enumerate(rows):
        for col, _ in row:
            at = rows_at.get(col)
            if at is not None:
                at.append(i)
    rep = VerificationReport(cases={"constraint-rows": 0, "span": 0})
    for cell, vec in zip(cells, expanded):
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
    r_union = rank_of([*nullbasis, *expanded])
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
