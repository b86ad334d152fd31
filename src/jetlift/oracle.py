"""Brute-force model of the lift space, independent of the construction.

The space is re-derived as the exact nullspace of a linear system: one
unknown per pair (increasing tuple of basis monomials, target basis
monomial), one constraint row per instance of the slotwise product rule on
basis elements.  Skew-symmetry is structural -- tuples with a repeated
monomial are identically zero and arbitrary tuples resolve to a signed
unknown by sorting -- so it adds no rows.

Skew-symmetry also makes most instances of the rule redundant, so by
default it is instantiated only at the last slot, on strictly increasing
leading tuples.  At the last slot, permuting the leading tuple multiplies
all three terms of an instance by the sign of the permutation, which the
row normalisation strips, and a repeated leading entry makes all three
terms vanish.  Moving the rule from slot ``t`` to the last slot is one
fixed permutation of the argument tuple, shared by the three terms, so it
too yields the same normalised row.  The reduced instantiation therefore
produces exactly the row set of every slot on every ordered tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
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
from .multiindex import binomial, unit
from .verifier import Failure, VerificationReport

DEFAULT_MAX_UNKNOWNS = 20_000


class OracleSizeError(ValueError):
    """The constraint system would exceed the configured unknown limit."""


def unknown_count(params: LiftParams) -> int:
    """Number of unknowns the brute-force system would use."""
    B = params.algebra.dim
    return binomial(B, params.s) * B


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


def build_constraints(
    params: LiftParams,
    *,
    slots: str = "last",
    max_unknowns: int = DEFAULT_MAX_UNKNOWNS,
) -> ConstraintSystem:
    """Instantiate the product rule on basis tuples.

    ``slots="last"`` imposes the rule at the final slot only, with the
    leading ``s - 1`` arguments running over strictly increasing tuples;
    ``slots="all"`` imposes it at every slot on every ordered tuple of the
    other arguments.  Both give the same row set: at the last slot a
    permutation of the leading tuple scales the three terms of an instance
    by one common sign, which ``_canonical_row`` strips, a repeated leading
    entry zeroes all three terms, and moving the rule from slot ``t`` to
    the last slot is one permutation common to the three terms.  The
    test-suite checks the equality.
    """
    if slots not in ("all", "last"):
        raise ValueError(f"slots must be 'all' or 'last', got {slots!r}")
    B = params.algebra.dim
    s = params.s
    n = unknown_count(params)
    if n > max_unknowns:
        raise OracleSizeError(
            f"system would have {n} unknowns, above the limit of {max_unknowns}"
        )
    combos = list(combinations(range(B), s))
    combo_rank = {c: i for i, c in enumerate(combos)}
    unknowns = tuple((c, d) for c in combos for d in range(B))

    def block(pre: tuple[int, ...], post: tuple[int, ...]) -> list[tuple[int, int] | None]:
        # (column block, sign) of pre + (x,) + post for every basis position
        # x, None where an entry repeats
        out = []
        for x in range(B):
            res = sort_with_sign(pre + (x,) + post)
            out.append(None if res is None else (combo_rank[res[0]] * B, res[1]))
        return out

    # For arity zero both modes are the same empty slot range.
    if slots == "all":
        slot_list = range(s)
        pairs = (
            (others[:t], others[t:])
            for t in slot_list
            for others in product(range(B), repeat=s - 1)
        )
    else:
        slot_list = range(max(s - 1, 0), s)
        pairs = ((pre, ()) for t in slot_list for pre in combinations(range(B), t))
    rowset: set[tuple[tuple[int, int], ...]] = set()
    prod_idx = params.algebra.product_index
    for pre, post in pairs:
        _add_rule_rows(rowset, block(pre, post), prod_idx)
    return ConstraintSystem(params, unknowns, tuple(sorted(rowset)), tuple(slot_list))


def _add_rule_rows(
    rowset: set[tuple[tuple[int, int], ...]],
    block: Sequence[tuple[int, int] | None],
    prod_idx: Sequence[Sequence[int | None]],
) -> None:
    """Add the rows ``F(.., b*c)(d) - F(.., b)(c*d) - F(.., c)(b*d)`` for
    all basis positions ``b, c, d``, the slot's signed columns read from
    ``block``."""
    B = len(block)
    for b, at_b in enumerate(block):
        row_b = prod_idx[b]
        for c, at_c in enumerate(block):
            bc = row_b[c]
            at_bc = None if bc is None else block[bc]
            if at_bc is None and at_b is None and at_c is None:
                continue
            row_c = prod_idx[c]
            for d in range(B):
                coeffs: dict[int, int] = {}
                if at_bc is not None:
                    col = at_bc[0] + d
                    coeffs[col] = coeffs.get(col, 0) + at_bc[1]
                cd = row_c[d]
                if cd is not None and at_b is not None:
                    col = at_b[0] + cd
                    coeffs[col] = coeffs.get(col, 0) - at_b[1]
                bd = row_b[d]
                if bd is not None and at_c is not None:
                    col = at_c[0] + bd
                    coeffs[col] = coeffs.get(col, 0) - at_c[1]
                row = _canonical_row(coeffs)
                if row is not None:
                    rowset.add(row)


def _canonical_row(coeffs: dict[int, int]) -> tuple[tuple[int, int], ...] | None:
    items = sorted((c, v) for c, v in coeffs.items() if v)
    if not items:
        return None
    g = 0
    for _, v in items:
        g = gcd(g, v)
    if items[0][1] < 0:
        g = -g
    return tuple((c, v // g) for c, v in items)


def _gcd_reduce(row: dict[int, int]) -> dict[int, int]:
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class _Echelon:
    """Incremental exact row reduction over sparse integer rows.

    Pivot rows are kept content-free with a positive leading coefficient;
    incoming rows are reduced by cross-multiplication so everything stays in
    integers.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        pivots = self.pivots
        while row:
            lead = min(row)
            p = pivots.get(lead)
            if p is None:
                return _gcd_reduce(row)
            a, b = p[lead], row[lead]
            new = {c: a * v for c, v in row.items()}
            for c, v in p.items():
                w = new.get(c, 0) - b * v
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            row = _gcd_reduce(new)
        return row

    def add(self, row: Iterable[tuple[int, int]] | Mapping[int, int]) -> bool:
        """Reduce and insert; returns True when the row was independent."""
        row = self.reduce(dict(row))
        if not row:
            return False
        if row[min(row)] < 0:
            row = {c: -v for c, v in row.items()}
        self.pivots[min(row)] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def nullspace_basis(self, ncols: int) -> list[tuple[Fraction, ...]]:
        """One dense basis vector per free column, via full back-substitution."""
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
                    out[c] = out.get(c, Fraction(0)) + f
                else:
                    for cc, vv in sub.items():
                        w = out.get(cc, Fraction(0)) - f * vv
                        if w:
                            out[cc] = w
                        elif cc in out:
                            del out[cc]
            solved[lead] = {c: v for c, v in out.items() if v}
        zero = Fraction(0)
        basis = []
        for f in range(ncols):
            if f in self.pivots:
                continue
            vec = [zero] * ncols
            vec[f] = Fraction(1)
            for lead, row in solved.items():
                cf = row.get(f)
                if cf:
                    vec[lead] = -cf
            basis.append(tuple(vec))
        return basis


def nullspace(system: ConstraintSystem) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Exact nullspace dimension and an explicit rational basis."""
    ech = _Echelon()
    for row in sorted(system.rows, key=len):
        ech.add(row)
    basis = ech.nullspace_basis(len(system.unknowns))
    return len(basis), basis


def _integer_row(vec) -> dict[int, int]:
    if isinstance(vec, Mapping):
        items = {c: Fraction(v) for c, v in vec.items() if v}
    else:
        items = {c: Fraction(v) for c, v in enumerate(vec) if v}
    if not items:
        return {}
    scale = lcm(*(v.denominator for v in items.values()))
    return {c: int(v * scale) for c, v in items.items()}


def rank_of(vectors: Iterable) -> int:
    """Exact rank of a family of rational vectors (dense or sparse)."""
    ech = _Echelon()
    for v in vectors:
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
    if not cells:
        return True
    alg = params.algebra
    bi = alg.basis_index
    rows = []
    for cell in cells:
        combo = tuple(bi[unit(alg.k, i)] for i in cell.axes)
        col = system.column(combo, bi[cell.alpha])
        rows.append({b: nullbasis[b][col] for b in range(len(nullbasis)) if nullbasis[b][col]})
    return rank_of(rows) == len(cells)


def expand_table(system: ConstraintSystem, table) -> list[Fraction]:
    """Evaluate a lift table at every unknown of the system."""
    ev = TableEvaluator(table)
    return [ev.monomials_by_index(combo, d) for combo, d in system.unknowns]


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
        vec = {col: v for col, v in enumerate(expand_table(system, table)) if v}
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
    r_union = rank_of(list(nullbasis) + expanded)
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
