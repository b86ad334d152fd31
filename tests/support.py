"""Independent brute-force reference implementations used across the tests.

Everything here recomputes results straight from first principles (box
enumeration, definition filters, indicator tables, product-rule recursion)
so the package code is checked against a second route, not against itself.
The ``reference_*`` checks are the skew and product-rule sweeps without the
verifier's pruning: they evaluate every basis tuple, so the pruned
product-rule sweep must report the same cases and the same failures in the
same order, and ``check_skew``, which evaluates nothing, the same cases.
``reference_run_all_checks`` runs them over every multidegree block with a
truncation check read through ``lookup_skew``, where ``run_all_checks``
sweeps only the blocks in which a truncation sum fails.
``reference_build_rows`` is the oracle's last-slot row builder without its
pruning: every ``b, c, d`` on every increasing leading tuple, and
``reference_build_all_slots`` imposes the rule at every slot on every
ordered tuple of the other arguments, forming each row in a dict of
coefficients and dividing out its content (``_add_rows_at``), so it
shares no code with the builder it checks.  ``reference_nullspace``
eliminates the whole system at once, and ``reference_blockwise_nullspace``
every block from its own rows, where the oracle eliminates one block per
orbit of variable permutations and transports its basis to the others;
``same_span`` compares the bases by the spaces they span.
``reference_orbit_blocks`` eliminates each orbit's representative block
of degree at most ``r + s`` from all of its rows and restricts the basis
to the block's cells, where the oracle composes the rows with its
expansion of the unknowns in the cells and eliminates on the cells;
``reference_peeling`` is the table evaluator's peeling sum transposed,
the reference for that expansion.  ``peeling_row`` forms the row
``R(pre; x_j, c, d)`` that solves an unknown for one of its arguments,
and ``peeling_certificate`` checks, from first principles, the peeling
rows by which the oracle skips every block past ``r + s``.
``truncation_kernel_failures`` is a fourth route to the lift space: the
kernel of the truncation sums on the table cells, block by block.
``reference_construct`` completes an assignment adding ``Fraction``s term
by term, where ``construct`` sums each bound cell's terms in integers.
``reference_check_iso`` and ``reference_compare`` read the full vectors
``nullspace`` returns, carried to every block, and take one global rank
each, where ``check_iso`` and ``compare_with_construction`` read each
representative's basis on its cells; ``with_basis`` doctors one
representative's basis for both.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import NamedTuple

from jetlift import CoefficientAssignment, LiftParams, LiftTable, construct, free_cells
from jetlift.lift_space import (
    FreeCell,
    TableEvaluator,
    block_cells,
    graded_dimension,
    lookup_skew,
    multidegree,
    peelings,
    sort_with_sign,
)
from jetlift.multiindex import (
    MultiIndex,
    add,
    degree,
    enumerate_degree_exactly,
    sub_unit,
    support,
    unit,
)
from jetlift.oracle import (
    DEFAULT_MAX_UNKNOWNS,
    ConstraintSystem,
    _Echelon,
    expand_table,
    rank_of,
    unknown_count,
)
from jetlift.verifier import Failure, VerificationReport
from jetlift.weil_algebra import AlgebraParams


# The grid of the acceptance criteria, and the points past it at which the
# oracle criteria also run.
FULL_GRID = [(r, k, s) for r in (1, 2, 3) for k in (1, 2, 3) for s in (0, 1, 2, 3)]
REACH_POINTS = [(4, 3, 3), (3, 4, 3), (4, 4, 2)]

# Every r <= 3, k <= 4, s <= 4 whose oracle system fits the default guard:
# 94 points, the degenerate shapes among them.
PRUNING_POINTS = [
    (r, k, s)
    for r in range(4)
    for k in range(5)
    for s in range(5)
    if unknown_count(LiftParams(AlgebraParams(r, k), s)) <= DEFAULT_MAX_UNKNOWNS
]


def brute_monomials(k: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of degree <= d by box enumeration, sorted by
    ascending degree then descending lexicographic order."""
    found = [a for a in product(range(d + 1), repeat=k) if sum(a) <= d]
    return sorted(found, key=lambda a: (sum(a), tuple(-x for x in a)))


def brute_free_cells(r: int, k: int, s: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Free cells filtered straight from the membership condition."""
    out = []
    for axes in combinations(range(1, k + 1), s):
        for alpha in brute_monomials(k, r):
            d = sum(alpha)
            if s == 0 or d < r:
                keep = True
            else:
                sup = [j for j in range(1, k + 1) if alpha[j - 1] > 0]
                keep = bool(sup) and axes[-1] < max(sup)
            if keep:
                out.append((axes, alpha))
    return out


def zero_table(params: LiftParams) -> LiftTable:
    dim = params.algebra.dim
    return LiftTable(
        params, tuple(tuple(Fraction(0) for _ in range(dim)) for _ in params.rows)
    )


def indicator_table(params: LiftParams, axes, alpha) -> LiftTable:
    return zero_table(params).with_cell(axes, alpha, Fraction(1))


def detectable_cells(params: LiftParams) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Cells whose single-cell perturbation leaves the lift space.

    Perturbing cell z of a valid table stays valid exactly when the
    indicator table at z is itself valid, i.e. when z is free and the
    completed unit assignment at z has no other nonzero cell.  Those cells
    are excluded; everything else is detectable by the exhaustive checks.
    """
    free = set(free_cells(params))
    out = []
    for axes in params.rows:
        for alpha in params.algebra.basis:
            cell = FreeCell(axes, alpha)
            if cell in free:
                completed = construct(CoefficientAssignment.unit(params, cell))
                if completed != indicator_table(params, axes, alpha):
                    out.append((axes, alpha))
            else:
                out.append((axes, alpha))
    return out


def reference_construct(assignment: CoefficientAssignment) -> LiftTable:
    """``construct`` with every bound cell summed as ``Fraction``s: the cell
    at row ``lead + (i,)`` and full-degree ``alpha`` is minus the sum, over
    the other supported axes ``j`` of ``alpha``, of ``alpha_j`` times the
    signed free cell at ``lead + (j,)`` and ``alpha + e_i - e_j``, over
    ``alpha_i + 1``."""
    p = assignment.params
    free = assignment.values
    rows = []
    for axes in p.rows:
        row = []
        for alpha in p.algebra.basis:
            v = free.get(FreeCell(axes, alpha))
            if v is None:
                lead, i = axes[:-1], axes[-1]
                raised = add(alpha, unit(p.algebra.k, i))
                v = Fraction(0)
                for j in support(alpha):
                    res = sort_with_sign(lead + (j,)) if j != i else None
                    if res is not None:
                        v += alpha[j - 1] * res[1] * free[FreeCell(res[0], sub_unit(raised, j))]
                v = -v / (alpha[i - 1] + 1)
            row.append(v)
        rows.append(tuple(row))
    return LiftTable(p, tuple(rows))


def multiply_monomials(params: AlgebraParams, z: MultiIndex, e: MultiIndex) -> MultiIndex | None:
    """Product of two basis monomials: their exponent sum, or ``None`` when
    the result truncates to zero."""
    p = add(tuple(z), tuple(e))
    return p if degree(p) <= params.r else None


def leibniz_eval(table: LiftTable, gammas, delta) -> Fraction:
    """Evaluate a *valid* table on basis monomials by product-rule recursion.

    Degree-one argument tuples are read straight off the table; a constant
    argument gives zero; otherwise one argument is split off one variable
    and the product rule rewrites the value through lower argument degrees,
    with truncating products contributing zero.  For tables that satisfy the
    checks this must agree with the package's direct expansion.
    """
    alg = table.params.algebra
    gammas = [tuple(g) for g in gammas]
    for t, g in enumerate(gammas):
        d = degree(g)
        if d == 1:
            continue
        if d == 0:
            return Fraction(0)
        j = support(g)[-1]
        rest = sub_unit(g, j)
        xj = tuple(int(i == j - 1) for i in range(alg.k))
        acc = Fraction(0)
        prod = multiply_monomials(alg, rest, delta)
        if prod is not None:
            acc += leibniz_eval(table, gammas[:t] + [xj] + gammas[t + 1 :], prod)
        prod = multiply_monomials(alg, xj, delta)
        if prod is not None:
            acc += leibniz_eval(table, gammas[:t] + [rest] + gammas[t + 1 :], prod)
        return acc
    axes = tuple(support(g)[0] for g in gammas)
    return lookup_skew(table, axes, delta)


def reference_check_skew(
    table: LiftTable, *, evaluator: TableEvaluator | None = None
) -> VerificationReport:
    """``check_skew`` as an unpruned sweep: every basis tuple is evaluated.
    Exchanging two argument slots must negate the value, and a repeated
    argument monomial must kill it.  Vacuous for arity below two.  It
    checks the premise ``check_skew`` rests on: the evaluator is
    skew-symmetric on every table."""
    p = table.params
    s = p.s
    rep = VerificationReport(cases={"skew": 0})
    if s < 2:
        return rep
    ev = evaluator or TableEvaluator(table)
    basis = p.algebra.basis
    B = len(basis)
    pairs = list(combinations(range(s), 2))
    n = 0
    for g in product(range(B), repeat=s):
        distinct = len(set(g)) == s
        for d in range(B):
            v = ev.monomials_by_index(g, d)
            if not distinct:
                n += 1
                if v != 0:
                    rep.failures.append(
                        Failure(
                            "skew",
                            (tuple(basis[x] for x in g), "repeated", basis[d]),
                            Fraction(0),
                            v,
                        )
                    )
            for a, b in pairs:
                swapped = list(g)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                w = ev.monomials_by_index(tuple(swapped), d)
                n += 1
                if w != -v:
                    rep.failures.append(
                        Failure(
                            "skew",
                            (tuple(basis[x] for x in g), (a + 1, b + 1), basis[d]),
                            -v,
                            w,
                        )
                    )
    rep.cases["skew"] = n
    return rep


def reference_check_leibniz_basis(
    table: LiftTable,
    *,
    all_slots: bool = False,
    evaluator: TableEvaluator | None = None,
) -> VerificationReport:
    """``check_leibniz_basis`` as an unpruned sweep: every basis tuple is
    evaluated.

    Replacing the slot argument by a product of two basis monomials must
    equal the sum of the two single-factor values with the complementary
    factor multiplied into the target; truncated products contribute zero.
    Checking the last slot covers every slot once skew-symmetry holds;
    ``all_slots=True`` sweeps the rest as redundancy.
    """
    p = table.params
    s = p.s
    rep = VerificationReport(cases={"leibniz": 0})
    if s == 0:
        return rep
    ev = evaluator or TableEvaluator(table)
    alg = p.algebra
    basis = alg.basis
    B = len(basis)
    prod_idx = alg.product_index
    mono = ev.monomials_by_index
    slots = range(s) if all_slots else [s - 1]
    n = 0
    zero = Fraction(0)
    for t in slots:
        for others in product(range(B), repeat=s - 1):
            pre, post = others[:t], others[t:]
            for b in range(B):
                row_b = prod_idx[b]
                args_b = pre + (b,) + post
                for c in range(B):
                    bc = row_b[c]
                    args_bc = pre + (bc,) + post if bc is not None else None
                    args_c = pre + (c,) + post
                    row_c = prod_idx[c]
                    for d in range(B):
                        lhs = mono(args_bc, d) if args_bc is not None else zero
                        cd = row_c[d]
                        bd = row_b[d]
                        rhs = zero
                        if cd is not None:
                            rhs = mono(args_b, cd)
                        if bd is not None:
                            rhs = rhs + mono(args_c, bd)
                        n += 1
                        if lhs != rhs:
                            rep.failures.append(
                                Failure(
                                    "leibniz",
                                    (
                                        tuple(basis[x] for x in others),
                                        basis[b],
                                        basis[c],
                                        basis[d],
                                        t + 1,
                                    ),
                                    rhs,
                                    lhs,
                                )
                            )
    rep.cases["leibniz"] = n
    return rep


def reference_check_truncation(table: LiftTable) -> VerificationReport:
    """``check_truncation`` reading every term through the public
    ``lookup_skew``: for every strictly increasing axis (s-1)-tuple and
    every exponent of total degree r+1, the weighted sum of table values
    with one unit peeled off each supported axis must vanish."""
    p = table.params
    s = p.s
    rep = VerificationReport(cases={"truncation": 0})
    if s == 0:
        return rep
    r, k = p.algebra.r, p.algebra.k
    n = 0
    for g in combinations(range(1, k + 1), s - 1):
        for eps in enumerate_degree_exactly(k, r + 1):
            acc = Fraction(0)
            for h in support(eps):
                acc += eps[h - 1] * lookup_skew(table, g + (h,), sub_unit(eps, h))
            n += 1
            if acc != 0:
                rep.failures.append(Failure("truncation", (g, eps), Fraction(0), acc))
    rep.cases["truncation"] = n
    return rep


def reference_run_all_checks(
    table: LiftTable, *, all_slots: bool = False
) -> VerificationReport:
    """``run_all_checks`` with the unpruned skew and product-rule sweeps
    over every multidegree block, and the truncation check read through
    ``lookup_skew``."""
    ev = TableEvaluator(table)
    parts = [
        reference_check_skew(table, evaluator=ev),
        reference_check_leibniz_basis(table, all_slots=all_slots, evaluator=ev),
        reference_check_truncation(table),
    ]
    cases = {name: n for rep in parts for name, n in rep.cases.items()}
    return VerificationReport(cases, [f for rep in parts for f in rep.failures])


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


def reference_build_rows(params: LiftParams) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The oracle's default rows, instantiated without pruning: the product
    rule at the last slot, on every strictly increasing leading tuple and
    every basis ``b, c, d``, normalised by content and leading sign."""
    B = params.algebra.dim
    s = params.s
    combos = list(combinations(range(B), s))
    combo_rank = {c: i for i, c in enumerate(combos)}

    def block(pre: tuple[int, ...]) -> list[tuple[int, int] | None]:
        out = []
        for x in range(B):
            res = sort_with_sign(pre + (x,))
            out.append(None if res is None else (combo_rank[res[0]] * B, res[1]))
        return out

    rowset: set[tuple[tuple[int, int], ...]] = set()
    prod_idx = params.algebra.product_index
    for t in range(max(s - 1, 0), s):
        for pre in combinations(range(B), t):
            blk = block(pre)
            for b, at_b in enumerate(blk):
                row_b = prod_idx[b]
                for c, at_c in enumerate(blk):
                    bc = row_b[c]
                    at_bc = None if bc is None else blk[bc]
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
    return tuple(sorted(rowset))


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


class ReferenceSystem(NamedTuple):
    """Whole-system rows over the unknowns, as a reference builds them."""

    params: LiftParams
    unknowns: tuple[tuple[tuple[int, ...], int], ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    slots: tuple[int, ...]


def reference_build_all_slots(params: LiftParams) -> ReferenceSystem:
    """The product rule at every slot on every ordered tuple of the other
    arguments and every ``b, c, d``, with no skipping: the row set the
    oracle's last-slot builder must reproduce."""
    B = params.algebra.dim
    s = params.s
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

    rowset: set[tuple[tuple[int, int], ...]] = set()
    for t in range(s):
        for others in product(range(B), repeat=s - 1):
            blk = block(others[:t], others[t:])
            for b, c in product(range(B), repeat=2):
                _add_rows_at(rowset, blk, params.algebra.product_index, b, c, B)
    return ReferenceSystem(params, unknowns, tuple(sorted(rowset)), tuple(range(s)))


def reference_nullspace(system: ConstraintSystem | ReferenceSystem):
    """The oracle's nullspace by one elimination of the whole system: every
    row, single-entry rows included, into one echelon, shortest first."""
    ech = _Echelon()
    for row in sorted(system.rows, key=len):
        ech.add(row)
    basis = list(ech.nullspace_basis(range(len(system.unknowns))).values())
    return len(basis), basis


def reference_blockwise_nullspace(system: ConstraintSystem):
    """The oracle's nullspace with every block eliminated directly from its
    own generated rows, single-entry rows included, and no block's basis
    carried to another: each block's basis must span what transporting one
    block per orbit gives there."""
    by_free = {}
    for m in system.multidegrees:
        block = system.block(m)
        ech = _Echelon()
        for row in sorted(block.rows, key=len):
            ech.add(row)
        by_free.update(ech.nullspace_basis(block.cells))
    return len(by_free), [by_free[f] for f in sorted(by_free)]


def same_span(a: list, b: list) -> bool:
    """Are the sparse rational vectors ``a`` a basis of the span of the
    basis ``b``?"""
    return len(a) == len(b) == rank_of(a) == rank_of(a + b)


def with_basis(system: ConstraintSystem, rep: MultiIndex, basis: list) -> ConstraintSystem:
    """A fresh copy of ``system`` in which the representative ``rep`` has
    the null basis ``basis`` on its cells, keyed by axis tuple, and every
    other orbit the basis it has in ``system``."""
    out = ConstraintSystem(system.params, system.slots)
    # ``_orbits`` is a cached property: the copy reads it from its own dict.
    out.__dict__["_orbits"] = [
        orbit._replace(basis=basis) if orbit.rep == rep else orbit for orbit in system._orbits
    ]
    return out


def reference_check_iso(system: ConstraintSystem, nullbasis: list) -> bool:
    """``check_iso`` on the full vectors of ``nullspace(system)``: as many
    vectors as free cells, and one rank of all of them on the free cells'
    global columns."""
    params = system.params
    cells = free_cells(params)
    if len(cells) != len(nullbasis):
        return False
    bi = params.algebra.basis_index
    free = {system.column(cell.axes, bi[cell.alpha]) for cell in cells}
    return rank_of({c: v for c, v in vec.items() if c in free} for vec in nullbasis) == len(cells)


def reference_units(system: ConstraintSystem) -> list:
    """Each unit table (1 at one free cell, 0 at the others), in free-cell
    order, constructed in full and evaluated at the unknowns of the block
    of its free cell (``expand_table``): its free cell, its vector, and the
    failures of the rows of that block, in row order, that it violates."""
    params = system.params
    blocks, out = {}, []
    for one in free_cells(params):
        m = multidegree(*one)
        if m not in blocks:
            blocks[m] = system.block(m)
        table = construct(CoefficientAssignment.unit(params, one))
        nonzero = {
            FreeCell(axes, alpha): v
            for axes, row in zip(params.rows, table.cells)
            for alpha, v in zip(params.algebra.basis, row)
            if v
        }
        vec = expand_table(system, nonzero, blocks[m].cells)
        failures = []
        for row in blocks[m].rows:
            got = sum((v * vec.get(c, 0) for c, v in row), Fraction(0))
            if got:
                failures.append(Failure("constraint-rows", (one, row), Fraction(0), got))
        out.append((one, vec, failures))
    return out


def reference_compare(
    system: ConstraintSystem, nullbasis: list, units: list | None = None
) -> VerificationReport:
    """``compare_with_construction`` on full vectors: the row failures of
    ``reference_units`` (given, or found afresh), each unit counting the
    rows of its own block as cases, and the span checked with
    one global rank each of ``nullbasis`` (the vectors of
    ``nullspace(system)``), of the unit vectors and of their union."""
    units = reference_units(system) if units is None else units
    expanded = [vec for _, vec, _ in units]
    rows = {m: len(system.block(m).rows) for m in {multidegree(*one) for one, _, _ in units}}
    rep = VerificationReport(
        {"constraint-rows": sum(rows[multidegree(*one)] for one, _, _ in units), "span": 1},
        [f for _, _, failures in units for f in failures],
    )
    r_null, r_exp = rank_of(nullbasis), rank_of(expanded)
    r_union = rank_of(nullbasis + expanded)
    if not (r_null == r_exp == r_union == len(nullbasis) == len(expanded)):
        witness = (("nullspace", r_null), ("construction", r_exp), ("union", r_union))
        rep.failures.append(
            Failure("span", witness, Fraction(len(nullbasis)), Fraction(r_union))
        )
    return rep


def reference_orbit_blocks(system: ConstraintSystem) -> list:
    """Each orbit representative of degree at most ``r + s`` whose block
    holds an unknown, with the block's row count and the null basis of one
    plain elimination of all of the block's rows, single-entry rows
    included, restricted to the block's cells: each vector keyed by the
    axis tuple ``I`` of the unknown ``F(x_I)(m - e_I)``, read off the
    basis exponents, at which it has a nonzero value.  The blocks past
    ``r + s`` are ``peeling_certificate``'s."""
    alg = system.params.algebra
    top = alg.r + system.params.s
    out = []
    for rep in system.multidegrees:
        if list(rep) != sorted(rep, reverse=True) or degree(rep) > top:
            continue
        block = system.block(rep)
        axes = {
            col: tuple(support(alg.basis[g])[0] for g in combo)
            for col, (combo, _) in block.cells.items()
            if all(degree(alg.basis[g]) == 1 for g in combo)
        }
        ech = _Echelon()
        for row in block.rows:
            ech.add(row)
        basis = [
            {axes[c]: v for c, v in vec.items() if c in axes}
            for vec in ech.nullspace_basis(block.cells).values()
        ]
        out.append((rep, len(block.rows), basis))
    return out


def reference_peeling(params: LiftParams, unknowns: dict) -> dict[tuple[int, ...], list]:
    """``lift_space.peelings``, the sum ``TableEvaluator`` reads, on one
    block, transposed: for the axis tuple ``I`` of each cell ``(I, alpha)``
    of the block, the (column, integer coefficient) pairs of the given
    unknowns, column -> (combination, target), that the cell feeds.  The
    value of a table at an unknown is then the sum, over the cells, of the
    cell's value times its coefficient there."""
    forms: dict[tuple[int, ...], dict[int, int]] = {}
    for col, (combo, _) in unknowns.items():
        for axes, coeff in peelings(params.algebra, combo):
            form = forms.setdefault(axes, {})
            form[col] = form.get(col, 0) + coeff
    return {axes: [(c, v) for c, v in form.items() if v] for axes, form in forms.items()}


def peeling_row(system: ConstraintSystem, cell: tuple, g: int) -> dict[int, int]:
    """The row ``R(pre; x_j, c, d) = F(pre, g)(d) - F(pre, x_j)(cd) -
    F(pre, c)(x_j d)`` for the unknown ``cell = (combo, d)`` and its
    argument ``g = x_j c``, ``j`` the first axis of ``g`` and ``pre`` the
    other arguments, formed in a dict of coefficients by column, each
    term's tuple sorted with its sign; a term with a truncated product or
    a repeated argument drops."""
    alg = system.params.algebra
    basis, bi = alg.basis, alg.basis_index
    combo, d = cell
    j = next(i for i, e in enumerate(basis[g], start=1) if e)
    xj, c = unit(alg.k, j), sub_unit(basis[g], j)
    pre = tuple(x for x in combo if x != g)
    row = {}
    for coeff, arg, target in (
        (1, basis[g], basis[d]),
        (-1, xj, multiply_monomials(alg, c, basis[d])),
        (-1, c, multiply_monomials(alg, xj, basis[d])),
    ):
        res = sort_with_sign(pre + (bi[arg],))
        if target is not None and res is not None:
            at = system.column(res[0], bi[target])
            row[at] = row.get(at, 0) + coeff * res[1]
    return row


def is_row(block, row: dict[int, int]) -> bool:
    """Is ``row``, normalised, one of the sorted rows of ``block``?"""
    row = _canonical_row(row)
    i = bisect_left(block.rows, row)
    return i < len(block.rows) and block.rows[i] == row


def peeling_certificate(system: ConstraintSystem, m: MultiIndex) -> list:
    """The peeling lemma of the oracle's docstring, checked on block ``m``
    of degree above ``r + s`` with the rows of ``system.block(m)``.

    Every unknown whose combination holds the monomial 1 must have a
    single-entry row.  The other unknowns are taken in order of total
    argument degree.  For each, its first argument ``g`` of degree at
    least 2 gives the row ``peeling_row``.  It must be a row of the block
    up to sign, be +-1 at the unknown, and have its other entries on the
    unknowns already settled.  Returns ``(cell, what)`` for each unknown
    that fails; none means the rows are triangular on the block's
    unknowns, so its nullity is 0.
    """
    deg = system.params.algebra.degrees
    block = system.block(m)
    settled, failures = set(), []

    def argument_degree(item) -> int:
        return sum(deg[g] for g in item[1][0])

    for col, cell in sorted(block.cells.items(), key=argument_degree):
        combo, d = cell
        if 0 in combo:
            if not is_row(block, {col: 1}):
                failures.append((cell, "no single-entry row"))
            settled.add(col)
            continue
        g = next((g for g in combo if deg[g] >= 2), None)
        if g is None:
            failures.append((cell, "no argument of degree 2"))
            continue
        row = peeling_row(system, cell, g)
        if row.get(col) not in (1, -1):
            failures.append((cell, "not +-1 at the unknown"))
        elif not is_row(block, row):
            failures.append((cell, "not a row of the block"))
        elif any(at not in settled for at, v in row.items() if v and at != col):
            failures.append((cell, "an entry not settled before"))
        settled.add(col)
    return failures


def truncation_kernel_failures(params: LiftParams) -> list:
    """The kernel of the truncation sums on the table cells, block by block,
    against the graded closed form and the free cells.

    The sum at ``(g, eps)`` (``g`` an increasing axis ``(s-1)``-tuple,
    ``|eps| = r + 1``) reads the cells ``(g + h, eps - e_h)`` of multidegree
    ``e_g + eps``, so the kernel splits by multidegree, and a block of
    degree below ``r + s`` holds no sum.  For ``r >= 1`` the verifier
    proves that a table lies in the lift space exactly when every sum
    vanishes; at ``r = 0`` the sums kill every cell, and the lift space is
    0.  So per block the kernel's dimension must be ``graded_dimension``,
    and the free cells must complement the pivots: with the other cells
    first, the pivots of the sums are exactly those cells, that is, a
    kernel vector is fixed by its free cells and they take any values.
    The elimination never reads the free-cell predicate; only the cell
    order does.  Returns ``(m, what, found, expected)`` per failing block.

    Block ``m`` lists its cells by the ``s``-subsets of its support, and
    its sums by the ``(s-1)``-subsets, so its matrix depends on ``m`` only
    through the exponents on the support, in axis order; it is eliminated
    once per such pattern and order of the cells.
    """
    r, k, s = params.algebra.r, params.algebra.k, params.s
    free = params.free_cell_set
    kernels: dict = {}
    failures = []
    for d in range(s, r + s + 1):
        for m in enumerate_degree_exactly(k, d):
            cells = block_cells(params, m)
            if not cells:
                continue
            is_free = tuple(cell in free for cell in cells)
            key = (tuple(x for x in m if x), is_free)
            if key not in kernels:
                kernels[key] = _truncation_kernel(key[0], s, d == r + s, is_free)
            nullity, pivots_ok = kernels[key]
            if nullity != graded_dimension(params, m):
                failures.append((m, "nullity", nullity, graded_dimension(params, m)))
            if not pivots_ok:
                failures.append((m, "pivots", is_free, False))
    return failures


def _truncation_kernel(pattern: tuple[int, ...], s: int, top: bool, is_free: tuple[bool, ...]):
    """Nullity of the truncation sums of a block with the support exponents
    ``pattern``, and whether their pivots are exactly its bound cells,
    taken first; cells and sums are numbered by the ``s``- and
    ``(s-1)``-subsets of the support, as positions into ``pattern``."""
    q = len(pattern)
    subsets = list(combinations(range(q), s))
    order = sorted(range(len(subsets)), key=lambda i: is_free[i])
    column = {subsets[i]: c for c, i in enumerate(order)}
    ech = _Echelon()
    if top and s:
        for g in combinations(range(q), s - 1):
            eps = list(pattern)
            for j in g:
                eps[j] -= 1
            row = {}
            for h, x in enumerate(eps):
                res = sort_with_sign(g + (h,)) if x else None
                if res is not None:
                    row[column[res[0]]] = x * res[1]
            ech.add(row)
    bound = is_free.count(False)
    return len(subsets) - ech.rank, set(ech.pivots) == set(range(bound))
