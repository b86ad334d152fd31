"""Independent brute-force reference implementations used across the tests.

Everything here recomputes results straight from first principles (box
enumeration, definition filters, indicator tables, product-rule recursion)
so the package code is checked against a second route, not against itself.
The ``reference_*`` checks are the skew and product-rule sweeps without the
verifier's pruning: they evaluate every basis tuple, so the pruned sweeps
must report the same cases and the same failures in the same order.
``reference_build_rows`` is the oracle's last-slot row builder without its
pruning: every ``b, c, d`` on every increasing leading tuple, and
``reference_build_all_slots`` imposes the rule at every slot on every
ordered tuple of the other arguments.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from jetlift import CoefficientAssignment, LiftParams, LiftTable, construct, free_cells
from jetlift.lift_space import FreeCell, TableEvaluator, lookup_skew, sort_with_sign
from jetlift.multiindex import MultiIndex, add, degree, sub_unit, support
from jetlift.oracle import ConstraintSystem, _add_rows_at
from jetlift.verifier import Failure, VerificationReport, check_truncation
from jetlift.weil_algebra import AlgebraParams


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
    argument monomial must kill it.  Vacuous for arity below two."""
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


def reference_run_all_checks(
    table: LiftTable, *, all_slots: bool = False
) -> VerificationReport:
    """``run_all_checks`` with the unpruned skew and product-rule sweeps."""
    ev = TableEvaluator(table)
    rep = reference_check_skew(table, evaluator=ev)
    rep = rep.merged(reference_check_leibniz_basis(table, all_slots=all_slots, evaluator=ev))
    return rep.merged(check_truncation(table))


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


def reference_build_all_slots(params: LiftParams) -> ConstraintSystem:
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
    return ConstraintSystem(params, unknowns, tuple(sorted(rowset)), tuple(range(s)))
