"""Exact checks on lift tables.

Three properties pin down membership in the lift space: the multilinear
extension changes sign under slot exchange, it satisfies the slotwise
product rule on basis monomials, and expansions of just-overflowing powers
vanish.  Every check decides every basis tuple -- by multilinearity that is
complete coverage, no sampling involved -- and its ``cases`` count is the
number of basis tuples decided.

The skew and product-rule sweeps evaluate only the tuples that can read a
table cell.  ``TableEvaluator`` returns zero, before reading any cell, when
an argument monomial is constant or when the argument and target degrees
sum past r + s; the identities below then hold for every table, so those
tuples are decided without evaluation:

- a product-rule instance ``(others, b, c, d)`` with a constant entry in
  ``others``: all three terms have that constant argument, so 0 = 0;
- one with deg(others) + deg b + deg c + deg d > r + s: each term has that
  total degree (or a truncated product, which contributes zero), so 0 = 0;
- one with ``b`` constant: the left side and the term with ``c`` in the
  slot are the same evaluation, and the term with ``b`` in the slot has a
  constant argument (likewise with ``b`` and ``c`` exchanged);
- a skew pair ``(g, d)`` with a constant entry in ``g`` or over the degree
  cap: its value, every slot exchange of it and the repeated case are 0.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import perm

from .lift_space import LiftTable, TableEvaluator, lookup_skew
from .multiindex import enumerate_degree_exactly, sub_unit, support


@dataclass
class Failure:
    """One violated identity: which check, on which monomials, and the two
    exact values that should have agreed."""

    check: str
    witness: tuple
    expected: Fraction
    actual: Fraction


@dataclass
class VerificationReport:
    cases: dict[str, int] = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        cases = dict(self.cases)
        for name, n in other.cases.items():
            cases[name] = cases.get(name, 0) + n
        return VerificationReport(cases, self.failures + other.failures)

    def to_json_dict(self, witness_limit: int = 10) -> dict:
        fail_counts: dict[str, int] = {name: 0 for name in self.cases}
        for f in self.failures:
            fail_counts[f.check] = fail_counts.get(f.check, 0) + 1
        return {
            "passed": self.passed,
            "checks": {
                name: {
                    "cases": self.cases.get(name, 0),
                    "failed": fail_counts.get(name, 0),
                }
                for name in sorted(set(self.cases) | set(fail_counts))
            },
            "witnesses": [
                {
                    "check": f.check,
                    "witness": repr(f.witness),
                    "expected": str(f.expected),
                    "actual": str(f.actual),
                }
                for f in self.failures[:witness_limit]
            ],
        }


def _nonconstant_tuples(n: int, budget: int, degrees: tuple[int, ...]):
    """Tuples of ``n`` nonconstant basis positions whose degrees sum to at
    most ``budget``, in lexicographic order, each with its degree sum.

    Basis positions are ordered by ascending degree, so every entry runs
    over a prefix of the positions after the constant monomial at 0."""
    if n == 0:
        yield (), 0
        return
    for x in range(1, bisect_right(degrees, budget - n + 1)):
        dx = degrees[x]
        for rest, d_rest in _nonconstant_tuples(n - 1, budget - dx, degrees):
            yield (x,) + rest, dx + d_rest


def check_skew(table: LiftTable, *, evaluator: TableEvaluator | None = None) -> VerificationReport:
    """Exchanging two argument slots must negate the value, and a repeated
    argument monomial must kill it.  Vacuous for arity below two.

    ``cases`` counts one case per slot pair and one per repeated tuple, for
    every tuple of s + 1 basis positions; only the tuples that can read a
    cell are evaluated (see the module docstring)."""
    p = table.params
    s = p.s
    rep = VerificationReport(cases={"skew": 0})
    if s < 2:
        return rep
    ev = evaluator or TableEvaluator(table)
    alg = p.algebra
    basis = alg.basis
    degrees = alg.degrees
    cap = alg.r + s
    B = len(basis)
    pairs = list(combinations(range(s), 2))
    for g, deg_g in _nonconstant_tuples(s, cap, degrees):
        distinct = len(set(g)) == s
        for d in range(bisect_right(degrees, cap - deg_g)):
            v = ev.monomials_by_index(g, d)
            if not distinct and v != 0:
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
                if w != -v:
                    rep.failures.append(
                        Failure(
                            "skew",
                            (tuple(basis[x] for x in g), (a + 1, b + 1), basis[d]),
                            -v,
                            w,
                        )
                    )
    repeated = B**s - perm(B, s)
    rep.cases["skew"] = B ** (s + 1) * len(pairs) + repeated * B
    return rep


def check_leibniz_basis(
    table: LiftTable,
    *,
    all_slots: bool = False,
    evaluator: TableEvaluator | None = None,
) -> VerificationReport:
    """Product rule at one argument slot, over all basis tuples.

    Replacing the slot argument by a product of two basis monomials must
    equal the sum of the two single-factor values with the complementary
    factor multiplied into the target; truncated products contribute zero.
    Checking the last slot covers every slot once skew-symmetry holds;
    ``all_slots=True`` sweeps the rest as redundancy.  ``cases`` counts all
    B^(s+2) basis tuples per slot; only the instances that can read a cell
    are evaluated (see the module docstring).
    """
    p = table.params
    s = p.s
    rep = VerificationReport(cases={"leibniz": 0})
    if s == 0:
        return rep
    ev = evaluator or TableEvaluator(table)
    alg = p.algebra
    basis = alg.basis
    degrees = alg.degrees
    cap = alg.r + s
    prod_idx = alg.product_index
    mono = ev.monomials_by_index
    slots = range(s) if all_slots else [s - 1]
    zero = Fraction(0)
    for t in slots:
        # b and c take at least one degree each, d may be constant.
        for others, deg_others in _nonconstant_tuples(s - 1, cap - 2, degrees):
            pre, post = others[:t], others[t:]
            room = cap - deg_others
            for b in range(1, bisect_right(degrees, room - 1)):
                row_b = prod_idx[b]
                args_b = pre + (b,) + post
                room_b = room - degrees[b]
                for c in range(1, bisect_right(degrees, room_b)):
                    bc = row_b[c]
                    args_bc = pre + (bc,) + post if bc is not None else None
                    args_c = pre + (c,) + post
                    row_c = prod_idx[c]
                    for d in range(bisect_right(degrees, room_b - degrees[c])):
                        lhs = mono(args_bc, d) if args_bc is not None else zero
                        cd = row_c[d]
                        bd = row_b[d]
                        rhs = zero
                        if cd is not None:
                            rhs = mono(args_b, cd)
                        if bd is not None:
                            rhs = rhs + mono(args_c, bd)
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
    rep.cases["leibniz"] = len(slots) * len(basis) ** (s + 2)
    return rep


def check_truncation(table: LiftTable) -> VerificationReport:
    """Expansions of just-overflowing powers must vanish: for every strictly
    increasing axis (s-1)-tuple and every exponent of total degree r+1, the
    weighted sum of table values with one unit peeled off each supported
    axis is zero.  Vacuous for arity zero."""
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


def run_all_checks(table: LiftTable, *, all_slots: bool = False) -> VerificationReport:
    """Run the three table checks with a shared evaluation cache."""
    ev = TableEvaluator(table)
    rep = check_skew(table, evaluator=ev)
    rep = rep.merged(check_leibniz_basis(table, all_slots=all_slots, evaluator=ev))
    return rep.merged(check_truncation(table))

