"""Exact checks on lift tables.

Three properties pin down membership in the lift space: the multilinear
extension changes sign under slot exchange, it satisfies the slotwise
product rule on basis monomials, and expansions of just-overflowing powers
vanish.  Every check decides every basis tuple -- by multilinearity that is
complete coverage, no sampling involved -- and its ``cases`` count is the
number of basis tuples decided.

Skew-symmetry is carried by the table layout: rows are stored only on
increasing axis tuples and ``TableEvaluator`` signs every read by sorting,
so ``check_skew`` counts its cases without evaluating any (its docstring
has the proof).

The product-rule sweep evaluates only the tuples that can read a table
cell.  ``TableEvaluator`` returns zero, before reading any cell, when an
argument monomial is constant or when the argument and target degrees sum
past r + s; the identities below then hold for every table, so those
tuples are decided without evaluation:

- a product-rule instance ``(others, b, c, d)`` with a constant entry in
  ``others``: all three terms have that constant argument, so 0 = 0;
- one with deg(others) + deg b + deg c + deg d > r + s: each term has that
  total degree (or a truncated product, which contributes zero), so 0 = 0;
- one with ``b`` constant: the left side and the term with ``c`` in the
  slot are the same evaluation, and the term with ``b`` in the slot has a
  constant argument (likewise with ``b`` and ``c`` exchanged);
- one with a repeated entry in ``others``: every term has a repeated
  argument, where ``TableEvaluator`` reads zero on every table (the second
  bullet of ``check_skew``'s proof), so 0 = 0.

The sweep walks one multidegree block ``m`` at a time with
``lift_space.MonomialCodes``, the generator the oracle builds its rows
with.  Every instance the bullets leave has distinct nonconstant others,
nonconstant ``b`` and ``c``, and a degree sum of at most r + s.  The
leading tuples are the increasing picks of nonconstant basis monomials
dividing ``x^m``, ``others`` runs over their orderings, and ``(b, c, d)``
over the factorisations of the rest with ``b`` and ``c`` nonconstant.  The
failures are sorted by (slot, others, b, c, d) in basis positions, the
order of a sweep over every basis tuple.

For r >= 1 the product-rule sweep and the truncation check give the same
verdict on every table.  Fix the other arguments; peeling them one axis
each writes the map in the last slot as a weighted sum of terms
``x^u * phi_J``, one per peeled axis tuple ``J``, where
``(x^u * phi)(a)(d) = phi(a)(x^u d)``, ``u`` collects the leftover
exponents of the other arguments, and ``phi_J(x_j)`` is the signed row of
``J + (j,)``.  ``phi_J`` peels its own argument the same way:
``phi_J(x^a) = sum_j a_j x^(a - e_j) phi_J(x_j)``, the polynomial
derivation with the stored cells as its values on the variables.  Such a
derivation passes to the truncated algebra exactly when it kills the
generators ``x^eps``, ``|eps| = r + 1``, of the truncation ideal, and
``phi_J(x^eps)`` is nonzero only at the constant target, where it is the
truncation sum at ``(J, eps)``.

- Truncation passes: every ``phi_J`` is a derivation of the truncated
  algebra into its dual, so is every ``x^u * phi_J``, and so is their sum;
  the product rule holds on every basis tuple.
- The product rule passes: with ``r >= 1``, split ``eps = b + c`` with
  ``b``, ``c`` nonconstant, both in the basis.  The instance with degree-one
  others on ``J``, arguments ``b``, ``c`` and the constant target reads
  ``0 = phi_J(b)(c) + phi_J(c)(b)``, which is the truncation sum at
  ``(J, eps)``.

At r = 0 no basis monomial is nonconstant, so the product-rule sweep
reads no cell and passes every table, while truncation requires every
cell to be zero; only truncation sees the cells there.

So ``run_all_checks`` lets truncation pick the blocks the product-rule
sweep visits.  The truncation sum at ``(J, eps)`` reads the cells of
multidegree ``e_J + eps``, and a product-rule instance reads, in all three
terms, only cells of the exponent sum of its arguments and target (the
grading fact in ``TableEvaluator``).  Lemma: every failing product-rule
instance lies in a block ``e_J + eps`` of a failing truncation sum.  Take
a block ``m`` where no truncation sum fails, and let ``T'`` be the table
with every cell outside ``m`` set to zero.

- An instance of block ``m`` reads only cells of ``m``, so it has the same
  value on the table and on ``T'``.
- ``T'`` passes truncation: a sum outside ``m`` reads only zero cells, and
  a sum inside ``m`` is the same as on the table.
- So for r >= 1, by the theorem above, ``T'`` passes the product rule on
  every basis tuple, and in particular on the instances of ``m``.

At r = 0 the sweep reads no cell anyway.  The lemma holds at every slot:
moving slot ``t`` to the last one permutes the arguments of all three
terms alike, so by skew-symmetry an instance at slot ``t`` fails exactly
when the last-slot instance with the same arguments does, and both lie in
the same block.  The sweep restricted to the failing blocks therefore
reports the same failures in the same order, and ``cases`` is a closed
form either way.  On a table that passes truncation no tuple is evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, perm
from operator import itemgetter
from typing import NamedTuple

from .lift_space import LiftTable, TableEvaluator, multidegree, sort_with_sign
from .multiindex import (
    MultiIndex,
    enumerate_degree_at_most,
    enumerate_degree_exactly,
    sub_unit,
    support,
)
from .rationals import exact_sum
from .weil_algebra import _Value


class Failure(NamedTuple):
    """One violated identity: which check, on which monomials, and the two
    exact values that should have agreed."""

    check: str
    witness: tuple
    expected: Fraction
    actual: Fraction


class VerificationReport(_Value):
    _fields = ("cases", "failures")

    def __init__(self, cases: dict[str, int] | None = None, failures: list[Failure] | None = None):
        self.cases = {} if cases is None else cases
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures


def check_skew(table: LiftTable) -> VerificationReport:
    """Exchanging two argument slots must negate the value, and a repeated
    argument monomial must kill it.  Vacuous for arity below two.

    ``cases`` counts one case per slot pair and one per repeated tuple, for
    every tuple of s + 1 basis positions.  Every case holds for every
    table, so none is evaluated: ``TableEvaluator`` computes the value at
    ``(g_1, ..., g_s; d)`` as a sum over the peeled axis tuples
    ``(j_1, ..., j_s)``, one supported axis ``j_t`` of each ``g_t``, of the
    signed cell at the sorted tuple, weighted by the product of the
    exponents ``g_t[j_t]``, with target ``g_1 + ... + g_s + d - e_J``.

    - Exchanging ``g_a`` and ``g_b`` exchanges ``j_a`` and ``j_b`` in every
      peeled tuple.  The weight, the target, the sorted tuple and so the
      cell stay the same, and the sorting sign flips, so every term and the
      sum are negated.  The two zeros read before any cell (a constant
      argument, degrees past r + s) do not depend on the argument order.
    - When ``g_a = g_b``, a peeled tuple with ``j_a = j_b`` has a repeated
      axis and reads zero.  The others pair up with the tuple that has
      ``j_a`` and ``j_b`` exchanged, whose term is the negative of theirs by
      the same argument, so the sum is zero.

    A table stores only increasing axis tuples, so no cell value can break
    either; ``tests/test_verifier.py`` sweeps every case on tables with
    random cells."""
    return VerificationReport(cases={"skew": skew_cases(table.params.algebra.dim, table.params.s)})


def skew_cases(B: int, s: int) -> int:
    """``check_skew``'s count for basis size ``B`` and arity ``s``: per
    tuple of ``s + 1`` basis positions, one case per slot pair, and one
    per tuple with a repeated argument."""
    return B ** (s + 1) * comb(s, 2) + (B**s - perm(B, s)) * B


def check_leibniz_basis(
    table: LiftTable,
    *,
    blocks: set[MultiIndex] | None = None,
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
    are evaluated, block by block (see the module docstring).  With
    ``blocks``, a set of multidegrees, only the instances whose arguments
    and target sum to one of them are evaluated; ``None`` sweeps every
    block.  Each instance is decided by ``exact_sum`` in integers, and the
    right side is formed as a ``Fraction`` only for a failing one.
    Failures come in the order of (slot, other arguments, b, c, d) by basis
    position.
    """
    p = table.params
    s, alg = p.s, p.algebra
    rep = VerificationReport(cases={"leibniz": 0})
    if s == 0:
        return rep
    slots = range(s) if all_slots else [s - 1]
    rep.cases["leibniz"] = len(slots) * alg.dim ** (s + 2)
    # At r = 0 no basis monomial is nonconstant, so no instance reads a cell.
    if alg.r == 0 or blocks is not None and not blocks:
        return rep
    if blocks is None:
        blocks = enumerate_degree_at_most(alg.k, alg.r + s)
    mono = (evaluator or TableEvaluator(table)).monomials_by_index
    codes, basis, zero = p.codes, alg.basis, Fraction(0)
    failed = []
    for m in blocks:
        size = sum(m)
        if size > alg.r + s:  # every instance sums past r + s
            continue
        # b, c and d take the rest of the leading tuple, and a term needs
        # two of them to multiply inside the basis, so the rest has degree
        # at most 2r.
        for lead, rest, left in codes.picks([((), codes.code(m), size)], s - 1, 2 * alg.r):
            if 0 in lead:
                continue
            pairs = codes.factors(rest, left)
            triples = pairs + [(c, b, d, bc, cd, bd) for b, c, d, bc, bd, cd in pairs if b != c]
            for others in permutations(lead):
                for t in slots:
                    pre, post = others[:t], others[t:]
                    for b, c, d, bc, bd, cd in triples:
                        lhs = mono(pre + (bc,) + post, d) if bc is not None else zero
                        tb = mono(pre + (b,) + post, cd) if cd is not None else zero
                        tc = mono(pre + (c,) + post, bd) if bd is not None else zero
                        if exact_sum(((1, lhs), (-1, tb), (-1, tc))):
                            failed.append(((t, others, b, c, d), tb + tc, lhs))
    failed.sort(key=itemgetter(0))
    for (t, others, b, c, d), rhs, lhs in failed:
        witness = (tuple(basis[x] for x in others), basis[b], basis[c], basis[d], t + 1)
        rep.failures.append(Failure("leibniz", witness, rhs, lhs))
    return rep


def check_truncation(table: LiftTable) -> VerificationReport:
    """Expansions of just-overflowing powers must vanish: for every strictly
    increasing axis (s-1)-tuple and every exponent of total degree r+1, the
    weighted sum of table values with one unit peeled off each supported
    axis is zero.  Vacuous for arity zero; without a table row (``s > k``)
    every sum is empty, and its cases are counted in closed form.

    Each sum is taken by ``exact_sum`` over the denominators of its own at
    most ``r + 1`` cells; a denominator common to a whole row could have
    the row's cell count times ``MAX_RATIONAL_DIGITS`` digits, and would
    make every term of every sum a product of that size.  A ``Fraction``
    is formed only for a failing sum."""
    p = table.params
    s = p.s
    rep = VerificationReport(cases={"truncation": 0})
    if s == 0:
        return rep
    alg, k = p.algebra, p.algebra.k
    if s > k:
        # comb(r + k, k - 1) exponents of degree r + 1 per (s-1)-tuple.
        rep.cases["truncation"] = k and comb(k, s - 1) and comb(alg.r + k, k - 1)
        return rep
    index = alg.basis_index
    # Each overflowing power with its terms: per supported axis h, the
    # exponent at h and the basis position of the power less e_h.
    powers = [
        (eps, [(h, eps[h - 1], index[sub_unit(eps, h)]) for h in support(eps)])
        for eps in enumerate_degree_exactly(k, alg.r + 1)
    ]
    for g in combinations(range(1, k + 1), s - 1):
        # The stored row of g + (h,) and its sorting sign, per axis h not in g.
        rows, signs = {}, {}
        for h in range(1, k + 1):
            res = sort_with_sign(g + (h,))
            if res is not None:
                rows[h], signs[h] = table.cells[p.row_index[res[0]]], res[1]
        for eps, terms in powers:
            acc = exact_sum([(signs[h] * e, rows[h][ci]) for h, e, ci in terms if h in rows])
            if acc:
                rep.failures.append(Failure("truncation", (g, eps), Fraction(0), acc))
    rep.cases["truncation"] = comb(k, s - 1) * len(powers)
    return rep


def run_all_checks(table: LiftTable, *, all_slots: bool = False) -> VerificationReport:
    """Run the three table checks.  The product-rule sweep visits only the
    multidegree blocks where a truncation sum fails, which finds every
    failure it would find on all of them (module docstring).  The three
    checks have distinct case names, so one report holds them all."""
    trunc = check_truncation(table)
    # The sum at (J, eps) reads the cells of multidegree e_J + eps.
    blocks = {multidegree(*f.witness) for f in trunc.failures}
    parts = [check_skew(table), check_leibniz_basis(table, blocks=blocks, all_slots=all_slots), trunc]
    cases = {name: n for rep in parts for name, n in rep.cases.items()}
    return VerificationReport(cases, [f for rep in parts for f in rep.failures])
