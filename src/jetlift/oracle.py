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
``F(pre, 1)(x)`` for every ``x`` (none when ``0`` is in ``pre``): every
unknown whose combination holds the monomial 1 is a known zero.  The
other instances have ``b, c`` in ``1 .. B-1``.

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
and each row is formed as a sorted tuple directly.  An instance with one
surviving term is a known zero; the known zeros of a block are collected
in a set and listed once each as ``((col, 1),)``.  A row with two or more
entries comes from one instance only: its columns share exactly ``pre``,
each adds one of ``b``, ``c``, ``bc``, and a term's target then fixes
``d``.  So such rows are listed without a set.

The columns are numbered in closed form, in that lexicographic order.
Among the increasing ``s``-tuples of basis positions ``0 .. B-1``, those
after ``c`` are, for each ``i``, the ones that agree with ``c`` before
position ``i`` and exceed it at ``i``: their entries from ``i`` on are
any ``s - i`` of the ``B - 1 - c_i`` positions above ``c_i``.  So ``c`` is
number ``C(B, s) - 1 - sum_i C(B - 1 - c_i, s - i)``, and the unknown
``(c, d)`` has column ``B`` times that plus ``d``.  These binomials are
read from one ``s``-by-``B`` table; nothing maps the ``C(B, s)``
combinations.

Both routes respect the multidegree grading.  The multidegree of an
unknown is the exponent sum of its combination plus its target,
``e(combo) + alpha``, and that of a table cell ``(I, alpha)`` is
``e_I + alpha``.  Every row lies in one multidegree: each term of
``R(pre; b, c, d)`` has multidegree ``e(pre) + b + c + d``.  And
``TableEvaluator`` at an unknown of multidegree ``m`` reads only cells of
multidegree ``m``.  So the system is a direct sum of blocks, and
``ConstraintSystem`` generates block ``m`` on its own, from ``m``: its
unknowns are the increasing tuples of basis monomials whose exponent sum
lies under ``m``, each with the rest of ``m`` as target when that has
degree at most ``r``; its rows are the instances of the factorisations
``e(pre) + b + c + d = m``.  The global rows, in the order of the whole
system, are the sorted union of the blocks' rows.

Permuting the variables is an automorphism of the algebra, so it maps
block ``m`` onto block ``sigma(m)``.  Let ``sigma`` permute the ``k``
variables.  It keeps degrees, so it maps basis monomials to basis
monomials, and ``sigma(x^b x^c) = sigma(x^b) sigma(x^c)``, truncated
products included.  Send the unknown ``F(combo)(d)`` to ``eps *
F(combo')(sigma d)``, where ``combo'`` sorts ``sigma`` applied entrywise
to ``combo`` and ``eps`` is the sign of that sort: a signed permutation
of the unknowns taking block ``m`` to block ``sigma(m)``.  Applying
``sigma`` to every argument of an instance ``(pre, b, c, d)`` gives the
instance ``(sigma pre, sigma b, sigma c, sigma d)``, with the products
carried along, and its row is the image of ``R(pre; b, c, d)`` under that
signed permutation.  Its leading tuple need not be increasing, nor
``sigma b <= sigma c``, but by the reduction above the rule on every
ordered leading tuple and every ``b, c`` has the same normalised rows as
the instantiated ones.  Since ``sigma^-1`` acts alike, ``sigma`` maps the
normalised rows of block ``m`` one to one onto those of ``sigma(m)``, up
to sign, single-entry rows to single-entry rows.  So every block of an
orbit has the same row count, and the nullspace of block ``sigma(m)`` is
the image of that of block ``m``.  Hence one block per orbit is solved,
its representative: ``m`` sorted into non-increasing order.  Its basis is
kept on its cells (the reduced pass, below), and the nullity is its
nullity times the size of the orbit.  The checks read the basis there:
the rank of vectors on a set of columns depends only on the space they
span, the signed permutation keeps it, and it adds over blocks, whose
columns are disjoint.  On cells the permutation relabels the axes: the
cell ``(I, alpha)`` of block ``m`` is the unknown ``F(x_I)(alpha)``, and
goes to ``F(x_sigma(I))(sigma alpha)``, the cell at ``sort sigma I``
with the sign of the sort.  This relabelling, ``_relabel``, is the one
move between blocks.  ``check_iso`` pulls each block's free cells back
to the representative with it, by any permutation that takes the
representative there (``_pull``), and ``compare_with_construction``
takes its span ranks block by block on the representative's cells.  The
free cells are not symmetric under ``sigma`` (the predicate singles out
the top axis of a row), so the blocks of an orbit pull back different
cells.  ``nullspace``, for the tests, relabels the representative's
basis to each block ``m`` of the orbit (``_orbit``) and expands it there
with block ``m``'s own ``E`` (below): a null vector of a block of degree
at most ``r + s`` is ``E`` of its cells.  No vector keyed by unknown
moves between blocks.

Table expansion commutes with permuting the variables, so
``compare_with_construction`` also checks one block per orbit.
``TableEvaluator`` reads a table ``T`` at the unknown ``F(g_1, ..., g_s)(d)``
of block ``m`` as a sum over the peelings ``j = (j_1, ..., j_s)``, one
supported axis ``j_t`` of each ``g_t``, all distinct:
``sum_j eps(j) * prod_t g_t[j_t] * T(sort j, m - e_j)``, with ``eps(j)``
the sign of the sort.  Let ``sigma T`` be the table with the value
``eta(I) * T(I, alpha)`` at the cell ``(sort sigma I, sigma alpha)``,
``eta(I)`` the sign of sorting ``sigma I``.  The peelings of
``F(sigma g_1, ..., sigma g_s)(sigma d)`` are the ``sigma j``, with the
same exponents, ``(sigma g_t)[sigma j_t] = g_t[j_t]``, and sorting
``sigma j`` is sorting ``j`` to ``I`` and then ``sigma I``, so
``eps(sigma j) = eps(j) eta(I)``.  The two factors ``eta(I)`` cancel: the
sum is symmetric in the variable labels, and ``sigma T`` at the image
unknown is ``T`` at the unknown.  Sorting the arguments on both sides
multiplies both values by one sign, as the sum is skew in the argument
order.  So the vector of ``sigma T`` is the signed permutation of the
unknowns above applied to the vector of ``T``.  Hence, for a unit table
``U`` of block ``m = sigma(rep)``: pulling its nonzero cells back to
``rep`` with the sign of the sort gives ``sigma^-1 U``, whose vector is
``sigma^-1`` applied to ``U``'s own, and is ``E`` of those cells (below).
So the span ranks of block ``m`` are those of the representative's
basis, the pulled-back units and their union, on the representative's
cells; a block without a unit adds the basis's rank to the null and
union ranks.  A row of block ``rep`` and its image under ``sigma`` take
the same value on the two vectors, since each entry's sign appears in
both, and the rows of block ``m`` are the normalised images of the
representative's rows.  So ``U`` violates a row of ``m`` exactly when its
pull-back violates a composed row of ``rep`` (below).  Only then is
block ``m`` listed (``block``), and ``U``'s own cells expanded with block
``m``'s ``E`` to its vector, which names each row of ``m`` it violates,
with its value.  ``U`` is zero outside block ``m``, so no row of another
block shares a column with it: its cases are the rows of block ``m``, as
many as the representative's.

The generator codes an exponent vector as one integer, and lists
divisors and picks, with ``lift_space.MonomialCodes``, which the
verifier's product-rule sweep walks too.  Only live instances are
listed.  Each term of
``R(pre; b, c, d)`` needs the product of two of ``b, c, d`` to lie in the
basis, so a leading tuple whose rest has degree above ``2r`` has no
instance with a term.  With ``b <= c`` graded, a
factorisation gives a term exactly when
``deg b + min(deg c, deg d) <= r``, that is, when ``bc``, ``bd`` or
``cd`` lies in the basis.

One listing of a block serves the representative pass, ``block`` and
the witnesses: its unknowns, its single-entry columns, and per leading
tuple ``pre`` the instances left with two or more terms, with a map from
each slot argument ``x`` that the rest's instances name to the first
column of the sorted ``pre + (x,)`` and the sign of the sort
(``_spliced``, from ``column``'s closed form).  A map lives as long as
its block's listing; nothing is kept per leading tuple.  The
single-entry columns are the unknowns holding the monomial 1, the
instances with one term, and those left with one once the terms on an
entry of ``pre`` drop.  ``block`` forms each row in columns and keeps
nothing, so each call, the witnesses' included, lists the block again;
the representative pass composes each row with ``E`` as it reads
its terms, and forms none in columns.  The row count, one per
single-entry column and one per instance left with two or more terms, is
taken from the listing.

Peeling lemma: a block ``m`` with ``|m| > r + s`` has nullity 0, so the
representative pass neither lists nor eliminates it.  Proof.  The
unknowns whose combination holds the monomial 1 are known zeros.  Take
any other unknown ``F(combo)(d)`` of the block.  Its ``s`` arguments have
degree at least 1 and ``d`` at most ``r``, so their degrees sum to
``|m| - deg d > s``, and some argument ``g`` has degree at least 2.  Write
``g = x_j c`` with ``c`` a basis monomial of degree ``deg g - 1 >= 1``,
and ``pre`` the other arguments, sorted.  ``pre + (g,)`` lists distinct
basis monomials, and the rest ``x_j c d`` has degree at most ``2r``, so
``R(pre; x_j, c, d)`` is a row of the system, up to sign.  Its term
``F(pre, x_j c)(d)`` is the unknown, with coefficient +-1.  Its other two
terms, ``F(pre, x_j)(cd)`` and ``F(pre, c)(x_j d)``, have total argument
degree ``deg pre + 1`` and ``deg pre + deg c``, both below
``deg pre + deg g``.  Each vanishes (a truncated product or a repeated
argument) or is an unknown of the block without the monomial 1, since
``pre``, ``x_j`` and ``c`` all have degree at least 1.  Order these
unknowns by total argument degree: each is then the only entry of its
peeling row off the known zeros and the unknowns before it.  These rows
are triangular with +-1 on the diagonal, so every null vector of the
block is 0 there, and the other rows cannot make it nonzero.  The proof
uses only rows of the system, not the construction or the formula; the
test-suite checks every peeling row on a grid of points.

The reduced pass: a block ``m`` with ``|m| <= r + s`` is solved on its
cells.  Its cells ``(I, m - e_I)``, one per ``s``-subset ``I`` of the
support of ``m``, are the unknowns ``F(x_I)(m - e_I)`` with every
argument linear; at most ``C(k, s)`` of them.  ``E`` writes every
unknown of the block as an integer combination of them, keyed by ``I``:

- an unknown whose combination holds the monomial 1 is ``{}``;
- one with every argument linear is its own cell;
- any other, ``F(pre, g)(d)`` with ``g`` its last argument (``pre + (g,)``
  is sorted, with sign +1), has ``deg g >= 2``, as basis positions are
  graded.  Let ``x_j`` be the first supported axis of ``g`` and
  ``c = g / x_j``.  The row ``R(pre; x_j, c, d)``, solved for its top
  term, gives ``E(F(pre, g)(d)) = E(F(pre, x_j)(cd)) + E(F(pre, c)(x_j d))``,
  each term's tuple sorted with its sign, and a term dropped when its
  slot argument is in ``pre`` (a repeated argument) or its product is
  truncated.  Within ``|m| <= r + s`` no product is: ``pre`` has ``s - 1``
  arguments of degree at least 1, so ``deg d <= r - 1`` and
  ``deg cd = |m| - deg pre - 1 <= r``.

Sweep order.  Both terms have a lower column than ``F(pre, g)(d)``.  The
sorted ``pre + (x_j,)`` agrees with ``pre + (g,)`` up to the place where
``x_j`` goes in, and there holds ``x_j``, below the entry of ``pre`` it
goes before, or below ``g``; so it comes first lexicographically, and so
does the sorted ``pre + (c,)``, as ``deg c < deg g``.  Combinations are
numbered lexicographically, each with its ``B`` targets, so one sweep in
ascending column order finds both terms' expansions made, with no
recursion.  The products are read from the integer codes.

Restriction to cells.  The row ``R(pre; x_j, c, d)`` is a row of the
block, up to sign (the peeling lemma's argument; the test-suite checks
every one that ``E`` uses), so every null vector ``v`` of the block
satisfies it, and the unknowns holding 1 are known zeros.  By induction
in the sweep, ``v = E(v|cells)``: a null vector is 0 when its cells are,
so the restriction to cells is injective on the nullspace.  For any
values ``u`` on the cells, ``E(u)`` takes the value ``u`` at the cells,
and is a null vector exactly when every row vanishes on it, that is,
when every composed row ``row . E`` vanishes on ``u``.  So the image of
the restriction is the kernel of the composed rows, and the nullspace is
``E`` of that kernel.  The pass composes every row of the listing,
single-entry rows included, keeps the distinct nonzero composed rows,
divided by their content and signed, and eliminates them on the cells:
its null basis is a basis of the restricted nullspace, keyed by cell.

A table's vector is ``E`` of its cells.  At an unknown of block ``m``,
``|m| <= r + s``, the evaluator's peeling sum reads only cells of block
``m``, and is linear in the exponents of the last argument ``g``: its
peelings at ``g`` take an axis ``a`` with the factor ``g[a]``, and the
rest of the term depends on ``a`` and on ``m`` only.  As
``(bc)[a] = b[a] + c[a]``, the sum at ``F(pre, bc)(d)`` is the sum at
``F(pre, b)(cd)`` plus that at ``F(pre, c)(bd)``: it satisfies every row
whose three products lie in the basis identically, a repeated argument
reading 0 on both sides.  In particular it satisfies the rows ``E``
solves, reads each cell ``F(x_I)(m - e_I)`` as ``T(I, m - e_I)``, and
reads 0 at an argument 1, which has no peeling.  By induction in the
sweep, the table's vector on the block is ``E`` of its cells.  So a unit
table meets every row of its block exactly when its cells meet every
composed row, and its cells, like the null basis, give the ranks.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import combinations, groupby
from math import comb, gcd, lcm
from operator import getitem, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
from .multiindex import COUNT_CAP, MAX_COUNT_DIGITS, MultiIndex, capped_binomial
from .verifier import Failure, VerificationReport
from .weil_algebra import _Value

DEFAULT_MAX_UNKNOWNS = 20_000

Row = tuple[tuple[int, int], ...]
Cell = tuple[tuple[int, ...], int]


class OracleSizeError(ValueError):
    """The constraint system would exceed the configured unknown limit."""


def unknown_count(params: LiftParams) -> int:
    """Number of unknowns the brute-force system would use, ``C(B, s) * B``
    for the basis size ``B = C(r + k, r)``, without listing the basis; a
    count above ``COUNT_CAP`` is returned as ``COUNT_CAP + 1`` without
    being built."""
    B = capped_binomial(params.algebra.r + params.algebra.k, params.algebra.r, COUNT_CAP)
    return min(capped_binomial(B, params.s, COUNT_CAP) * B, COUNT_CAP + 1)


class Block(NamedTuple):
    """One multidegree block: its unknowns, ascending global column ->
    (combination, target), and its rows in global row order."""

    cells: dict[int, Cell]
    rows: tuple[Row, ...]


class _Orbit(NamedTuple):
    """The blocks ``m`` that permuting the variables gives from ``rep``:
    the row count of each, and of the block ``rep`` the null basis on its
    cells and the distinct nonzero rows composed with ``_expansion``, both
    keyed by the cells' axis tuples."""

    rep: MultiIndex
    rows: int
    basis: list[dict[tuple[int, ...], Fraction]]
    composed: list[Row]


class ConstraintSystem(_Value):
    """The product-rule rows over the unknown cells, one multidegree block
    at a time.

    Column ``i`` is the unknown ``unknowns[i]``, a (monomial-position
    tuple, target position) pair, the tuples in lexicographic order and
    each with its ``B`` targets.  ``column`` numbers an unknown in closed
    form, ``(C(B, s) - 1 - sum_i C(B - 1 - c_i, s - i)) B + d``, from the
    binomial table ``_ranks``, which keeps that order.  Rows are sorted
    tuples of (column, integer coefficient) pairs, normalised by content
    and leading sign.  ``block(m)`` generates the unknowns and rows of one
    block.  ``rows``, ``unknowns`` and ``multidegrees`` list the whole
    system; only tests, ``dump_matrix`` and benchmark counters read them.
    """

    _fields = ("params", "slots")

    def __init__(self, params: LiftParams, slots: tuple[int, ...]) -> None:
        self.params, self.slots = params, slots

    @cached_property
    def _ranks(self) -> tuple[int, list[list[int]]]:
        """``(top, T)`` with ``top = (C(B, s) - 1) B`` and
        ``T[i][v] = C(B - 1 - v, s - i) B``, ``i < s``: the column of
        ``(c, d)`` is ``top - sum_i T[i][c_i] + d``."""
        B, s = self.params.algebra.dim, self.params.s
        table = [[comb(B - 1 - v, s - i) * B for v in range(B)] for i in range(s)]
        return (comb(B, s) - 1) * B, table

    def column(self, combo: tuple[int, ...], target: int) -> int:
        top, table = self._ranks
        return top - sum(map(getitem, table, combo)) + target

    @cached_property
    def unknowns(self) -> tuple[Cell, ...]:
        B = self.params.algebra.dim
        return tuple((c, d) for c in combinations(range(B), self.params.s) for d in range(B))

    @cached_property
    def multidegrees(self) -> tuple[MultiIndex, ...]:
        """Every block that holds an unknown, orbit by orbit."""
        reps = self._reps(self._top)
        return tuple(m for rep in reps if self._list(rep)[0] for m in _orbit(rep))

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        return tuple(sorted(row for m in self.multidegrees for row in self.block(m).rows))

    @cached_property
    def nullity(self) -> int:
        """The nullspace dimension: each representative's nullity once per
        block of its orbit."""
        return sum(_orbit_size(orbit.rep) * len(orbit.basis) for orbit in self._orbits)

    def block(self, m: MultiIndex) -> Block:
        """Block ``m``, listed on every call: its unknowns, the single-entry
        rows, and the row of each instance left with two or more terms, in
        column order, every row normalised."""
        cells, zeros, groups = self._list(m)
        rows = [((col, 1),) for col in zeros]
        for at, multis in groups:
            rows += [
                _signed([((t := at[x])[0] + to, v * t[1]) for x, to, v in terms])
                for terms in multis
            ]
        return Block(cells, tuple(sorted(rows)))

    @cached_property
    def _top(self) -> int:
        """The largest degree of an unknown's multidegree, a sum of
        ``s + 1`` basis monomials: ``(s + 1) r``, and 0 without
        variables."""
        return (self.params.s + 1) * self.params.algebra.r if self.params.algebra.k else 0

    def _reps(self, high: int) -> Iterator[MultiIndex]:
        """The non-increasing multidegrees of degree at most ``high`` that
        can hold an unknown, one per orbit of blocks; none when the system
        has no unknown.  An unknown's ``s`` arguments are distinct basis
        monomials, so its degree is at least the sum of the ``s`` least
        basis degrees, and its exponent of one variable at most ``r``, for
        the target, plus the ``s`` largest exponents of that variable over
        the basis."""
        alg, s = self.params.algebra, self.params.s
        if unknown_count(self.params):
            low = sum(alg.degrees[:s])
            top = alg.r + sum(sorted((e[0] for e in alg.basis if e), reverse=True)[:s])
            for n in range(low, high + 1):
                for part in _partitions(n, alg.k, top):
                    yield part + (0,) * (alg.k - len(part))

    @cached_property
    def _orbits(self) -> list[_Orbit]:
        """One entry per orbit of blocks of degree at most ``r + s`` that
        hold an unknown, with the representative block listed, solved on
        its cells and dropped, as the module docstring sets out: each row
        of the listing, single-entry rows included, is composed with
        ``_expansion`` as it is formed, and the distinct nonzero composed
        rows are eliminated.  The blocks past ``r + s`` have nullity 0 by
        the peeling lemma, so they are never listed here."""
        out = []
        for rep in self._reps(min(self.params.algebra.r + self.params.s, self._top)):
            cells, zeros, groups = self._list(rep)
            if not cells:
                continue
            expansion = self._expansion(cells)
            composed = {_normal(e) for col in zeros if (e := expansion[col])}
            for at, multis in groups:
                for terms in multis:
                    acc: dict[tuple[int, ...], int] = {}
                    for x, to, v in terms:
                        t = at[x]
                        if e := expansion[t[0] + to]:
                            v *= t[1]
                            for cell, w in e.items():
                                acc[cell] = acc.get(cell, 0) + v * w
                    if acc:
                        composed.add(_normal(acc))
            composed.discard(None)
            axes = [cell.axes for cell in block_cells(self.params, rep)]
            basis = _Echelon(composed).nullspace_basis(axes)
            # One row per single-entry column and per instance left with two or more terms.
            count = len(zeros) + sum(len(multis) for _, multis in groups)
            out.append(_Orbit(rep, count, list(basis.values()), list(composed)))
        return out

    def _expansion(self, cells: Mapping[int, Cell]) -> dict[int, dict[tuple[int, ...], int]]:
        """``E``: each unknown of a block of degree at most ``r + s``, by
        column, as an integer combination of the block's cells, keyed by
        their axis tuples, solved from its peeling row in one sweep in
        ascending column order, as the module docstring sets out.  An
        unknown holding the monomial 1 is ``{}``, one with every argument
        linear its own cell, and ``F(pre, g)(d)`` the signed sum of
        ``E(F(pre, x_j)(cd))`` and ``E(F(pre, c)(x_j d))``, ``x_j`` the
        first supported axis of ``g`` and ``c = g / x_j``."""
        alg, codes = self.params.algebra, self.params.codes
        deg, code, pos = alg.degrees, codes.codes, codes.positions
        out: dict[int, dict[tuple[int, ...], int]] = {}
        for col, (combo, d) in cells.items():
            if combo[:1] == (0,):
                out[col] = {}
            elif not combo or deg[combo[-1]] == 1:
                out[col] = {combo: 1}
            else:
                pre, g = combo[:-1], combo[-1]
                j = alg.supports[g][0]
                c = pos[code[g] - code[j]]
                acc: dict[tuple[int, ...], int] = {}
                # A term drops when its slot argument is in pre or its product is truncated.
                for x, to in ((j, pos.get(code[c] + code[d])), (c, pos.get(code[j] + code[d]))):
                    if to is not None and (t := self._spliced(pre, x)) is not None:
                        for cell, v in out[t[0] + to].items():
                            acc[cell] = acc.get(cell, 0) + t[1] * v
                out[col] = {cell: v for cell, v in acc.items() if v}
        return out

    # -- the block generator ---------------------------------------------------

    def _list(self, m: MultiIndex) -> tuple[dict[int, Cell], set[int], list[tuple[list, list]]]:
        """Block ``m``: its unknowns by ascending column, the columns of
        its single-entry rows, and per leading tuple ``pre`` the terms of
        each instance left with two or more, with the map from each slot
        argument ``x`` its rest's instances name to ``_spliced(pre, x)``,
        as the module docstring sets out."""
        s, r, codes = self.params.s, self.params.algebra.r, self.params.codes
        (top, table), pos = self._ranks, codes.positions
        size = sum(m)
        if size > (s + 1) * r:  # no unknown; the codes hold exponents up to (s + 1) r
            return {}, set(), []
        whole = [((), codes.code(m), size)]
        if s:
            # The leading tuples: b, c and d take the rest of m, and a term
            # needs two of them to multiply inside the basis, so the rest
            # has degree at most 2r.
            # An unknown's combination is a leading tuple and one more pick
            # that leaves the target.
            pres = codes.picks(whole, s - 1, 2 * r)
            combos = codes.picks(pres, 1, r)
        else:
            pres, combos = [], [w for w in whole if w[2] <= r]
        cells = dict(
            sorted(
                (top - sum(map(getitem, table, combo)) + pos[rest], (combo, pos[rest]))
                for combo, rest, _ in combos
            )
        )
        if not cells or not self.slots:
            return cells, set(), []
        # F(pre, 1)(x): every unknown whose combination holds position 0.
        zeros = {col for col, (combo, _) in cells.items() if combo[0] == 0}
        groups = []
        for pre, rest, size in pres:
            singles, multis, on = self._instances(rest, size)
            at = {x: self._spliced(pre, x) for x in on}
            zeros.update(t[0] + to for x, to in singles if (t := at[x]) is not None)
            hit = {i for x in pre for i in on.get(x, ())}
            if hit:  # the terms on an entry of pre drop
                kept = [terms for i, terms in enumerate(multis) if i not in hit]
                for i in hit:
                    terms = [e for e in multis[i] if at[e[0]] is not None]
                    if len(terms) > 1:
                        kept.append(terms)
                    elif terms:
                        zeros.add(at[terms[0][0]][0] + terms[0][1])
                multis = kept
            groups.append((at, multis))
        return cells, zeros, groups

    def _instances(self, m: int, size: int) -> tuple[set, list[tuple], dict[int, list[int]]]:
        """The product-rule instances of the factorisations
        ``x^m = x^b x^c x^d`` into basis monomials with ``1 <= b <= c``,
        for the code ``m`` of degree ``size``, by their terms:
        ``F(pre, b)(cd)`` when ``b != c``, ``F(pre, c)(bd)`` and
        ``F(pre, bc)(d)``, each kept when its product is in the basis, as
        (slot argument, target, coefficient), in column order.  The set of
        the (slot argument, target) of those with one term, those with
        more, and by slot argument the indices of the latter that hold
        it, every slot argument of the former entered with none."""
        found = self._instance_cache.get(m)
        if found is None:
            singles, multis, on = set(), [], {}
            for b, c, d, bc, bd, cd in self.params.codes.factors(m, size):
                terms = []
                if b != c and cd is not None:
                    terms.append((b, cd, -1))
                if bd is not None:
                    terms.append((c, bd, -2 if b == c else -1))
                if bc is not None:
                    terms.append((bc, d, 1))
                if len(terms) == 1:
                    singles.add(terms[0][:2])
                    on.setdefault(terms[0][0], [])
                else:
                    for x, _, _ in terms:
                        on.setdefault(x, []).append(len(multis))
                    multis.append(tuple(terms))
            found = self._instance_cache[m] = (singles, multis, on)
        return found

    def _spliced(self, pre: tuple[int, ...], x: int) -> tuple[int, int] | None:
        """The first column of the sorted ``pre + (x,)`` and the sign of the
        sort, ``None`` when ``x`` is in ``pre``.  ``pre`` is increasing, so
        ``x`` goes in at ``i = bisect_left(pre, x)`` and moves past the
        entries after it, one transposition each."""
        if x in pre:
            return None
        i = bisect_left(pre, x)
        return self.column(pre[:i] + (x,) + pre[i:], 0), -1 if len(pre) - i & 1 else 1

    @cached_property
    def _instance_cache(self) -> dict:
        return {}


def _normal(acc: dict) -> Row | None:
    """The composed row with the entries ``acc``, divided by its content
    and stored as rows are (``_signed``); ``None`` when every entry is 0."""
    acc = {c: v for c, v in acc.items() if v}
    return _signed(sorted(_primitive(acc).items())) if acc else None


def _signed(row: Sequence[tuple[int, int]]) -> Row:
    """``row`` with its leading entry made positive, as rows are stored."""
    return tuple(row) if row[0][1] > 0 else tuple((c, -v) for c, v in row)


def _partitions(n: int, parts: int, top: int) -> Iterator[tuple[int, ...]]:
    """The non-increasing tuples of at most ``parts`` positive integers,
    each at most ``top``, that sum to ``n``."""
    if n == 0:
        yield ()
        return
    if parts == 0:
        return
    # With at most ``parts`` parts, the largest is at least ceil(n / parts).
    for first in range(min(n, top), -(-n // parts) - 1, -1):
        for rest in _partitions(n - first, parts - 1, first):
            yield (first,) + rest


def _orbit_size(rep: MultiIndex) -> int:
    """The number of distinct rearrangements of ``rep``."""
    size, left = 1, len(rep)
    for _, run in groupby(rep):
        n = len(list(run))
        size *= comb(left, n)
        left -= n
    return size


def _orbit(rep: MultiIndex) -> Iterator[MultiIndex]:
    """The distinct rearrangements of the non-increasing ``rep``, ``rep``
    first."""
    k = len(rep)
    q = k - rep.count(0)
    runs = [len(list(run)) for _, run in groupby(rep[:q])]

    def place(i: int, free: Sequence[int], placed: tuple[int, ...]):
        if i == len(runs):
            m = [0] * k
            for a, p in enumerate(placed):
                m[p] = rep[a]
            yield tuple(m)
            return
        for chosen in combinations(free, runs[i]):
            rest = [p for p in free if p not in chosen] if i + 1 < len(runs) else ()
            yield from place(i + 1, rest, placed + chosen)

    yield from place(0, range(k), ())


def _pull(m: MultiIndex) -> dict[int, int]:
    """The axis map, 1-based, that pulls block ``m`` back to its
    representative: the supported axes of ``m`` by exponent, largest
    first, ties in axis order, go to the representative's first axes, as
    ``_orbit`` places them."""
    placed = sorted((j for j, e in enumerate(m) if e), key=lambda j: -m[j])
    return {p + 1: i + 1 for i, p in enumerate(placed)}


def _relabel(values: Mapping[tuple[int, ...], int | Fraction], to: Mapping[int, int]) -> dict:
    """``values``, keyed by axis tuple, with each axis ``a`` sent to
    ``to[a]``: each tuple re-sorted, and its value times the sign of the
    sort."""
    out = {}
    for axes, v in values.items():
        axes, sign = sort_with_sign(tuple(to[a] for a in axes))
        out[axes] = v if sign > 0 else -v
    return out


def build_constraints(
    params: LiftParams, *, max_unknowns: int = DEFAULT_MAX_UNKNOWNS
) -> ConstraintSystem:
    """The product-rule system, refused above ``max_unknowns`` unknowns.

    The rule is imposed at the final slot only, with the leading ``s - 1``
    arguments running over strictly increasing tuples, on ``b <= c``, and
    each row is formed once in its final shape, one multidegree block at a
    time, as the module docstring sets out.  This gives the row set of the
    rule at every slot on every ordered tuple of the other arguments: at
    the last slot a permutation of the leading tuple scales the three
    terms of an instance by one common sign, which row normalisation
    strips, a repeated leading entry zeroes all three terms, and moving the
    rule from slot ``t`` to the last slot is one permutation common to the
    three terms.  The test-suite checks the equality.
    """
    n = unknown_count(params)
    if n > max_unknowns:
        count = n if n <= COUNT_CAP else f"at least 10**{MAX_COUNT_DIGITS}"
        raise OracleSizeError(
            f"system would have {count} unknowns, above the limit of {max_unknowns}"
        )
    # For arity zero the slot range is empty.
    return ConstraintSystem(params, tuple(range(max(params.s - 1, 0), params.s)))


def _primitive(row: dict) -> dict:
    """``row`` (no zero entries) divided by its content."""
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


class _Echelon:
    """Incremental exact row reduction over sparse integer rows, keyed by
    any ordered columns: integers, or a block's cells by axis tuple.

    Each row pivots on its lowest column.  Pivot rows are kept content-free
    (``_primitive``); incoming rows are reduced by cross-multiplication so
    everything stays in integers.
    """

    def __init__(self, rows: Iterable = ()) -> None:
        self.pivots: dict = {}
        for row in rows:
            self.add(row)

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        pivots = self.pivots
        while row:
            lead = min(row)
            p = pivots.get(lead)
            if p is None:
                return _primitive(row)
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

    def add(self, row: Iterable[tuple[int, int]] | Mapping[int, int]) -> None:
        """Reduce, and insert the row when it is independent."""
        row = self.reduce(dict(row))
        if row:
            self.pivots[min(row)] = row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def nullspace_basis(self, columns: Iterable[int]) -> dict[int, dict[int, Fraction]]:
        """The nullspace within ``columns``, which hold every pivot: one
        vector per free column, keyed by it, as a dict of its nonzero
        entries, via full back-substitution.  A pivot row's other columns
        lie above its pivot, so the pivots are solved from the highest
        down."""
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


def _value(row: Iterable[tuple], x: Mapping) -> int:
    """The value of ``row``, (key, coefficient) pairs, at the vector ``x``
    of its nonzero entries."""
    return sum(c * x.get(key, 0) for key, c in row)


def _full(expansion: Mapping[int, Mapping], x: Mapping) -> dict:
    """The vector, by column, of the block unknowns ``expansion``
    (``_expansion``) maps onto the cell values ``x``, keyed by axis tuple,
    as a dict of its nonzero entries."""
    sums = ((col, _value(e.items(), x)) for col, e in expansion.items())
    return {col: v for col, v in sums if v}


def nullspace(system: ConstraintSystem) -> tuple[int, list[dict[int, Fraction]]]:
    """Exact nullspace dimension and an explicit rational basis of the
    nullspace, orbit by orbit, each vector a dict of its nonzero entries
    inside one block.

    Each representative's basis on cells is relabelled to every block of
    its orbit and expanded there with that block's ``_expansion``, as the
    module docstring sets out.  Only the tests read these vectors: the CLI
    reads ``ConstraintSystem.nullity``, and the checks each
    representative's basis on cells.
    """
    basis = []
    for orbit in system._orbits:
        if orbit.basis:
            for m in _orbit(orbit.rep):
                expansion = system._expansion(system._list(m)[0])
                to = {a: b for b, a in _pull(m).items()}
                basis.extend(_full(expansion, _relabel(vec, to)) for vec in orbit.basis)
    return len(basis), basis


def _integer_row(vec: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """The nonzero entries of ``vec`` times the least common denominator,
    and that denominator."""
    items = {c: v for c, v in vec.items() if v}
    scale = lcm(*(v.denominator for v in items.values()))
    return {c: v.numerator * (scale // v.denominator) for c, v in items.items()}, scale


def rank_of(vectors: Iterable[Mapping[int, Fraction]]) -> int:
    """Exact rank of a family of sparse rational vectors, each a dict from
    column to value, like the basis ``nullspace`` returns."""
    return _Echelon(_integer_row(v)[0] for v in vectors).rank


def check_iso(system: ConstraintSystem) -> bool:
    """Is reading a nullspace vector off at the free cells bijective?

    It is when there are as many free cells as the nullity and, in each
    block, the null basis has full rank on the block's free cells.  Each
    block's free cells are pulled back to its orbit's representative and
    read off the representative's basis on cells, as the module docstring
    sets out; a dimension mismatch reports False rather than raising.
    """
    cells = free_cells(system.params)
    if len(cells) != system.nullity:
        return False
    bases = {orbit.rep: orbit.basis for orbit in system._orbits}
    blocks: dict[MultiIndex, list[FreeCell]] = {}
    for cell in cells:
        blocks.setdefault(multidegree(*cell), []).append(cell)
    for m, held in blocks.items():
        pulled = _relabel({axes: 1 for axes, _ in held}, _pull(m))
        basis = bases.get(tuple(sorted(m, reverse=True)), [])
        if rank_of({c: v for c in pulled if (v := vec.get(c))} for vec in basis) != len(held):
            return False
    return True


def expand_table(
    system: ConstraintSystem, cells: Mapping[FreeCell, Fraction], unknowns: Mapping[int, Cell]
) -> dict[int, Fraction]:
    """The table with the given nonzero cells, zero elsewhere, evaluated at
    the given unknowns, column -> (combination, target), as a dict of its
    nonzero entries."""
    p = system.params
    bi, ri = p.algebra.basis_index, p.row_index
    rows = [[Fraction(0)] * p.algebra.dim for _ in p.rows]
    for (axes, alpha), v in cells.items():
        rows[ri[axes]][bi[alpha]] = v
    ev = TableEvaluator(LiftTable(p, rows))
    return {c: v for c, u in unknowns.items() if (v := ev.monomials_by_index(*u))}


def _expand_units(params: LiftParams, m: MultiIndex, held: list) -> Iterator[tuple]:
    """The unit tables of block ``m``, ``held`` as (index, free cell)
    pairs: each index and free cell, its cells times ``scale``, keyed by
    axis tuple, in block ``m``'s own axes and pulled back to the
    representative, and ``scale``.  Each table is completed in block
    ``m``."""
    free, back = params.free_cell_set, _pull(m)
    block = block_cells(params, m)
    for i, one in held:
        values = complete({c: Fraction(int(c == one)) for c in block if c in free}, block)
        ints, scale = _integer_row(dict(zip(block, values)))
        own = {axes: v for (axes, _), v in ints.items()}
        yield i, one, own, _relabel(own, back), scale


def compare_with_construction(system: ConstraintSystem) -> VerificationReport:
    """Cross-validate the closed-form construction against the brute force.

    For each unit assignment (1 at one free cell, 0 at the others) the
    constructed table, expanded to a sparse unknown vector, must satisfy
    every constraint row; and the expanded vectors must span exactly the
    oracle nullspace (mutual containment by rank).  The unit table's
    nonzero cells, and so its vector, lie in the block of its free cell:
    only that block is completed, from its own free cells, and only that
    block's rows can be nonzero on it.  The units are checked one orbit of
    blocks at a time, on the representative's cells, against its composed
    rows, as the module docstring sets out; only a unit that fails one is
    expanded with its own block's ``_expansion``, to name the rows of that
    block it violates; should it violate none, which a wrong pull-back
    would give, the first composed row it fails names it, with that row's
    value.  The failures are sorted back into free-cell order.
    Each unit counts the rows of its own block as cases, its orbit's row
    count.
    """
    params = system.params
    ones = free_cells(params)  # the free cell of each unit table's 1
    units: dict[MultiIndex, dict[MultiIndex, list[tuple[int, FreeCell]]]] = {}
    for i, one in enumerate(ones):
        m = multidegree(*one)
        units.setdefault(tuple(sorted(m, reverse=True)), {}).setdefault(m, []).append((i, one))
    failed, checked, r_null, r_exp, r_union = [], 0, 0, 0, 0
    # Each unit's block, of degree <= r + s and holding an unknown, is in an orbit here.
    for rep, rows, basis, composed in system._orbits:
        null = _Echelon(_integer_row(vec)[0] for vec in basis)
        blocks, size = units.get(rep, {}), _orbit_size(rep)
        r_null += size * null.rank
        r_union += (size - len(blocks)) * null.rank  # the blocks without a unit
        for m, held in blocks.items():
            checked += rows * len(held)
            exp, union, bad = _Echelon(), _Echelon(), []
            union.pivots = dict(null.pivots)
            for i, one, own, x, scale in _expand_units(params, m, held):
                exp.add(x)
                union.add(x)
                if hit := next(((row, got) for row in composed if (got := _value(row, x))), None):
                    bad.append((i, one, own, scale, hit))
            if bad:  # the witnesses name rows of block m, in its own columns
                block = system.block(m)
                expansion = system._expansion(block.cells)
                for i, one, own, scale, hit in bad:
                    acc = _full(expansion, own)
                    hits = [(row, got) for row in block.rows if (got := _value(row, acc))]
                    # A unit that no row of block m names is named by the composed row it fails.
                    failed += [(i, one, row, Fraction(got, scale)) for row, got in hits or [hit]]
            r_exp += exp.rank
            r_union += union.rank
    failed.sort(key=itemgetter(0))
    failures = [Failure("constraint-rows", (one, row), Fraction(0), v) for _, one, row, v in failed]
    report = VerificationReport({"constraint-rows": checked, "span": 1}, failures)
    if not (r_null == r_exp == r_union == system.nullity == len(ones)):
        report.failures.append(
            Failure(
                "span",
                (("nullspace", r_null), ("construction", r_exp), ("union", r_union)),
                Fraction(system.nullity),
                Fraction(r_union),
            )
        )
    return report


def dump_matrix(system: ConstraintSystem, path) -> None:
    """Write the rows in coordinate text form: a size header, then one
    ``row col value`` triple per nonzero, 1-based."""
    lines = ["%%matrix coordinate rational general"]
    nnz = sum(len(r) for r in system.rows)
    B = system.params.algebra.dim
    lines.append(f"{len(system.rows)} {comb(B, system.params.s) * B} {nnz}")
    for i, row in enumerate(system.rows, start=1):
        for col, v in row:
            lines.append(f"{i} {col + 1} {v}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
