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
the image of that of block ``m``.  Hence one block per orbit is
eliminated, its representative: ``m`` sorted into non-increasing order.
Its basis is kept keyed by unknown, and the nullity is its nullity times
the size of the orbit.  The checks read the basis in the
representative's own columns: the rank of vectors on a set of columns
depends only on the space they span, the signed permutation keeps it,
and it adds over blocks, whose columns are disjoint.  So ``check_iso``
pulls each block's free cells back to the representative, with any
permutation that takes the representative there (``_placed``), and
``compare_with_construction`` takes its span ranks block by block in the
representative's columns.  The free cells are not symmetric under
``sigma`` (the predicate singles out the top axis of a row), so the
blocks of an orbit pull back different cells.  Only ``nullspace``, for
the tests, and a failing unit's witnesses carry a vector to another
block: ``_orbit`` walks the orbit, and one signed move, ``_push``, takes
a vector keyed by unknown to the columns of a block, each entry times
the sign of its sort.

Table expansion commutes with permuting the variables, so
``compare_with_construction`` also expands one block per orbit.
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
``rep`` with the sign of the sort gives ``sigma^-1 U``; the
representative's peeling, transposed into integer linear forms (one per
cell, its (column, coefficient) pairs), gives that table's vector,
``sigma^-1`` applied to ``U``'s own.  So the span ranks of block ``m``
are those of the representative's basis, the pulled-back units and their
union, in the representative's columns; a block without a unit adds the
basis's rank to the null and union ranks.  A row of block ``rep`` and
its image under ``sigma`` take the same value on the two vectors, since
each entry's sign appears in both, and the rows of block ``m`` are the
normalised images of the representative's rows.  So the rows of ``m``
that ``U`` violates are the images of the representative's rows, read
as listed (``_raw``), that ``sigma^-1 U`` violates; only those rows and
``U``'s vector are pushed forward, with ``_push``, to name each row and
its value.

The generator and the moves between blocks code an exponent vector as
one integer, and list divisors and picks, with
``lift_space.MonomialCodes``, which the verifier's product-rule sweep
walks too.  Only live instances are listed.  Each term of
``R(pre; b, c, d)`` needs the product of two of ``b, c, d`` to lie in the
basis, so a leading tuple whose rest has degree above ``2r`` has no
instance with a term.  With ``b <= c`` graded, a
factorisation gives a term exactly when
``deg b + min(deg c, deg d) <= r``, that is, when ``bc``, ``bd`` or
``cd`` lies in the basis.

One listing of a block serves both the representative pass and
``block``: its unknowns, its single-entry columns, and per leading tuple
the slot map with the instances left with two or more terms.  The
single-entry columns are the unknowns holding the monomial 1, the
instances with one term, and those left with one once the terms on an
entry of ``pre`` drop.  One generator, ``_rows``, forms the row of each
instance left with two or more terms, without its entries on a given set
of columns.  ``block`` gives it none, forms every row and keeps nothing,
so each call lists the block again; ``compare_with_construction`` lists
one block per orbit, its representative.  The representative pass gives
it the known zeros, as a null vector is zero there, so a row wholly on
them comes out empty and adds nothing.  While some row is left with one
entry, its column is a known zero too and drops from every row.  Each
column so added is forced by those before it, so the loop ends at the
least set of columns closed under this rule, whichever row goes first,
and every null vector is zero there.  Elimination stops once the rank equals the number of other
(live) columns: the nullspace is then 0.  Neither step changes the
nullspace, which alone fixes the basis, and the row count, one per
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

The representative pass eliminates in that order.  Basis positions are
graded and the combinations numbered lexicographically, so the column of
``F(pre, bc)(d)``, whose argument has the highest degree, is the highest
of its row, and pivoting each row on its highest column pivots the
peeling rows on the unknowns they solve for.  They are triangular in
total argument degree, so most rows take few reduction steps before
their highest column is one that no pivot holds.  Pivoting on the lowest
column instead pivots on ``F(pre, b)(cd)``, shared by every row with the
same ``b`` and product ``cd``, and most rows are reduced many times
over: at ``(5, 4, 3)`` the pass takes 66,608 reduction steps this way
against 647,880.  The null
basis, normalised at the non-pivot columns, depends on the order, but
the nullspace does not.  ``rank_of``, which ``check_iso`` calls, and
``compare_with_construction`` keep the lowest-column order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, groupby
from math import comb, gcd, lcm
from operator import getitem, itemgetter
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    peelings,
    sort_with_sign,
)
from .multiindex import COUNT_CAP, MAX_COUNT_DIGITS, MultiIndex, capped_binomial
from .verifier import Failure, VerificationReport

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
    the row count of each, and the null basis of the block ``rep``, keyed
    by unknown."""

    rep: MultiIndex
    rows: int
    basis: list[dict[Cell, Fraction]]


@dataclass(frozen=True)
class ConstraintSystem:
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

    params: LiftParams
    slots: tuple[int, ...]

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
        reps = self._reps(range(self._top + 1))
        return tuple(m for rep in reps if self._list(rep)[0] for m, _ in _orbit(rep))

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        return tuple(sorted(row for m in self.multidegrees for row in self.block(m).rows))

    @cached_property
    def row_count(self) -> int:
        """``len(rows)``, counted one block per orbit.  The representative
        pass counts the blocks of degree at most ``r + s``; those past it,
        which the pass skips, are counted by ``_count_past`` without a
        listing: no row, no column dict over the unknowns and no sort."""
        past = self._reps(range(self.params.algebra.r + self.params.s + 1, self._top + 1))
        return sum(_orbit_size(orbit.rep) * orbit.rows for orbit in self._orbits) + sum(
            _orbit_size(rep) * self._count_past(rep) for rep in past
        )

    @cached_property
    def nullity(self) -> int:
        """The nullspace dimension: each representative's nullity once per
        block of its orbit."""
        return sum(_orbit_size(orbit.rep) * len(orbit.basis) for orbit in self._orbits)

    def block(self, m: MultiIndex) -> Block:
        """Block ``m``, listed on every call: every row, normalised."""
        cells, rows = self._raw(m)
        return Block(cells, tuple(sorted(map(_signed, rows))))

    def _raw(self, m: MultiIndex) -> tuple[dict[int, Cell], list[Sequence[tuple[int, int]]]]:
        """Block ``m`` as listed: its unknowns, and its rows in listing
        order, each with the sign its instance gives it."""
        cells, zeros, groups = self._list(m)
        return cells, [((col, 1),) for col in zeros] + list(_rows(groups, ()))

    @cached_property
    def _top(self) -> int:
        """The largest degree of an unknown's multidegree, a sum of
        ``s + 1`` basis monomials: ``(s + 1) r``, and 0 without
        variables."""
        return (self.params.s + 1) * self.params.algebra.r if self.params.algebra.k else 0

    def _reps(self, degrees: range) -> Iterator[MultiIndex]:
        """The non-increasing multidegrees of the given degrees that can
        hold an unknown, one per orbit of blocks; none when the system has
        no unknown.  An unknown's ``s`` arguments are distinct basis
        monomials, so its degree is at least the sum of the ``s`` least
        basis degrees, and its exponent of one variable at most ``r``, for
        the target, plus the ``s`` largest exponents of that variable over
        the basis."""
        alg, s = self.params.algebra, self.params.s
        if unknown_count(self.params):
            low = sum(alg.degrees[:s])
            top = alg.r + sum(sorted((e[0] for e in alg.basis if e), reverse=True)[:s])
            for n in range(max(degrees.start, low), degrees.stop):
                for part in _partitions(n, alg.k, top):
                    yield part + (0,) * (alg.k - len(part))

    @cached_property
    def _orbits(self) -> list[_Orbit]:
        """One entry per orbit of blocks of degree at most ``r + s`` that
        hold an unknown, with the representative block generated,
        eliminated and dropped: only its row count and null basis are
        kept.  Each row is formed without its entries on the known zeros,
        which are never pivoted on, with the presolve and the early stop of
        the module docstring, and the rows with two entries go in first.
        The blocks past ``r + s`` have nullity 0 by the peeling lemma, so
        they are never listed here."""
        out = []
        for rep in self._reps(range(min(self.params.algebra.r + self.params.s, self._top) + 1)):
            cells, zeros, groups = self._list(rep)
            if not cells:
                continue
            # One row per single-entry column and per instance left with two or more terms.
            count = len(zeros) + sum(len(multis) for _, multis in groups)
            rows = list(_rows(groups, zeros))
            while ones := {row[0][0] for row in rows if len(row) == 1}:
                zeros |= ones  # a row left with one entry makes its column a known zero
                rows = [[e for e in row if e[0] not in zeros] for row in rows]
            cols = [col for col in cells if col not in zeros]
            ech = _Echelon(max)  # the peeling order, as the module docstring sets out
            for row in sorted(rows, key=len):
                ech.add(row)
                if ech.rank == len(cols):  # the other rows are dependent
                    break
            basis = []
            if ech.rank < len(cols):
                basis = [
                    {cells[col]: v for col, v in vec.items()}
                    for vec in ech.nullspace_basis(cols).values()
                ]
            out.append(_Orbit(rep, count, basis))
        return out

    # -- the block generator ---------------------------------------------------

    def _list(self, m: MultiIndex) -> tuple[dict[int, Cell], set[int], list[tuple[list, list]]]:
        """Block ``m``: its unknowns by ascending column, the columns of
        its single-entry rows, and per leading tuple its slot map
        (``_slot``) with the terms of each instance left with two or more,
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
        for at, multis, hit, cut, ones in self._groups(pres):
            zeros.update(ones)
            if hit:  # the terms on an entry of pre drop
                multis = [terms for i, terms in enumerate(multis) if i not in hit] + cut
            groups.append((at, multis))
        return cells, zeros, groups

    def _count_past(self, m: MultiIndex) -> int:
        """The row count of block ``m``'s listing, for
        ``r + s < |m| <= (s + 1) r``, which needs ``s >= 1``: one row per
        single-entry column and one per instance left with two or more
        terms.  The unknowns whose combination holds position 0 are the
        picks of the leading tuples that start with it (with ``s = 1``,
        ``(0,)`` would need a target of degree above ``r``).  The tuples
        that hold 0 add only their instance counts, and the single-entry
        columns of the others are deduped in one set."""
        s, r, codes = self.params.s, self.params.algebra.r, self.params.codes
        pres, ones = codes.picks([((), codes.code(m), sum(m))], s - 1, 2 * r), set()
        count = len(codes.picks([p for p in pres if p[0][:1] == (0,)], 1, r))
        for _, multis, hit, cut, cols in self._groups(pres):
            ones.update(cols)
            count += len(multis) - len(hit) + len(cut)
        return count + len(ones)

    def _groups(self, pres: list) -> Iterator[tuple[list, list, set[int], list, list[int]]]:
        """Per leading tuple of ``pres``: its slot map (``_slot``), the
        instances with two or more terms (``_instances``), the indices of
        those with a term on an entry of the tuple, the terms of each of
        these left with two or more once those terms drop, and the columns
        of the single-entry rows.  A tuple that holds position 0 lists no
        columns: each of its columns holds position 0 too, so it is a known
        zero already."""
        for pre, rest, size in pres:
            at = self._slot(pre)
            singles, multis, on = self._instances(rest, size)
            held = pre[:1] == (0,)
            ones = [] if held else [t[0] + to for x, to in singles if (t := at[x]) is not None]
            hit, cut = {i for x in pre for i in on.get(x, ())}, []
            for i in hit:
                terms = [e for e in multis[i] if at[e[0]] is not None]
                if len(terms) > 1:
                    cut.append(terms)
                elif terms and not held:
                    ones.append(at[terms[0][0]][0] + terms[0][1])
            yield at, multis, hit, cut, ones

    def _instances(self, m: int, size: int) -> tuple[set, list[tuple], dict[int, list[int]]]:
        """The product-rule instances of the factorisations
        ``x^m = x^b x^c x^d`` into basis monomials with ``1 <= b <= c``,
        for the code ``m`` of degree ``size``, by their terms:
        ``F(pre, b)(cd)`` when ``b != c``, ``F(pre, c)(bd)`` and
        ``F(pre, bc)(d)``, each kept when its product is in the basis, as
        (slot argument, target, coefficient), in column order.  The set of
        the (slot argument, target) of those with one term, those with
        more, and by slot argument the indices of the latter that hold
        it."""
        found = self._instance_cache.get(m)
        if found is None:
            prod = self.params.algebra.product_index
            singles, multis, on = set(), [], {}
            for b, c, d in self.params.codes.factors(m, size):
                bc, bd, cd, terms = prod[b][c], prod[b][d], prod[c][d], []
                if b != c and cd is not None:
                    terms.append((b, cd, -1))
                if bd is not None:
                    terms.append((c, bd, -2 if b == c else -1))
                if bc is not None:
                    terms.append((bc, d, 1))
                if len(terms) == 1:
                    singles.add(terms[0][:2])
                else:
                    for x, _, _ in terms:
                        on.setdefault(x, []).append(len(multis))
                    multis.append(tuple(terms))
            found = self._instance_cache[m] = (singles, multis, on)
        return found

    def _slot(self, pre: tuple[int, ...]) -> list[tuple[int, int] | None]:
        """For every basis position ``x``: the first column of the sorted
        ``pre + (x,)`` and the sign of the sort, ``None`` when ``x`` is in
        ``pre``.  ``pre`` is increasing, so ``x`` moves past the entries
        after its insertion point, one transposition each.  Between two
        entries of ``pre`` the entries before ``x`` keep their index and
        those after it move up one, so the column is a constant minus
        ``T[i][x]`` (``_ranks``), ``i`` the insertion point."""
        found = self._slot_cache.get(pre)
        if found is None:
            (top, table), B, n = self._ranks, self.params.algebra.dim, len(pre)
            found, x = [None] * B, 0
            base = top - sum(map(getitem, table[1:], pre))
            for i, stop in enumerate(pre + (B,)):
                sign = (-1) ** (n - i)
                found[x:stop] = [(base - t, sign) for t in table[i][x:stop]]
                if i < n:
                    base += table[i + 1][stop] - table[i][stop]
                x = stop + 1
            self._slot_cache[pre] = found
        return found

    @cached_property
    def _instance_cache(self) -> dict:
        return {}

    @cached_property
    def _slot_cache(self) -> dict:
        return {}


def _rows(groups: list[tuple[list, list]], zeros: Container[int]) -> Iterator[list]:
    """The row of each instance of a block's listing left with two or more
    terms, in column order, without its entries on ``zeros``."""
    for at, multis in groups:
        for terms in multis:
            yield [
                (c, v * t[1]) for x, to, v in terms if (c := (t := at[x])[0] + to) not in zeros
            ]


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


def _orbit(rep: MultiIndex) -> Iterator[tuple[MultiIndex, tuple[int, ...]]]:
    """The distinct rearrangements of the non-increasing ``rep``, ``rep``
    first, each with the positions its first ``q`` entries move to, ``q``
    the support size of ``rep``."""
    k = len(rep)
    q = k - rep.count(0)
    runs = [len(list(run)) for _, run in groupby(rep[:q])]

    def place(i: int, free: Sequence[int], placed: tuple[int, ...]):
        if i == len(runs):
            m = [0] * k
            for a, p in enumerate(placed):
                m[p] = rep[a]
            yield tuple(m), placed
            return
        for chosen in combinations(free, runs[i]):
            rest = [p for p in free if p not in chosen] if i + 1 < len(runs) else ()
            yield from place(i + 1, rest, placed + chosen)

    yield from place(0, range(k), ())


def _placed(m: MultiIndex) -> list[int]:
    """The positions the first ``q`` entries of ``m``'s representative
    move to in ``m``, as ``_orbit`` places them: the supported axes of
    ``m`` by exponent, largest first, ties in axis order."""
    return sorted((j for j, e in enumerate(m) if e), key=lambda j: -m[j])


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


def _primitive(row: dict[int, int], lead: Callable | None = None) -> dict[int, int]:
    """``row`` (no zero entries) divided by its content; ``lead`` also
    makes its entry at the column ``lead(row)`` positive, as rows are
    stored."""
    g = gcd(*row.values())
    if lead and row[lead(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


class _Echelon:
    """Incremental exact row reduction over sparse integer rows.

    Each row pivots on its column ``lead(row)``: the lowest by default,
    the highest with ``lead=max``.  Pivot rows are kept content-free with a
    positive coefficient there (``_primitive``); incoming rows are reduced
    by cross-multiplication so everything stays in integers.
    """

    def __init__(self, lead: Callable[[dict[int, int]], int] = min) -> None:
        self.lead = lead
        self.pivots: dict[int, dict[int, int]] = {}

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        pivots, lead_of = self.pivots, self.lead
        while row:
            lead = lead_of(row)
            p = pivots.get(lead)
            if p is None:
                return _primitive(row, lead_of)
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
            self.pivots[self.lead(row)] = row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def nullspace_basis(self, columns: Iterable[int]) -> dict[int, dict[int, Fraction]]:
        """The nullspace within ``columns``, which hold every pivot: one
        vector per free column, keyed by it, as a dict of its nonzero
        entries, via full back-substitution.  A pivot row's other columns
        lie past its pivot in the pivot order, so the pivots are solved
        from the far end."""
        solved: dict[int, dict[int, Fraction]] = {}
        for lead in sorted(self.pivots, reverse=self.lead is min):
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


def _mover(
    system: ConstraintSystem, placed: tuple[int, ...]
) -> Callable[[Cell], tuple[int, int]]:
    """For an unknown of a representative's block, its column in the block
    where the representative's ``i``-th supported axis sits at
    ``placed[i]``, and the sign of the signed permutation there: each basis
    monomial moved, the combination re-sorted, with the sign of the sort."""
    (top, table), codes = system._ranks, system.params.codes
    w = codes.stride
    field = (1 << w) - 1
    moved: dict[int, int] = {}

    def move(g: int) -> int:
        h = moved.get(g)
        if h is None:
            c = codes.codes[g]
            h = moved[g] = codes.positions[
                sum((c >> i * w & field) << p * w for i, p in enumerate(placed))
            ]
        return h

    def move_cell(cell: Cell) -> tuple[int, int]:
        combo, sign = sort_with_sign(tuple(map(move, cell[0])))
        return top - sum(map(getitem, table, combo)) + move(cell[1]), sign

    return move_cell


def _push(move: Callable[[Cell], tuple[int, int]], vec: Mapping[Cell, int | Fraction]) -> dict:
    """``vec``, keyed by unknown, moved by ``move`` (``_mover``) into a
    dict keyed by column, each entry times the sign of its move."""
    out = {}
    for cell, v in vec.items():
        col, sign = move(cell)
        out[col] = v if sign > 0 else -v
    return out


def nullspace(system: ConstraintSystem) -> tuple[int, list[dict[int, Fraction]]]:
    """Exact nullspace dimension and an explicit rational basis of the
    nullspace, orbit by orbit, each vector a dict of its nonzero entries
    inside one block.

    One block per orbit of variable permutations is eliminated, and its
    basis is carried to every other block of the orbit, as the module
    docstring sets out.  Only the tests read these vectors: the CLI reads
    ``ConstraintSystem.nullity``, and the checks each representative's
    basis.
    """
    basis = [
        _push(move, vec)
        for orbit in system._orbits
        if orbit.basis
        for _, placed in _orbit(orbit.rep)
        for move in [_mover(system, placed)]
        for vec in orbit.basis
    ]
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
    ech = _Echelon()
    for v in vectors:
        ech.add(_integer_row(v)[0])
    return ech.rank


def check_iso(system: ConstraintSystem) -> bool:
    """Is reading a nullspace vector off at the free cells bijective?

    It is when there are as many free cells as the nullity and, in each
    block, the null basis has full rank on the block's free cells.  Each
    block's cells are pulled back to its orbit's representative and read
    off the representative's basis, as the module docstring sets out; a
    dimension mismatch reports False rather than raising.
    """
    params = system.params
    cells = free_cells(params)
    if len(cells) != system.nullity:
        return False
    bi, k = params.algebra.basis_index, params.algebra.k
    bases = {orbit.rep: orbit.basis for orbit in system._orbits}
    blocks: dict[MultiIndex, list[FreeCell]] = {}
    for cell in cells:
        blocks.setdefault(multidegree(*cell), []).append(cell)
    for m, held in blocks.items():
        placed = _placed(m)
        back, pad = {p + 1: i + 1 for i, p in enumerate(placed)}, (0,) * (k - len(placed))
        # For r >= 1 the monomial x_i sits at basis position i (degree 0,
        # then degree 1 in decreasing lexicographic order); at r = 0 no
        # free cell has an axis.
        pulled = [
            (tuple(sorted(back[j] for j in axes)), bi[tuple(alpha[p] for p in placed) + pad])
            for axes, alpha in held
        ]
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


def _peeling(params: LiftParams, unknowns: Mapping[int, Cell]) -> dict[tuple[int, ...], list]:
    """``lift_space.peelings``, the sum ``TableEvaluator`` reads, on one
    block, transposed: for the axis tuple ``I`` of each cell ``(I, alpha)``
    of the block, the (column, integer coefficient) pairs of the given
    unknowns that the cell feeds.  The value of a table at an unknown is
    then the sum, over the cells, of the cell's value times its
    coefficient there."""
    forms: dict[tuple[int, ...], dict[int, int]] = {}
    for col, (combo, _) in unknowns.items():
        for axes, coeff in peelings(params.algebra, combo):
            form = forms.setdefault(axes, {})
            form[col] = form.get(col, 0) + coeff
    return {axes: [(c, v) for c, v in form.items() if v] for axes, form in forms.items()}


def _expand_units(
    params: LiftParams, forms: Mapping[tuple[int, ...], list], m: MultiIndex, held: list
) -> Iterator[tuple[int, FreeCell, dict[int, int], int]]:
    """The unit tables of block ``m``, ``held`` as (index, free cell)
    pairs: each index and free cell, its vector in the representative's
    columns times ``scale``, and ``scale``.  Each table is completed in
    block ``m``, pulled back to the representative with the sign of the
    sort, and read through its transposed peeling ``forms`` in integers."""
    free = params.free_cell_set
    back = {p + 1: i + 1 for i, p in enumerate(_placed(m))}
    block = block_cells(params, m)
    for i, one in held:
        values = complete({c: Fraction(int(c == one)) for c in block if c in free}, block)
        ints, scale = _integer_row(dict(zip(block, values)))
        acc: dict[int, int] = {}
        for (axes, _), x in ints.items():
            axes, sign = sort_with_sign(tuple(back[j] for j in axes))
            x = x if sign > 0 else -x
            for col, coeff in forms[axes]:
                acc[col] = acc.get(col, 0) + coeff * x
        yield i, one, acc, scale


def compare_with_construction(system: ConstraintSystem) -> VerificationReport:
    """Cross-validate the closed-form construction against the brute force.

    For each unit assignment (1 at one free cell, 0 at the others) the
    constructed table, expanded to a sparse unknown vector, must satisfy
    every constraint row; and the expanded vectors must span exactly the
    oracle nullspace (mutual containment by rank).  The unit table's
    nonzero cells, and so its vector, lie in the block of its free cell:
    only that block is completed, from its own free cells, and only that
    block's rows can be nonzero on it.  The units are expanded and checked
    one orbit of blocks at a time, in the representative's columns, as the
    module docstring sets out, and the failures sorted back into free-cell
    order.  Every row still counts as a case.
    """
    params = system.params
    ones = free_cells(params)  # the free cell of each unit table's 1
    units: dict[MultiIndex, dict[MultiIndex, list[tuple[int, FreeCell]]]] = {}
    for i, one in enumerate(ones):
        m = multidegree(*one)
        units.setdefault(tuple(sorted(m, reverse=True)), {}).setdefault(m, []).append((i, one))
    failed, r_null, r_exp, r_union = [], 0, 0, 0
    # Each unit's block, of degree <= r + s and holding an unknown, is in an orbit here.
    for rep, _, basis in system._orbits:
        null = _Echelon()
        for vec in basis:
            null.add(_integer_row(vec)[0])
        blocks, size = units.get(rep, {}), _orbit_size(rep)
        r_null += size * null.rank
        r_union += (size - len(blocks)) * null.rank  # the blocks without a unit
        if not blocks:
            continue
        cells, rows = system._raw(rep)
        forms = _peeling(params, cells)
        for m, held in blocks.items():
            exp, union = _Echelon(), _Echelon()
            union.pivots = dict(null.pivots)
            for i, one, acc, scale in _expand_units(params, forms, m, held):
                vec = {cells[col]: x for col, x in acc.items() if x}
                exp.add(vec)
                union.add(vec)
                bad = []
                for row in rows:
                    total = 0
                    for col, coeff in row:
                        x = acc.get(col)
                        if x:
                            total += coeff * x
                    if total:
                        bad.append(row)
                if bad:  # the witnesses name rows of block m, in its own columns
                    move = _mover(system, tuple(_placed(m)))
                    image = _push(move, vec)
                    for row in sorted(
                        _signed(sorted(_push(move, {cells[c]: v for c, v in row}).items()))
                        for row in bad
                    ):
                        got = Fraction(sum(coeff * image.get(col, 0) for col, coeff in row), scale)
                        failed.append((i, Failure("constraint-rows", (one, row), Fraction(0), got)))
            r_exp += exp.rank
            r_union += union.rank
    failed.sort(key=itemgetter(0))
    n = len(ones)
    cases = {"constraint-rows": system.row_count * n, "span": 1}
    report = VerificationReport(cases, [f for _, f in failed])
    if not (r_null == r_exp == r_union == system.nullity == n):
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
