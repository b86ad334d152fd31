"""The brute-force linear system: frozen small cases, size guard, and
agreement with the closed-form side."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetlift import (
    AlgebraParams,
    CoefficientAssignment,
    LiftParams,
    construct,
    dimension,
    free_cells,
)
from jetlift import lift_space, oracle
from jetlift.lift_space import (
    FreeCell,
    LiftTable,
    TableEvaluator,
    block_cells,
    graded_dimension,
    multidegree,
)
from jetlift.multiindex import COUNT_CAP, MAX_COUNT_DIGITS, binomial
from jetlift.oracle import (
    DEFAULT_MAX_UNKNOWNS,
    ConstraintSystem,
    OracleSizeError,
    _Echelon,
    _expand_units,
    _full,
    _orbit,
    _orbit_size,
    _partitions,
    build_constraints,
    check_iso,
    compare_with_construction,
    dump_matrix,
    expand_table,
    nullspace,
    rank_of,
    unknown_count,
)
from jetlift.verifier import Failure
from support import (
    FULL_GRID,
    PRUNING_POINTS,
    REACH_POINTS,
    is_row,
    peeling_certificate,
    peeling_row,
    reference_blockwise_nullspace,
    reference_build_all_slots,
    reference_build_rows,
    reference_check_iso,
    reference_compare,
    reference_nullspace,
    reference_orbit_blocks,
    reference_peeling,
    reference_units,
    same_span,
    with_basis,
)


def lift_params(r: int, k: int, s: int) -> LiftParams:
    return LiftParams(AlgebraParams(r, k), s)


def nonzero_cells(table) -> dict:
    p = table.params
    return {
        FreeCell(axes, alpha): v
        for axes, row in zip(p.rows, table.cells)
        for alpha, v in zip(p.algebra.basis, row)
        if v
    }


def satisfies(rows, vec: dict) -> bool:
    return all(
        sum((coeff * vec.get(col, 0) for col, coeff in row), Fraction(0)) == 0
        for row in rows
    )


# -- sizes and the guard ---------------------------------------------------------


def test_unknown_count_examples():
    assert unknown_count(lift_params(1, 1, 1)) == 4
    assert unknown_count(lift_params(1, 2, 1)) == 9
    assert unknown_count(lift_params(2, 2, 2)) == 90
    assert unknown_count(lift_params(3, 4, 2)) == 20825


def test_unknown_count_is_the_closed_form():
    for r in range(4):
        for k in range(5):
            for s in range(6):
                params = lift_params(r, k, s)
                B = len(params.algebra.basis)
                assert unknown_count(params) == binomial(B, s) * B


def test_unknown_count_stops_past_the_digit_cap():
    # Neither the basis nor a count past the cap is built.
    cap = COUNT_CAP + 1
    assert unknown_count(lift_params(30, 30, 1)) == math.comb(60, 30) ** 2
    assert unknown_count(lift_params(10**8, 10**8, 1)) == cap
    assert unknown_count(lift_params(1, 10**5, 50_000)) == cap
    assert unknown_count(lift_params(0, 10**8, 2)) == 0
    with pytest.raises(OracleSizeError, match=f"at least 10\\*\\*{MAX_COUNT_DIGITS} unknowns"):
        build_constraints(lift_params(10**8, 10**8, 1))


def test_size_guard_refuses_large_systems():
    with pytest.raises(OracleSizeError, match="20825"):
        build_constraints(lift_params(3, 4, 2))
    with pytest.raises(OracleSizeError, match="limit of 4"):
        build_constraints(lift_params(1, 2, 1), max_unknowns=4)


def test_guard_allows_exactly_the_limit():
    system = build_constraints(lift_params(1, 2, 1), max_unknowns=9)
    assert len(system.unknowns) == 9


# -- frozen smallest case ---------------------------------------------------------


def test_smallest_system_is_fully_frozen():
    system = build_constraints(lift_params(1, 1, 1))
    assert system.unknowns == (((0,), 0), ((0,), 1), ((1,), 0), ((1,), 1))
    assert system.rows == (((0, 1),), ((1, 1),), ((3, 1),))
    nullity, basis = nullspace(system)
    assert nullity == system.nullity == 1
    assert basis == [{2: Fraction(1)}]
    assert check_iso(system)


def test_column_indexing_is_block_by_combination():
    system = build_constraints(lift_params(1, 1, 1))
    assert system.column((0,), 1) == 1
    assert system.column((1,), 0) == 2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closed_form_columns_are_the_positions_of_the_unknowns(data):
    # The columns depend only on B and s, and k = 1 gives every B = r + 1.
    # Where there are few unknowns each column is checked against its
    # position in the listing; elsewhere a random combination's successor
    # in lexicographic order is the next block of B columns.  Splicing each
    # position into a random leading tuple gives the sorted tuple's column
    # and the sign of the sort.
    B = data.draw(st.integers(1, 25), label="B")
    s = data.draw(st.integers(0, B + 1), label="s")
    params = lift_params(B - 1, 1, s)
    system = build_constraints(params, max_unknowns=unknown_count(params))
    n = math.comb(B, s)
    if n * B <= 3000:
        unknowns = system.unknowns
        assert len(unknowns) == n * B
        assert [system.column(c, d) for c, d in unknowns] == list(range(n * B))
    else:
        combo = sorted(data.draw(st.permutations(range(B)))[:s])
        assert system.column(tuple(range(s)), 0) == 0
        assert system.column(tuple(range(B - s, B)), B - 1) == n * B - 1
        i = max((i for i in range(s) if combo[i] < B - s + i), default=None)
        if i is not None:
            after = combo[:i] + list(range(combo[i] + 1, combo[i] + 1 + s - i))
            assert system.column(tuple(after), 0) == system.column(tuple(combo), 0) + B
    if s:
        pre = tuple(sorted(data.draw(st.permutations(range(B)))[: s - 1]))
        spliced = [
            (system.column(tuple(sorted(pre + (x,))), 0), (-1) ** sum(p > x for p in pre))
            if x not in pre
            else None
            for x in range(B)
        ]
        assert [system._spliced(pre, x) for x in range(B)] == spliced


# -- degenerate shapes -------------------------------------------------------------


def test_zero_arity_system_has_no_constraints():
    params = lift_params(2, 2, 0)
    system = build_constraints(params)
    assert system.rows == ()
    nullity, basis = nullspace(system)
    assert nullity == system.nullity == params.algebra.dim == dimension(params)
    assert check_iso(system)


def test_arity_above_generator_count_is_empty():
    params = lift_params(1, 1, 3)
    system = build_constraints(params)
    assert system.unknowns == ()
    nullity, basis = nullspace(system)
    assert nullity == system.nullity == 0 == dimension(params)
    assert check_iso(system)


def test_last_slot_mode_handles_zero_arity():
    system = build_constraints(lift_params(1, 2, 0))
    assert system.rows == () and system.slots == ()


# -- nullspace vs formula -----------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_nullity_matches_formula_and_basis_satisfies_rows(r, k, s):
    params = lift_params(r, k, s)
    system = build_constraints(params)
    nullity, basis = nullspace(system)
    assert nullity == system.nullity == dimension(params)
    for vec in basis:
        assert satisfies(system.rows, vec)
    assert check_iso(system)


def test_rebuilding_gives_identical_rows():
    a = build_constraints(lift_params(2, 2, 2))
    b = build_constraints(lift_params(2, 2, 2))
    assert a.rows == b.rows and a.unknowns == b.unknowns


# -- slot reduction ------------------------------------------------------------------


@pytest.mark.parametrize("r,k,s", [(1, 2, 2), (2, 2, 2), (2, 2, 3), (1, 3, 2)])
def test_last_slot_system_has_the_same_nullspace(r, k, s):
    params = lift_params(r, k, s)
    full = reference_build_all_slots(params)
    last = build_constraints(params)
    assert last.rows == full.rows
    assert last.slots == (s - 1,) and full.slots == tuple(range(s))
    n_full, _ = reference_nullspace(full)
    n_last, basis_last = nullspace(last)
    assert n_full == n_last
    for vec in basis_last:
        assert satisfies(full.rows, vec)


# -- pruned last-slot builder ---------------------------------------------------------


@lru_cache(maxsize=None)
def default_system(r: int, k: int, s: int):
    return build_constraints(lift_params(r, k, s))


def test_pruning_points_cover_the_degenerate_shapes():
    assert len(PRUNING_POINTS) == 94
    assert {p[0] for p in PRUNING_POINTS} == {0, 1, 2, 3}
    assert {p[1] for p in PRUNING_POINTS} == {0, 1, 2, 3, 4}
    assert (2, 4, 3) in PRUNING_POINTS and (3, 3, 2) in PRUNING_POINTS


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_pruned_builder_gives_the_unpruned_rows(r, k, s):
    assert default_system(r, k, s).rows == reference_build_rows(lift_params(r, k, s))


# Criterion 6 compares the every-slot reference on r, k in 1..3, s <= 3;
# this takes the other points.  The reference instantiates s * B^(s+2)
# instances, and (2,4,3), (2,3,4) and (3,2,4), past a million, take 3-5 s
# each; they are left to the last-slot reference above.
EVERY_SLOT_POINTS = [
    (r, k, s)
    for r, k, s in PRUNING_POINTS
    if not (1 <= r <= 3 and 1 <= k <= 3 and s <= 3) and s * binomial(r + k, r) ** (s + 2) <= 10**6
]


@pytest.mark.parametrize("r,k,s", EVERY_SLOT_POINTS)
def test_block_rows_give_the_every_slot_rows(r, k, s):
    assert default_system(r, k, s).rows == reference_build_all_slots(lift_params(r, k, s)).rows


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_rows_have_the_shape_the_builder_forms(r, k, s):
    # Each term of a product-rule row has coefficient +-1, and only the two
    # single-factor terms can share a column (when b == c), so the builder
    # forms rows in this shape without dividing by a content.
    for row in default_system(r, k, s).rows:
        assert 1 <= len(row) <= 3, row
        if len(row) == 1:
            assert row[0][1] == 1, row
            continue
        cols = [col for col, _ in row]
        values = [v for _, v in row]
        assert cols == sorted(set(cols)), row
        assert values[0] > 0, row
        assert set(values) <= {1, -1, 2, -2}, row
        assert sum(abs(v) == 2 for v in values) <= 1, row
        assert math.gcd(*values) == 1, row


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_rows_are_homogeneous_in_the_torus_grading(r, k, s):
    # Scaling each variable preserves the product rule, so every column of a
    # row has the same multidegree: the exponent sum of its combination
    # plus its target.
    system = default_system(r, k, s)
    basis = system.params.algebra.basis

    def column_degree(col):
        combo, target = system.unknowns[col]
        return tuple(map(sum, zip(basis[target], *(basis[g] for g in combo))))

    mixed = [row for row in system.rows if len({column_degree(c) for c, _ in row}) != 1]
    assert mixed == []
    blocks = {m: system.block(m) for m in system.multidegrees}
    assert len(blocks) == len(system.multidegrees)
    assert all(list(b.cells) == sorted(b.cells) for b in blocks.values())
    assert all(list(b.rows) == sorted(b.rows) for b in blocks.values())
    assert {c: m for m, b in blocks.items() for c in b.cells} == {
        c: column_degree(c) for c in range(len(system.unknowns))
    }
    assert all(b.cells[c] == system.unknowns[c] for b in blocks.values() for c in b.cells)
    assert all(column_degree(row[0][0]) == m for m, b in blocks.items() for row in b.rows)


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_row_count_is_counted_one_block_per_orbit(r, k, s):
    # Every block of an orbit has the representative's row count, which
    # --compare counts as each unit's cases.
    system = default_system(r, k, s)
    for orbit in system._orbits:
        counts = {m: len(system.block(m).rows) for m in _orbit(orbit.rep)}
        assert counts == dict.fromkeys(counts, orbit.rows), orbit.rep


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_count_only_listing_counts_each_block_past_r_plus_s(r, k, s):
    # --compare takes each unit's cases off its representative's listing,
    # with no row formed.  No unit lies in a block past r + s, so it counts
    # none of their rows: its count is the rows of each unit's own block.
    system = default_system(r, k, s)
    blocks = Counter(multidegree(*cell) for cell in free_cells(system.params))
    assert all(sum(m) <= r + s for m in blocks)
    cases = sum(n * len(system.block(m).rows) for m, n in blocks.items())
    assert compare_with_construction(system).cases["constraint-rows"] == cases


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_graded_nullspace_gives_the_whole_system_basis(r, k, s):
    # Same nullity and the same span as one elimination of the whole system.
    system = default_system(r, k, s)
    nullity, basis = nullspace(system)
    ref_nullity, ref = reference_nullspace(system)
    assert nullity == ref_nullity
    assert same_span(basis, ref)


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_presolve_and_early_stop_keep_each_representatives_rows_and_basis(r, k, s):
    # The representatives the pass keeps, those of degree at most r + s,
    # with the row count and, on the cells, the nullspace of a direct
    # elimination of all of the block's rows; the restriction to the cells
    # loses no null vector.  The peeling test below settles the rest.
    system = default_system(r, k, s)
    ref = reference_orbit_blocks(system)
    assert [(orbit.rep, orbit.rows) for orbit in system._orbits] == [(m, n) for m, n, _ in ref]
    for orbit, (_, _, basis) in zip(system._orbits, ref):
        assert rank_of(basis) == len(basis), orbit.rep
        assert same_span(orbit.basis, basis), orbit.rep


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_expansion_is_the_transposed_peeling_sum(r, k, s):
    # E, solved from the peeling rows, is the evaluator's sum over peelings
    # at every unknown of every representative the pass solves.
    system = default_system(r, k, s)
    for orbit in system._orbits:
        cells = system.block(orbit.rep).cells
        got = {(a, col): v for col, e in system._expansion(cells).items() for a, v in e.items()}
        forms = reference_peeling(system.params, cells)
        assert got == {(a, col): v for a, form in forms.items() for col, v in form}, orbit.rep


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_every_peeling_row_the_expansion_uses_is_a_row_of_its_block(r, k, s):
    # E solves each unknown with an argument of degree 2 or more for its
    # last argument.
    system = default_system(r, k, s)
    deg = system.params.algebra.degrees
    for orbit in system._orbits:
        block = system.block(orbit.rep)
        for col, (combo, d) in block.cells.items():
            if combo and combo[0] and deg[combo[-1]] > 1:
                row = peeling_row(system, (combo, d), combo[-1])
                assert row[col] == 1 and is_row(block, row), (combo, d)


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_peeling_rows_settle_every_block_past_r_plus_s(r, k, s):
    # The lemma by which the representative pass skips these blocks.
    system = default_system(r, k, s)
    past = [m for m in system.multidegrees if sum(m) > r + s]
    assert [(m, f) for m in past for f in peeling_certificate(system, m)] == []


@pytest.mark.parametrize("point", [(2, 4, 3), (3, 3, 2), (2, 2, 3), (4, 1, 2)])
def test_default_path_lists_no_block_past_r_plus_s(monkeypatch, point):
    # Neither check_iso nor --compare: a unit's block has degree at most
    # r + s, and its cases are its orbit's row count.
    r, k, s = point
    listed, listing = [], ConstraintSystem._list

    def checked(self, m):
        assert sum(m) <= r + s, m
        listed.append(m)
        return listing(self, m)

    monkeypatch.setattr(ConstraintSystem, "_list", checked)
    params = lift_params(*point)
    system = build_constraints(params, max_unknowns=unknown_count(params))
    assert check_iso(system)
    assert listed
    assert compare_with_construction(system).passed


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**40),
    st.integers(0, 6),
    st.integers(0, 4),
    st.booleans(),
    st.data(),
)
def test_guard_bits_decide_division_and_the_difference_is_the_quotient(r, k, s, below, data):
    # Exponents up to (s + 1) r fit below the guard bit of their field.
    codes = lift_params(r, k, s).codes
    vec = st.tuples(*[st.integers(0, (s + 1) * r)] * k)
    m, g = data.draw(vec), data.draw(vec)
    if below:
        g = tuple(map(min, g, m))
    code, guard, w = codes.code, codes.guard, codes.stride
    divides = ((code(m) | guard) - code(g)) & guard == guard
    assert divides == all(a >= b for a, b in zip(m, g))
    if divides:
        rest = code(m) - code(g)
        field = (1 << w) - 1
        assert [rest >> i * w & field for i in range(k)] == [a - b for a, b in zip(m, g)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_factors_lists_exactly_the_live_factorisations(r, k, data):
    # Brute force over every (b, c, d): the product is x^m, 1 <= b <= c,
    # and bc, bd or cd lies in the basis; by (b, c) ascending, each with
    # the products bc, bd and cd read from the product table.
    alg = AlgebraParams(r, k)
    codes, basis, prod = LiftParams(alg, 2).codes, alg.basis, alg.product_index
    picks = data.draw(st.lists(st.integers(0, alg.dim - 1), min_size=3, max_size=3))
    m = tuple(map(sum, zip(*(basis[g] for g in picks))))
    live = [
        (b, c, d, prod[b][c], prod[b][d], prod[c][d])
        for b in range(1, alg.dim)
        for c in range(b, alg.dim)
        for d in range(alg.dim)
        if tuple(map(sum, zip(basis[b], basis[c], basis[d]))) == m
        and (prod[b][c], prod[b][d], prod[c][d]) != (None, None, None)
    ]
    found = codes.factors(codes.code(m), sum(m))
    assert found == live
    if sum(m) > 2 * r:
        assert found == []


def test_partitions_match_a_brute_enumeration():
    for n in range(11):
        for parts in range(5):
            for top in range(7):
                brute = [
                    t
                    for size in range(parts + 1)
                    for t in combinations_with_replacement(range(top, 0, -1), size)
                    if sum(t) == n
                ]
                assert list(_partitions(n, parts, top)) == sorted(brute, reverse=True)


CAPPED_GRID = [
    (r, k, s)
    for r in (1, 2, 3)
    for k in (1, 2, 3)
    for s in range(4)
    if unknown_count(lift_params(r, k, s)) <= DEFAULT_MAX_UNKNOWNS
]


def assert_spans_every_block_eliminated_directly(system) -> int:
    """Each vector of ``nullspace(system)`` lies in one block, and per block
    they span what eliminating that block from its own rows gives; the
    nullity is returned."""
    nullity, basis = nullspace(system)
    ref_nullity, ref = reference_blockwise_nullspace(system)
    assert nullity == ref_nullity
    block_of = {c: m for m in system.multidegrees for c in system.block(m).cells}

    def by_block(vectors):
        out = {}
        for vec in vectors:
            blocks = {block_of[c] for c in vec}
            assert len(blocks) == 1, vec
            out.setdefault(blocks.pop(), []).append(vec)
        return out

    ours, theirs = by_block(basis), by_block(ref)
    assert ours.keys() == theirs.keys()
    for m, vectors in ours.items():
        assert same_span(vectors, theirs[m]), m
    return nullity


@pytest.mark.parametrize("r,k,s", CAPPED_GRID)
def test_transported_basis_is_every_block_eliminated_directly(r, k, s):
    # The symmetry is checked, not assumed: every block is also eliminated
    # from its own rows.
    assert_spans_every_block_eliminated_directly(default_system(r, k, s))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 5), st.integers(0, 4))
def test_transport_matches_direct_elimination_on_small_points(r, k, s):
    params = lift_params(r, k, s)
    assume(unknown_count(params) <= 5000)
    system = build_constraints(params)
    assert assert_spans_every_block_eliminated_directly(system) == dimension(params)


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_nullity_of_each_block_is_the_graded_dimension(r, k, s):
    # Each basis vector lies in one block; every multidegree that has an
    # unknown is counted, empty blocks included.
    system = default_system(r, k, s)
    _, basis = nullspace(system)
    block_of = {c: m for m in system.multidegrees for c in system.block(m).cells}
    per_block = Counter(block_of[min(vec)] for vec in basis)
    assert all(len({block_of[c] for c in vec}) == 1 for vec in basis)
    for m in system.multidegrees:
        assert per_block[m] == graded_dimension(system.params, m), m


@pytest.mark.parametrize("r,k,s", [(1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1), (2, 2, 0)])
def test_expansion_skips_only_columns_that_are_zero(r, k, s):
    params = lift_params(r, k, s)
    system = build_constraints(params)
    # Unit tables fill one multidegree each, a random table many.
    units = [CoefficientAssignment.unit(params, cell) for cell in free_cells(params)]
    for assignment in [*units, CoefficientAssignment.random(params, seed=11)]:
        table = construct(assignment)
        ev = TableEvaluator(table)
        full = [ev.monomials_by_index(combo, d) for combo, d in system.unknowns]
        # Evaluated only at the blocks of its nonzero cells, as compare does.
        nonzero = nonzero_cells(table)
        blocks = {multidegree(*cell) for cell in nonzero}
        unknowns = {c: u for m in blocks for c, u in system.block(m).cells.items()}
        assert expand_table(system, nonzero, unknowns) == {
            col: v for col, v in enumerate(full) if v
        }


def representative(m):
    return tuple(sorted(m, reverse=True))


# s = 0, k = 1, and orbits of more than one block, each with several units.
ORBIT_POINTS = [
    (2, 2, 0), (3, 2, 0), (3, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 3, 2), (2, 4, 3)
]


@pytest.mark.parametrize("r,k,s", ORBIT_POINTS)
def test_orbit_path_expands_every_unit_table_as_the_evaluator_does(r, k, s):
    # compare pulls each unit table's cells back to its orbit's
    # representative; expanded there with E and carried to the unit's own
    # block, they must give the constructed table evaluated at that
    # block's unknowns, and so must its own cells expanded with the E of
    # its own block, as the witnesses read them.
    params = lift_params(r, k, s)
    system = build_constraints(params, max_unknowns=unknown_count(params))
    cells, expansions = free_cells(params), {}
    for i, one in enumerate(cells):
        m = multidegree(*one)
        rep = representative(m)
        if rep not in expansions:
            expansions[rep] = system._expansion(system.block(rep).cells)
        ((j, unit, own, x, scale),) = _expand_units(params, m, [(i, one)])
        assert (j, unit) == (i, one)
        acc = {
            col: sum(v * x.get(a, 0) for a, v in e.items()) for col, e in expansions[rep].items()
        }
        move = carry(system, m)
        moved = {col: move(col) for col, v in acc.items() if v}
        got = {c: Fraction(sign * acc[col], scale) for col, (c, sign) in moved.items()}
        table = construct(CoefficientAssignment.unit(params, one))
        assert got == expand_table(system, nonzero_cells(table), system.block(m).cells), one
        direct = _full(system._expansion(system.block(m).cells), own)
        assert {col: Fraction(v, scale) for col, v in direct.items()} == got, one
    # Past k = 1 some unit sits in a block other than its representative.
    moved = [c for c in cells if multidegree(*c) != representative(multidegree(*c))]
    assert bool(moved) == (k > 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 4), st.integers(0, 3), st.data())
def test_transposed_peeling_is_the_evaluator_on_every_block(r, k, s, data):
    params = lift_params(r, k, s)
    assume(unknown_count(params) <= 5000)
    system = build_constraints(params)
    assume(system.multidegrees)
    m = data.draw(st.sampled_from(system.multidegrees))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    values = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in params.algebra.basis]
        for _ in params.rows
    ]
    table = LiftTable(params, values)  # random at every cell, not only block m's
    block = system.block(m)
    forms = reference_peeling(params, block.cells)
    got = Counter()
    for axes, alpha in block_cells(params, m):
        for col, coeff in forms[axes]:
            got[col] += coeff * table.cell(axes, alpha)
    ev = TableEvaluator(table)
    assert {c: v for c, v in got.items() if v} == {
        c: v for c, u in block.cells.items() if (v := ev.monomials_by_index(*u))
    }


# -- isomorphism check ----------------------------------------------------------------


def doctored_bases(system) -> list:
    """Copies of ``system`` in which the representative with the most null
    vectors, of the largest orbit among those, has a wrong basis: one
    vector short, its first vector repeated (when it has two or more),
    every vector zero, and its first vector zero."""
    orbit = max(system._orbits, key=lambda o: (len(o.basis), _orbit_size(o.rep)), default=None)
    if orbit is None or not orbit.basis:
        return []
    basis = orbit.basis
    wrong = (basis[:-1], [basis[0]] * len(basis), [{}] * len(basis), [{}] + basis[1:])
    return [with_basis(system, orbit.rep, b) for b in wrong if b != basis]


def test_check_iso_rejects_wrong_bases():
    # At (3,2,1) the representative (2,1) has two null vectors, and its
    # orbit two blocks.
    system = build_constraints(lift_params(3, 2, 1))
    assert check_iso(system)
    for doctored in doctored_bases(system):
        assert not check_iso(doctored)
        assert not reference_check_iso(doctored, nullspace(doctored)[1])


def test_rank_of_examples():
    assert rank_of([]) == 0
    assert rank_of([{}, {0: Fraction(0), 1: Fraction(0)}]) == 0
    assert rank_of([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    assert rank_of([{0: Fraction(1, 2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(2)}]) == 1
    assert rank_of([{0: Fraction(1)}, {1: Fraction(1, 3)}]) == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(-3, 3).filter(bool)), max_size=8))
def test_lowest_column_pivots_give_a_basis_of_the_nullspace(rows):
    # Each pivot row pivots on its lowest column, and back-substitution
    # gives one null vector per free column.
    ech = _Echelon()
    for row in rows:
        ech.add(row)
    assert all(lead == min(row) for lead, row in ech.pivots.items())
    basis = list(ech.nullspace_basis(range(8)).values())
    assert len(basis) == 8 - ech.rank == 8 - rank_of(rows)
    for vec in basis:
        assert all(sum(v * vec.get(c, 0) for c, v in row.items()) == 0 for row in rows)
    assert rank_of(basis) == len(basis)


# -- construction vs oracle ------------------------------------------------------------


def test_expanded_unit_tables_satisfy_the_rows():
    params = lift_params(1, 2, 1)
    system = build_constraints(params)
    for cell in free_cells(params):
        table = construct(CoefficientAssignment.unit(params, cell))
        vec = expand_table(system, nonzero_cells(table), dict(enumerate(system.unknowns)))
        assert satisfies(system.rows, vec)


@pytest.mark.parametrize(
    "r,k,s", [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 2), (2, 1, 1), (1, 1000, 0)]
)
def test_compare_with_construction_passes(r, k, s):
    system = build_constraints(lift_params(r, k, s))
    rep = compare_with_construction(system)
    assert rep.passed, rep.failures[:10]
    assert rep.cases["span"] == 1


def unit_vectors(system, cells) -> list[dict]:
    """Each unit table of ``cells`` constructed in full and evaluated at
    every unknown: the reference for what compare checks."""
    unknowns = dict(enumerate(system.unknowns))
    tables = [construct(CoefficientAssignment.unit(system.params, c)) for c in cells]
    return [expand_table(system, nonzero_cells(table), unknowns) for table in tables]


def carry(system, m):
    """Column -> (column, sign) from block ``representative(m)`` to block
    ``m``, by the permutation of the variables that compare uses: the
    representative's ``i``-th supported axis goes to the ``i``-th axis of
    ``m`` by exponent, largest first, ties in axis order.  Written from the
    basis exponents, not from the oracle's integer codes."""
    alg = system.params.algebra
    placed = sorted((j for j in range(alg.k) if m[j]), key=lambda j: -m[j])

    def move(g):
        e = [0] * alg.k
        for i, p in enumerate(placed):
            e[p] = alg.basis[g][i]
        return alg.basis_index[tuple(e)]

    def carried(col):
        combo, target = system.unknowns[col]
        moved, sign = lift_space.sort_with_sign(tuple(map(move, combo)))
        return system.column(moved, move(target)), sign

    return carried


def carry_row(system, m, row):
    """The normalised image in block ``m`` of a row of its representative."""
    move = carry(system, m)
    image = sorted((c, v * sign) for col, v in row for c, sign in [move(col)])
    return tuple(image if image[0][1] > 0 else [(c, -v) for c, v in image])


def pull_back(system, m, col):
    """The column of block ``representative(m)`` that ``carry`` takes to
    ``col``."""
    move = carry(system, m)
    (back,) = [c for c in system.block(representative(m)).cells if move(c)[0] == col]
    return back


def dense_failures(system, cells, vecs, extra: dict) -> list:
    """(witness, got) of every row of every block that a unit vector
    violates, in free-cell order then row order, with the rows ``extra``
    adds to each representative's block carried to every block of its
    orbit that holds a unit."""
    blocks = {multidegree(*cell) for cell in cells}
    images = {
        carry_row(system, m, row) for m in blocks for row in extra.get(representative(m), ())
    }
    rows = sorted(set(system.rows) | images)
    return [
        ((cell, row), sum((v * vec.get(c, 0) for c, v in row), Fraction(0)))
        for cell, vec in zip(cells, vecs)
        for row in rows
        if not satisfies([row], vec)
    ]


def doctor_representatives(monkeypatch, system, extra: dict) -> None:
    """Add the rows ``extra[rep]`` to block ``rep`` of ``system``: carried
    to every block ``m`` of its orbit (``carry_row``), to the rows
    ``block(m)`` gives, which compare's witnesses read, and, composed with
    the block's expansion E, to the composed rows that compare checks each
    unit against."""
    orbits = []
    for orbit in system._orbits:
        if rows := extra.get(orbit.rep):
            expansion = system._expansion(system.block(orbit.rep).cells)
            composed = []
            for row in sorted(rows):
                acc = Counter()
                for col, v in row:
                    for a, e in expansion[col].items():
                        acc[a] += v * e
                composed.append(tuple(sorted((a, v) for a, v in acc.items() if v)))
            orbit = orbit._replace(composed=orbit.composed + [row for row in composed if row])
        orbits.append(orbit)
    system.__dict__["_orbits"] = orbits  # a cached property
    listing = ConstraintSystem.block

    def doctored(self, m):
        block = listing(self, m)
        images = [carry_row(self, m, row) for row in extra.get(representative(m), ())]
        return block._replace(rows=tuple(sorted(block.rows + tuple(images))))

    monkeypatch.setattr(ConstraintSystem, "block", doctored)


def test_compare_reports_violated_rows_in_row_order(monkeypatch):
    # Extra rows in the representative's block of a unit of the orbit of
    # (2,1), which that unit's vector violates.  compare checks each vector
    # only on the rows of its representative's block and reports their
    # images in its own block, so the report must still match a dense
    # check of every row of every block, the extra rows carried to each
    # block of the orbit, in free-cell order then row order, with the rows
    # of each unit's own block counted as its cases.  At (3,2,1) compare
    # visits the orbit's units out of free-cell order.
    params = lift_params(3, 2, 1)
    system = build_constraints(params)
    cells = free_cells(params)
    vecs = unit_vectors(system, cells)
    i = next(i for i, c in enumerate(cells) if representative(multidegree(*c)) == (2, 1))
    m = multidegree(*cells[i])
    support = sorted(pull_back(system, m, c) for c in vecs[i])
    extra = {(2, 1): {((support[0], 1),), ((support[0], 1), (support[-1], 2))}}
    expected = dense_failures(system, cells, vecs, extra)  # before the rows are doctored
    cases = sum(len(system.block(multidegree(*c)).rows) for c in cells)
    doctor_representatives(monkeypatch, system, extra)
    rep = compare_with_construction(system)
    assert len({cell for (cell, _), _ in expected}) >= 3
    got = [(f.witness, f.actual) for f in rep.failures if f.check == "constraint-rows"]
    assert got == expected
    assert rep.cases["constraint-rows"] == cases


def test_compare_reports_failures_in_free_cell_order_across_blocks(monkeypatch):
    # At (2,2,1) block (1,1) holds the free cells (x1; x2) and (x2; x1),
    # with cells of other blocks between them, and compare visits the units
    # orbit by orbit, so its witnesses must be sorted back into free-cell
    # order, then row order, as a dense check of every row gives them.
    params = lift_params(2, 2, 1)
    system = build_constraints(params)
    cells = free_cells(params)
    vecs = unit_vectors(system, cells)
    extra = {}  # per representative, a single-entry row on each unit's first column
    for cell, vec in zip(cells, vecs):
        m = multidegree(*cell)
        extra.setdefault(representative(m), set()).add(((pull_back(system, m, min(vec)), 1),))
    expected = dense_failures(system, cells, vecs, extra)
    doctor_representatives(monkeypatch, system, extra)
    rep = compare_with_construction(system)
    runs = [m for m, _ in groupby(multidegree(*cell) for (cell, _), _ in expected)]
    assert len(runs) > len(set(runs))  # some block's witnesses are not adjacent
    got = [(f.witness, f.actual) for f in rep.failures if f.check == "constraint-rows"]
    assert got == expected


def test_compare_names_a_unit_that_fails_only_a_composed_row(monkeypatch):
    # With the relabelling's sign dropped, some units' pull-backs fail a
    # composed row of their representative, while their own vectors, from
    # their own cells, meet every row of their block.  Each such unit must
    # still fail constraint-rows, witnessed by the first composed row it
    # fails and that row's value over the unit's scale, not through the
    # span check alone.  With the sign, every unit passes.
    def unsigned(values, to):
        return {tuple(sorted(to[a] for a in axes)): v for axes, v in values.items()}

    params = lift_params(2, 3, 2)
    assert compare_with_construction(build_constraints(params)).passed
    system = build_constraints(params)
    composed = {orbit.rep: orbit.composed for orbit in system._orbits}
    units = {}
    for i, one in enumerate(free_cells(params)):
        m = multidegree(*one)
        units.setdefault(m, []).append((i, one))
    monkeypatch.setattr(oracle, "_relabel", unsigned)
    expected = []
    for m, held in units.items():
        for i, one, _, x, scale in _expand_units(params, m, held):
            for row in composed[representative(m)]:
                if got := sum(v * x.get(c, 0) for c, v in row):
                    expected.append((i, (one, row), Fraction(got, scale)))
                    break
    rep = compare_with_construction(system)
    got = [(f.witness, f.actual) for f in rep.failures if f.check == "constraint-rows"]
    assert expected
    assert got == [(witness, value) for _, witness, value in sorted(expected)]


def test_compare_witnesses_carry_the_sign_of_each_entry(monkeypatch):
    # At arity 2 moving a unit's representative to its block re-sorts the
    # combinations, with a sign per column.  An extra row on two columns
    # whose signs differ, added to the representative's block, must be
    # reported in the unit's block with each entry's own sign, as a dense
    # check of the row's image gives it.  A second extra row, in another
    # orbit, is on two cells of a unit whose pull-back signs differ: the
    # signed pull-back meets it and the unsigned one fails it.  So no unit
    # of that orbit fails, and compare lists only the blocks of the units
    # the first row fails.
    params = lift_params(2, 3, 2)
    system = build_constraints(params)
    deg = params.algebra.degrees
    cells = free_cells(params)
    vecs = unit_vectors(system, cells)
    pulled = []  # per unit: its block, and column of its representative -> (value, sign)
    for cell, vec in zip(cells, vecs):
        m = multidegree(*cell)
        move = carry(system, m)
        back = {pull_back(system, m, c): v for c, v in vec.items()}
        pulled.append((m, {c: (move(c)[1] * v, move(c)[1]) for c, v in back.items()}))
    m, at = next((m, at) for m, at in pulled if len({sign for _, sign in at.values()}) == 2)
    signs = {sign: c for c, (_, sign) in at.items()}
    extra = {representative(m): {tuple(sorted(((signs[1], 1), (signs[-1], 2))))}}

    def cell_signs(at):
        linear = (c for c in at if all(deg[g] == 1 for g in system.unknowns[c][0]))
        return {at[c][1]: c for c in linear}

    u, at = next(
        (u, at) for u, at in pulled if representative(u) not in extra and len(cell_signs(at)) == 2
    )
    a, b = cell_signs(at)[-1], cell_signs(at)[1]
    (pa, _), (pb, _) = at[a], at[b]
    scale = pa.denominator * pb.denominator
    row = tuple(sorted(((a, int(pb * scale)), (b, int(-pa * scale)))))
    assert sum(v * at[c][0] for c, v in row) == 0  # the signed pull-back meets it
    assert sum(v * at[c][0] * at[c][1] for c, v in row) != 0  # the unsigned fails it
    extra[representative(u)] = {row}
    expected = dense_failures(system, cells, vecs, extra)
    doctor_representatives(monkeypatch, system, extra)
    listed, listing = set(), ConstraintSystem._list
    monkeypatch.setattr(
        ConstraintSystem, "_list", lambda self, m: listed.add(m) or listing(self, m)
    )
    rep = compare_with_construction(system)
    assert len(signs) == 2 and expected
    got = [(f.witness, f.actual) for f in rep.failures if f.check == "constraint-rows"]
    assert got == expected
    assert listed == {multidegree(*cell) for (cell, _), _ in expected}


@pytest.mark.parametrize("point", [(3, 3, 2), (2, 2, 2)])
def test_a_passing_compare_lists_no_block(monkeypatch, point):
    # Each unit is checked on its representative's cells, against the
    # composed rows the pass kept; only a failing unit lists a block.
    params = lift_params(*point)
    system = build_constraints(params, max_unknowns=unknown_count(params))
    assert system.nullity  # the representative pass lists every representative, once
    listed, listing = [], ConstraintSystem._list
    monkeypatch.setattr(
        ConstraintSystem, "_list", lambda self, m: listed.append(m) or listing(self, m)
    )
    assert compare_with_construction(system).passed
    assert listed == []


def test_default_path_lists_no_whole_system(monkeypatch):
    # nullspace, check_iso and compare work block by block; only --dump and
    # the tests read the whole-system views.
    def whole(self):
        raise AssertionError("whole-system view read")

    for name in ("rows", "unknowns", "multidegrees"):
        monkeypatch.setattr(ConstraintSystem, name, property(whole))
    system = build_constraints(lift_params(3, 3, 2))
    assert nullspace(system)[0] == system.nullity
    assert check_iso(system)
    assert compare_with_construction(system).passed


def test_compare_detects_a_doctored_basis():
    # The span witness is the one the full-vector global ranks give.
    system = build_constraints(lift_params(3, 2, 1))
    for doctored in doctored_bases(system):
        rep = compare_with_construction(doctored)
        assert [f.check for f in rep.failures] == ["span"]
        assert rep.failures == reference_compare(doctored, nullspace(doctored)[1]).failures


def test_compare_needs_the_union_rank_for_a_full_rank_basis_off_the_kernel():
    # 1 added to a representative's only null vector at a cell other than
    # that of its lowest entry gives a vector that is no multiple of it, so
    # off the kernel, and keeps the basis of full rank; the nullspace and
    # construction ranks both still read 15, so only the rank of their
    # union sees it.  At (3,2,1) the block (2,2), alone in its orbit, has
    # nullity 1 and two cells.
    params = lift_params(3, 2, 1)
    system = build_constraints(params)
    (orbit,) = [o for o in system._orbits if o.rep == (2, 2)]
    (vec,) = orbit.basis
    cell = min(c.axes for c in block_cells(params, orbit.rep) if c.axes != min(vec))
    wrong = [{**vec, cell: vec.get(cell, 0) + 1}]
    doctored = with_basis(system, orbit.rep, wrong)
    rep = compare_with_construction(doctored)
    witness = (("nullspace", 15), ("construction", 15), ("union", 16))
    assert rep.failures == [Failure("span", witness, Fraction(15), Fraction(16))]
    assert rep.failures == reference_compare(doctored, nullspace(doctored)[1]).failures


@pytest.mark.parametrize("point", FULL_GRID + REACH_POINTS, ids=str)
def test_orbit_local_checks_match_the_full_vector_reference(point):
    # check_iso and compare read each representative's basis in its own
    # columns; the reference reads the full vectors of nullspace, carried
    # to every block, and takes global ranks.  They must agree on the
    # system and on copies with one representative's basis made wrong.
    params = lift_params(*point)
    system = build_constraints(params, max_unknowns=unknown_count(params))
    units = reference_units(system)  # the doctored copies have the same rows
    for case in [system, *doctored_bases(system)]:
        _, basis = nullspace(case)
        assert check_iso(case) == reference_check_iso(case, basis)
        rep, ref = compare_with_construction(case), reference_compare(case, basis, units)
        assert (rep.cases, rep.failures) == (ref.cases, ref.failures)


@pytest.mark.parametrize("point,calls", [((2, 5, 3), 84), ((3, 3, 2), 12)])
def test_compare_completes_only_each_units_block(monkeypatch, point, calls):
    # Each unit table is completed on its own block, so the bound-cell
    # formula runs once per bound cell of each unit's block, not once per
    # bound cell of the table.
    params = lift_params(*point)
    system = build_constraints(params, max_unknowns=unknown_count(params))
    free = params.free_cell_set
    expected = sum(
        sum(c not in free for c in block_cells(params, multidegree(*cell)))
        for cell in free
    )
    seen = []
    bound_cell = lift_space._bound_cell
    monkeypatch.setattr(
        lift_space, "_bound_cell", lambda *args: seen.append(args) or bound_cell(*args)
    )
    assert compare_with_construction(system).passed
    assert len(seen) == expected == calls


# -- matrix dump -------------------------------------------------------------------------


def test_dump_matrix_frozen_smallest_case(tmp_path):
    system = build_constraints(lift_params(1, 1, 1))
    path = tmp_path / "rows.mtx"
    dump_matrix(system, path)
    assert path.read_text(encoding="ascii").splitlines() == [
        "%%matrix coordinate rational general",
        "3 4 3",
        "1 1 1",
        "2 2 1",
        "3 4 1",
    ]
