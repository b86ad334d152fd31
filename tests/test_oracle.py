"""The brute-force linear system: frozen small cases, size guard, and
agreement with the closed-form side."""

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest

from jetlift import (
    AlgebraParams,
    CoefficientAssignment,
    LiftParams,
    construct,
    dimension,
    free_cells,
)
from jetlift.lift_space import TableEvaluator
from jetlift.multiindex import COUNT_CAP, MAX_COUNT_DIGITS, binomial
from jetlift.oracle import (
    DEFAULT_MAX_UNKNOWNS,
    OracleSizeError,
    build_constraints,
    check_iso,
    compare_with_construction,
    dump_matrix,
    expand_table,
    nullspace,
    rank_of,
    unknown_count,
)
from support import reference_build_all_slots, reference_build_rows


def lift_params(r: int, k: int, s: int) -> LiftParams:
    return LiftParams(AlgebraParams(r, k), s)


def satisfies(rows, vec) -> bool:
    return all(
        sum((coeff * vec[col] for col, coeff in row), Fraction(0)) == 0 for row in rows
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
    assert nullity == 1
    assert basis == [(Fraction(0), Fraction(0), Fraction(1), Fraction(0))]
    assert check_iso(system, basis)


def test_column_indexing_is_block_by_combination():
    system = build_constraints(lift_params(1, 1, 1))
    assert system.column((0,), 1) == 1
    assert system.column((1,), 0) == 2


# -- degenerate shapes -------------------------------------------------------------


def test_zero_arity_system_has_no_constraints():
    params = lift_params(2, 2, 0)
    system = build_constraints(params)
    assert system.rows == ()
    nullity, basis = nullspace(system)
    assert nullity == params.algebra.dim == dimension(params)
    assert check_iso(system, basis)


def test_arity_above_generator_count_is_empty():
    params = lift_params(1, 1, 3)
    system = build_constraints(params)
    assert system.unknowns == ()
    nullity, basis = nullspace(system)
    assert nullity == 0 == dimension(params)
    assert check_iso(system, basis)


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
    assert nullity == dimension(params)
    for vec in basis:
        assert satisfies(system.rows, vec)
    assert check_iso(system, basis)


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
    n_full, _ = nullspace(full)
    n_last, basis_last = nullspace(last)
    assert n_full == n_last
    for vec in basis_last:
        assert satisfies(full.rows, vec)


# -- pruned last-slot builder ---------------------------------------------------------

PRUNING_POINTS = [
    (r, k, s)
    for r in range(4)
    for k in range(5)
    for s in range(5)
    if unknown_count(lift_params(r, k, s)) <= DEFAULT_MAX_UNKNOWNS
]


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


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_rows_are_homogeneous_in_the_torus_grading(r, k, s):
    # Scaling each variable preserves the product rule, so every column of a
    # row has the same multidegree: the exponent sum of its combination
    # plus its target.
    system = default_system(r, k, s)
    basis = system.params.algebra.basis

    def multidegree(col):
        combo, target = system.unknowns[col]
        return tuple(map(sum, zip(basis[target], *(basis[g] for g in combo))))

    mixed = [row for row in system.rows if len({multidegree(c) for c, _ in row}) != 1]
    assert mixed == []


@pytest.mark.parametrize("r,k,s", [(1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1), (2, 2, 0)])
def test_expansion_skips_only_columns_that_are_zero(r, k, s):
    params = lift_params(r, k, s)
    system = build_constraints(params)
    live = set(system.live_columns)
    for cell in free_cells(params):
        table = construct(CoefficientAssignment.unit(params, cell))
        ev = TableEvaluator(table)
        full = [ev.monomials_by_index(combo, d) for combo, d in system.unknowns]
        assert expand_table(system, table) == full
        assert {col for col, v in enumerate(full) if v} <= live


def test_rank_of_reads_a_nullspace_basis_like_its_dense_copy():
    system = build_constraints(lift_params(2, 2, 2))
    nullity, basis = nullspace(system)
    assert all(isinstance(vec, tuple) for vec in basis)
    assert rank_of(basis) == rank_of(list(basis)) == nullity == 3


# -- isomorphism check ----------------------------------------------------------------


def test_check_iso_rejects_wrong_bases():
    params = lift_params(1, 2, 1)
    system = build_constraints(params)
    nullity, basis = nullspace(system)
    assert check_iso(system, basis)
    assert not check_iso(system, basis[:-1])
    degenerate = [basis[0]] * len(basis)
    assert not check_iso(system, degenerate)
    zeros = [tuple(Fraction(0) for _ in system.unknowns)] * len(basis)
    assert not check_iso(system, zeros)


def test_rank_of_examples():
    assert rank_of([]) == 0
    assert rank_of([(Fraction(0), Fraction(0))]) == 0
    assert rank_of([(1, 0), (0, 1), (1, 1)]) == 2
    assert rank_of([(Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(2))]) == 1
    assert rank_of([{0: Fraction(1)}, {1: Fraction(1, 3)}]) == 2


# -- construction vs oracle ------------------------------------------------------------


def test_expanded_unit_tables_satisfy_the_rows():
    params = lift_params(1, 2, 1)
    system = build_constraints(params)
    for cell in free_cells(params):
        table = construct(CoefficientAssignment.unit(params, cell))
        assert satisfies(system.rows, expand_table(system, table))


@pytest.mark.parametrize("r,k,s", [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 2), (2, 1, 1)])
def test_compare_with_construction_passes(r, k, s):
    rep = compare_with_construction(lift_params(r, k, s))
    assert rep.passed, rep.to_json_dict()
    assert rep.cases["span"] == 1


def test_compare_reports_violated_rows_in_row_order():
    # Extra rows that the unit tables violate: each vector is checked only on
    # the rows touching its nonzero columns, so the report must still match a
    # dense check of every row, in row order, case count included.
    params = lift_params(2, 2, 2)
    system = build_constraints(params)
    cells = free_cells(params)
    vecs = [expand_table(system, construct(CoefficientAssignment.unit(params, c))) for c in cells]
    support = [col for col, v in enumerate(vecs[0]) if v]
    extra = {((support[0], 1),), ((0, 1), (support[-1], 2))}
    doctored = replace(system, rows=tuple(sorted(set(system.rows) | extra)))
    _, basis = nullspace(system)
    rep = compare_with_construction(params, system=doctored, nullbasis=basis)
    expected = [
        (cell, row)
        for cell, vec in zip(cells, vecs)
        for row in doctored.rows
        if sum((coeff * vec[col] for col, coeff in row), Fraction(0)) != 0
    ]
    assert expected
    assert [f.witness for f in rep.failures if f.check == "constraint-rows"] == expected
    assert rep.cases["constraint-rows"] == len(cells) * len(doctored.rows)


def test_compare_detects_a_doctored_basis():
    params = lift_params(1, 2, 1)
    system = build_constraints(params)
    _, basis = nullspace(system)
    wrong = [tuple(2 * v for v in basis[0])] * len(basis)
    rep = compare_with_construction(params, system=system, nullbasis=wrong)
    assert not rep.passed


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
