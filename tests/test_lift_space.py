"""Free cells, the closed-form construction, and table evaluation."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetlift import (
    AlgebraElement,
    AlgebraParams,
    CoefficientAssignment,
    LiftParams,
    LiftTable,
    construct,
    dimension,
    evaluate,
    free_cells,
)
from jetlift.lift_space import (
    FreeCell,
    TableEvaluator,
    block_cells,
    complete,
    extract_coefficients,
    graded_dimension,
    lookup_skew,
    multidegree,
    read_params,
    sort_with_sign,
)
from jetlift.multiindex import MultiIndex, enumerate_degree_at_most
from support import PRUNING_POINTS, brute_free_cells, leibniz_eval

P121 = LiftParams(AlgebraParams(1, 2), 1)
P222 = LiftParams(AlgebraParams(2, 2), 2)

SMALL_GRID = [
    (1, 1, 1),
    (1, 2, 1),
    (2, 1, 1),
    (2, 2, 1),
    (1, 2, 2),
    (2, 2, 2),
    (3, 1, 1),
    (2, 2, 0),
    (0, 2, 1),
]


def lift_params(r: int, k: int, s: int) -> LiftParams:
    return LiftParams(AlgebraParams(r, k), s)


def assignments(params: LiftParams):
    cells = free_cells(params)
    value = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.lists(value, min_size=len(cells), max_size=len(cells)).map(
        lambda vs: CoefficientAssignment(params, dict(zip(cells, vs)))
    )


# -- free cells and dimension ---------------------------------------------------


def test_free_cells_frozen_example():
    assert free_cells(P121) == [
        FreeCell((1,), (0, 0)),
        FreeCell((1,), (0, 1)),
        FreeCell((2,), (0, 0)),
    ]


def test_free_cells_match_direct_definition_on_grid():
    for r in range(4):
        for k in range(4):
            for s in range(4):
                params = lift_params(r, k, s)
                got = free_cells(params)
                assert [tuple(c) for c in got] == brute_free_cells(r, k, s)
                assert len(got) == dimension(params)


def test_dimension_spot_values():
    expected = {
        (1, 1, 1): 1,
        (1, 2, 1): 3,
        (2, 2, 1): 8,
        (2, 2, 2): 3,
        (2, 3, 2): 15,
        (3, 3, 2): 36,
        (3, 3, 3): 10,
        (1, 2, 2): 1,
        (3, 2, 3): 0,
    }
    for (r, k, s), d in expected.items():
        assert dimension(lift_params(r, k, s)) == d


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_graded_dimension_counts_the_free_cells_of_each_multidegree(r, k, s):
    # Summed over every multidegree it gives the closed form; per
    # multidegree it is the free-cell count, e_I + alpha for cell (I, alpha).
    params = lift_params(r, k, s)
    held = Counter(
        tuple(a + (j in cell.axes) for j, a in enumerate(cell.alpha, start=1))
        for cell in free_cells(params)
    )
    degrees = enumerate_degree_at_most(k, r + s + 1)
    assert set(held) <= set(degrees)
    assert {m: graded_dimension(params, m) for m in degrees} == {m: held[m] for m in degrees}
    assert sum(graded_dimension(params, m) for m in degrees) == dimension(params)


def test_graded_dimension_examples_and_validation():
    params = lift_params(2, 3, 2)
    assert graded_dimension(params, (1, 1, 0)) == 1     # below the top degree
    assert graded_dimension(params, (1, 1, 1)) == 3
    assert graded_dimension(params, (2, 1, 1)) == 1     # top degree: C(2, 2)
    assert graded_dimension(params, (3, 1, 0)) == 0     # top degree, q = 2
    assert graded_dimension(params, (1, 0, 0)) == 0     # |m| < s
    assert graded_dimension(params, (2, 2, 1)) == 0     # past r + s
    assert graded_dimension(lift_params(0, 0, 0), ()) == 1
    for bad in [(1, 1), (1, -1, 0)]:
        with pytest.raises(ValueError):
            graded_dimension(params, bad)
    for bad in [(True, 1, 0), (1.0, 1, 0), (1, "1", 0), (1, None, 0)]:
        with pytest.raises(ValueError, match="must be an integer"):
            graded_dimension(params, bad)


# -- multidegree blocks -------------------------------------------------------------


def block_grid(params: LiftParams) -> list[MultiIndex]:
    """Every multidegree up to one past the top degree ``r + s``."""
    return enumerate_degree_at_most(params.algebra.k, params.algebra.r + params.s + 1)


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_block_cells_partition_the_grid(r, k, s):
    params = lift_params(r, k, s)
    grid = [FreeCell(axes, a) for axes in params.rows for a in params.algebra.basis]
    listed = []
    for m in block_grid(params):
        cells = block_cells(params, m)
        assert [multidegree(*c) for c in cells] == [m] * len(cells)
        assert [c.axes for c in cells] == sorted({c.axes for c in cells})
        listed += cells
    assert sorted(listed) == sorted(grid)


def assert_blocks_complete_alone(a: CoefficientAssignment) -> None:
    # Each block completes from its own free values to what construct gives.
    params = a.params
    table = construct(a)
    for m in block_grid(params):
        cells = block_cells(params, m)
        free = {c: a.values[c] for c in cells if c in a.values}
        assert complete(free, cells) == [table.cell(*c) for c in cells], m


@pytest.mark.parametrize("r,k,s", PRUNING_POINTS)
def test_completing_each_block_matches_construct(r, k, s):
    params = lift_params(r, k, s)
    assert_blocks_complete_alone(CoefficientAssignment.random(params, seed=100 * r + 10 * k + s))


@given(assignments(P222))
def test_completing_each_block_matches_construct_property(a):
    assert_blocks_complete_alone(a)


def test_completion_refuses_a_lookup_outside_the_free_values():
    # The bound cell ((2,), (1, 0)) is solved from the free cell
    # ((1,), (0, 1)) of its block, so it cannot be completed without it.
    free, bound = block_cells(P121, (1, 1))
    assert complete({free: Fraction(11)}, [bound]) == [Fraction(-11)]
    with pytest.raises(AssertionError, match="non-free cell"):
        complete({}, [bound])


def test_zero_arity_dimension_is_the_full_dual():
    for r in range(4):
        for k in range(4):
            params = lift_params(r, k, 0)
            assert dimension(params) == params.algebra.dim
            assert len(free_cells(params)) == params.algebra.dim


def test_rows_are_increasing_axis_tuples():
    assert lift_params(1, 3, 2).rows == ((1, 2), (1, 3), (2, 3))
    assert lift_params(1, 2, 0).rows == ((),)
    assert lift_params(1, 1, 2).rows == ()


@pytest.mark.parametrize("algebra", [None, (2, 2), {"r": 2, "k": 2}, 2])
def test_lift_params_refuse_an_algebra_that_is_not_algebra_params(algebra):
    with pytest.raises(TypeError, match="AlgebraParams"):
        LiftParams(algebra, 1)


def test_negative_arity_is_refused():
    with pytest.raises(ValueError):
        lift_params(1, 2, -1)


@pytest.mark.parametrize("s", [True, 1.0, 2.5, "2", None])
def test_arity_must_be_an_integer(s):
    with pytest.raises(ValueError, match="arity must be an integer"):
        lift_params(1, 2, s)


# -- permutation sign -----------------------------------------------------------


def test_sort_with_sign_examples():
    assert sort_with_sign(()) == ((), 1)
    assert sort_with_sign((2,)) == ((2,), 1)
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1)) is None


@given(st.lists(st.integers(1, 6), min_size=2, max_size=5).map(tuple))
def test_sort_with_sign_transposition_flips(t):
    rng = random.Random(sum(t))
    i, j = rng.sample(range(len(t)), 2)
    swapped = list(t)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    a, b = sort_with_sign(t), sort_with_sign(tuple(swapped))
    if a is None:
        # A repeated entry survives any transposition.
        assert b is None
    else:
        assert b == (a[0], -a[1])


# -- assignments ------------------------------------------------------------------


def test_assignment_must_cover_free_cells_exactly():
    cells = free_cells(P121)
    with pytest.raises(ValueError, match="missing"):
        CoefficientAssignment(P121, {cells[0]: Fraction(1)})
    full = {c: Fraction(0) for c in cells}
    full[FreeCell((2,), (1, 0))] = Fraction(1)
    with pytest.raises(ValueError, match="extra"):
        CoefficientAssignment(P121, full)


def test_unit_assignment_requires_a_free_cell():
    with pytest.raises(ValueError):
        CoefficientAssignment.unit(P121, FreeCell((2,), (1, 0)))
    u = CoefficientAssignment.unit(P121, FreeCell((1,), (0, 1)))
    assert [u.values[c] for c in free_cells(P121)] == [0, 1, 0]


def test_random_assignment_is_seed_deterministic():
    assert CoefficientAssignment.random(P222, seed=9) == CoefficientAssignment.random(
        P222, seed=9
    )
    assert CoefficientAssignment.random(P222, seed=9) != CoefficientAssignment.random(
        P222, seed=10
    )


def test_assignment_json_roundtrip_and_errors():
    a = CoefficientAssignment.random(P121, seed=3)
    assert CoefficientAssignment.from_json_dict(a.to_json_dict()) == a
    doc = a.to_json_dict()
    doc["values"] = doc["values"] + [doc["values"][0]]
    with pytest.raises(ValueError, match="duplicate"):
        CoefficientAssignment.from_json_dict(doc)
    with pytest.raises(ValueError, match="keys"):
        CoefficientAssignment.from_json_dict({"r": 1, "k": 2, "s": 1})


@pytest.mark.parametrize(
    "field,value", [("r", 1.9), ("k", True), ("s", "1"), ("i", [1.7]), ("alpha", [0.2, 1])]
)
def test_assignment_json_refuses_non_integer_fields(field, value):
    doc = CoefficientAssignment.random(P121, seed=3).to_json_dict()
    if field in doc:
        doc[field] = value
    else:
        doc["values"][0][field] = value
    with pytest.raises(ValueError, match=f"{field} must be"):
        CoefficientAssignment.from_json_dict(doc)


@pytest.mark.parametrize("values", [5, [5], None, "abc", [[1, 2]], [None], {"i": [1]}])
def test_assignment_json_refuses_wrongly_shaped_values(values):
    doc = dict(CoefficientAssignment.random(P121, seed=3).to_json_dict(), values=values)
    with pytest.raises(ValueError, match="value object"):
        CoefficientAssignment.from_json_dict(doc)


@pytest.mark.parametrize("doc", [None, 5, "rks", [["r"]], ["r", "k", "s", "values"]])
def test_json_documents_must_be_objects(doc):
    with pytest.raises(ValueError, match="assignment object needs keys r, k, s, values"):
        CoefficientAssignment.from_json_dict(doc)
    with pytest.raises(ValueError, match="table object needs keys r, k, s, cells"):
        LiftTable.from_json_dict(doc)


def test_both_documents_read_their_parameters_alike():
    for what, field in (("assignment", "values"), ("table", "cells")):
        doc = {"r": 30, "k": 30, "s": 1, field: "not read"}
        assert read_params(doc, what, field) == LiftParams(AlgebraParams(30, 30), 1)
        with pytest.raises(ValueError, match="arity must be non-negative"):
            read_params(dict(doc, s=-1), what, field)
        with pytest.raises(ValueError, match=f"{what} object needs keys r, k, s, {field}"):
            read_params({"r": 1, "k": 1, "s": 1}, what, field)


# -- construction -----------------------------------------------------------------


def test_construct_frozen_hand_trace():
    values = {
        FreeCell((1,), (0, 0)): Fraction(5),
        FreeCell((1,), (0, 1)): Fraction(11),
        FreeCell((2,), (0, 0)): Fraction(7),
    }
    table = construct(CoefficientAssignment(P121, values))
    assert table.cells == (
        (Fraction(5), Fraction(0), Fraction(11)),
        (Fraction(7), Fraction(-11), Fraction(0)),
    )


def test_construct_zero_assignment_gives_zero_table():
    table = construct(CoefficientAssignment.zeros(P222))
    assert all(v == 0 for row in table.cells for v in row)


def test_construct_with_no_free_cells_gives_zero_table():
    params = lift_params(0, 2, 1)
    assert free_cells(params) == []
    table = construct(CoefficientAssignment(params, {}))
    assert all(v == 0 for row in table.cells for v in row)


def test_construct_zero_arity_copies_the_assignment():
    params = lift_params(2, 2, 0)
    a = CoefficientAssignment.random(params, seed=2)
    table = construct(a)
    assert table.cells == (tuple(a.values[c] for c in free_cells(params)),)


@pytest.mark.parametrize("r,k,s", SMALL_GRID)
def test_roundtrip_on_seeded_assignments(r, k, s):
    params = lift_params(r, k, s)
    for seed in range(5):
        a = CoefficientAssignment.random(params, seed=seed)
        assert extract_coefficients(construct(a)) == a


@given(assignments(P222))
def test_roundtrip_property(a):
    assert extract_coefficients(construct(a)) == a


@given(assignments(P121), assignments(P121))
def test_construct_is_linear(a, b):
    x, y = Fraction(3, 2), Fraction(-2)
    combo = {c: x * v + y * b.values[c] for c, v in a.values.items()}
    lhs = construct(CoefficientAssignment(P121, combo))
    ta, tb = construct(a), construct(b)
    rhs = tuple(
        tuple(x * u + y * v for u, v in zip(ra, rb)) for ra, rb in zip(ta.cells, tb.cells)
    )
    assert lhs.cells == rhs


# -- tables ------------------------------------------------------------------------


def test_table_shape_validation():
    with pytest.raises(ValueError, match="rows"):
        LiftTable(P121, ((Fraction(0),) * 3,))
    with pytest.raises(ValueError, match="columns"):
        LiftTable(P121, ((Fraction(0),) * 2, (Fraction(0),) * 2))


BAD_COEFFICIENTS = [0.5, True, " 3 ", "2", pytest.param("9" * 5000, id="5000-digits")]


@pytest.mark.parametrize("c", BAD_COEFFICIENTS)
def test_with_cell_refuses_inexact_bool_and_text_values(c):
    t = construct(CoefficientAssignment.zeros(P121))
    with pytest.raises(TypeError, match="refused"):
        t.with_cell((2,), (1, 0), c)


@pytest.mark.parametrize("c", BAD_COEFFICIENTS)
def test_table_cells_refuse_inexact_bool_and_text_values(c):
    with pytest.raises(TypeError, match="refused"):
        LiftTable(P121, ((Fraction(0), c, Fraction(0)), (Fraction(0),) * 3))


@pytest.mark.parametrize("c", BAD_COEFFICIENTS)
def test_assignments_refuse_inexact_bool_and_text_values(c):
    vals = dict.fromkeys(free_cells(P121), Fraction(0))
    vals[free_cells(P121)[0]] = c
    with pytest.raises(TypeError, match="refused"):
        CoefficientAssignment(P121, vals)


def test_with_cell_is_a_copy():
    t = construct(CoefficientAssignment.zeros(P121))
    u = t.with_cell((2,), (1, 0), Fraction(4))
    assert t.cell((2,), (1, 0)) == 0
    assert u.cell((2,), (1, 0)) == 4


def test_table_json_roundtrip_and_errors():
    t = construct(CoefficientAssignment.random(P121, seed=4))
    assert LiftTable.from_json_dict(t.to_json_dict()) == t

    doc = t.to_json_dict()
    doc["cells"] = doc["cells"][1:]
    with pytest.raises(ValueError, match="missing cell"):
        LiftTable.from_json_dict(doc)

    doc = t.to_json_dict()
    doc["cells"] = doc["cells"] + [doc["cells"][0]]
    with pytest.raises(ValueError, match="duplicate"):
        LiftTable.from_json_dict(doc)

    doc = t.to_json_dict()
    doc["cells"] = doc["cells"] + [{"i": [2], "alpha": [9, 9], "v": "1"}]
    with pytest.raises(ValueError, match="unexpected|missing"):
        LiftTable.from_json_dict(doc)


@pytest.mark.parametrize(
    "field,value", [("r", 1.9), ("k", False), ("s", "1"), ("i", [2.0]), ("alpha", ["1", 0])]
)
def test_table_json_refuses_non_integer_fields(field, value):
    doc = construct(CoefficientAssignment.random(P121, seed=4)).to_json_dict()
    if field in doc:
        doc[field] = value
    else:
        doc["cells"][0][field] = value
    with pytest.raises(ValueError, match=f"{field} must be"):
        LiftTable.from_json_dict(doc)


@pytest.mark.parametrize("cells", [7, [7], None, "abc", [[1, 2]], [{"i": [1]}]])
def test_table_json_refuses_wrongly_shaped_cells(cells):
    doc = construct(CoefficientAssignment.random(P121, seed=4)).to_json_dict()
    with pytest.raises(ValueError, match="cell object"):
        LiftTable.from_json_dict(dict(doc, cells=cells))


def test_table_json_is_row_major():
    t = construct(CoefficientAssignment.random(P121, seed=4))
    doc = t.to_json_dict()
    keys = [(tuple(c["i"]), tuple(c["alpha"])) for c in doc["cells"]]
    expected = [
        (axes, alpha) for axes in P121.rows for alpha in P121.algebra.basis
    ]
    assert keys == expected


# -- evaluation ---------------------------------------------------------------------


def monomial_value(table: LiftTable, gammas, delta) -> Fraction:
    """``TableEvaluator`` on basis monomials given as exponent tuples."""
    index = table.params.algebra.basis_index
    return TableEvaluator(table).monomials_by_index(
        tuple(index[tuple(g)] for g in gammas), index[tuple(delta)]
    )


def test_lookup_skew_signs_and_repeats():
    t = construct(CoefficientAssignment.random(P222, seed=7))
    assert lookup_skew(t, (2, 1), (0, 0)) == -t.cell((1, 2), (0, 0))
    assert lookup_skew(t, (1, 2), (1, 0)) == t.cell((1, 2), (1, 0))
    assert lookup_skew(t, (1, 1), (0, 0)) == 0


def test_lookup_skew_validation():
    t = construct(CoefficientAssignment.random(P222, seed=7))
    with pytest.raises(ValueError, match="axes"):
        lookup_skew(t, (1,), (0, 0))
    with pytest.raises(ValueError, match="range"):
        lookup_skew(t, (0, 1), (0, 0))
    with pytest.raises(ValueError, match="basis"):
        lookup_skew(t, (1, 2), (9, 9))
    for axes, alpha in [
        ((1.0, 2), (0, 0)),
        ((True, 2), (0, 0)),
        ((1, "2"), (0, 0)),
        ((1, 2), (True, 0)),
        ((1, 2), (0, 1.0)),
    ]:
        with pytest.raises(ValueError, match="must be an integer"):
            lookup_skew(t, axes, alpha)


@pytest.mark.parametrize("r,k,s", [(2, 2, 1), (2, 2, 2), (1, 2, 2), (3, 1, 1), (2, 3, 3)])
def test_evaluation_matches_product_rule_recursion(r, k, s):
    params = lift_params(r, k, s)
    table = construct(CoefficientAssignment.random(params, seed=r * 100 + k * 10 + s))
    basis = params.algebra.basis
    for gammas in product(basis, repeat=s):
        for delta in basis:
            assert monomial_value(table, list(gammas), delta) == leibniz_eval(
                table, list(gammas), delta
            )


def test_single_generator_arguments_collapse_to_cells():
    t = construct(CoefficientAssignment.random(P121, seed=8))
    for j in (1, 2):
        gamma = tuple(int(i == j - 1) for i in range(2))
        for delta in P121.algebra.basis:
            assert monomial_value(t, [gamma], delta) == t.cell((j,), delta)


def test_constant_argument_evaluates_to_zero():
    t = construct(CoefficientAssignment.random(P121, seed=8))
    for delta in P121.algebra.basis:
        assert monomial_value(t, [(0, 0)], delta) == 0


def test_degree_overflow_evaluates_to_zero():
    t = construct(CoefficientAssignment.random(P222, seed=8))
    assert monomial_value(t, [(2, 0), (0, 2)], (1, 1)) == 0


def test_element_evaluation_is_multilinear_and_skew():
    table = construct(CoefficientAssignment.random(P222, seed=11))
    alg = P222.algebra
    rng = random.Random(13)

    def rand_coeffs():
        return {
            rng.randrange(alg.dim): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            for _ in range(3)
        }

    for _ in range(10):
        cu, cv = rand_coeffs(), rand_coeffs()
        u, v = AlgebraElement(alg, cu), AlgebraElement(alg, cv)
        w, d = AlgebraElement(alg, rand_coeffs()), AlgebraElement(alg, rand_coeffs())
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        combo = {pos: a * cu.get(pos, 0) + cv.get(pos, 0) for pos in cu.keys() | cv.keys()}
        assert evaluate(table, [AlgebraElement(alg, combo), w], d) == a * evaluate(
            table, [u, w], d
        ) + evaluate(table, [v, w], d)
        assert evaluate(table, [u, v], d) == -evaluate(table, [v, u], d)
        assert evaluate(table, [u, u], d) == 0


def test_element_evaluation_agrees_with_monomial_evaluation():
    table = construct(CoefficientAssignment.random(P222, seed=12))
    alg = P222.algebra
    for g1 in alg.basis:
        for g2 in alg.basis:
            for d in alg.basis:
                args = [AlgebraElement.from_terms(alg, {g: 1}) for g in (g1, g2)]
                got = evaluate(table, args, AlgebraElement.from_terms(alg, {d: 1}))
                assert got == monomial_value(table, [g1, g2], d)


def test_element_evaluation_validation():
    table = construct(CoefficientAssignment.random(P222, seed=12))
    alg = P222.algebra
    one = AlgebraElement(alg, {0: 1})
    with pytest.raises(ValueError, match="argument"):
        evaluate(table, [one], one)
    for other in (AlgebraParams(1, 2), AlgebraParams(2, 3)):
        foreign = AlgebraElement(other, {0: 1})
        with pytest.raises(ValueError, match="parameters"):
            evaluate(table, [one, foreign], one)
