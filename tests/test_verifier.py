"""Exhaustive table checks: valid tables pass, perturbed tables fail exactly
when the perturbation leaves the solution space; skew-symmetry holds on
every table by its layout; the product-rule sweep behind truncation visits
only the failing multidegree blocks and reports what the full sweep does."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift import (
    AlgebraParams,
    CoefficientAssignment,
    LiftParams,
    LiftTable,
    construct,
    dimension,
    run_all_checks,
)
from jetlift.lift_space import TableEvaluator, free_cells
from jetlift.verifier import check_leibniz_basis, check_skew, check_truncation
from support import (
    detectable_cells,
    reference_check_leibniz_basis,
    reference_check_skew,
    reference_check_truncation,
    reference_construct,
    reference_run_all_checks,
)

P121 = LiftParams(AlgebraParams(1, 2), 1)

VALID_GRID = [
    (1, 1, 1),
    (1, 2, 1),
    (2, 1, 1),
    (2, 2, 1),
    (1, 2, 2),
    (2, 2, 2),
    (1, 1, 0),
    (2, 2, 0),
    (0, 2, 1),
    (3, 1, 2),
    (1, 3, 3),
]


def lift_params(r: int, k: int, s: int) -> LiftParams:
    return LiftParams(AlgebraParams(r, k), s)


def random_table(params: LiftParams, seed: int = 0):
    return construct(CoefficientAssignment.random(params, seed=seed))


@pytest.mark.parametrize("r,k,s", VALID_GRID)
def test_constructed_tables_pass_all_checks(r, k, s):
    params = lift_params(r, k, s)
    rep = run_all_checks(random_table(params, seed=r + 10 * k + 100 * s))
    assert rep.passed, rep.failures[:10]


def test_case_counts_frozen_example():
    rep = run_all_checks(random_table(P121))
    assert rep.cases == {"skew": 0, "leibniz": 27, "truncation": 3}


def test_zero_arity_checks_are_vacuous():
    rep = run_all_checks(random_table(lift_params(2, 2, 0)))
    assert rep.passed
    assert rep.cases == {"skew": 0, "leibniz": 0, "truncation": 0}


@pytest.mark.parametrize(
    "r,k,s", [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)]
)
def test_corruption_dichotomy(r, k, s):
    """Perturbing one cell is caught exactly on the detectable cells.

    The detectable set comes from an independent criterion (is the indicator
    table at the cell itself a solution?), so this pins both the checks and
    the uniqueness of completions: no false alarms, no misses.
    """
    params = lift_params(r, k, s)
    table = random_table(params, seed=42)
    assert run_all_checks(table).passed
    detectable = set(detectable_cells(params))
    for axes in params.rows:
        for alpha in params.algebra.basis:
            bad = table.with_cell(
                axes, alpha, table.cell(axes, alpha) + Fraction(3, 2)
            )
            rep = run_all_checks(bad)
            assert rep.passed == ((axes, alpha) not in detectable), (axes, alpha)


def test_corruption_witness_names_the_failing_checks():
    table = random_table(P121, seed=1)
    bad = table.with_cell((2,), (1, 0), table.cell((2,), (1, 0)) + 1)
    rep = run_all_checks(bad)
    assert not rep.passed
    kinds = {f.check for f in rep.failures}
    assert "truncation" in kinds
    assert "leibniz" in kinds
    trunc = [f for f in rep.failures if f.check == "truncation"]
    assert trunc[0].witness == ((), (1, 1))
    assert trunc[0].expected == 0 and trunc[0].actual != 0


def test_individual_checks_cover_their_own_ground():
    table = random_table(lift_params(2, 2, 2), seed=3)
    assert check_skew(table).passed
    assert check_leibniz_basis(table).passed
    assert check_truncation(table).passed
    assert check_skew(table).cases["skew"] > 0
    assert check_truncation(table).cases["truncation"] > 0


@pytest.mark.parametrize("r,k,s", [(1, 2, 2), (2, 2, 2), (1, 2, 1)])
def test_all_slots_mode_agrees_on_validity(r, k, s):
    params = lift_params(r, k, s)
    good = random_table(params, seed=5)
    assert run_all_checks(good, all_slots=True).passed
    for axes, alpha in detectable_cells(params):
        bad = good.with_cell(axes, alpha, good.cell(axes, alpha) + 1)
        assert not run_all_checks(bad, all_slots=True).passed
        break


def test_all_slots_counts_scale_with_arity():
    table = random_table(lift_params(1, 2, 2), seed=6)
    last_only = check_leibniz_basis(table)
    both = check_leibniz_basis(table, all_slots=True)
    assert both.cases["leibniz"] == 2 * last_only.cases["leibniz"]
    assert both.passed


# -- pruned sweeps against the unpruned references ---------------------------

# Every acceptance-grid point whose product-rule sweep has at most 200,000
# basis tuples per slot, so the unpruned references stay affordable.
EQUIVALENCE_GRID = [
    (r, k, s)
    for r in (1, 2, 3)
    for k in (1, 2, 3)
    for s in range(4)
    if lift_params(r, k, s).algebra.dim ** (s + 2) <= 200_000
]


def sweep_outcome(rep):
    return list(rep.cases.items()), [
        (f.check, f.witness, f.expected, f.actual) for f in rep.failures
    ]


def assert_run_matches_reference(table):
    """``run_all_checks`` reports what the unpruned sweeps over every block
    report: the same cases and the same failures in the same order."""
    for all_slots in (False, True):
        fast = run_all_checks(table, all_slots=all_slots)
        slow = reference_run_all_checks(table, all_slots=all_slots)
        assert sweep_outcome(fast) == sweep_outcome(slow), all_slots


def assert_sweeps_match_reference(table):
    # One evaluator for both pruned product-rule sweeps.
    ev = TableEvaluator(table)
    pairs = [
        (check_skew(table), reference_check_skew(table)),
        (check_truncation(table), reference_check_truncation(table)),
    ]
    for all_slots in (False, True):
        fast = check_leibniz_basis(table, all_slots=all_slots, evaluator=ev)
        pairs.append((fast, reference_check_leibniz_basis(table, all_slots=all_slots)))
    for fast, slow in pairs:
        assert sweep_outcome(fast) == sweep_outcome(slow)


@pytest.mark.parametrize("r,k,s", EQUIVALENCE_GRID)
def test_pruned_sweeps_match_the_unpruned_reference(r, k, s):
    """Same case counts and the same failures in the same order, on a valid
    table and on a table with one detectable cell perturbed."""
    params = lift_params(r, k, s)
    table = random_table(params, seed=1000 + 100 * r + 10 * k + s)
    assert_sweeps_match_reference(table)
    targets = detectable_cells(params)
    if targets:
        rng = random.Random(100 * r + 10 * k + s)
        axes, alpha = targets[rng.randrange(len(targets))]
        bad = table.with_cell(axes, alpha, table.cell(axes, alpha) + Fraction(5, 3))
        assert not run_all_checks(bad).passed
        assert_sweeps_match_reference(bad)
        assert_run_matches_reference(bad)


def wide_assignment(params: LiftParams, seed: int) -> CoefficientAssignment:
    """Every free value a 40-bit rational, and three of them of about 3,900
    digits, near the 4,000 the reader accepts; every denominator is a
    multiple of 6, so the denominators in a sum share factors."""
    rng = random.Random(seed)
    cells = free_cells(params)
    wide = set(rng.sample(range(len(cells)), 3))
    values = {}
    for i, cell in enumerate(cells):
        bits = 13_000 if i in wide else 40
        num = rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << bits - 1)
        values[cell] = Fraction(num, 6 * (rng.getrandbits(bits) | 1))
    return CoefficientAssignment(params, values)


@pytest.mark.parametrize("r,k,s", [(1, 3, 2), (2, 2, 2), (2, 3, 1), (3, 2, 1), (2, 3, 2)])
def test_wide_rational_tables_match_the_references(r, k, s):
    """Integer sums over each sum's own denominators give what adding
    ``Fraction``s term by term gives: the same completed table, and the
    same cases, failures and witness values on it and on a copy with one
    bound cell moved by a 40-bit rational."""
    params = lift_params(r, k, s)
    assignment = wide_assignment(params, seed=4000 + 100 * r + 10 * k + s)
    table = construct(assignment)
    assert table == reference_construct(assignment)
    assert run_all_checks(table).passed
    assert_sweeps_match_reference(table)
    bound = [
        (axes, alpha)
        for axes in params.rows
        for alpha in params.algebra.basis
        if (axes, alpha) not in assignment.values
    ]
    axes, alpha = random.Random(r + k + s).choice(bound)
    bad = table.with_cell(axes, alpha, table.cell(axes, alpha) + Fraction(2**40 + 1, 3 * 2**39))
    assert not run_all_checks(bad).passed
    assert_sweeps_match_reference(bad)
    assert_run_matches_reference(bad)


def random_cells_table(params: LiftParams, seed: int) -> LiftTable:
    """A table whose every cell is random, so almost never in the lift
    space."""
    rng = random.Random(seed)
    return LiftTable(
        params,
        tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in params.algebra.basis)
            for _ in params.rows
        ),
    )


@pytest.mark.parametrize("r,k,s", EQUIVALENCE_GRID)
def test_the_table_layout_makes_every_table_skew_symmetric(r, k, s):
    """``check_skew`` evaluates nothing, since ``TableEvaluator`` is
    skew-symmetric on every table; the unpruned sweep checks that premise
    on tables with random cells and counts the same cases."""
    params = lift_params(r, k, s)
    table = random_cells_table(params, seed=2000 + 100 * r + 10 * k + s)
    rep = reference_check_skew(table)
    assert rep.passed, rep.failures[:3]
    assert rep.cases == check_skew(table).cases


class NoSymmetryEvaluator:
    """Stands in for ``TableEvaluator`` with only the three zeros the pruned
    product-rule sweep relies on: a constant argument, a repeated argument,
    or argument and target degrees summing past r + s.  Every other value
    is a positive number that depends on the argument order, so every
    instance the sweeps reach fails, and the failure lists show exactly
    which instances were reached and in what order."""

    def __init__(self, params: LiftParams):
        self.degrees = params.algebra.degrees
        self.cap = params.algebra.r + params.s

    def monomials_by_index(self, gammas, delta):
        if (
            0 in gammas
            or len(set(gammas)) < len(gammas)
            or sum(self.degrees[g] for g in gammas + (delta,)) > self.cap
        ):
            return Fraction(0)
        return Fraction(1 + sum(7**i * x for i, x in enumerate(gammas + (delta,))) % 101)


@pytest.mark.parametrize("r,k,s", [(1, 2, 1), (2, 2, 2), (1, 3, 3), (2, 3, 2), (2, 2, 3)])
def test_pruned_sweeps_reach_the_same_instances_as_the_reference(r, k, s):
    params = lift_params(r, k, s)
    table = random_table(params)
    ev = NoSymmetryEvaluator(params)
    for all_slots in (False, True):
        fast = check_leibniz_basis(table, all_slots=all_slots, evaluator=ev)
        slow = reference_check_leibniz_basis(table, all_slots=all_slots, evaluator=ev)
        assert fast.failures
        assert sweep_outcome(fast) == sweep_outcome(slow), all_slots


@pytest.mark.parametrize("r,k,s", [(1, 2, 1), (2, 2, 2), (1, 3, 3), (2, 3, 2), (2, 2, 3)])
def test_the_skew_reference_fails_an_evaluator_without_the_sorting_sign(r, k, s):
    params = lift_params(r, k, s)
    rep = reference_check_skew(random_table(params), evaluator=NoSymmetryEvaluator(params))
    assert bool(rep.failures) == (s >= 2)


SMALL_POINTS = [(1, 2, 1), (2, 1, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2), (1, 3, 2), (1, 3, 3)]


def cell_bumps(max_size: int):
    """Up to ``max_size`` (cell pick, increment) pairs for ``perturbed``."""
    return st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        min_size=1,
        max_size=max_size,
    )


def perturbed(point, seed, bumps):
    """A constructed table with each picked cell moved by its increment."""
    params = lift_params(*point)
    cells = [(axes, alpha) for axes in params.rows for alpha in params.algebra.basis]
    table = random_table(params, seed=seed)
    for pick, eps in bumps:
        axes, alpha = cells[pick % len(cells)]
        table = table.with_cell(axes, alpha, table.cell(axes, alpha) + eps)
    return table


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_POINTS), st.integers(0, 10**6), cell_bumps(5))
def test_pruned_sweeps_match_the_reference_on_perturbed_tables(point, seed, bumps):
    assert_sweeps_match_reference(perturbed(point, seed, bumps))


# Random cells fail every block, so the sweep's failures from many blocks
# must merge into the reference's global order.
@pytest.mark.parametrize("r,k,s", SMALL_POINTS + [(2, 3, 2), (3, 2, 2)])
def test_run_all_checks_matches_the_reference_on_random_cell_tables(r, k, s):
    table = random_cells_table(lift_params(r, k, s), seed=3000 + 100 * r + 10 * k + s)
    assert not run_all_checks(table).passed
    assert_run_matches_reference(table)


# -- the product rule and truncation decide alike ----------------------------

AGREEMENT_POINTS = SMALL_POINTS + [(3, 2, 1), (3, 2, 2), (2, 3, 1), (2, 3, 2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(AGREEMENT_POINTS), st.integers(0, 10**6), cell_bumps(3))
def test_product_rule_and_truncation_agree_for_positive_order(point, seed, bumps):
    """For r >= 1 the product rule on basis tuples and the truncation
    identities accept the same tables (proof in the verifier docstring)."""
    table = perturbed(point, seed, bumps)
    assert check_leibniz_basis(table).passed == check_truncation(table).passed


@pytest.mark.parametrize("k,s", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_at_order_zero_only_truncation_sees_the_cells(k, s):
    """At r = 0 every argument monomial is constant, so the product-rule
    sweep reads no cell and passes any table; truncation rejects every
    nonzero cell, and the lift space is zero."""
    params = lift_params(0, k, s)
    assert dimension(params) == 0
    zero = LiftTable(params, tuple((Fraction(0),) for _ in params.rows))
    assert check_leibniz_basis(zero).passed and check_truncation(zero).passed
    for axes in params.rows:
        bad = zero.with_cell(axes, (0,) * k, Fraction(2, 3))
        assert check_leibniz_basis(bad).passed
        assert not check_truncation(bad).passed


# -- truncation picks the blocks the product-rule sweep visits ---------------

ORDER_ZERO_POINTS = [(0, 1, 1), (0, 2, 1), (0, 2, 2), (0, 3, 2), (0, 3, 3)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(AGREEMENT_POINTS + ORDER_ZERO_POINTS),
    st.integers(0, 10**6),
    cell_bumps(3),
)
def test_run_all_checks_matches_the_reference_on_perturbed_tables(point, seed, bumps):
    assert_run_matches_reference(perturbed(point, seed, bumps))


def multidegree(params: LiftParams, gammas, delta):
    exps = [params.algebra.basis[x] for x in gammas + (delta,)]
    return tuple(map(sum, zip(*exps)))


def test_a_clean_table_is_decided_without_evaluating_a_tuple(monkeypatch):
    params = lift_params(3, 3, 3)
    table = random_table(params, seed=11)

    def refuse(self, gammas, delta):
        raise AssertionError(f"evaluated {gammas}, {delta}")

    monkeypatch.setattr(TableEvaluator, "_compute", refuse)
    for all_slots in (False, True):
        rep = run_all_checks(table, all_slots=all_slots)
        assert rep.passed
        assert rep.cases["leibniz"] == (3 if all_slots else 1) * params.algebra.dim**5


@pytest.mark.parametrize("r,k,s", [(3, 3, 3), (2, 4, 3), (3, 3, 2)])
def test_a_corrupted_cell_is_swept_only_in_its_own_block(monkeypatch, r, k, s):
    """Every tuple the sweep evaluates has the corrupted cell's multidegree
    ``e_I + alpha``."""
    params = lift_params(r, k, s)
    table = random_table(params, seed=12)
    axes, alpha = detectable_cells(params)[-1]
    bad = table.with_cell(axes, alpha, table.cell(axes, alpha) + 1)
    block = list(alpha)
    for j in axes:
        block[j - 1] += 1
    seen = []
    compute = TableEvaluator._compute

    def record(self, gammas, delta):
        seen.append(multidegree(params, gammas, delta))
        return compute(self, gammas, delta)

    monkeypatch.setattr(TableEvaluator, "_compute", record)
    rep = run_all_checks(bad, all_slots=True)
    assert {f.check for f in rep.failures} == {"leibniz", "truncation"}
    assert seen and set(seen) == {tuple(block)}
