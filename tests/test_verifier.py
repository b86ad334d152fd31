"""Exhaustive table checks: valid tables pass, perturbed tables fail exactly
when the perturbation leaves the solution space."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlift import AlgebraParams, CoefficientAssignment, LiftParams, construct, run_all_checks
from jetlift.lift_space import TableEvaluator
from jetlift.verifier import check_leibniz_basis, check_skew, check_truncation
from support import (
    detectable_cells,
    reference_check_leibniz_basis,
    reference_check_skew,
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
    assert rep.passed, rep.to_json_dict()


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


def test_report_json_shape_and_witness_limit():
    table = random_table(P121, seed=8)
    bad = table.with_cell((2,), (1, 0), table.cell((2,), (1, 0)) + 1)
    rep = run_all_checks(bad)
    doc = rep.to_json_dict(witness_limit=2)
    assert doc["passed"] is False
    assert set(doc["checks"]) == {"skew", "leibniz", "truncation"}
    assert doc["checks"]["leibniz"]["cases"] == 27
    assert len(doc["witnesses"]) <= 2
    assert all(
        set(w) == {"check", "witness", "expected", "actual"} for w in doc["witnesses"]
    )


def test_reports_merge_counts_and_failures():
    table = random_table(P121, seed=9)
    a = check_skew(table)
    b = check_truncation(table)
    merged = a.merged(b)
    assert merged.cases == {"skew": 0, "truncation": 3}
    assert merged.passed


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
    return rep.cases, [(f.check, f.witness, f.expected, f.actual) for f in rep.failures]


def assert_sweeps_match_reference(table):
    # One evaluator for every pruned sweep, as run_all_checks shares one.
    ev = TableEvaluator(table)
    pairs = [(check_skew(table, evaluator=ev), reference_check_skew(table))]
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


class NoSymmetryEvaluator:
    """Stands in for ``TableEvaluator`` with only the two zeros the pruned
    sweeps rely on: a constant argument, or argument and target degrees
    summing past r + s.  Every other value is a positive number that
    depends on the argument order, so every instance the sweeps reach
    fails, and the failure lists show exactly which instances were reached
    and in what order."""

    def __init__(self, params: LiftParams):
        self.degrees = params.algebra.degrees
        self.cap = params.algebra.r + params.s

    def monomials_by_index(self, gammas, delta):
        if 0 in gammas or sum(self.degrees[g] for g in gammas + (delta,)) > self.cap:
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
    fast = check_skew(table, evaluator=ev)
    assert sweep_outcome(fast) == sweep_outcome(reference_check_skew(table, evaluator=ev))
    assert bool(fast.failures) == (s >= 2)


SMALL_POINTS = [(1, 2, 1), (2, 1, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2), (1, 3, 2), (1, 3, 3)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SMALL_POINTS),
    st.integers(0, 10**6),
    st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_pruned_sweeps_match_the_reference_on_perturbed_tables(point, seed, bumps):
    params = lift_params(*point)
    cells = [(axes, alpha) for axes in params.rows for alpha in params.algebra.basis]
    table = random_table(params, seed=seed)
    for pick, eps in bumps:
        axes, alpha = cells[pick % len(cells)]
        table = table.with_cell(axes, alpha, table.cell(axes, alpha) + eps)
    assert_sweeps_match_reference(table)
