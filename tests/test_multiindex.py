"""Exponent-vector combinatorics: frozen examples plus algebraic properties."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetlift import (
    add,
    binomial,
    degree,
    enumerate_degree_at_most,
    enumerate_degree_exactly,
    grlex_key,
    sub_unit,
    support,
    unit,
)
from jetlift.multiindex import capped_binomial
from support import brute_monomials


def multi_indices(k: int, max_exp: int = 3):
    return st.lists(st.integers(0, max_exp), min_size=k, max_size=k).map(tuple)


def pairs_same_length():
    return st.integers(1, 4).flatmap(
        lambda k: st.tuples(multi_indices(k), multi_indices(k))
    )


# -- basic operations ----------------------------------------------------------


def test_degree_examples():
    assert degree(()) == 0
    assert degree((0, 0, 0)) == 0
    assert degree((1, 2)) == 3


def test_add_examples():
    assert add((1, 0), (0, 2)) == (1, 2)
    assert add((), ()) == ()
    with pytest.raises(ValueError):
        add((1, 0), (1,))


def test_unit_examples():
    assert unit(3, 2) == (0, 1, 0)
    assert unit(1, 1) == (1,)
    with pytest.raises(ValueError):
        unit(2, 3)
    with pytest.raises(ValueError):
        unit(2, 0)


def test_sub_unit_examples():
    assert sub_unit((2, 1), 1) == (1, 1)
    assert sub_unit((0, 3), 2) == (0, 2)
    with pytest.raises(ValueError):
        sub_unit((0, 1), 1)
    with pytest.raises(ValueError):
        sub_unit((1, 1), 3)


def test_support_examples():
    assert support((3, 0, 1)) == (1, 3)
    assert support((0, 0)) == ()
    assert support(()) == ()


@given(pairs_same_length())
def test_degree_is_additive(pair):
    a, b = pair
    assert degree(add(a, b)) == degree(a) + degree(b)


@given(st.integers(1, 5).flatmap(lambda k: st.tuples(multi_indices(k), st.integers(1, k))))
def test_sub_unit_inverts_add_unit(case):
    a, j = case
    assert sub_unit(add(a, unit(len(a), j)), j) == a


# -- enumeration ---------------------------------------------------------------


def test_enumeration_frozen_examples():
    assert enumerate_degree_at_most(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert enumerate_degree_at_most(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    assert enumerate_degree_at_most(1, 2) == [(0,), (1,), (2,)]
    assert enumerate_degree_exactly(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_degree_exactly(1, 3) == [(3,)]
    assert enumerate_degree_exactly(3, 0) == [(0, 0, 0)]


def test_enumeration_degenerate_variable_counts():
    assert enumerate_degree_at_most(0, 5) == [()]
    assert enumerate_degree_exactly(0, 0) == [()]
    assert enumerate_degree_exactly(0, 2) == []


def test_enumeration_rejects_negative_arguments():
    with pytest.raises(ValueError):
        enumerate_degree_at_most(-1, 2)
    with pytest.raises(ValueError):
        enumerate_degree_at_most(2, -1)
    with pytest.raises(ValueError):
        enumerate_degree_exactly(-1, 0)


@given(st.integers(0, 4), st.integers(0, 5))
def test_enumeration_matches_box_filter(k, d):
    got = enumerate_degree_at_most(k, d)
    assert got == brute_monomials(k, d)
    assert len(got) == binomial(d + k, k)
    keys = [grlex_key(a) for a in got]
    assert keys == sorted(keys)
    assert len(set(got)) == len(got)


@given(st.integers(0, 4), st.integers(0, 5))
def test_exact_slices_partition_the_at_most_list(k, d):
    whole = enumerate_degree_at_most(k, d)
    concat = []
    for v in range(d + 1):
        layer = enumerate_degree_exactly(k, v)
        assert all(degree(a) == v for a in layer)
        concat.extend(layer)
    assert concat == whole


# -- binomial conventions ------------------------------------------------------


def test_binomial_agrees_with_math_comb_in_range():
    for n in range(13):
        for m in range(n + 1):
            assert binomial(n, m) == math.comb(n, m)


def test_binomial_edge_conventions():
    assert binomial(-1, 0) == 1
    assert binomial(-3, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(2, 5) == 0
    assert binomial(5, -1) == 0
    assert binomial(-2, 3) == 0


@given(st.integers(0, 60), st.integers(0, 70), st.integers(0, 10**6))
def test_capped_binomial_is_binomial_up_to_the_cap(n, m, cap):
    exact = binomial(n, m)
    assert capped_binomial(n, m, cap) == (exact if exact <= cap else cap + 1)


def test_capped_binomial_stops_early_on_huge_arguments():
    assert capped_binomial(10**12, 5 * 10**11, 10**6) == 10**6 + 1
    assert capped_binomial(10**12, 10**12, 10**6) == 1
    assert capped_binomial(3, 10**12, 10**6) == 0


@given(st.integers(1, 60), st.integers(1, 60))
def test_binomial_pascal_identity(n, m):
    assert binomial(n, m) == binomial(n - 1, m - 1) + binomial(n - 1, m)
