"""The truncated polynomial algebra: basis bookkeeping, the monomial product
table, and the elements ``evaluate`` reads."""

from fractions import Fraction

import pytest

from jetlift import AlgebraElement, AlgebraParams
from jetlift.multiindex import binomial, support, unit
from support import multiply_monomials

P22 = AlgebraParams(2, 2)


# -- parameters and basis ------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams(-1, 2)
    with pytest.raises(ValueError):
        AlgebraParams(2, -1)


@pytest.mark.parametrize(
    "r,k,field",
    [
        (True, 2, "truncation order"),
        (2.5, 2, "truncation order"),
        ("2", 2, "truncation order"),
        (2, False, "variable count"),
        (2, 1.0, "variable count"),
    ],
)
def test_params_refuse_non_integers(r, k, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        AlgebraParams(r, k)


def test_basis_frozen_example():
    p = AlgebraParams(1, 2)
    assert p.basis == ((0, 0), (1, 0), (0, 1))
    assert p.dim == 3
    assert p.basis_index[(0, 1)] == 2
    assert p.degrees == (0, 1, 1)
    assert p.supports == ((), (1,), (2,))


def test_supports_are_the_supports_of_the_basis():
    for r in range(4):
        for k in range(4):
            p = AlgebraParams(r, k)
            assert p.supports == tuple(support(a) for a in p.basis)


def test_dim_matches_binomial_on_grid():
    for r in range(5):
        for k in range(5):
            p = AlgebraParams(r, k)
            assert p.dim == binomial(r + k, k)
            assert len(p.basis) == p.dim
            if r >= 1:
                # x_i sits at basis position i, as the oracle's check_iso reads it.
                assert p.basis[1 : k + 1] == tuple(unit(k, i) for i in range(1, k + 1))


def test_scalar_algebras_are_one_dimensional():
    assert AlgebraParams(0, 3).basis == ((0, 0, 0),)
    assert AlgebraParams(3, 0).basis == ((),)


# -- monomial products ---------------------------------------------------------


def test_multiply_monomials_examples():
    assert multiply_monomials(P22, (1, 0), (1, 0)) == (2, 0)
    assert multiply_monomials(P22, (1, 0), (0, 1)) == (1, 1)
    assert multiply_monomials(P22, (1, 0), (0, 2)) is None
    assert multiply_monomials(P22, (0, 0), (0, 0)) == (0, 0)


def test_product_index_agrees_with_multiply_monomials():
    for r, k in [(1, 1), (1, 2), (2, 2), (3, 1)]:
        p = AlgebraParams(r, k)
        table = p.product_index
        for i, a in enumerate(p.basis):
            for j, b in enumerate(p.basis):
                got = table[i][j]
                direct = multiply_monomials(p, a, b)
                if direct is None:
                    assert got is None
                else:
                    assert p.basis[got] == direct
                assert got == table[j][i]


# -- elements ------------------------------------------------------------------


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        AlgebraElement(P22, {0: 0.5})
    with pytest.raises(TypeError):
        AlgebraElement.from_terms(P22, {(1, 0): 0.25})


@pytest.mark.parametrize(
    "c", [True, False, "1/2", " 3 ", pytest.param("9" * 5000, id="5000-digits")]
)
def test_bool_and_text_coefficients_are_refused(c):
    # A bool is not a number here, and a string is read by parse_rational
    # at the JSON boundary, under its digit caps, never coerced.
    with pytest.raises(TypeError, match="refused"):
        AlgebraElement(P22, {0: c})
    with pytest.raises(TypeError, match="refused"):
        AlgebraElement.from_terms(P22, {(1, 0): c})


def test_out_of_range_terms_are_refused():
    with pytest.raises(ValueError):
        AlgebraElement.from_terms(P22, {(3, 0): 1})
    with pytest.raises(ValueError):
        AlgebraElement(P22, {17: Fraction(1)})


@pytest.mark.parametrize("pos", [2.7, True, "3", None])
def test_element_refuses_non_integer_positions(pos):
    with pytest.raises(ValueError, match="basis position must be an integer"):
        AlgebraElement(P22, {pos: 1})


def test_from_terms_sums_coefficients_and_drops_zeros():
    e = AlgebraElement.from_terms(P22, {(0, 0): 1, (1, 1): Fraction(-2, 3), (0, 1): 0})
    assert e == AlgebraElement(P22, {0: Fraction(1), 4: Fraction(-2, 3)})
    assert AlgebraElement(P22, {1: 2, 2: 0}).coeffs == {1: Fraction(2)}
