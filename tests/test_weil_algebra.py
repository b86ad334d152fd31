"""The truncated polynomial algebra: basis bookkeeping and exact arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetlift import AlgebraElement, AlgebraParams
from jetlift.multiindex import binomial, support
from support import multiply_monomials

P22 = AlgebraParams(2, 2)


def elements(params: AlgebraParams, max_terms: int = 3):
    term = st.tuples(
        st.integers(0, params.dim - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )

    def build(ts):
        acc: dict[int, Fraction] = {}
        for pos, c in ts:
            acc[pos] = acc.get(pos, Fraction(0)) + c
        return AlgebraElement(params, acc)

    return st.lists(term, max_size=max_terms).map(build)


# -- parameters and basis ------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams(-1, 2)
    with pytest.raises(ValueError):
        AlgebraParams(2, -1)


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


# -- element arithmetic --------------------------------------------------------


def test_dual_number_square():
    p = AlgebraParams(1, 1)
    e = AlgebraElement.one(p) + AlgebraElement.monomial(p, (1,))
    sq = e * e
    assert sq.coefficient((0,)) == 1
    assert sq.coefficient((1,)) == 2


def test_truncation_kills_high_powers():
    p = AlgebraParams(1, 1)
    x = AlgebraElement.monomial(p, (1,))
    assert (x * x).is_zero()


def test_unit_and_zero():
    one = AlgebraElement.one(P22)
    zero = AlgebraElement.zero(P22)
    x1 = AlgebraElement.monomial(P22, (1, 0), Fraction(2, 3))
    assert one * x1 == x1
    assert x1 + zero == x1
    assert (x1 - x1).is_zero()
    assert zero.is_zero() and not x1.is_zero()


def test_add_scaled_and_scaling():
    x1 = AlgebraElement.monomial(P22, (1, 0))
    x2 = AlgebraElement.monomial(P22, (0, 1))
    combo = x1.add_scaled(Fraction(-2, 5), x2)
    assert combo == x1 + x2.scaled(Fraction(-2, 5))
    assert 3 * x1 == x1.scaled(3)
    assert (x1 * Fraction(1, 2)).coefficient((1, 0)) == Fraction(1, 2)


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        AlgebraElement(P22, {0: 0.5})
    with pytest.raises(TypeError):
        AlgebraElement.monomial(P22, (1, 0), 0.25)
    with pytest.raises(TypeError):
        AlgebraElement.monomial(P22, (1, 0)).scaled(1.5)


def test_out_of_range_terms_are_refused():
    with pytest.raises(ValueError):
        AlgebraElement.from_terms(P22, {(3, 0): 1})
    with pytest.raises(ValueError):
        AlgebraElement(P22, {17: Fraction(1)})
    with pytest.raises(ValueError):
        AlgebraElement.monomial(P22, (1, 0)).coefficient((5, 5))


def test_mixed_parameter_arithmetic_is_refused():
    other = AlgebraElement.one(AlgebraParams(1, 2))
    with pytest.raises(ValueError):
        AlgebraElement.one(P22) + other
    with pytest.raises(ValueError):
        AlgebraElement.one(P22) * other


@given(elements(P22), elements(P22), elements(P22))
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(elements(P22))
def test_nilpotent_part_dies_at_order_r_plus_one(a):
    nil = AlgebraElement(P22, {p: c for p, c in a.coeffs.items() if p != 0})
    assert (nil * nil * nil).is_zero()


# -- serialization and rendering -----------------------------------------------


@given(elements(P22))
def test_json_roundtrip(a):
    assert AlgebraElement.from_json_dict(a.to_json_dict()) == a


def test_json_frozen_shape():
    e = AlgebraElement.from_terms(P22, {(0, 0): 1, (1, 1): Fraction(-2, 3)})
    assert e.to_json_dict() == {
        "r": 2,
        "k": 2,
        "terms": [
            {"exp": [0, 0], "coeff": "1"},
            {"exp": [1, 1], "coeff": "-2/3"},
        ],
    }


def test_json_validation_errors():
    with pytest.raises(ValueError):
        AlgebraElement.from_json_dict({"r": 1, "k": 1})
    with pytest.raises(ValueError):
        AlgebraElement.from_json_dict(
            {"r": 1, "k": 1, "terms": [{"exp": [2], "coeff": "1"}]}
        )
    with pytest.raises(ValueError):
        AlgebraElement.from_json_dict(
            {"r": 1, "k": 1, "terms": [{"exp": [1], "c": "1"}]}
        )
    with pytest.raises(ValueError):
        AlgebraElement.from_json_dict(
            {"r": 1, "k": 1, "terms": [{"exp": [1], "coeff": "eleven"}]}
        )


@pytest.mark.parametrize(
    "field,value", [("r", 1.9), ("k", True), ("r", "2"), ("exp", [1.0, 0]), ("exp", 1)]
)
def test_json_refuses_non_integer_fields(field, value):
    doc = AlgebraElement.from_terms(P22, {(1, 0): 1}).to_json_dict()
    if field in doc:
        doc[field] = value
    else:
        doc["terms"][0][field] = value
    with pytest.raises(ValueError, match=f"{field} must be"):
        AlgebraElement.from_json_dict(doc)


@pytest.mark.parametrize("terms", [5, [5], None, "abc", [[1, 2]], [None], {"exp": [1]}])
def test_json_refuses_wrongly_shaped_terms(terms):
    doc = dict(AlgebraElement.from_terms(P22, {(1, 0): 1}).to_json_dict(), terms=terms)
    with pytest.raises(ValueError, match="term object"):
        AlgebraElement.from_json_dict(doc)


@pytest.mark.parametrize("doc", [None, 5, "rk", [["r"]]])
def test_json_document_must_be_an_object(doc):
    with pytest.raises(ValueError, match="element object needs keys r, k, terms"):
        AlgebraElement.from_json_dict(doc)


def test_str_rendering():
    assert str(AlgebraElement.zero(P22)) == "0"
    e = AlgebraElement.from_terms(
        P22, {(0, 0): 1, (1, 0): 2, (2, 0): 1, (1, 1): Fraction(1, 2)}
    )
    assert str(e) == "1 + 2*x1 + x1^2 + 1/2*x1*x2"
