"""Exact bivariate polynomial arithmetic: canonical form, ring laws, JSON."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grhopf import ONE, Q, T, ZERO, QTPolynomial


def poly(*terms):
    # terms as flat (q-exp, t-exp, coeff) triples
    return QTPolynomial(((qe, te), c) for qe, te, c in terms)


def test_zero_one_constants():
    assert ZERO.is_zero
    assert not ONE.is_zero
    assert ONE == 1
    assert ZERO.terms() == ()
    assert ONE.terms() == (((0, 0), 1),)


def test_duplicate_exponents_accumulate():
    p = poly((1, 0, 2), (1, 0, 3), (0, 0, 1))
    assert p == poly((1, 0, 5), (0, 0, 1))


def test_zero_coefficients_dropped():
    p = poly((2, 1, 4), (2, 1, -4), (0, 0, 7))
    assert p.terms() == (((0, 0), 7),)
    assert poly((3, 3, 5), (3, 3, -5)).is_zero


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        poly((-1, 0, 1))
    with pytest.raises(ValueError):
        poly((0, -2, 1))


def test_arithmetic_hand_values():
    p = Q + T                       # q + t
    assert p * p == Q * Q + 2 * Q * T + T * T
    assert (Q - T) * (Q + T) == Q * Q - T * T
    assert Q * 0 == ZERO
    assert (Q + 1) * (Q + 1) == Q * Q + 2 * Q + 1
    assert 1 - Q == ONE - Q
    assert -(Q - T) == T - Q


def test_monomial_and_const():
    assert QTPolynomial.monomial(2, 3) == Q * Q * T * T * T
    assert QTPolynomial.monomial(0, 0, -5) == QTPolynomial.const(-5)
    assert QTPolynomial.const(0) == ZERO


def test_int_equality():
    assert QTPolynomial.const(4) == 4
    assert ZERO == 0
    assert Q != 1


def test_str_canonical():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q * Q * T - 3 * Q + 1) == "q^2*t - 3*q + 1"
    assert str(-Q) == "-q"
    assert str(T * T) == "t^2"


def test_evaluate():
    p = Q * Q * T - 3 * Q + 1
    assert p.evaluate(1, 1) == -1
    assert p.evaluate(2, 3) == 12 - 6 + 1
    assert p.evaluate(0, 5) == 1
    assert p.evaluate(-1, -1) == -1 + 3 + 1


def test_specialize_kills_chosen_variable():
    p = Q * Q * T - 3 * Q + 1
    assert p.specialize(q_one=True, t_one=False) == T - 2
    assert p.specialize(q_one=False, t_one=True) == Q * Q - 3 * Q + 1
    assert p.specialize(True, True) == QTPolynomial.const(-1)
    assert p.specialize(False, False) == p


def test_swap_qt():
    p = Q * Q * T + 5 * T
    assert p.swap_qt() == T * T * Q + 5 * Q
    assert p.swap_qt().swap_qt() == p


def test_unit_monomials_are_shared():
    assert QTPolynomial.monomial(2, 1) is QTPolynomial.monomial(2, 1)
    assert QTPolynomial.monomial(0, 0) is ONE
    scaled = QTPolynomial.monomial(2, 1, 3)
    assert scaled is not QTPolynomial.monomial(2, 1, 3)
    assert scaled == QTPolynomial.monomial(2, 1, 3) == poly((2, 1, 3))
    fresh = poly((2, 1, 1))
    assert QTPolynomial.monomial(2, 1) == fresh
    assert hash(QTPolynomial.monomial(2, 1)) == hash(fresh)
    assert QTPolynomial.monomial(2, 1) != scaled


coeffs = st.integers(min_value=-6, max_value=6)
exps = st.integers(min_value=0, max_value=4)
polys = st.lists(
    st.tuples(st.tuples(exps, exps), coeffs), max_size=6
).map(QTPolynomial)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys, polys, st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_evaluation_is_ring_morphism(a, b, qv, tv):
    assert (a + b).evaluate(qv, tv) == a.evaluate(qv, tv) + b.evaluate(qv, tv)
    assert (a * b).evaluate(qv, tv) == a.evaluate(qv, tv) * b.evaluate(qv, tv)


@given(polys, coeffs)
def test_hash_consistent_with_eq(a, n):
    b = QTPolynomial(a.terms())
    assert a == b and hash(a) == hash(b)
    # a constant polynomial equals, and so hashes as, its integer
    c = QTPolynomial.const(n)
    assert c == n and hash(c) == hash(n)
    assert len({0, ZERO}) == len({1, ONE}) == len({-1, -ONE}) == 1


@given(polys)
def test_specialize_matches_evaluate(a):
    assert a.specialize(True, True) == a.evaluate(1, 1)
