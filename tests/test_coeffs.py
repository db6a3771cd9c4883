"""Scalar arithmetic in Q[k]: exactness, canonical form, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from walgebra.coeffs import Coeff, peval

F = Fraction

K = Coeff.level()


def test_constants_collapse():
    assert Coeff.of(6) * Coeff.of(F(1, 4)) == Coeff.of(F(3, 2))
    assert Coeff.of(F(1, 3)) + Coeff.of(F(2, 3)) == Coeff.of(1)
    assert not Coeff.of(0)
    assert Coeff.of(5).at_one() == 5


def test_level_polynomials():
    p = (K + Coeff.of(1)) * (K - Coeff.of(1))
    assert p == K * K - Coeff.of(1)
    assert p.at_one() == 0
    assert p.eval(F(3)) == 8


small_fracs = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def _coeff(coeffs):
    out = Coeff.of(0)
    p = Coeff.of(1)
    for c in coeffs:
        out = out + p * Coeff.of(c)
        p = p * K
    return out


@given(st.lists(small_fracs, max_size=4), st.lists(small_fracs, max_size=4))
def test_product_evaluates_pointwise(a, b):
    ca, cb = _coeff(a), _coeff(b)
    x = F(2)
    assert (ca * cb).eval(x) == ca.eval(x) * cb.eval(x)
    assert (ca + cb).eval(x) == ca.eval(x) + cb.eval(x)
    assert (ca - cb).eval(x) == ca.eval(x) - cb.eval(x)


def _horner(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


levels = st.one_of(st.sampled_from([F(0), F(1), F(-1), F(1, 2)]), small_fracs)
# interior zeros are common: every bracket table coefficient is one power of k
sparse_fracs = st.one_of(st.just(F(0)), small_fracs)


@given(st.lists(sparse_fracs, max_size=8), st.lists(st.integers(-9, 9), max_size=8), levels)
def test_sparse_evaluation_matches_horner(fracs, ints, x):
    assert peval(tuple(fracs), x) == _horner(fracs, x)
    assert peval(tuple(ints), x) == _horner(ints, x)
    c = _coeff(fracs)
    assert c.eval(x) == _horner(c.num, x)
    assert type(c.eval(x)) is F


def test_level_powers_are_not_negative():
    assert Coeff.level(2, 3) == Coeff.of(3) * K * K
    assert Coeff.level(0, F(1, 2)) == Coeff.of(F(1, 2))
    assert not Coeff.level(5, 0)
    for power, scale in ((-1, 2), (-2, 1), (-1, 0)):
        with pytest.raises(ValueError, match="negative power"):
            Coeff.level(power, scale)


def test_constructor_trims_trailing_zeros():
    # one canonical form however a value is built, so equal values are
    # equal, hash alike and agree on truth
    assert Coeff((F(1), F(0))) == Coeff.of(1)
    assert hash(Coeff((F(1), F(0), F(0)))) == hash(Coeff.of(1))
    assert Coeff((F(0), F(2), F(0))) == Coeff.level(1, 2)
    assert Coeff((F(0), F(2), F(0))).num == (F(0), F(2))
    assert not Coeff((F(0),)) and not Coeff((F(0), F(0)))
    assert Coeff((F(0),)) == Coeff.of(0) == Coeff(())
    assert str(Coeff((F(-1), F(0)))) == "-1"


@given(st.lists(sparse_fracs, max_size=6))
def test_constructor_matches_the_arithmetic(fracs):
    c = Coeff(tuple(fracs))
    assert c == _coeff(fracs) and hash(c) == hash(_coeff(fracs))
    assert bool(c) == any(fracs)
    assert not c.num or c.num[-1]
