"""Scalar arithmetic in Q(k): exactness, normalization, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from walgebra.coeffs import Coeff, peval

F = Fraction

K = Coeff.level()


def test_constants_collapse():
    assert Coeff.of(6) / Coeff.of(4) == Coeff.of(F(3, 2))
    assert Coeff.of(F(1, 3)) + Coeff.of(F(2, 3)) == Coeff.of(1)
    assert not Coeff.of(0)
    assert Coeff.of(5).at_one() == 5


def test_level_polynomials():
    p = (K + Coeff.of(1)) * (K - Coeff.of(1))
    assert p == K * K - Coeff.of(1)
    assert p.at_one() == 0
    assert p.eval(F(3)) == 8


def test_division_is_exact():
    p = K * K - Coeff.of(1)
    q = K - Coeff.of(1)
    assert p / q == K + Coeff.of(1)
    # non-divisible pairs stay as normalized ratios and still evaluate
    r = K / (K + Coeff.of(1))
    assert r.eval(F(1)) == F(1, 2)
    with pytest.raises(ZeroDivisionError):
        r.eval(F(-1))


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


@given(st.lists(small_fracs, min_size=1, max_size=4),
       st.lists(small_fracs, min_size=1, max_size=4))
def test_ratio_roundtrip(a, b):
    ca, cb = _coeff(a), _coeff(b)
    if not cb:
        return
    assert (ca / cb) * cb == ca


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


@given(st.lists(sparse_fracs, max_size=5), st.lists(sparse_fracs, min_size=1, max_size=4), levels)
def test_rational_evaluation_matches_horner(a, b, x):
    num, den = _coeff(a), _coeff(b)
    if not den:
        return
    r = num / den
    if _horner(r.den, x):
        assert r.eval(x) == _horner(r.num, x) / _horner(r.den, x)
        if den.eval(x):
            assert r.eval(x) == num.eval(x) / den.eval(x)
    else:
        with pytest.raises(ZeroDivisionError):
            r.eval(x)


def test_rational_evaluation_at_the_pole():
    r = Coeff.of(1) / (K + Coeff.of(1))
    assert not r.is_polynomial
    assert r.eval(F(1, 2)) == F(2, 3) and r.eval(0) == 1
    with pytest.raises(ZeroDivisionError):
        r.eval(F(-1))
