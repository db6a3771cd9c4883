"""The lambda-bracket engine: normal ordering, bracket extension, axioms.

Toy one-variable tables (free boson, free fermion) have brackets small
enough to expand by hand; those hand values are frozen here.  The axioms are
then property-tested with composite (non-variable) arguments in both slots,
on a genuinely super algebra, since several sign errors are invisible at the
variable level."""

from fractions import Fraction
from math import comb
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from conftest import ctx_of, gen, table_of
from walgebra.coeffs import Coeff
from walgebra.pvacore import (BracketTable, DiffPoly, LambdaPoly, TwoVar,
                              apply_partial, extend_bracket, linear_term,
                              monomial_parity, normalize_factors, nth_product,
                              poly_normalize)

F = Fraction


class Var(NamedTuple):
    name: str
    weight: Fraction
    parity: int

    def sort_key(self):
        return (self.weight, self.name)

    def __repr__(self):
        return self.name


A_EVEN = Var("a", F(1), 0)
B_ODD = Var("b", F(1, 2), 1)


def _dp(v):
    return DiffPoly.variable(v)


def test_normalize_factors_signs():
    fa, fb = (B_ODD, 0), (B_ODD, 1)
    assert normalize_factors([fa, fb]) == (1, (fa, fb))
    assert normalize_factors([fb, fa]) == (-1, (fa, fb))
    assert normalize_factors([fa, fa]) == (1, None)       # odd square dies
    # weight-1/2 odd factors sort before the weight-1 even one; pulling fa
    # to the front crosses exactly one odd-odd pair
    ea = (A_EVEN, 0)
    assert normalize_factors([fb, ea, fa]) == (-1, (fa, fb, ea))


def test_odd_variables_anticommute():
    b, db = _dp(B_ODD), apply_partial(_dp(B_ODD))
    assert b * db == -(db * b)
    assert not b * b
    a = _dp(A_EVEN)
    assert a * b == b * a


def test_derivative_is_a_derivation():
    a, b = _dp(A_EVEN), _dp(B_ODD)
    prod = a * a * b
    want = apply_partial(a) * a * b + a * apply_partial(a) * b + a * a * apply_partial(b)
    assert apply_partial(prod) == want


def _boson_table():
    entries = {(A_EVEN, A_EVEN): LambdaPoly({1: DiffPoly.constant(1)})}
    return BracketTable([A_EVEN], entries)


def _fermion_table():
    entries = {(B_ODD, B_ODD): LambdaPoly({0: DiffPoly.constant(1)})}
    return BracketTable([B_ODD], entries)


def test_free_boson_square():
    # {a_l a.a} = 2 l a by the right Leibniz rule
    tab = _boson_table()
    a = _dp(A_EVEN)
    br = extend_bracket(tab, a, a * a)
    assert br.get(0) == DiffPoly()
    assert br.get(1) == a.scale(2)
    assert br.degree() == 1


def test_free_fermion_composite():
    # {b_l b db} = db - l b: the second Leibniz term picks up the odd sign
    tab = _fermion_table()
    b = _dp(B_ODD)
    db = apply_partial(b)
    br = extend_bracket(tab, b, b * db)
    assert br.get(0) == db
    assert br.get(1) == -b
    assert br.degree() == 1


def test_sesquilinearity_left_slot():
    tab = _boson_table()
    a = _dp(A_EVEN)
    # {da_l a} = -l {a_l a} = -l^2
    br = extend_bracket(tab, apply_partial(a), a)
    assert br.get(2) == DiffPoly.constant(-1)
    assert br.get(0) == DiffPoly() and br.get(1) == DiffPoly()


def test_sesquilinearity_right_slot():
    tab = _boson_table()
    a = _dp(A_EVEN)
    # {a_l da} = (l+d){a_l a} = l^2  (d of a constant vanishes)
    br = extend_bracket(tab, a, apply_partial(a))
    assert br.get(2) == DiffPoly.constant(1)


def test_nth_product_normalization():
    tab = _boson_table()
    a = _dp(A_EVEN)
    assert nth_product(tab, a, a, 1) == DiffPoly.constant(1)
    # {a_l a.a} = 2 l a so the 1st product is 1! * 2a
    assert nth_product(tab, a, a * a, 1) == a.scale(2)


def test_linear_term_extraction():
    a, b = _dp(A_EVEN), _dp(B_ODD)
    p = a.scale(F(2, 3)) + (a * b) + apply_partial(b)
    lt = linear_term(p)
    assert lt == {A_EVEN: Coeff.of(F(2, 3))}


def test_linear_product_matches_nth_product():
    for kind, p1, p2 in [("sl", (3, 2), ()), ("sl_super", (3,), (2,))]:
        ctx = ctx_of(kind, p1, p2)
        tab = table_of(kind, p1, p2)
        gens = ctx.centralizer().gens
        cases = [({a: F(1)}, {b: F(1)}) for a in gens for b in gens]
        for a, b in zip(gens, gens[1:]):
            if a.weight == b.weight:
                cases.append(({a: F(1), b: F(-3, 2)}, {b: F(2), gens[0]: F(1, 2)}))
        for ca, cb in cases:
            A = sum((DiffPoly.variable(g).scale(c) for g, c in ca.items()), DiffPoly())
            B = sum((DiffPoly.variable(g).scale(c) for g, c in cb.items()), DiffPoly())
            top = max(tab.lookup(a, b).degree() for a in ca for b in cb)
            for n in range(top + 2):
                want = linear_term(nth_product(tab, A, B, n))
                assert tab.linear_product(ca, cb, n) == want, (ca, cb, n)


def test_poly_normalize_collects():
    raw = [(((B_ODD, 1), (B_ODD, 0)), F(1)), (((B_ODD, 0), (B_ODD, 1)), F(1))]
    assert not poly_normalize(raw)  # opposite orders cancel for odd factors


# ---------------------------------------------------------------------------
# composite-slot axioms on a genuinely super bracket table


def _sl21():
    ctx = ctx_of("sl_super", (2,), (1,))
    return ctx, table_of("sl_super", (2,), (1,), ktilde=1)


def _monomials(draw):
    ctx, _ = _sl21()
    gens = sorted(ctx.centralizer().gens, key=lambda g: g.sort_key())
    n = draw(st.integers(1, 2))
    factors = tuple((gens[draw(st.integers(0, len(gens) - 1))],
                     draw(st.integers(0, 1))) for _ in range(n))
    sign, mono = normalize_factors(factors)
    if mono is None:
        return None
    coeff = Coeff.of(draw(st.sampled_from([1, -1, 2, F(1, 2)])))
    return DiffPoly({mono: coeff if sign > 0 else -coeff})


def _parity(p: DiffPoly):
    parities = {monomial_parity(m) for m in p.terms}
    return parities.pop() if len(parities) == 1 else None


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_skew_symmetry_on_composites(data):
    ctx, tab = _sl21()
    A = _monomials(data.draw)
    B = _monomials(data.draw)
    if A is None or B is None or not A or not B:
        return
    pa, pb = _parity(A), _parity(B)
    lhs = extend_bracket(tab, A, B)
    rhs = extend_bracket(tab, B, A).subst_neg_lambda_partial().scale(
        -((-1) ** (pa * pb)))
    assert lhs == rhs


def _outer(tab, A, inner):
    out = TwoVar()
    for j, p in inner.coeffs.items():
        br = extend_bracket(tab, A, p)
        for i, q in br.coeffs.items():
            out += TwoVar({(i, j): q})
    return out


def _composed(tab, ab, C):
    out = TwoVar()
    for n, p in ab.coeffs.items():
        br = extend_bracket(tab, p, C)
        for m, q in br.coeffs.items():
            for k in range(m + 1):
                out += TwoVar({(n + k, m - k): q.scale(comb(m, k))})
    return out


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_jacobi_on_composites(data):
    ctx, tab = _sl21()
    A = _monomials(data.draw)
    B = _monomials(data.draw)
    C = _monomials(data.draw)
    if any(x is None or not x for x in (A, B, C)):
        return
    pa, pb = _parity(A), _parity(B)
    lhs = _outer(tab, A, extend_bracket(tab, B, C))
    t1 = _composed(tab, extend_bracket(tab, A, B), C)
    inner = extend_bracket(tab, A, C)
    # {B_mu {A_lambda C}}: the inner powers are lambda's, so the TwoVar
    # indices come out transposed
    t2 = TwoVar()
    for j, p in inner.coeffs.items():
        br = extend_bracket(tab, B, p)
        for i, q in br.coeffs.items():
            t2 += TwoVar({(j, i): q})
    rhs = t1 + TwoVar({ij: p.scale((-1) ** (pa * pb)) for ij, p in t2.coeffs.items()})
    assert lhs == rhs
