"""The lambda-bracket engine: normal ordering, bracket extension, axioms.

Toy one-variable tables (free boson, free fermion) have brackets small
enough to expand by hand; those hand values are frozen here.  The axioms are
then property-tested with composite (non-variable) arguments in both slots,
on a genuinely super algebra, since several sign errors are invisible at the
variable level.

The Leibniz engine (interned monomials, integer coefficients at scale L,
powers of k attached by the grading) is checked against the reference
below: the recursion on DiffPoly/LambdaPoly with Coeff values, k kept
formal, on symbolic, affine and fixed-level tables."""

import gc
import itertools
import weakref
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from conftest import (canonical_reference, corrupted_table, ctx_of, gen, monomial_parity,
                      nth_linear, poly_normalize, skew_corrupted, small_shapes,
                      subst_neg_lambda_partial, table_of, wrong_parity_table)
from walgebra.coeffs import Coeff, ONE
from walgebra.dsreduction import ReductionCtx
from walgebra.errors import MissingTableEntry, NormalizationImpossible, WAlgebraError
from walgebra.pvacore import (BracketTable, DiffPoly, LambdaPoly, ProductBracket, Substitution,
                              TwoVar, VarSpace, _Leibniz, apply_partial, check_jacobi,
                              check_skew, extend_bracket, linear_term,
                              normalize_factors, nth_product)

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
                m, lt1 = tab.linear_product(ca, cb, n)
                got = {v: Coeff.level(m, x) for v, x in lt1.items()}
                assert got == want, (ca, cb, n)


SHAPES_5 = small_shapes(5)
_COEFFS = st.one_of(st.integers(-4, 4),
                    st.builds(F, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def _linear_product_inputs(draw):
    """A table of a shape of either kind with at most 5 boxes (symbolic, the
    k=1 view or the level 2/3), two combinations {generator: int or
    Fraction}, and n; with a cancelling pair, cb = {b1: y2, b2: -y1} for
    generators whose products with a single a share a variable at values
    y1, y2, so that the variable's sum cancels."""
    kind, p1, p2 = draw(st.sampled_from(SHAPES_5))
    try:
        ctx = ctx_of(kind, p1, p2)
    except NormalizationImpossible:
        reject()  # str(ef) = 0: not an algebra of the workbench
    tab = table_of(kind, p1, p2, ktilde=draw(st.sampled_from(("symbolic", 1, F(2, 3)))))
    gens = ctx.centralizer().gens
    combination = st.dictionaries(st.sampled_from(gens), _COEFFS, min_size=1, max_size=3)
    ca, cb = draw(combination), draw(combination)
    n = draw(st.integers(0, max(tab.lookup(a, b).degree() for a in ca for b in cb) + 1))
    if draw(st.booleans()):
        a = draw(st.sampled_from(gens))
        y = {b: nth_linear(tab, {a: 1}, {b: 1}, n) for b in gens}
        shares = [(b1, b2, x) for b1 in gens for b2 in gens if b1 != b2
                  for x in y[b1] if x in y[b2]]
        if shares:
            b1, b2, x = draw(st.sampled_from(shares))
            ca, cb = {a: draw(_COEFFS.filter(bool))}, {b1: y[b2][x].eval(1), b2: -y[b1][x].eval(1)}
    return tab, ca, cb, n


@settings(max_examples=120, deadline=None)
@given(_linear_product_inputs())
def test_linear_product_with_rational_coefficients(inputs):
    # one int sum at scale L*da*db and one Fraction per output give the linear
    # term nth_product gives, on every view of the store
    tab, ca, cb, n = inputs
    m, lt1 = tab.linear_product(ca, cb, n)
    assert {v: Coeff.level(m, x) for v, x in lt1.items()} == nth_linear(tab, ca, cb, n)
    assert all(type(x) is Fraction and x for x in lt1.values())


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
    rhs = subst_neg_lambda_partial(extend_bracket(tab, B, A)).scale(
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


# ---------------------------------------------------------------------------
# the reference Leibniz extension: the DiffPoly recursion on Coeff values,
# memoized per table

_REFERENCE_MEMO: dict = {}


def _ref_memo(table) -> dict:
    return _REFERENCE_MEMO.setdefault(table, {})


def _shift_plus_partial(lp: LambdaPoly, l: int) -> LambdaPoly:
    """(lambda + d)^l acting on the coefficients."""
    out = LambdaPoly()
    for n, p in lp.coeffs.items():
        for k in range(l + 1):
            out += LambdaPoly({n + k: apply_partial(p, l - k).scale(comb(l, k))})
    return out


def _ref_var_mono(table, u, mono) -> LambdaPoly:
    """{u lambda mono} by the right Leibniz rule; u is a bare variable."""
    memo = _ref_memo(table)
    key = ("vm", u, mono)
    if key in memo:
        return memo[key]
    if not mono:
        res = LambdaPoly()
    elif len(mono) == 1:
        v, l = mono[0]
        res = _shift_plus_partial(table.lookup(u, v), l)
    else:
        head, rest = mono[0], mono[1:]
        R, H = DiffPoly({rest: ONE}), DiffPoly({(head,): ONE})
        left = LambdaPoly({n: q * R for n, q in _ref_var_mono(table, u, (head,)).coeffs.items()})
        right = LambdaPoly({n: H * q for n, q in _ref_var_mono(table, u, rest).coeffs.items()})
        if u.parity and head[0].parity:
            right = right.scale(-1)
        res = left + right
    memo[key] = res
    return res


def _ref_arrow(br: LambdaPoly, other) -> LambdaPoly:
    """{X_{lambda+d} B}_-> Y: each lambda^n becomes sum C(n,k) lambda^{n-k}
    (coefficient) * d^k(Y)."""
    Y = DiffPoly({other: ONE})
    out = LambdaPoly()
    for n, p in br.coeffs.items():
        for k in range(n + 1):
            out += LambdaPoly({n - k: (p * apply_partial(Y, k)).scale(comb(n, k))})
    return out


def _ref_mono_mono(table, mono, other) -> LambdaPoly:
    """{mono lambda other} by the left Leibniz rule and first-slot
    sesquilinearity."""
    memo = _ref_memo(table)
    key = ("mm", mono, other)
    if key in memo:
        return memo[key]
    if not mono:
        res = LambdaPoly()
    elif len(mono) == 1:
        v, k = mono[0]
        base = _ref_var_mono(table, v, other)
        res = LambdaPoly({n + k: p.scale((-1) ** k) for n, p in base.coeffs.items()})
    else:
        head, rest = mono[0], mono[1:]
        ph, pr, pc = head[0].parity, monomial_parity(rest), monomial_parity(other)
        t1 = _ref_arrow(_ref_mono_mono(table, (head,), other), rest)
        if pr and pc:
            t1 = t1.scale(-1)
        t2 = _ref_arrow(_ref_mono_mono(table, rest, other), (head,))
        if ph and (pr + pc) % 2:
            t2 = t2.scale(-1)
        res = t1 + t2
    memo[key] = res
    return res


def reference_bracket(table, A: DiffPoly, B: DiffPoly) -> LambdaPoly:
    out = LambdaPoly()
    for ma, ca in A.terms.items():
        for mb, cb in B.terms.items():
            if ma and mb:
                out += _ref_mono_mono(table, ma, mb).scale(ca * cb)
    return out


def reference_jacobi(table, a, b, c) -> TwoVar:
    """lhs - rhs of {a lambda {b mu c}} = {{a lambda b}_{lambda+mu} c}
    + (-1)^{p(a)p(b)} {b mu {a lambda c}}, keyed (lambda power, mu power)."""
    lhs = TwoVar()
    for j, p in table.lookup(b, c).coeffs.items():
        for i, q in reference_bracket(table, DiffPoly.variable(a), p).coeffs.items():
            lhs += TwoVar({(i, j): q})
    t1 = TwoVar()
    for n, p in table.lookup(a, b).coeffs.items():
        for m, q in reference_bracket(table, p, DiffPoly.variable(c)).coeffs.items():
            for k in range(m + 1):
                t1 += TwoVar({(n + k, m - k): q.scale(comb(m, k))})
    t2 = TwoVar()
    for i, p in table.lookup(a, c).coeffs.items():
        for j, q in reference_bracket(table, DiffPoly.variable(b), p).coeffs.items():
            t2 += TwoVar({(i, j): q.scale((-1) ** (a.parity * b.parity))})
    return lhs - (t1 + t2)


# ---------------------------------------------------------------------------
# the engine against the reference

_K_COEFFS = [Coeff.of(1), Coeff.of(-2), Coeff.of(F(3, 4)), Coeff.level(1, F(-1, 3)),
             Coeff((F(1), F(2)))]


def _composite(draw, gens):
    """A sum of 1-3 monomials of 1-3 factors, derivative powers up to 2."""
    total = DiffPoly()
    for _ in range(draw(st.integers(1, 3))):
        factors = [(draw(st.sampled_from(gens)), draw(st.integers(0, 2)))
                   for _ in range(draw(st.integers(1, 3)))]
        total = total + poly_normalize([(factors, draw(st.sampled_from(_K_COEFFS)))])
    return total


def _self_bracket_operand(data, letters):
    """A random polynomial for the self-bracket tests: odd letters drawn
    often where there are any, and one monomial always at two degrees
    (coefficient a + b*k)."""
    odd = [v for v in letters if v.parity]
    nonzero = st.sampled_from([1, -1, 2, F(-3, 2)])
    terms = []
    for _ in range(data.draw(st.integers(1, 4))):
        pool = odd if odd and data.draw(st.booleans()) else letters
        factors = [(data.draw(st.sampled_from(pool)), data.draw(st.integers(0, 2)))
                   for _ in range(data.draw(st.integers(1, 2)))]
        terms.append((factors, data.draw(st.sampled_from(_K_COEFFS))))
    twice = [(data.draw(st.sampled_from(odd or letters)), data.draw(st.integers(0, 1)))]
    terms.append((twice, Coeff((F(data.draw(nonzero)), F(data.draw(nonzero))))))
    return poly_normalize(terms)


@lru_cache(maxsize=None)
def _affine_sl21():
    return ReductionCtx(ctx_of("sl_super", (2,), (1,))).affine_table()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_engine_matches_reference_on_random_composites(data):
    # symbolic tables, a k=1 view, and an affine table over the reduction's
    # ladder basis
    tab = data.draw(st.sampled_from([("sl_super", (2,), (1,)), ("sl", (3, 1), ()),
                                     ("sl_super", (2,), (1,), 1), "affine"]))
    tab = _affine_sl21() if tab == "affine" else table_of(*tab)
    gens = tab.variables
    A, B = _composite(data.draw, gens), _composite(data.draw, gens)
    assert extend_bracket(tab, A, B) == reference_bracket(tab, A, B)
    # a self-bracket, whose operand is split by parity on the right and
    # bracketed through its own factors on the left
    S = _self_bracket_operand(data, gens)
    assert extend_bracket(tab, S, S) == reference_bracket(tab, S, S)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("sl", (3, 2), ()), ("sl_super", (2,), (1,))]), st.data())
def test_bracket_from_a_lower_bound_is_the_full_bracket_cut(shape, data):
    # graded_bracket(A, B, low) is the full bracket without its parts below
    # lambda^low, on every pair of degrees of A and B, a self-bracket
    # included; nth_product, which brackets from lambda^n up, is the n-th
    # part of the full bracket
    tab = table_of(*shape)
    engine, gens = tab.engine, tab.variables
    space = engine.space
    A = _self_bracket_operand(data, gens)
    B = data.draw(st.sampled_from([A, _self_bracket_operand(data, gens)]))
    (Ma, pa), (Mb, pb) = space.graded(A, 1), space.graded(B, 1)
    for sa, ta in pa.items():
        for sb, tb in pb.items():
            M, s, full = engine.graded_bracket((Ma, sa, ta), (Mb, sb, tb))
            for low in range(4):
                cut = {n: p for n, p in full.items() if n >= low}
                assert engine.graded_bracket((Ma, sa, ta), (Mb, sb, tb), low) == (M, s, cut)
    whole = extend_bracket(tab, A, B)
    for n in range(whole.degree() + 2):
        assert nth_product(tab, A, B, n) == whole.get(n).scale(factorial(n))


def _pair_composites(a, b):
    """(A, B) for a generator pair at composite depths one and two."""
    va, vb = DiffPoly.variable(a), DiffPoly.variable(b)
    yield va, apply_partial(vb)
    yield (va * apply_partial(vb)).scale(Coeff.level(1, 2)) + vb, \
        vb * apply_partial(va, 2) + (va * vb).scale(F(-1, 3))


def test_engine_matches_reference_on_every_generator_pair():
    for shape in [("sl", (2, 1), ()), ("sl_super", (3,), (2,))]:
        tab = table_of(*shape)
        for a in tab.variables:
            for b in tab.variables:
                for A, B in _pair_composites(a, b):
                    assert extend_bracket(tab, A, B) == reference_bracket(tab, A, B), \
                        (shape, a, b)


def test_check_skew_reports_entries_of_the_wrong_parity():
    # the even q[1](2,2) in the odd {q[1](2,2) lambda q[3/2](1,2)} and its
    # reverse: skew symmetry holds, parity does not, and each pair is named
    # with its wrong-parity terms; the sound table has none
    ctx = ctx_of("sl_super", (2,), (1,))
    a, b = gen(ctx, 1, 2, 2), gen(ctx, "3/2", 1, 2)
    tab = wrong_parity_table()
    got = check_skew(tab)
    assert [(v["kind"], set(v["pair"])) for v in got] == [("parity", {a, b})] * 2
    want = {(a, b): LambdaPoly({0: DiffPoly.variable(a)}),
            (b, a): LambdaPoly({0: DiffPoly.variable(a).scale(-1)})}
    assert {v["pair"]: v["terms"] for v in got} == want
    assert check_skew(tab, [(a, b)]) == [got[0] if got[0]["pair"] == (a, b) else got[1]]
    assert check_skew(table_of("sl_super", (2,), (1,))) == []


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["one orientation", "wrong parity"]), st.data())
def test_self_bracket_needs_no_skew_symmetry(which, data):
    # the left Leibniz rule holds for any table, so graded_bracket (lifted by
    # extend_bracket) agrees with the k-formal reference on tables that fail
    # check_skew too, on a self-bracket and on a pair
    tab = _one_orientation_broken() if which == "one orientation" else wrong_parity_table()
    assert check_skew(tab)
    A = _self_bracket_operand(data, tab.variables)
    B = _self_bracket_operand(data, tab.variables)
    assert extend_bracket(tab, A, A) == reference_bracket(tab, A, A)
    assert extend_bracket(tab, A, B) == reference_bracket(tab, A, B)


def test_jacobi_names_corrupted_triples_with_reference_diffs():
    tab = corrupted_table()
    gens = tab.variables
    triples = [(a, b, c) for a in gens for b in gens for c in gens]
    want = [(t, reference_jacobi(tab, *t)) for t in triples]
    want = [(t, d) for t, d in want if d]
    got = check_jacobi(tab, triples)
    assert want and [(v["triple"], v["diff"]) for v in got] == want


# ---------------------------------------------------------------------------
# the Jacobi sweep's orbit rule: each table is built afresh, so no engine's
# memos or orbit set carry over from the shared table cache or another test


def _fresh(tab):
    return BracketTable(tab.variables, dict(tab.entries))


def _triples(tab):
    return list(itertools.product(tab.variables, repeat=3))


def _one_orientation_broken():
    """The symbolic (2,1) table with q[2](1,1) added to {q[3/2](1,2) lambda
    q[3/2](2,1)} only: not skew-symmetric."""
    ctx = ctx_of("sl", (2, 1))
    a, b, w = gen(ctx, "3/2", 1, 2), gen(ctx, "3/2", 2, 1), gen(ctx, 2, 1, 1)
    entries = dict(table_of("sl", (2, 1)).entries)
    entries[(a, b)] = entries[(a, b)] + LambdaPoly({0: DiffPoly.variable(w)})
    return BracketTable(ctx.centralizer().gens, entries)


def _reference_violations(tab, triples) -> dict:
    return {t: d for t in triples for d in [reference_jacobi(tab, *t)] if d}


def _in_order(want: dict, order) -> list:
    return [(t, want[t]) for t in order if t in want]


def _reported(violations) -> list:
    return [(v["triple"], v["diff"]) for v in violations]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(small_shapes(4)), st.data())
def test_orbit_rule_matches_the_reference_on_skew_corruptions(shape, data):
    # per-triple calls in a shuffled order and one call over every triple
    # report the reference's violations, triple for triple; w has the parity
    # of {a lambda b}, so the corrupted table stays one the rule serves
    try:
        tab = table_of(*shape)
    except NormalizationImpossible:
        reject()
    gens = tab.variables
    a, b = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))
    w = data.draw(st.sampled_from([v for v in gens if v.parity == a.parity ^ b.parity]))
    tab = skew_corrupted(tab, a, b, w, data.draw(st.sampled_from([1, -2, F(3, 2)])))
    triples = _triples(tab)
    want = _reference_violations(tab, triples)
    order = data.draw(st.permutations(triples))
    one = _fresh(tab)
    assert _reported([v for t in order for v in check_jacobi(one, [t])]) == _in_order(want, order)
    assert one.engine.symmetric()
    assert _reported(check_jacobi(_fresh(tab), triples)) == _in_order(want, triples)


def test_swapping_a_and_b_transposes_the_jacobi_diff():
    # diff(b, a, c) at lambda^j mu^i is -(-1)^{p(a)p(b)} diff(a, b, c) at
    # lambda^i mu^j on a skew-symmetric table, with odd-odd pairs violating
    ctx = ctx_of("sl_super", (2,), (1,))
    odd = skew_corrupted(table_of("sl_super", (2,), (1,)), gen(ctx, "3/2", 1, 2),
                          gen(ctx, "3/2", 2, 1), gen(ctx, 2, 1, 1), F(-3, 2))
    for tab in (corrupted_table(), odd):
        engine = _fresh(tab).engine
        assert engine.symmetric()
        violated = set()
        for a, b, c in _triples(tab):
            diff = engine.jacobi(a, b, c)
            sign = 1 if a.parity and b.parity else -1
            assert engine.jacobi(b, a, c) == {
                (j, i): {m: sign * x for m, x in p.items()} for (i, j), p in diff.items()}
            if diff:
                violated.add((a.parity, b.parity))
        assert (1, 1) in violated if tab is odd else violated == {(0, 0)}


@pytest.mark.parametrize("broken", [_one_orientation_broken, wrong_parity_table])
def test_the_rule_is_off_where_its_precondition_fails(broken):
    # one bracket broken on one orientation, or a skew-symmetric table whose
    # entry has the wrong parity: some orbit holds at one triple and fails at
    # another, so, in the order given or reversed, a build that carried a
    # holding triple to its orbit would drop a violation
    tab = broken()
    triples = _triples(tab)
    want = _reference_violations(tab, triples)
    assert any(set(itertools.permutations(t)) - want.keys() for t in want)
    assert not _fresh(tab).engine.symmetric()
    for order in (triples, triples[::-1]):
        assert _reported(check_jacobi(_fresh(tab), order)) == _in_order(want, order)


def test_each_orbit_is_computed_once_on_a_sound_table(monkeypatch):
    calls = []
    jacobi = _Leibniz.jacobi

    def counting(self, a, b, c):
        calls.append((a, b, c))
        return jacobi(self, a, b, c)

    monkeypatch.setattr(_Leibniz, "jacobi", counting)
    for shape in [("sl", (2, 1)), ("sl_super", (2,), (1,)), ("sl", (3, 1, 1))]:
        tab = _fresh(table_of(*shape))
        n = len(tab.variables)
        calls.clear()
        assert all(check_jacobi(tab, [t]) == [] for t in _triples(tab))
        assert len(calls) == comb(n + 2, 3) and len(tab.engine.held) == comb(n + 2, 3)
    # a table that is not skew-symmetric, or not complete, has every triple
    # computed
    tab = _one_orientation_broken()
    calls.clear()
    for t in _triples(tab):
        check_jacobi(tab, [t])
    assert len(calls) == len(tab.variables) ** 3 and not tab.engine.held
    tab = BracketTable([A_EVEN, B_ODD], {(A_EVEN, A_EVEN): LambdaPoly({1: DiffPoly.constant(1)})})
    calls.clear()
    assert check_jacobi(tab, [(A_EVEN, A_EVEN, A_EVEN)] * 3) == []
    assert len(calls) == 3 and not tab.engine.symmetric()


def test_a_whole_table_skew_check_sweeps_parity_once(monkeypatch):
    # check_skew over every stored pair settles symmetric() from its one
    # sweep, and symmetric() asked first settles itself by one sweep too
    calls = []
    faults = _Leibniz.parity_faults

    def counting(self, pairs=None):
        calls.append(pairs)
        return faults(self, pairs)

    monkeypatch.setattr(_Leibniz, "parity_faults", counting)
    tab = _fresh(table_of("sl", (3, 2)))
    assert check_skew(tab) == [] and len(calls) == 1
    assert tab.engine.symmetric() and len(calls) == 1
    tab = _fresh(table_of("sl", (3, 2)))
    calls.clear()
    assert tab.engine.symmetric() and len(calls) == 1
    assert check_skew(tab) == [] and len(calls) == 2


def test_a_product_bracket_asks_each_letter_once():
    # ProductBracket keeps {v lambda B} per letter v and shifts it by
    # (-lambda)^j for a factor d^j(v): letter(v) is asked once per letter,
    # however many d^j(v) factors the products hold
    tab = table_of("sl_super", (2,), (1,))
    engine = tab.engine
    stride, odd = engine.space.stride, engine.space.odd
    c = (engine.space.rank[tab.variables[-1]] * stride,)
    asked = []

    def letter(v):
        asked.append(v)
        return engine._var_mono(v, c)

    product = ProductBracket(engine, letter, engine._split, engine._dpow, engine._parity,
                             odd[c[0]])
    ranks = range(len(tab.variables))
    for v in ranks:
        for j in range(4):
            want = {n + j: {m: (-1) ** j * x for m, x in p.items()}
                    for n, p in engine._var_mono(v, c).items()}
            assert product((v * stride + j,)) == want, (v, j)
    factors = [v * stride + j for v in ranks for j in range(3)]
    for x, y in itertools.combinations_with_replacement(factors, 2):
        if not (x == y and odd[x]):
            product((x, y))
    assert sorted(asked) == list(ranks)


def test_fixed_level_table_with_denominators_matches_reference():
    tab = table_of("sl_super", (2,), (1,), ktilde=F(1, 2))
    gens = tab.variables
    assert tab.engine.L > 1
    for a in gens:
        for b in gens:
            for A, B in _pair_composites(a, b):
                assert extend_bracket(tab, A, B) == reference_bracket(tab, A, B), (a, b)
    triples = [(a, b, c) for a in gens for b in gens for c in gens]
    assert check_jacobi(tab, triples) == []
    assert not any(reference_jacobi(tab, *t) for t in triples)


def test_engine_range_and_unknown_variables():
    tab = _boson_table()
    a = DiffPoly.variable(A_EVEN)
    # {a d^63 a lambda a} carries d^64 a: past the factor encoding
    with pytest.raises(WAlgebraError, match="derivative power"):
        extend_bracket(tab, a * apply_partial(a, 63), a)
    with pytest.raises(WAlgebraError, match="derivative power"):
        extend_bracket(tab, apply_partial(a, 64), a)
    with pytest.raises(MissingTableEntry):
        extend_bracket(tab, a, DiffPoly.variable(B_ODD))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_var_space_matches_the_diffpoly_format(data):
    # factor lists in any order, with repeats, over the odd and even
    # generators of sl(3|2): codes against normalize_factors, derivatives
    # against DiffPoly.d()
    gens = ctx_of("sl_super", (3,), (2,)).centralizer().gens
    space = VarSpace(gens, 8)
    factors = data.draw(st.lists(st.tuples(st.sampled_from(gens), st.integers(0, 3)),
                                 max_size=5))
    sign, mono = normalize_factors(factors)
    got = space.code(tuple(factors))
    if mono is None:
        assert got is None
        return
    s, x = got
    assert (s, space.edge(x)[0]) == (sign, mono)
    derived: dict = {}
    for y in space.deriv(x):
        derived[space.edge(y)[0]] = derived.get(space.edge(y)[0], 0) + 1
    assert DiffPoly({m: Coeff.of(c) for m, c in derived.items()}) == DiffPoly({mono: ONE}).d()


@pytest.mark.parametrize("shape", [("sl", (3, 2)), ("sl_super", (3,), (2,))], ids=str)
def test_the_engine_derivative_memo_matches_diffpoly_powers(shape):
    # d^j(m) of the table's one derivative memo, built from d of each
    # monomial of d^(j-1)(m) with multiplicities multiplied, is DiffPoly.d()
    # applied j times; drop_memos empties it
    tab = _fresh(table_of(*shape))
    engine, space = tab.engine, tab.engine.space
    monos = sorted({m for val in tab.store.ints.values() for p in val.values() for m in p})
    assert any(len(m) > 1 for m in monos) and len(monos) > 10
    for m in monos:
        for j in range(4):
            got = engine._dpow(m, j)
            assert all(type(c) is int and c > 0 for c in got.values())
            want = apply_partial(DiffPoly({space.edge(m)[0]: ONE}), j)
            assert DiffPoly({space.edge(y)[0]: Coeff.of(c) for y, c in got.items()}) == want
    assert engine._dpows and all(0 < j < 4 for _, j in engine._dpows)
    engine.drop_memos()
    assert not engine._dpows


def _space(parities):
    return VarSpace([Var(f"v{i}", F(1), p) for i, p in enumerate(parities)], 3)


@st.composite
def _factor_sequences(draw):
    """A VarSpace of stride 3 over 1-4 variables of drawn parities, plain
    (no odd variable) in about a third of the draws, and an unsorted factor
    sequence over it, one of its factors drawn twice in about half."""
    parities = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    if draw(st.integers(0, 2)) == 0:
        parities = [0] * len(parities)
    space = _space(parities)
    xs = draw(st.lists(st.integers(0, 3 * len(parities) - 1), max_size=6))
    if xs and draw(st.booleans()):
        xs.insert(draw(st.integers(0, len(xs))), draw(st.sampled_from(xs)))
    return space, xs


@settings(max_examples=300, deadline=None)
@given(_factor_sequences())
@example((_space([0, 0]), [4, 0, 4, 3]))  # a plain space, an even factor repeated
@example((_space([1, 0]), [3, 1, 0, 3]))  # a super space, an even factor repeated
@example((_space([0, 1]), [5, 3, 4, 0, 3]))  # an odd factor repeated
@example((_space([1, 1, 1]), [8, 2, 5, 1, 0]))  # odd factors out of order
def test_canonical_matches_the_insertion_sort(case):
    # one sort and the odd-odd inversion count against the insertion sort
    # that tracks each odd-odd transposition, on lists and tuples
    space, xs = case
    want = canonical_reference(space, xs)
    assert space.canonical(xs) == want
    assert space.canonical(tuple(xs)) == want
    odd = [x for x in xs if space.odd[x]]
    assert (want is None) == (len(set(odd)) < len(odd))


def test_a_table_off_the_grading_is_refused_on_construction():
    # {a lambda a} = k: a positive power of k makes the table graded, and k at
    # lambda^0 on a constant is off the grading (it should be k^0)
    entries = {(A_EVEN, A_EVEN): LambdaPoly({0: DiffPoly.constant(Coeff.level(1))})}
    with pytest.raises(WAlgebraError, match=r"bracket \(a, a\) is not graded"):
        BracketTable([A_EVEN], entries)
    a = _dp(A_EVEN)
    # k*lambda is on the grading: {a lambda a.a} = 2k lambda a
    tab = BracketTable([A_EVEN], {(A_EVEN, A_EVEN): LambdaPoly(
        {1: DiffPoly.constant(Coeff.level(1))})})
    assert extend_bracket(tab, a, a * a) == LambdaPoly({1: a.scale(Coeff.level(1, 2))})
    assert tab.engine.g == 1 and _boson_table().engine.g == 0


def test_mixed_degree_operands_and_images_are_refused():
    # every engine value is of one degree: the engine's graded and a
    # Substitution refuse an operand or a letter's image of two degrees, in k
    # or in derivatives (g = 1), with one line naming it; extend_bracket
    # splits its operands by degree at the edge
    k = Coeff.level(1)
    tab = BracketTable([A_EVEN], {(A_EVEN, A_EVEN): LambdaPoly({1: DiffPoly.constant(k)})})
    a = _dp(A_EVEN)
    for mixed in (a.scale(1 + k), a + apply_partial(a)):
        with pytest.raises(WAlgebraError) as err:
            tab.engine.graded(mixed)
        assert str(err.value) == f"{mixed} mixes degrees in the level"
        with pytest.raises(WAlgebraError) as err:
            Substitution(tab, {A_EVEN: mixed})(a * a)
        assert str(err.value) == "the image of a mixes degrees in the level"
    assert extend_bracket(tab, a.scale(1 + k), a) == LambdaPoly({1: DiffPoly.constant(k + k * k)})


def test_engines_die_with_their_tables():
    # the engine keeps the table's entries, not the table, so no reference
    # cycle holds a dropped table and its memo tables until a full GC pass
    gc.disable()
    try:
        tab = _boson_table()
        a = _dp(A_EVEN)
        assert extend_bracket(tab, a * a, a)
        engine = weakref.ref(tab.engine)
        del tab
        assert engine() is None
    finally:
        gc.enable()
