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
import weakref
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import (corrupted_table, ctx_of, monomial_parity, nth_linear, poly_normalize,
                      small_shapes, subst_neg_lambda_partial, table_of)
from walgebra.coeffs import Coeff, ONE
from walgebra.dsreduction import ReductionCtx
from walgebra.errors import MissingTableEntry, NormalizationImpossible, WAlgebraError
from walgebra.pvacore import (BracketTable, DiffPoly, LambdaPoly, TwoVar,
                              VarSpace, apply_partial, check_jacobi,
                              extend_bracket, linear_term,
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


@lru_cache(maxsize=None)
def _affine_sl21():
    return ReductionCtx(ctx_of("sl_super", (2,), (1,))).affine_table()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_engine_matches_reference_on_random_composites(data):
    # symbolic tables, and an affine table over the reduction's ladder basis
    tab = data.draw(st.sampled_from([("sl_super", (2,), (1,)), ("sl", (3, 1), ()), "affine"]))
    tab = _affine_sl21() if tab == "affine" else table_of(*tab)
    gens = tab.variables
    A, B = _composite(data.draw, gens), _composite(data.draw, gens)
    assert extend_bracket(tab, A, B) == reference_bracket(tab, A, B)


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


def _pruned(bracket: tuple) -> tuple:
    """A graded bracket (scale, {n: {degree: {monomial: int}}}) without the
    parts that cancelled to nothing."""
    scale, slots = bracket
    return scale, {n: {s: p for s, p in parts.items() if p} for n, parts in slots.items()
                   if any(parts.values())}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHAPES_5), st.sampled_from(["symbolic", "k=1", "affine"]), st.data())
def test_self_bracket_matches_the_pairwise_sum(shape, which, data):
    # the skew-halved self-bracket against all pairs of terms, on every kind
    # of table reconcile can meet; odd letters are drawn often on the super
    # shapes, and one monomial always sits at two degrees (coefficient a + b*k)
    try:
        ctx = ctx_of(*shape)
    except NormalizationImpossible:
        reject()
    if which == "affine":
        tab = ReductionCtx(ctx).affine_table()
    else:
        tab = table_of(*shape, ktilde="symbolic" if which == "symbolic" else 1)
    letters = tab.variables
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
    engine = tab._leibniz()
    A = engine.graded(poly_normalize(terms))
    assert _pruned(engine.graded_self_bracket(A)) == _pruned(engine.graded_bracket(A, A))


def test_jacobi_names_corrupted_triples_with_reference_diffs():
    tab = corrupted_table()
    gens = tab.variables
    triples = [(a, b, c) for a in gens for b in gens for c in gens]
    want = [(t, reference_jacobi(tab, *t)) for t in triples]
    want = [(t, d) for t, d in want if d]
    got = check_jacobi(tab, triples)
    assert want and [(v["triple"], v["diff"]) for v in got] == want


def test_fixed_level_table_with_denominators_matches_reference():
    tab = table_of("sl_super", (2,), (1,), ktilde=F(1, 2))
    gens = tab.variables
    assert tab._leibniz().L > 1
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
    assert (s, space.edge(x)) == (sign, mono)
    derived: dict = {}
    for y in space.deriv(x):
        derived[space.edge(y)] = derived.get(space.edge(y), 0) + 1
    assert DiffPoly({m: Coeff.of(c) for m, c in derived.items()}) == DiffPoly({mono: ONE}).d()


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
    assert tab._leibniz().g == 1 and _boson_table()._leibniz().g == 0


def test_engines_die_with_their_tables():
    # the engine keeps the table's entries, not the table, so no reference
    # cycle holds a dropped table and its memo tables until a full GC pass
    gc.disable()
    try:
        tab = _boson_table()
        a = _dp(A_EVEN)
        assert extend_bracket(tab, a * a, a)
        engine = weakref.ref(tab._engine)
        del tab
        assert engine() is None
    finally:
        gc.enable()
