"""The master bracket formula: frozen values, gradings, signs, axioms.

The sl2 principal bracket is small enough to freeze term by term; it was
cross-checked bit-exactly against the independent reduction engine (see
test_dsreduction).  One sign rule covers both kinds: (-1)^(p(a)p(b)) on the
chain sum and (-1)^p(j) per chain node, all +1 on plain sl.  The symbolic
digests of sl(3|2) and sl(4|2), the fixed-level digests of sl(2|1) and the
skew/Jacobi sweeps on super shapes pin it here; criterion 2 reconciles super
shapes against the reduction oracle.  The suffix-sum rows, which fold each
node's sign into its constants, are checked against the chain-by-chain
evaluator, which multiplies the signs out per chain, on fixed and on random
shapes; the fixed-level tables against digests recorded when each level had
its own engine build.  Both evaluators read the engine's precomputed
structure constants, so those are checked against the matrix computation
they replace."""

import hashlib
import json
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (apply_factor, bracket_by_chains, ctx_of, gen, lifted_row, poly_weight,
                      sweep_scale_reference, table_of)
from walgebra import pvacore, serialize, wbracket
from walgebra.coeffs import Coeff
from walgebra.dsreduction import ReductionCtx, reconcile
from walgebra.errors import MissingTableEntry, WAlgebraError
from walgebra.liestruct import StructureKernel, sharp_coords
from walgebra.pvacore import (BracketTable, DiffPoly, GradedStore, LambdaPoly, VarSpace,
                              apply_partial, check_jacobi, check_skew, extend_bracket, linear_term,
                              monomial_weight, normalize_factors, nth_product)
from walgebra.wbracket import (MasterEngine, bracket_table, conformal_check,
                               conformal_vector)

F = Fraction
K = Coeff.level()

# sha256 of bracket_table(ctx, ktilde=level), as built by the chain formula
# run at that fixed level
FIXED_LEVEL_DIGESTS = {
    (("sl", (2, 1), ()), F(1)):
        "3126bc85c9b6075473a415fa94235433d8597374b10a71b0f2d721e4ff3bf829",
    (("sl", (2, 1), ()), F(1, 2)):
        "44e1ecfa3d10a3b774d36247bf382c7ce3d07a558a3e5351f520938011e1d0cb",
    (("sl", (3, 2), ()), F(1)):
        "9b785e52f417e1162c35c016d64a3bf507a146025d3a29d9c813eb76b3fbc62c",
    (("sl", (3, 2), ()), F(1, 2)):
        "3e06a578708b4dace1ffe2725ce4e53039ec5d234985a1258fd98bc4b041f614",
    (("sl_super", (2,), (1,)), F(1)):
        "2829bfb7d7b2ba0e7a915777ee735f71ddd1f9a28bd26e8e5b9152cae69478e1",
    (("sl_super", (2,), (1,)), F(1, 2)):
        "29a51770d76e05bf0cc34f6576db8836587261738becd9ddbf585973f5c0233a",
}

# sha256 of the symbolic tables, copied from bench/table_digests.json
SYMBOLIC_DIGESTS = {
    ("sl", (3, 2), ()):
        "74bf124cb4da8c74f0eb989ef0dc858b48b9d5a1a5163ebb35fc3717fa4a39c7",
    ("sl", (4, 3), ()):
        "1b4ccc3394c42649470fb204d77599af9e506af078518f427e1c5e9cf96f4b96",
    ("sl_super", (3,), (2,)):
        "83afe9781ebe4fad71a3693a53902610c9b4bbf8f5b0463d2f1d27fe8e6428bf",
    ("sl_super", (4,), (2,)):
        "16220967be4bd28937ff70da558fecdd2110658a054a2948b1ccb31d0f7fc653",
}


def _digest(table) -> str:
    """sha256 of the entries in generator order, through the exact JSON view."""
    h = hashlib.sha256()
    for a, b in sorted(table.entries, key=lambda ab: (ab[0].sort_key(), ab[1].sort_key())):
        row = [serialize.gen_to_json(a), serialize.gen_to_json(b),
               serialize.lambda_poly_to_json(table.entries[(a, b)])]
        h.update(json.dumps(row, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_sl2_master_bracket_frozen():
    ctx = ctx_of("sl", (2,))
    q = gen(ctx, 2, 1, 1)
    br = lifted_row(MasterEngine(ctx), q)[q]
    v = DiffPoly.variable(q)
    assert br.get(0) == v.d().scale(K)
    assert br.get(1) == v.scale(K * Coeff.of(2))
    assert br.get(2) == DiffPoly()
    assert br.get(3) == DiffPoly.constant(-(K * K * K) * Coeff.of(F(1, 2)))
    assert br.degree() == 3


def test_master_matches_table():
    ctx = ctx_of("sl", (2, 1))
    tab = table_of("sl", (2, 1))
    engine = MasterEngine(ctx)
    for a in engine.cdata.gens:
        row = lifted_row(engine, a)
        for b in engine.cdata.gens:
            assert row[b] == tab.lookup(a, b)


def test_rows_match_chain_by_chain_evaluation():
    for kind, p1, p2 in [("sl", (2, 1), ()), ("sl", (2, 2), ()), ("sl", (3, 1), ()),
                         ("sl", (2, 1, 1), ()), ("sl", (3, 2), ()), ("sl_super", (2,), (1,)),
                         ("sl_super", (3,), (2,)), ("sl_super", (2, 1), (1,))]:
        engine = MasterEngine(ctx_of(kind, p1, p2))
        gens = engine.cdata.gens
        for a in gens:
            row = lifted_row(engine, a)
            for b in gens:
                assert row[b] == bracket_by_chains(engine, a, b), (kind, p1, p2, a, b)


def _partitions(n, top=3):
    """The partitions of n with no part above top."""
    if not n:
        yield ()
    for first in range(min(n, top), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# every shape of either kind with at most 5 boxes and no part above 3
SMALL_SHAPES = [("sl", p, ()) for n in range(1, 6) for p in _partitions(n)] + [
    ("sl_super", p1, p2) for n in range(2, 6) for m in range(1, n)
    for p1 in _partitions(m) for p2 in _partitions(n - m)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.data())
def test_random_rows_match_chain_by_chain_evaluation(shape, data):
    # one random row per shape: the engine folds each odd node's sign into
    # its constants, the oracle multiplies the signs out chain by chain
    kind, p1, p2 = shape
    try:
        engine = MasterEngine(ctx_of(kind, p1, p2))
    except WAlgebraError:
        assume(False)
    gens = engine.cdata.gens
    assume(gens)
    a = data.draw(st.sampled_from(gens))
    row = lifted_row(engine, a)
    for b in gens:
        assert row[b] == bracket_by_chains(engine, a, b), (shape, a, b)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(SMALL_SHAPES))
@example(("sl", (3, 2), ()))
@example(("sl", (2, 1, 1), ()))
@example(("sl_super", (3,), (2,)))
def test_structure_constants_match_the_matrix_path(shape):
    # every constant the engine can ask for, those of disjoint supports
    # answered by the kernel without a product included, on plain and super
    # shapes
    try:
        ctx = ctx_of(*shape)
        engine = MasterEngine(ctx)
    except WAlgebraError:
        assume(False)
    cdata = engine.cdata
    gens = cdata.gens
    for a in gens:
        engine.row(a)

    def product_pair(x, y):
        return x.mul(y).supertrace() * ctx.form_scale

    def want(x, y):
        if x is None:
            return {}, 0
        z = x.comm(y)
        coords = {g: product_pair(cdata.basisE[g], z) for g in gens}
        coords = {g: v for g, v in coords.items() if v}
        assert sharp_coords(cdata, z) == coords
        return coords, product_pair(x, y)

    def got(factor):
        coords, pairing = factor
        return {gens[r]: v for r, v in coords}, pairing

    raised, dual = [], []
    for c in engine.nodes:
        fam = cdata.adFPowers[c.j]
        raised.append(fam[c.n + 1] if c.n + 1 < len(fam) else None)
        dual.append(cdata.dualFamily[c.j][c.n])
    basis = [cdata.basisF[g] for g in gens]
    for u in range(len(engine.nodes)):
        for v in range(len(engine.nodes)):
            assert got(engine.mid_factor(u, v)) == want(raised[u], dual[v]), (u, v)
        for r in range(len(gens)):
            assert got(engine.tail_factor(u, r)) == want(raised[u], basis[r]), (u, r)
            assert got(engine.head_factor(r, u)) == want(basis[r], dual[u]), (r, u)
    for ra in range(len(gens)):
        for rb in range(len(gens)):
            assert got(engine.head_term(ra, rb)) == want(basis[ra], basis[rb])


def test_the_kernel_skips_the_products_of_disjoint_supports(monkeypatch):
    # on (4,3) the kernel answers more constants than it computes products
    # for, and each constant answered without a product is that of two
    # matrices whose products vanish both ways
    answered, products = [], []
    call, product = StructureKernel.__call__, StructureKernel._product

    def counting_call(kernel, x, y):
        before = len(products)
        val = call(kernel, x, y)
        answered.append((x, y, len(products) > before))
        return val

    def counting_product(kernel, ix, iy):
        products.append(1)
        return product(kernel, ix, iy)

    monkeypatch.setattr(StructureKernel, "__call__", counting_call)
    monkeypatch.setattr(StructureKernel, "_product", counting_product)
    engine = MasterEngine(ctx_of("sl", (4, 3)))
    for a in engine.cdata.gens:
        engine.row(a)
    assert 0 < len(products) < len(answered)
    for x, y, computed in answered:
        if not computed:
            assert not x.mul(y).entries and not y.mul(x).entries


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SMALL_SHAPES))
@example(("sl", (3, 2), ()))
@example(("sl_super", (3,), (2,)))
@example(("sl", (4, 3), ()))
def test_sweep_scale_divides_the_single_scale_and_stores_are_reduced(shape):
    # the top scale T of the per-node scales divides S^H, the one scale the
    # sweep kept before; the built table's store is reduced: its scale
    # divides T and is prime to all its ints together.  The small shapes
    # come out of the sweep reduced already; on (4,3) T is 5 times the
    # store's scale
    try:
        ctx = ctx_of(*shape)
        table = bracket_table(ctx)
    except WAlgebraError:
        assume(False)
    engine = MasterEngine(ctx)
    engine._prepare()
    assert sweep_scale_reference(engine) % engine._scale == 0
    store = table.store
    assert engine._scale % store.scale == 0
    assert gcd(store.scale, *(c for val in store.ints.values() for p in val.values()
                              for c in p.values())) == 1


def test_interned_operator_matches_the_diffpoly_operator():
    # the sweep's in-place (P - c*k(lambda+d)) on graded int values scaled by
    # sx and an int factor scaled by sf, lifted by k^(n+D) (lambda power n,
    # derivative count D) and divided by sx*sf at the edge, against the
    # oracle's operator on the lifted values.  The input monomials enter as
    # the engine's ids and the output is mapped back to VarSpace monomials.
    # The monomials are ones the chain sums of small shapes never produce:
    # an odd factor beside its own derivative, a repeated even factor, and
    # odd factors the inserted odd one has to move past
    engine = MasterEngine(ctx_of("sl_super", (3,), (2,)))
    gens, D = engine.cdata.gens, engine.space.stride
    odd, odd2 = [r for r, g in enumerate(gens) if g.parity][:2]
    even = next(r for r, g in enumerate(gens) if not g.parity)
    deep = tuple(sorted((odd * D, even * D, odd * D + 2)))
    X = {0: {(odd * D, odd * D + 1): F(1),
             (even * D, even * D): F(3, 2)},
         1: {tuple(sorted((even * D + 1, odd * D + 1))): F(-1),
             deep: F(1, 2)}}
    factor = (((odd, F(2)), (odd2, F(-1)), (even, F(1, 3))), F(5))
    sx, sf = 4, 6
    Xi = {n: {m: int(c * sx) for m, c in p.items()} for n, p in X.items()}
    fi = (tuple((r, int(v * sf)) for r, v in factor[0]), int(factor[1] * sf))
    ids: dict = {}
    engine._apply_into(ids, fi, {n: {engine._id(m): c for m, c in p.items()}
                                 for n, p in Xi.items()})
    assert all(type(i) is int and i > 0 for p in ids.values() for i in p)
    out = engine._tuples(ids)
    assert {type(c) for p in out.values() for c in p.values()} == {int}
    def lift(X, scale):
        return GradedStore(engine.space, scale, 1, {}).lift(X)

    assert lift(Xi, sx).get(1).terms[engine.space.edge(deep)[0]] == Coeff.level(3, F(1, 2))
    want = apply_factor(engine, factor, lift(Xi, sx))
    assert lift(out, sx * sf) == want
    assert want


def test_symbolic_tables_are_pinned():
    for shape, want in SYMBOLIC_DIGESTS.items():
        assert _digest(table_of(*shape)) == want, shape


def test_tables_cannot_be_corrupted_through_their_entries():
    ctx = ctx_of("sl", (3, 2))
    tab = table_of("sl", (3, 2))
    a, b = tab.variables[0], tab.variables[1]
    with pytest.raises(TypeError):
        tab.entries[(a, b)] = LambdaPoly()
    with pytest.raises(TypeError):
        del tab.entries[(a, b)]
    # a key that is not a stored pair of variables, unhashable ones included,
    # is absent, as from any Mapping
    for key in (5, "ab", (a,), (a, b, a), (a, 5), (None, b), [a, b], ([a], b), (a, {})):
        assert key not in tab.entries
        assert tab.entries.get(key, "absent") == "absent"
        with pytest.raises(KeyError):
            tab.entries[key]
    # every read is a fresh lift: mutating what a read returns, down to its
    # terms and attributes, leaves the table as it was
    ab = next(ab for ab, v in tab.entries.items() if v.get(0))
    pristine = tab.lookup(*ab)
    mono = next(iter(pristine.get(0).terms))
    mutations = [lambda e: e.coeffs.clear(),
                 lambda e: e.coeffs.__setitem__(0, DiffPoly()),
                 lambda e: e.get(0).terms.__setitem__(mono, Coeff.of(7)),
                 lambda e: setattr(e, "coeffs", {}),
                 lambda e: delattr(e, "coeffs"),
                 lambda e: setattr(e.get(0), "terms", {}),
                 lambda e: delattr(e.get(0), "terms")]
    for mutate in mutations:
        mutate(tab.entries[ab])
        mutate(tab.lookup(*ab))
        assert tab.lookup(*ab) == pristine
    assert _digest(table_of("sl", (3, 2))) == SYMBOLIC_DIGESTS[("sl", (3, 2), ())]
    # a fixed-level view built afterwards is still the evaluation
    for key in [k for k in wbracket._TABLE_CACHE if k[:3] == ("sl", (3, 2), ()) and k[3] == 1]:
        del wbracket._TABLE_CACHE[key]
    k1 = bracket_table(ctx, ktilde=1)
    assert k1.entries == {ab: v.at_level(1) for ab, v in tab.entries.items()}
    assert _digest(k1) == FIXED_LEVEL_DIGESTS[(("sl", (3, 2), ()), F(1))]


def test_tables_copy_what_they_are_given():
    x = ctx_of("sl", (2,)).centralizer().gens[0]
    val = LambdaPoly({0: DiffPoly.constant(1)})
    tab = BracketTable([x], {(x, x): val})
    assert type(val.coeffs) is dict and type(val.get(0).terms) is dict
    val.coeffs.clear()
    assert tab.lookup(x, x) == LambdaPoly({0: DiffPoly.constant(1)})


def test_both_constructors_give_one_table():
    # a table rebuilt from its own entries interns them into the same store:
    # symbolic tables, their fixed-level views and an affine table
    def digest(table):
        pairs = sorted(table.entries, key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()))
        text = "\n".join(f"{a} {b} {table.entries[(a, b)]!r}" for a, b in pairs)
        return hashlib.sha256(text.encode()).hexdigest()

    tables = [table_of(*shape, ktilde=level)
              for shape in [("sl", (2, 1)), ("sl", (3, 2)), ("sl_super", (2,), (1,))]
              for level in ("symbolic", 1, F(1, 2))]
    tables.append(ReductionCtx(ctx_of("sl", (2, 1))).affine_table())
    for t in tables:
        again = BracketTable(t.variables, dict(t.entries))
        assert again.entries == t.entries
        assert digest(again) == digest(t)
        assert again.store.g == t.store.g
        assert check_skew(again) == []


def test_fixed_level_tables_are_evaluations():
    for (shape, level), want in FIXED_LEVEL_DIGESTS.items():
        ctx = ctx_of(*shape)
        tab = bracket_table(ctx, ktilde=level)
        assert _digest(tab) == want, (shape, level)
        sym = bracket_table(ctx)
        assert tab.entries == {ab: v.at_level(level) for ab, v in sym.entries.items()}
    assert bracket_table(ctx_of("sl", (3, 2)), ktilde=1) is table_of("sl", (3, 2), ktilde=1)


# every shape of either kind with at most 5 boxes
SHAPES_UP_TO_5 = [("sl", p, ()) for n in range(1, 6) for p in _partitions(n, n)] + [
    ("sl_super", p1, p2) for n in range(2, 6) for m in range(1, n)
    for p1 in _partitions(m, m) for p2 in _partitions(n - m, n - m)]
LEVELS = st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(bool)


def _generator_monomial(draw, gens):
    """DiffPoly of one monomial of one or two generators with derivatives."""
    factors = draw(st.lists(st.tuples(st.sampled_from(gens), st.integers(0, 2)),
                            min_size=1, max_size=2))
    sign, mono = normalize_factors(factors)
    return DiffPoly({mono: Coeff.of(sign)} if mono else {((factors[0][0], 0),): Coeff.of(1)})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SHAPES_UP_TO_5), LEVELS, st.data())
def test_fixed_level_views_scale_each_term_by_its_degree(shape, q, data):
    # c*k^(n+D) read at a nonzero rational level q, possibly negative and
    # with a denominator: the view's entries against the symbolic entries
    # evaluated at q, and the view's Leibniz engine against the symbolic
    # engine's result evaluated at q
    try:
        ctx = ctx_of(*shape)
        sym = bracket_table(ctx)
    except WAlgebraError:
        assume(False)
    assume(sym.variables)
    view = bracket_table(ctx, ktilde=q)
    assert set(view.entries) == set(sym.entries)
    for ab, entry in sym.entries.items():
        assert view.entries[ab] == entry.at_level(q), (shape, q, ab)
    A = _generator_monomial(data.draw, sym.variables)
    B = _generator_monomial(data.draw, sym.variables)
    assert extend_bracket(view, A, B) == extend_bracket(sym, A, B).at_level(q), (shape, q, A, B)


def test_table_build_k1_view_and_linear_products_lift_nothing(monkeypatch):
    # the symbolic build, its k=1 view and linear_product over every pair at
    # n = 0 and 1 construct no Coeff and lift no entry, and conformal_check
    # on the view lifts no entry either; the view shares the symbolic store.
    # linear_product builds at most one Fraction per variable it returns,
    # also on rational combinations, and the engines' memos hold ints
    ctx = ctx_of("sl", (3, 2))
    ctx.centralizer()
    monkeypatch.setattr(wbracket, "_TABLE_CACHE", {})
    counts = {"Coeff": 0, "lift": 0, "entry lifts": 0}

    def counting(name, method):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Coeff, "__init__", counting("Coeff", Coeff.__init__))
    monkeypatch.setattr(VarSpace, "lift", counting("lift", VarSpace.lift))
    monkeypatch.setattr(GradedStore, "lift", counting("entry lifts", GradedStore.lift))
    sym = bracket_table(ctx)
    k1 = bracket_table(ctx, ktilde=1)
    gens = sym.variables
    fractions = []

    def counting_fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    monkeypatch.setattr(pvacore, "Fraction", counting_fraction)
    combos = [{a: F(1)} for a in gens]
    combos += [{a: F(-1, 2), b: F(2, 3)} for a, b in zip(gens, gens[1:])]
    products = [tab.linear_product(ca, cb, n)
                for tab in (sym, k1) for ca in combos for cb in combos for n in (0, 1)]
    monkeypatch.setattr(pvacore, "Fraction", Fraction)
    assert any(lt for _, lt in products)
    assert 0 < len(fractions) <= sum(len(lt) for _, lt in products)
    assert counts == {"Coeff": 0, "lift": 0, "entry lifts": 0}
    assert all(type(c) is int for tab in (sym, k1) for hit in tab.engine._lin.values()
               for _, c in hit)
    assert k1.store.ints is sym.store.ints and k1.store.space is sym.store.space
    assert (sym.store.g, k1.store.g) == (1, 0)
    assert conformal_check(ctx, k1)["ok"]
    assert counts["entry lifts"] == 0


def test_float_and_bool_levels_are_refused():
    ctx = ctx_of("sl", (2, 1))
    for bad in (0.1, 1.0, True, False):
        with pytest.raises(WAlgebraError, match=re.escape(f"level {bad!r} is a")):
            bracket_table(ctx, ktilde=bad)
    for bad in ("one", "1/0", None):
        with pytest.raises(WAlgebraError, match=re.escape(f"level {bad!r} is not")):
            bracket_table(ctx, ktilde=bad)
    # one cache entry per level, keyed by the normalised Fraction
    tenth = bracket_table(ctx, ktilde=F(1, 10))
    assert bracket_table(ctx, ktilde="1/10") is tenth
    assert bracket_table(ctx, ktilde="0.1") is tenth
    assert bracket_table(ctx, ktilde=1) is bracket_table(ctx, ktilde="1") \
        is bracket_table(ctx, ktilde=F(2, 2))
    sym = bracket_table(ctx)
    assert tenth.entries == {ab: v.at_level(F(1, 10)) for ab, v in sym.entries.items()}
    levels = [k[3] for k in wbracket._TABLE_CACHE if k[:3] == ("sl", (2, 1), ())]
    assert len(levels) == len(set(levels))
    assert all(k == "symbolic" or type(k) is Fraction for k in levels)
    assert F(1, 10) in levels and F(1) in levels


def test_table_is_complete_and_weight_graded():
    for kind, p1, p2 in [("sl", (3, 2), ()), ("sl_super", (2,), (1,))]:
        ctx = ctx_of(kind, p1, p2)
        tab = table_of(kind, p1, p2)
        gens = ctx.centralizer().gens
        assert set(tab.entries) == {(a, b) for a in gens for b in gens}
        for (a, b), entry in tab.entries.items():
            for n, poly in entry.coeffs.items():
                want = a.t + b.t - n - 1
                for mono in poly.terms:
                    assert monomial_weight(mono) == want


def test_missing_entry_raises():
    tab = table_of("sl", (2,))
    ctx = ctx_of("sl", (3,))
    with pytest.raises(MissingTableEntry):
        tab.lookup(gen(ctx, 2, 1, 1), gen(ctx, 3, 1, 1))


def test_axiom_sweep_small_specs():
    for kind, p1, p2 in [("sl", (2, 1), ()), ("sl", (2, 2), ()),
                         ("sl_super", (2,), (1,))]:
        ctx = ctx_of(kind, p1, p2)
        tab = table_of(kind, p1, p2)
        gens = ctx.centralizer().gens
        assert check_skew(tab) == []
        triples = [(a, b, c) for a in gens for b in gens for c in gens]
        assert check_jacobi(tab, triples) == []


def test_conformal_action_and_central_term():
    for kind, p1, p2 in [("sl", (2,), ()), ("sl", (2, 1), ()),
                         ("sl", (2, 2), ()), ("sl", (3, 2), ()),
                         ("sl_super", (2,), (1,)), ("sl_super", (3,), (2,))]:
        ctx = ctx_of(kind, p1, p2)
        rep = conformal_check(ctx, table_of(kind, p1, p2, ktilde=1))
        assert rep["ok"], (kind, p1, p2, rep["failures"])
        assert rep["central"] == Coeff.of(F(-1, 2))


def test_conformal_vector_weight():
    ctx = ctx_of("sl", (2, 1))
    L = conformal_vector(ctx)
    assert poly_weight(L) == 2


def test_step1_ratio_3_2():
    # the leading product of the (3,2) weak set: the weight-2 linear part is
    # proportional to q2(1,1) + 2*q2(2,2), exactly
    ctx = ctx_of("sl", (3, 2))
    tab = table_of("sl", (3, 2))
    a = DiffPoly.variable(gen(ctx, "5/2", 1, 2))
    b = DiffPoly.variable(gen(ctx, "5/2", 2, 1))
    lt = linear_term(nth_product(tab, a, b, 2))
    c11 = lt[gen(ctx, 2, 1, 1)]
    c22 = lt[gen(ctx, 2, 2, 2)]
    assert c22 == c11 * Coeff.of(2)
    assert c11 == -(K * K) * Coeff.of(F(10, 9))
    assert c11.at_one() == F(-10, 9) and c22.at_one() == F(-20, 9)


def test_step1_ratio_2_2():
    # equal blocks: the mixed product's linear part is q2(1,1) - q2(2,2)
    ctx = ctx_of("sl", (2, 2))
    tab = table_of("sl", (2, 2))
    a = DiffPoly.variable(gen(ctx, 2, 1, 2))
    b = DiffPoly.variable(gen(ctx, 1, 2, 1))
    lt = linear_term(nth_product(tab, a, b, 0))
    c11 = lt[gen(ctx, 2, 1, 1)]
    c22 = lt[gen(ctx, 2, 2, 2)]
    assert c22 == -c11
    assert c11 == Coeff.of(1)


# what a VarSpace holds: the format, and nothing that grows with use
FORMAT_FIELDS = {"vars", "rank", "stride", "odd", "_any_odd"}


@pytest.mark.parametrize("shape", [("sl", (4, 3), ()), ("sl_super", (3,), (2,))], ids=str)
def test_a_var_space_keeps_only_its_format(shape, monkeypatch):
    # a fresh symbolic table, its k=1 view, every entry read, the skew
    # check and a bracket of two composites; reconcile on sl(3|2), whose
    # affine table is one more space ((4,3) does not reconcile in minutes):
    # derivatives are memoized by the engines alone and nothing lifted is
    # kept, so each space holds its format fields and no more
    monkeypatch.setattr(wbracket, "_TABLE_CACHE", {})
    ctx = ctx_of(*shape)
    table = bracket_table(ctx)
    tables = [table, bracket_table(ctx, 1)]
    for tab in tables:
        assert any([tab.entries[ab] for ab in tab.entries])
        assert check_skew(tab) == []
    u, v, w = (DiffPoly.variable(x) for x in table.variables[:3])
    assert extend_bracket(table, u * apply_partial(v) + w, apply_partial(w, 2) * u + v)
    # two reads of one entry share no Coeff
    ab = next(ab for ab in table.entries if table.entries[ab])
    first, second = table.entries[ab], table.entries[ab]
    assert first == second
    assert not {id(c) for p in first.coeffs.values() for c in p.terms.values()} & {
        id(c) for p in second.coeffs.values() for c in p.terms.values()}
    spaces = [tab.store.space for tab in tables]
    if shape[0] == "sl_super":
        rctx = ReductionCtx(ctx)
        assert reconcile(rctx, table).ok
        spaces.append(rctx.affine_table().store.space)
    for space in spaces:
        assert vars(space).keys() == FORMAT_FIELDS
        assert len(space.rank) == len(space.vars)
        assert len(space.odd) == len(space.vars) * space.stride
    # the stored rows still carry derivatives
    stride = table.store.space.stride
    assert any(x % stride for val in table.store.ints.values() for p in val.values()
               for m in p for x in m)
