"""The constraint-reduction oracle and its reconciliation with the closed
master formula.

This engine derives generator realizations and brackets from nothing but the
affine bracket and the constraint projection.  It shares with the chain
formula only the ladder families and the pairing reader, which a test below
checks against the matrices themselves; that is what makes the bit-exact
agreement below count as independent certification."""

import gc
import hashlib
import re
import weakref
from collections import ChainMap
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import (affine_table_reference, bracket_by_chains, corrupted_table, ctx_of, flatten,
                      gen, monomial_parity, poly_normalize, poly_weight, reexpress, small_shapes,
                      solve_generator_reference, substitute, table_of, verify_every_ordered_pair,
                      weight_system_reference, wrong_parity_table)
from walgebra import dsreduction
from walgebra.coeffs import ONE, Coeff
from walgebra.dsreduction import (AffVar, ReductionCtx, _replaced, _weight_search,
                                  _weight_system, reconcile, reduced_bracket, solve_all,
                                  weight_monomials)
from walgebra.errors import NoSolution, NormalizationImpossible, WAlgebraError
from walgebra.liestruct import (GenIndex, PartitionSpec, SuperMatrix, build_algebra,
                                pairing_index, pairings)
from walgebra.linalg import System, solve_each
from walgebra.pvacore import (BracketTable, DiffPoly, LambdaPoly, Substitution, _Leibniz,
                              apply_partial, check_jacobi, check_skew, extend_bracket,
                              normalize_factors)
from walgebra.wbracket import MasterEngine

F = Fraction
K = Coeff.level()


def test_sl2_reduced_equals_master():
    ctx = ctx_of("sl", (2,))
    rctx = ReductionCtx(ctx)
    sol = solve_all(rctx)
    q = gen(ctx, 2, 1, 1)
    W = sol[q]
    br = reduced_bracket(rctx, W, W)
    master = table_of("sl", (2,)).lookup(q, q)
    # map each lambda-slot back to generator letters; only the scalar
    # (empty-monomial) central part may stay behind
    for n in sorted(set(br.coeffs) | set(master.coeffs)):
        expressed, residual = reexpress(sol, br.get(n))
        assert set(residual.terms) <= {()}
        assert expressed + residual == master.get(n)


def test_sl2_solution_shape():
    ctx = ctx_of("sl", (2,))
    rctx = ReductionCtx(ctx)
    sol = solve_all(rctx)
    q = gen(ctx, 2, 1, 1)
    W = sol[q]
    # weight-2 realization: the generator letter plus lower-string corrections
    assert poly_weight(W) == 2
    letters = {v.g for m in W.terms for v, _ in m}
    assert q in letters


def test_reconcile_accepted_specs():
    for kind, p1, p2 in [("sl", (3,), ()), ("sl", (2, 1), ()),
                         ("sl", (2, 2), ()), ("sl_super", (2,), (1,))]:
        ctx = ctx_of(kind, p1, p2)
        rep = reconcile(ReductionCtx(ctx), table_of(kind, p1, p2))
        assert rep.ok, (kind, p1, p2, rep.failure)


# sha256 of the corrected realizations and the corrections on criterion 2's
# fast shapes, recorded from the hand-assembled systems that linalg.System
# replaced: any change to a column order or a solution shows here
RECONCILE_DIGESTS = {
    ('sl', (3,), ()):
        "67d4de453542f44dcbd95ffd7b7deefafa71ed6ee9146d1c34f906f2c228a69a",
    ('sl', (2, 1), ()):
        "180d3b824efcfad90494f752d258304af4b8a8a3ee2dd6615a902cc2336e2934",
    ('sl', (2, 2), ()):
        "e83406df7963b22aa49e57139cb1b6ba93500432f279ef5c8b730e331a2514f2",
    ('sl', (3, 1), ()):
        "5207eca67870752b14ea2f80ca8ae61a606e40ebb557e860f2524d1e59d8994d",
    ('sl', (4,), ()):
        "de72b148d3fc00937139422aeb150db5ce89d5dc961b8eca7168a6ba90d8772c",
    ('sl_super', (2,), (1,)):
        "611e6951ea925da5b3248e56e14689dcbdef630b8bb99d8d9bd54f99157e2894",
    ('sl_super', (3,), (1,)):
        "fbc897ba2dac9f4f55eed743e98c085a76d311d0c5a9bd32c806aafa2881f1da",
}


def _reconcile_digest(rep) -> str:
    gens = sorted(rep.corrections, key=lambda g: g.sort_key())
    text = "\n".join(f"{g} W {rep.corrected[g]!r} C {rep.corrections[g]!r}"
                     for g in gens)
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=None)
def _reconciled(kind, p1, p2=()):
    """The shape's reduction context and its reconcile report, kept across
    the tests that read them."""
    rctx = ReductionCtx(ctx_of(kind, p1, p2))
    return rctx, reconcile(rctx, table_of(kind, p1, p2))


def test_reconcile_results_are_pinned():
    for (kind, p1, p2), digest in RECONCILE_DIGESTS.items():
        rep = _reconciled(kind, p1, p2)[1]
        assert rep.ok and _reconcile_digest(rep) == digest, (kind, p1, p2)


def test_an_even_self_bracket_is_fixed_by_its_positive_powers():
    # skew symmetry of {W_a lambda W_a} for an even a fixes its lambda^0 part
    # as -1/2 sum_{n>=1} (-1)^n d^n of its lambda^n parts, which lets the
    # final verification compare only lambda^1 up; the realizations on the
    # super shapes have their generator's parity, which decides which
    # self-brackets are cut
    nonzero = 0
    for kind, p1, p2 in RECONCILE_DIGESTS:
        rctx, rep = _reconciled(kind, p1, p2)
        W = rep.corrected
        for a, Wa in W.items():
            if kind == "sl_super":
                assert {monomial_parity(m) for m in Wa.terms} == {a.parity}, (kind, p1, p2, a)
            if a.parity:
                continue
            br = reduced_bracket(rctx, Wa, Wa)
            rest = sum((apply_partial(br.get(n), n).scale((-1) ** n)
                        for n in br.coeffs if n), DiffPoly())
            assert br.get(0) == rest.scale(F(-1, 2)), (kind, p1, p2, a)
            nonzero += bool(br.get(0))
    assert nonzero


# criterion 2's fast shapes and (3,2)
TABLE_SHAPES = [*RECONCILE_DIGESTS, ('sl_super', (3,), (2,)), ('sl', (3, 2), ())]

# sha256 of the affine table's entries, recorded when each entry's linear
# part came from a per-slice elimination and a substitute pass for rho
AFFINE_TABLE_DIGESTS = {
    ('sl', (3,), ()):
        "6172e752c3c7486d2fc7da52a24d76c7ef37f59de36f5399f11ff11b8e2f662c",
    ('sl', (2, 1), ()):
        "5d3fb2fa0ce99e8c42ee01a0c3e0ad067d18e35ec047242d49ffd5f171fe89fd",
    ('sl', (2, 2), ()):
        "cc290848e760ac146c7f1522e190950260bc8e318ef6e2162856916ffad6bed0",
    ('sl', (3, 1), ()):
        "bbe16ec9ed205aee4461636d8afaa04c1a943eb7c5994324cb9423d2acac2808",
    ('sl', (4,), ()):
        "e55fb49e9fc3fa6b89880b04fd83e84b27f116d649cb4991a1d30622f4b1da8a",
    ('sl_super', (2,), (1,)):
        "3acf331b564f75bc7df4094878868aecf5539df2d4be8ec6f1b518dbc2aa61b9",
    ('sl_super', (3,), (1,)):
        "c99f5623ddafd46eb4b516025027c32c26d316e31dac88c83a864a2b6f3de47a",
    ('sl_super', (3,), (2,)):
        "5cfed8106ba09c71b285a74ac772373b4a52e97b3c92013a60ef7df1d262baee",
    ('sl', (3, 2), ()):
        "74f6c5ac45ff600dfe67bb726772d760abe7202b1d024e90b57e934f3a1e24bd",
}


def test_affine_tables_are_pinned():
    assert set(AFFINE_TABLE_DIGESTS) == set(TABLE_SHAPES)
    for (kind, p1, p2), digest in AFFINE_TABLE_DIGESTS.items():
        entries = ReductionCtx(ctx_of(kind, p1, p2)).affine_table().entries
        pairs = sorted(entries, key=lambda uv: (uv[0].sort_key(), uv[1].sort_key()))
        text = "\n".join(f"{u} {v} {entries[(u, v)]!r}" for u, v in pairs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (kind, p1, p2)


def test_pairing_coordinates_rebuild_every_commutator():
    for kind, p1, p2 in TABLE_SHAPES:
        ctx = ctx_of(kind, p1, p2)
        rctx = ReductionCtx(ctx)
        cd = rctx.cdata
        index = pairing_index(ctx, [cd.dualFamily[v.g][v.n] for v in rctx.variables])
        for u in rctx.variables:
            for v in rctx.variables:
                br = rctx.matrix[u].comm(rctx.matrix[v])
                rebuilt = SuperMatrix(ctx.shape)
                for i, c in pairings(index, br).items():
                    rebuilt += rctx.matrix[rctx.variables[i]].scale(c)
                assert rebuilt == br, (kind, p1, p2, u, v)


def _off_grading(lp: LambdaPoly) -> list:
    """The terms of lp whose coefficient is not c*k^(n + D), for lambda power
    n and a monomial with D derivatives: the level grading (k of degree 1,
    lambda and d of degree -1) on a value of degree 0."""
    return [(n, m, c) for n, p in lp.coeffs.items() for m, c in p.terms.items()
            if c != Coeff.level(n + sum(d for _, d in m), c.num[-1])]


def test_values_are_graded_in_the_level():
    # computed with k formal throughout, so the grading that lets the
    # engines work at k=1 is checked here, not assumed: the chain-by-chain
    # brackets, the affine tables, and the brackets of the reconciled
    # realizations (and the realizations themselves) on criterion 2's fast
    # shapes
    for kind, p1, p2 in RECONCILE_DIGESTS:
        ctx = ctx_of(kind, p1, p2)
        engine = MasterEngine(ctx)
        gens = engine.cdata.gens
        for a in gens:
            for b in gens:
                assert not _off_grading(bracket_by_chains(engine, a, b)), (kind, p1, p2, a, b)
        rctx = ReductionCtx(ctx)
        for uv, entry in rctx.affine_table().entries.items():
            assert not _off_grading(entry), (kind, p1, p2, uv)
        rep = reconcile(rctx, table_of(kind, p1, p2))
        assert rep.ok
        W = rep.corrected
        for poly in (*W.values(), *rep.corrections.values()):
            assert not _off_grading(LambdaPoly({0: poly})), (kind, p1, p2, poly)
        for a in gens:
            for b in gens:
                br = reduced_bracket(rctx, W[a], W[b])
                assert not _off_grading(br), (kind, p1, p2, a, b)


def test_reduction_refuses_a_ladder_that_cannot_span():
    ctx = build_algebra(PartitionSpec("sl", (2, 1)))
    cd = ctx.centralizer()
    cd.gens.remove(cd.gens[-1])
    with pytest.raises(NoSolution, match="cannot span"):
        ReductionCtx(ctx)


def _brute_force_monomials(letters, target):
    """Every multiset of factors (letter, dpower) of total weight target
    with no repeated odd factor, each in normalized order."""
    factors = sorted(((v, d) for v in letters for d in range(int(target - v.t) + 1)),
                     key=lambda f: (f[0].sort_key(), f[1]))
    out = set()
    for r in range(1, int(target / min(v.t for v in letters)) + 1):
        for mono in combinations_with_replacement(factors, r):
            if sum(v.t + d for v, d in mono) != target:
                continue
            if any(a == b and a[0].parity for a, b in zip(mono, mono[1:])):
                continue
            out.add(mono)
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 1)), min_size=1, max_size=3),
       st.integers(1, 6))
def test_weight_monomials_are_the_canonical_monomials_once(specs, twice_target):
    # letters of half-integer weight t/2, either parity, told apart by i
    letters = [GenIndex(F(t, 2), i, 1, parity) for i, (t, parity) in enumerate(specs)]
    target = F(twice_target, 2)
    got = weight_monomials(letters, lambda v: v.t, target)
    # in lexicographic order of their factor sequences, the order of first
    # appearance in a search over every ordering of the factors
    factors = sorted({f for m in got for f in m}, key=lambda f: (f[0].sort_key(), f[1]))
    rank = {f: r for r, f in enumerate(factors)}
    assert got == sorted(_brute_force_monomials(letters, target),
                         key=lambda m: [rank[f] for f in m])
    # the search reaches each monomial once: as many leaves as outputs
    ordered = sorted(letters, key=lambda v: v.sort_key())
    leaves = list(_weight_search([int(2 * v.t) for v in ordered], [v.parity for v in ordered],
                                 2, twice_target))
    assert len(leaves) == len(got)


@lru_cache(maxsize=None)
def _realized(kind, p1, p2=()):
    """The shape's reduction context, its generators in order, their pinned
    realizations W, and a memo of substitute's images under W kept across
    the examples that use the shape."""
    rctx = ReductionCtx(ctx_of(kind, p1, p2))
    W = solve_all(rctx)
    return rctx, sorted(W, key=lambda g: g.sort_key()), W, {}


SUBSTITUTION_COEFFS = [ONE, Coeff.of(F(-2, 3)), 1 + K, K * K - F(1, 2) * K, F(3, 4) * K]


def _random_poly(data, letters, max_terms=4):
    terms = []
    for _ in range(data.draw(st.integers(0, max_terms))):
        n = data.draw(st.integers(0, 2))
        factors = [(data.draw(st.sampled_from(letters)), data.draw(st.integers(0, 2)))
                   for _ in range(n)]
        terms.append((factors, data.draw(st.sampled_from(SUBSTITUTION_COEFFS))))
    return poly_normalize(terms)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("sl_super", (2,), (1,)), ("sl", (2, 2))]), st.data())
def test_interned_substitution_matches_the_diffpoly_reference(shape, data):
    # random polynomials over the generators (mapped to their realizations)
    # and a few ladder letters (absent from the mapping, so they stay), with
    # coefficients of mixed degree in k, odd letters on sl(2|1), and ONE on
    # monomials that carry derivatives, as reconcile feeds them
    rctx, gens, W, memo = _realized(*shape)
    affine = rctx.affine_table()
    letters = gens + rctx.p_vars[:3]
    sub = Substitution(affine, W)
    polys = [_random_poly(data, letters) for _ in range(3)]
    _, mu = normalize_factors([(data.draw(st.sampled_from(gens)), data.draw(st.integers(1, 2)))
                               for _ in range(data.draw(st.integers(1, 2)))])
    if mu is not None:
        polys.append(DiffPoly({mu: ONE}))
    want = [substitute(poly, W, memo) for poly in polys]
    for poly, w in zip(polys + polys, want + want):  # the second pass reads the memos
        assert sub(poly) == w, poly
    # an override of one letter by the image of one correction monomial, as
    # reconcile's linear correction terms use it: coefficient 1, derivatives
    # allowed, so of one degree
    l = data.draw(st.sampled_from(gens))
    _, nu = normalize_factors([(data.draw(st.sampled_from(gens)), data.draw(st.integers(0, 2)))
                               for _ in range(data.draw(st.integers(1, 2)))])
    image = substitute(DiffPoly({nu: ONE} if nu else {}), W, memo)
    over = ChainMap({l: image}, W)
    over_sub = Substitution(affine, over)
    # the reference's images under W that do not involve l hold under the
    # override too
    over_memo = {"letters": {vk: p for vk, p in memo["letters"].items() if vk[0] != l},
                 "prefixes": {m: p for m, p in memo["prefixes"].items()
                              if all(v != l for v, _ in m)}}
    for poly in polys + [_random_poly(data, [l] + letters)]:
        assert over_sub(poly) == substitute(poly, over, over_memo), poly
    # an image of two degrees is refused, naming its letter
    mixed = Substitution(affine, ChainMap({l: W[l].scale(1 + K)}, W))
    with pytest.raises(WAlgebraError, match=f"^the image of {re.escape(str(l))} mixes degrees"):
        mixed(DiffPoly.variable(l))


def _buildable(shapes) -> list:
    """The shapes the workbench builds (str(ef) = 0 refuses the rest)."""
    out = []
    for shape in shapes:
        try:
            ctx_of(*shape)
        except NormalizationImpossible:
            continue
        out.append(shape)
    return out


# every shape of both kinds with at most 4 boxes that the workbench builds
RECONCILE_SMALL = _buildable(small_shapes(4))
# and the 5-box shapes with three or more blocks, counting both groups, and
# sl(2|3) and sl(3|2), whose reconcile + reference take 0.6-0.7 + 1.7-1.8 s
# and 0.5-0.6 + 1.7-1.8 s (two fresh processes each, the closed-form table
# built beforehand).  The other five 5-box shapes also reconcile and agree,
# but sl(1|4) 0.6-0.7 + 2.2-2.5 s and sl(4|1) 0.6-0.9 + 1.7-2.4 s put a
# Tier-1 run past 90 s on a slow host (93.6 s once with them, where their
# two runs took 8.5 s), and (5) 1.6 + 6.8-9.1 s, (4,1) 0.9 + 3.3-4.1 s and
# (3,2) 1.0-1.1 + 3.9-4.0 s cost more still, most of it in the DiffPoly
# reference
RECONCILE_5 = [s for s in _buildable(small_shapes(5))
               if sum(s[1]) + sum(s[2]) == 5 and len(s[1]) + len(s[2]) >= 3] + [
    ("sl_super", (2,), (3,)), ("sl_super", (3,), (2,))]


@pytest.mark.parametrize("shape", RECONCILE_SMALL + RECONCILE_5, ids=str)
def test_reconcile_agrees_with_the_reference_on_every_ordered_pair(shape):
    # reconcile brackets each unordered pair once, the higher weight first,
    # and leans on skew symmetry for the other orientation; the reference
    # brackets every ordered pair on DiffPoly
    rctx = ReductionCtx(ctx_of(*shape))
    table = table_of(*shape)
    rep = reconcile(rctx, table)
    assert rep.ok, rep.failure
    assert verify_every_ordered_pair(rctx, table, rep.corrected) == []


@pytest.mark.parametrize("shape", RECONCILE_SMALL, ids=str)
def test_constraint_rows_from_the_memo_match_the_graded_bracket_route(shape):
    # each weight's system, its rows in order with their right-hand sides
    # and scales, is the one graded_bracket builds
    rctx = ReductionCtx(ctx_of(*shape))
    gens = rctx.cdata.gens
    for t in dict.fromkeys(g.t for g in gens):
        stage = [g for g in gens if g.t == t]
        got, want = _weight_system(rctx, stage), weight_system_reference(rctx, stage)
        for d in ("rows", "rhs", "scales"):
            assert list(getattr(got, d).items()) == list(getattr(want, d).items()), (t, d)


def test_reconcile_shapes_at_most_4_boxes():
    assert len(RECONCILE_SMALL) == 13
    assert len(RECONCILE_5) == 17


# every shape of both kinds with at most 5 boxes that the workbench builds
SHAPES_5 = _buildable(small_shapes(5))


@pytest.mark.parametrize("shape", SHAPES_5, ids=str)
def test_one_elimination_per_weight_matches_each_generator_alone(shape):
    # the same pivots and zeroed-free solution as solving each generator's
    # own system, whose right-hand side is its letter's constraint brackets
    rctx, gens, W, _ = _realized(*shape)
    assert W == {a: solve_generator_reference(rctx, a) for a in gens}


@pytest.mark.parametrize("shape", SHAPES_5, ids=str)
def test_affine_store_built_on_ints_matches_the_diffpoly_route(shape):
    # the store built from the structure kernel's output is the one that
    # interning the DiffPoly entries gives: the same scale, grading and ints,
    # so every ordered pair lifts to the same entry
    rctx = ReductionCtx(ctx_of(*shape))
    got, want = rctx.affine_table(), affine_table_reference(rctx)
    assert (got.store.scale, got.store.g, got.store.ints) == (
        want.store.scale, want.store.g, want.store.ints)
    assert got.variables == want.variables == rctx.variables
    for u in rctx.variables:
        for v in rctx.variables:
            assert got.lookup(u, v) == want.lookup(u, v), (u, v)


def _lifted_bracket(engine, bracket) -> LambdaPoly:
    scale, s, rows = bracket
    g = engine.g
    return LambdaPoly({n: engine.space.lift(scale, {s + g * n: p}, g) for n, p in rows.items()})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SHAPES_5), st.data())
def test_correction_monomials_bracket_through_their_factors(shape, data):
    # {mu(W) lambda W_b} through mu's factors, from {W_c lambda W_b} and the
    # substitution's images of the factors, against the bracket of the
    # expanded image mu(W); the two sit at different scales, so they are
    # compared over Q(k).  mu is a correction monomial of a stage: weight w
    # over the lower generators, here with 1-3 factors and derivative
    # powers 0-2
    rctx, gens, W, _ = _realized(*shape)
    weights = sorted({g.t for g in gens})
    if len(weights) < 2:
        reject()
    w = data.draw(st.sampled_from(weights[1:]))
    lower = [g for g in gens if g.t < w]
    pool = [mu for mu in weight_monomials(lower, lambda g: g.t, w)
            if len(mu) <= 3 and all(d <= 2 for _, d in mu)]
    if not pool:
        reject()
    monos = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    affine = rctx.affine_table()
    engine = affine.engine
    sub = Substitution(affine, W)
    for b in lower:
        got = sub.bracket_images(monos, b, engine)
        for mu, bracket in zip(monos, got):
            want = extend_bracket(affine, sub(DiffPoly({mu: ONE})), W[b])
            assert _lifted_bracket(engine, bracket) == want, (mu, b)


def _on_slice(engine, m) -> bool:
    """Whether the interned monomial m is over string tops q_g[0] alone."""
    return all(engine.space.vars[x // engine.space.stride].n == 0 for x in m)


def _slice_part(engine, bracket) -> tuple:
    """A graded bracket with every monomial off the slice and every empty
    lambda power dropped."""
    scale, s, rows = bracket
    return scale, s, {n: q for n, p in rows.items()
                      if (q := {m: c for m, c in p.items() if _on_slice(engine, m)})}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SHAPES_5), st.data())
def test_the_slice_engine_brackets_to_the_slice_part_of_the_full_bracket(shape, data):
    # pi, the projection onto the string tops q_g[0], commutes with the
    # Leibniz rules: the engine of kept letters brackets the realizations,
    # and correction monomials' images through their factors, to the full
    # engine's bracket with every monomial off the slice dropped
    rctx, gens, W, _ = _realized(*shape)
    affine = rctx.affine_table()
    engine = affine.engine
    sliced = _Leibniz(affine.store, {AffVar(g, 0) for g in gens})
    sub = Substitution(affine, W)
    a, b = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))
    A, B = sub.dpow(((a, 0),), 0), sub.dpow(((b, 0),), 0)
    assert sliced.graded_bracket(A, B) == _slice_part(engine, engine.graded_bracket(A, B))
    weights = sorted({g.t for g in gens})
    if len(weights) < 2:
        return
    w = data.draw(st.sampled_from(weights[1:]))
    pool = [mu for mu in weight_monomials([g for g in gens if g.t < w], lambda g: g.t, w)
            if len(mu) <= 3 and all(d <= 2 for _, d in mu)]
    if not pool:
        return
    monos = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    for mu in monos:
        X = sub.dpow(mu, 0)
        assert sliced.graded_bracket(X, B) == _slice_part(engine, engine.graded_bracket(X, B))
    for got, full in zip(sub.bracket_images(monos, b, sliced),
                         sub.bracket_images(monos, b, engine)):
        assert _slice_part(engine, got) == _slice_part(engine, full), b


@pytest.mark.parametrize("shape", [("sl", (2, 2)), ("sl_super", (2, 1), (1,)), ("sl", (3, 1)),
                                   ("sl_super", (3,), (1,))], ids=str)
def test_every_stage_row_is_a_slice_monomial(monkeypatch, shape):
    # a stage's rows are pi of its equations: each row key (pair, lambda
    # power, monomial) names a monomial over string tops q_g[0] alone
    systems: list = []
    in_stage = []

    class Kept(System):
        def __init__(self):
            super().__init__()
            if in_stage:
                systems.append(self)

    def stage(*args):
        in_stage.append(True)
        try:
            return stage_corrections(*args)
        finally:
            in_stage.pop()

    stage_corrections = dsreduction._stage_corrections
    monkeypatch.setattr(dsreduction, "System", Kept)
    monkeypatch.setattr(dsreduction, "_stage_corrections", stage)
    rctx = ReductionCtx(ctx_of(*shape))
    assert reconcile(rctx, table_of(*shape)).ok
    engine = rctx.affine_table().engine
    assert systems and all(system.rows for system in systems)
    for system in systems:
        for key in system.rows:
            assert _on_slice(engine, key[-1]), key


# shapes with odd generators before a stage letter, and a plain one
REPLACED_SHAPES = [("sl_super", (2,), (1,)), ("sl_super", (2, 1), (1,)), ("sl", (2, 2))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REPLACED_SHAPES), st.data())
def test_stage_replacement_matches_the_override_reference(shape, data):
    # a stage puts a correction monomial mu in the place of its letter l in
    # the target, whose monomials end in one factor d^j(l) after letters that
    # sort before l: image(rest) * d^j(mu(W)) on the stage's own
    # Substitution.  The reference maps l to mu's image by an override.  mu
    # has weight at most 3 and at most two factors, which keeps the images
    # small
    rctx, gens, W, _ = _realized(*shape)
    l = data.draw(st.sampled_from(gens[1:]))  # gens are in factor order
    mu = data.draw(st.sampled_from([m for t in range(2, 7) for m in weight_monomials(
        gens, lambda g: g.t, F(t, 2)) if len(m) <= 2]))
    prefix = st.lists(st.tuples(st.sampled_from(gens[:gens.index(l)]), st.integers(0, 1)),
                      max_size=2)
    terms = [(data.draw(prefix) + [(l, data.draw(st.integers(0, 2)))],
              data.draw(st.sampled_from(SUBSTITUTION_COEFFS)))
             for _ in range(data.draw(st.integers(1, 4)))]
    part = poly_normalize(terms)
    affine = rctx.affine_table()
    sub = Substitution(affine, W)
    want = Substitution(affine, ChainMap({l: sub(DiffPoly({mu: ONE}))}, W))(part)
    got = affine.engine.space.lift(*_replaced(sub, part, mu), 1)
    assert got == want, (part, l, mu)


def test_a_stage_letter_is_the_last_factor_of_its_target_monomials():
    # in a target {a lambda b} that a stage of weight w does not defer (a of
    # weight w, b lower, no letter heavier than w), a monomial holds at most
    # one letter of weight w and holds it last, which _replaced relies on
    met = 0
    for kind, p1, p2 in RECONCILE_DIGESTS:
        table = table_of(kind, p1, p2)
        gens = sorted(table.variables, key=lambda g: g.sort_key())
        for a in gens:
            for b in [g for g in gens if g.t < a.t]:
                polys = table.lookup(a, b).coeffs.values()
                if any(v.t > a.t for P in polys for m in P.terms for v, _ in m):
                    continue  # deferred
                for m in (m for P in polys for m in P.terms):
                    at = [i for i, (v, _) in enumerate(m) if v.t == a.t]
                    assert at in ([], [len(m) - 1]), (kind, p1, p2, a, b, m)
                    met += bool(at)
    assert met


def _counting(cls, made: list):
    """A subclass of cls whose instances are appended to made."""
    class Counted(cls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))
    return Counted


def test_reconcile_runs_each_stage_on_one_substitution(monkeypatch):
    # one Substitution per stage with correction monomials and one for the
    # final verification, none per correction monomial
    shape = ("sl", (2, 2))
    rctx = ReductionCtx(ctx_of(*shape))
    gens = rctx.cdata.gens
    stages = [w for w in {g.t for g in gens}
              if weight_monomials([g for g in gens if g.t < w], lambda g: g.t, w)]
    made: list = []
    monkeypatch.setattr(dsreduction, "Substitution", _counting(Substitution, made))
    assert reconcile(rctx, table_of(*shape)).ok
    assert len(made) == len(stages) + 1 == 2


@pytest.mark.parametrize("shape", [("sl", (2, 2)), ("sl_super", (2, 1), (1,)), ("sl", (3, 1))],
                         ids=str)
def test_no_stage_system_outlives_its_stage(monkeypatch, shape):
    # every System reconcile builds is freed by reference counting before the
    # next Substitution is made, the final verification's included
    systems: list = []
    alive: list = []  # the Systems alive as each Substitution is made
    monkeypatch.setattr(dsreduction, "System", _counting(System, systems))

    class Watched(Substitution):
        def __init__(self, *args):
            alive.append(sum(r() is not None for r in systems))
            super().__init__(*args)

    monkeypatch.setattr(dsreduction, "Substitution", Watched)
    rctx, table = ReductionCtx(ctx_of(*shape)), table_of(*shape)
    gc.disable()
    try:
        assert reconcile(rctx, table).ok
    finally:
        gc.enable()
    assert len(alive) >= 2 and systems
    assert alive == [0] * len(alive)


def test_reconcile_drops_the_engine_memos(monkeypatch):
    # every bracket memo is emptied before reconcile returns, the Jacobi
    # sweep's per-letter products included; the skew verdict and the held
    # orbits stay, and a dropped context takes its engine with it without
    # the cyclic collector.  The engine of the slice dies with the call
    sliced: list = []
    monkeypatch.setattr(dsreduction, "_Leibniz", _counting(_Leibniz, sliced))
    gc.disable()
    try:
        rctx = ReductionCtx(ctx_of("sl", (3, 1)))
        affine = rctx.affine_table()
        engine = affine.engine
        assert engine.symmetric()
        held = engine.held
        vs = affine.variables
        triples = [(vs[0], vs[-1], vs[-1]), (vs[-1], vs[1], vs[-2]), (vs[-1], vs[-1], vs[-1])]
        assert check_jacobi(affine, triples) == [] and engine._jacobi_products
        assert reconcile(rctx, table_of("sl", (3, 1))).ok
        assert not (engine._vm or engine._products or engine._dpows or engine._jacobi_products)
        assert len(sliced) == 1 and sliced[0]() is None
        assert engine._symmetric is True and engine.held is held and held
        # the Jacobi sums from emptied memos, past the held orbits
        assert not any(engine.jacobi(*t) for t in triples)
        engine.drop_memos()  # the per-letter products refer back to the engine
        dead = weakref.ref(engine)
        del rctx, affine, engine
        assert dead() is None
    finally:
        gc.enable()
    # on a table that violates the Jacobi identity nothing is held, so
    # check_jacobi computes every triple again from emptied memos, with the
    # same verdicts and diffs
    bad = corrupted_table()
    gens = bad.variables
    triples = [(a, b, c) for a in gens for b in gens for c in gens]
    got = check_jacobi(bad, triples)
    assert got and bad.engine._jacobi_products
    bad.engine.drop_memos()
    assert check_jacobi(bad, triples) == got


def test_reconcile_refuses_a_table_of_the_wrong_parity():
    # skew-symmetric, so only the parity check sees it
    ctx = ctx_of("sl_super", (2,), (1,))
    rep = reconcile(ReductionCtx(ctx), wrong_parity_table())
    assert not rep.ok
    assert rep.failure["stage"] == "skew" and rep.failure["table"] == "closed-form"
    assert rep.failure["kind"] == "parity"
    assert set(rep.failure["pair"]) == {gen(ctx, 1, 2, 2), gen(ctx, "3/2", 1, 2)}


def _broken_on_one_orientation(entries, a, b, extra):
    out = dict(entries)
    out[(a, b)] = out[(a, b)] + extra
    return out


def test_reconcile_refuses_a_closed_form_table_that_is_not_skew():
    # {a lambda b} changed and {b lambda a} not, for a before b in generator
    # order: the final verification brackets only (b, a), so only the skew
    # check sees the change
    ctx = ctx_of("sl", (2, 1))
    a, b, w = gen(ctx, "3/2", 1, 2), gen(ctx, "3/2", 2, 1), gen(ctx, 2, 1, 1)
    gens = ctx.centralizer().gens
    assert gens.index(a) < gens.index(b)
    entries = _broken_on_one_orientation(table_of("sl", (2, 1)).entries, a, b,
                                         LambdaPoly({0: DiffPoly.variable(w)}))
    rep = reconcile(ReductionCtx(ctx), BracketTable(gens, entries))
    assert not rep.ok
    assert rep.failure["stage"] == "skew" and rep.failure["table"] == "closed-form"
    assert set(rep.failure["pair"]) == {a, b}


def test_reconcile_refuses_an_affine_table_that_is_not_skew():
    ctx = ctx_of("sl", (2, 1))
    rctx = ReductionCtx(ctx)
    u, v = rctx.p_vars[:2]
    affine = rctx.affine_table()
    rctx._affine = BracketTable(rctx.variables, _broken_on_one_orientation(
        affine.entries, u, v, LambdaPoly({0: DiffPoly.variable(v)})))
    rep = reconcile(rctx, table_of("sl", (2, 1)))
    assert not rep.ok
    assert rep.failure["stage"] == "skew" and rep.failure["table"] == "affine"
    assert set(rep.failure["pair"]) == {u, v}


def test_reconcile_refuses_a_skew_table_that_breaks_jacobi():
    # skew symmetry holds, so the refusal comes from the graded comparison
    # of the final verification at lambda^0, lifted for the failing pair
    # only and in the stages' orientation, the later generator first
    ctx = ctx_of("sl", (2, 1))
    rctx = ReductionCtx(ctx)
    rep = reconcile(rctx, corrupted_table())
    assert not rep.ok
    assert "stage" not in rep.failure
    a, b = gen(ctx, "3/2", 2, 1), gen(ctx, "3/2", 1, 2)
    gens = ctx.centralizer().gens
    assert gens.index(a) > gens.index(b)
    assert rep.failure["pair"] == (a, b)
    W = rep.corrected
    assert rep.failure["got"] == reduced_bracket(rctx, W[a], W[b])
    assert rep.failure["got"] != rep.failure["want"]


def _self_bracket_changed(tab, a, extra: LambdaPoly) -> BracketTable:
    entries = dict(tab.entries)
    entries[(a, a)] = entries[(a, a)] + extra
    return BracketTable(tab.variables, entries)


def _refused_at_self_bracket(ctx, tab, a):
    """reconcile refuses tab, which passes the skew check, at the final
    verification of (a, a), with the full bracket and target lifted."""
    assert check_skew(tab) == []
    rctx = ReductionCtx(ctx)
    rep = reconcile(rctx, tab)
    assert not rep.ok
    assert "stage" not in rep.failure and rep.failure["pair"] == (a, a)
    W = rep.corrected
    assert rep.failure["got"] == reduced_bracket(rctx, W[a], W[a])
    assert rep.failure["want"] == LambdaPoly(
        {n: Substitution(rctx.affine_table(), W)(p) for n, p in tab.lookup(a, a).coeffs.items()})
    assert rep.failure["got"] != rep.failure["want"]


def test_reconcile_refuses_an_even_self_bracket_changed_above_lambda_0():
    # k(lambda L + 1/2 dL) added to {L lambda L} on sl(3): skew-consistent
    # for the even L, and no stage equation reads it, so only the final
    # verification from lambda^1 up sees it
    ctx = ctx_of("sl", (3,))
    L = gen(ctx, 2, 1, 1)
    l = DiffPoly.variable(L)
    extra = LambdaPoly({1: l.scale(K), 0: apply_partial(l).scale(F(1, 2) * K)})
    _refused_at_self_bracket(ctx, _self_bracket_changed(table_of("sl", (3,)), L, extra), L)


def test_reconcile_refuses_an_odd_self_bracket_changed_at_lambda_0():
    # q[2](1,1) added to {a lambda a} at lambda^0 for the odd a = q[3/2](1,2)
    # on sl(2|1): skew-consistent for an odd a, whose lambda^0 part skew
    # symmetry leaves free, so only a full self-bracket sees it
    ctx = ctx_of("sl_super", (2,), (1,))
    a = gen(ctx, "3/2", 1, 2)
    assert a.parity
    extra = LambdaPoly({0: DiffPoly.variable(gen(ctx, 2, 1, 1))})
    _refused_at_self_bracket(
        ctx, _self_bracket_changed(table_of("sl_super", (2,), (1,)), a, extra), a)


def test_reconcile_refuses_an_even_self_bracket_changed_at_lambda_0_as_not_skew():
    # a lambda^0 term alone on an even diagonal entry breaks skew symmetry
    ctx = ctx_of("sl_super", (2,), (1,))
    e = gen(ctx, 1, 2, 2)
    assert not e.parity
    tab = _self_bracket_changed(table_of("sl_super", (2,), (1,)), e,
                                LambdaPoly({0: DiffPoly.variable(e)}))
    rep = reconcile(ReductionCtx(ctx), tab)
    assert not rep.ok
    assert rep.failure["stage"] == "skew" and rep.failure["table"] == "closed-form"
    assert rep.failure["pair"] == (e, e)


def test_reconcile_corrections_stay_lower_weight():
    # every correction the reconciliation applies is a strictly-lower-weight
    # polynomial tail, never a change to the leading letter
    ctx = ctx_of("sl", (2, 2))
    rep = reconcile(ReductionCtx(ctx), table_of("sl", (2, 2)))
    assert rep.ok
    for g, corr in rep.corrections.items():
        if corr:
            assert poly_weight(corr) == g.t
            letters = {v.g for m in corr.terms for v, _ in m}
            assert g not in letters


def _dense_expand(rctx):
    """Coordinates over the ladder variables by one dense solve over the
    flattened matrices, every one of the N^2 positions a row."""
    n_pos = rctx.ctx.shape.N ** 2
    rows = [{} for _ in range(n_pos)]
    for j, v in enumerate(rctx.variables):
        for pos, val in flatten(rctx.matrix[v]).items():
            rows[pos][j] = val

    def expand(z):
        flat = flatten(z)
        sol = solve_each(rows, [{0: flat.get(pos, 0)} for pos in range(n_pos)], 1)[0]
        assert sol is not None, z
        return {rctx.variables[j]: c for j, c in sol.items()}
    return expand


def _projected_after(rctx):
    """The reference path: bracket in the full affine table, {u lambda v} =
    [u, v] + k lambda (u|v), then replace every letter of weight <= 0 by its
    constant (f|q)."""
    ctx = rctx.ctx
    expand = _dense_expand(rctx)
    entries = {}
    for u in rctx.variables:
        for v in rctx.variables:
            mu, mv = rctx.matrix[u], rctx.matrix[v]
            coeffs = {}
            br = mu.comm(mv)
            if br:
                coeffs[0] = DiffPoly({((w, 0),): Coeff.of(c)
                                      for w, c in expand(br).items()})
            pairing = ctx.pair(mu, mv)
            if pairing:
                coeffs[1] = DiffPoly.constant(Coeff.level(1, pairing))
            entries[(u, v)] = LambdaPoly(coeffs)
    full = BracketTable(rctx.variables, entries)
    rho = {v: Coeff.of(ctx.pair(ctx.f, rctx.matrix[v]))
           for v in rctx.variables if v.weight <= 0}

    def bracket(A, B):
        br = extend_bracket(full, A, B)
        return LambdaPoly({n: substitute(p, rho) for n, p in br.coeffs.items()})
    return bracket


def test_projected_table_matches_projecting_afterwards():
    for kind, p1, p2 in [("sl", (2, 1), ()), ("sl", (3, 1), ()),
                         ("sl_super", (2,), (1,)), ("sl_super", (3,), (1,))]:
        rctx = ReductionCtx(ctx_of(kind, p1, p2))
        reference = _projected_after(rctx)
        W = solve_all(rctx)
        for a in W:
            for b in W:
                assert reduced_bracket(rctx, W[a], W[b]) == reference(W[a], W[b]), \
                    (kind, p1, p2, a, b)
        # a single first-slot letter of weight <= 0 is never multiplied in
        table = rctx.affine_table()
        for nv in rctx.n_vars:
            x = DiffPoly.variable(nv)
            for a in W:
                assert extend_bracket(table, x, W[a]) == reference(x, W[a]), \
                    (kind, p1, p2, nv, a)


def test_reduced_bracket_refuses_letters_rho_moves():
    rctx = ReductionCtx(ctx_of("sl", (2, 1)))
    W = next(iter(solve_all(rctx).values()))
    low = next(v for v in rctx.variables if v.weight <= 0)
    with pytest.raises(WAlgebraError, match="positive-weight"):
        reduced_bracket(rctx, DiffPoly.variable(low), W)
    with pytest.raises(WAlgebraError, match="positive-weight"):
        reduced_bracket(rctx, W, W * DiffPoly.variable(low))
