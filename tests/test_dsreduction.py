"""The constraint-reduction oracle and its reconciliation with the closed
master formula.

This engine derives generator realizations and brackets from nothing but the
affine bracket and the constraint projection.  It shares with the chain
formula only the ladder families and the pairing reader, which a test below
checks against the matrices themselves; that is what makes the bit-exact
agreement below count as independent certification."""

import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ctx_of, gen, table_of
from walgebra.coeffs import Coeff
from walgebra.dsreduction import (ReductionCtx, reconcile, reduced_bracket,
                                  reexpress, solve_all, weight_monomials)
from walgebra.errors import NoSolution, WAlgebraError
from walgebra.liestruct import (GenIndex, PartitionSpec, SuperMatrix, build_algebra,
                                pairing_index, pairings)
from walgebra.linalg import solve
from walgebra.pvacore import (BracketTable, DiffPoly, LambdaPoly, extend_bracket,
                              substitute)
from walgebra.wbracket import MasterEngine

F = Fraction
K = Coeff.level()


def test_sl2_reduced_equals_master():
    ctx = ctx_of("sl", (2,))
    rctx = ReductionCtx(ctx)
    sol = solve_all(rctx)
    q = gen(ctx, 2, 1, 1)
    W = sol.solutions[q]
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
    W = sol.solutions[q]
    # weight-2 realization: the generator letter plus lower-string corrections
    assert W.weight() == 2
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
    text = "\n".join(f"{g} W {rep.corrected.solutions[g]!r} C {rep.corrections[g]!r}"
                     for g in gens)
    return hashlib.sha256(text.encode()).hexdigest()


def test_reconcile_results_are_pinned():
    for (kind, p1, p2), digest in RECONCILE_DIGESTS.items():
        rep = reconcile(ReductionCtx(ctx_of(kind, p1, p2)), table_of(kind, p1, p2))
        assert rep.ok and _reconcile_digest(rep) == digest, (kind, p1, p2)


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
                assert not _off_grading(engine.bracket_by_chains(a, b)), (kind, p1, p2, a, b)
        rctx = ReductionCtx(ctx)
        for uv, entry in rctx.affine_table().entries.items():
            assert not _off_grading(entry), (kind, p1, p2, uv)
        rep = reconcile(rctx, table_of(kind, p1, p2))
        assert rep.ok
        W = rep.corrected.solutions
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
    assert len(got) == len(set(got))
    assert set(got) == _brute_force_monomials(letters, target)


def test_reconcile_corrections_stay_lower_weight():
    # every correction the reconciliation applies is a strictly-lower-weight
    # polynomial tail, never a change to the leading letter
    ctx = ctx_of("sl", (2, 2))
    rep = reconcile(ReductionCtx(ctx), table_of("sl", (2, 2)))
    assert rep.ok
    for g, corr in rep.corrections.items():
        if corr:
            assert corr.weight() == g.t
            letters = {v.g for m in corr.terms for v, _ in m}
            assert g not in letters


def _dense_expand(rctx):
    """Coordinates over the ladder variables by one dense solve over the
    flattened matrices, every one of the N^2 positions a row."""
    n_pos = rctx.ctx.shape.N ** 2
    rows = [{} for _ in range(n_pos)]
    for j, v in enumerate(rctx.variables):
        for pos, val in rctx.matrix[v].flatten().items():
            rows[pos][j] = val

    def expand(z):
        flat = z.flatten()
        sol = solve(rows, [flat.get(pos, 0) for pos in range(n_pos)])
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
        W = solve_all(rctx).solutions
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
    W = next(iter(solve_all(rctx).solutions.values()))
    low = next(v for v in rctx.variables if v.weight <= 0)
    with pytest.raises(WAlgebraError, match="positive-weight"):
        reduced_bracket(rctx, DiffPoly.variable(low), W)
    with pytest.raises(WAlgebraError, match="positive-weight"):
        reduced_bracket(rctx, W, W * DiffPoly.variable(low))
