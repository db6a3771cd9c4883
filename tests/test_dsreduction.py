"""The constraint-reduction oracle and its reconciliation with the closed
master formula.

This engine derives generator realizations and brackets from nothing but the
affine bracket and the constraint projection, sharing no code path with the
chain formula — which is what makes the bit-exact agreement below count as
independent certification."""

from fractions import Fraction

import pytest

from conftest import ctx_of, gen, table_of
from walgebra.coeffs import Coeff
from walgebra.dsreduction import (ReductionCtx, reconcile, reduced_bracket,
                                  reexpress, solve_all)
from walgebra.errors import WAlgebraError
from walgebra.pvacore import (BracketTable, DiffPoly, LambdaPoly, extend_bracket,
                              substitute)

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


def _projected_after(rctx):
    """The reference path: bracket in the full affine table, {u lambda v} =
    [u, v] + k lambda (u|v), then replace every letter of weight <= 0 by its
    constant (f|q)."""
    ctx = rctx.ctx
    entries = {}
    for u in rctx.variables:
        for v in rctx.variables:
            mu, mv = rctx.matrix[u], rctx.matrix[v]
            coeffs = {}
            br = mu.comm(mv)
            if br:
                coeffs[0] = DiffPoly({((w, 0),): Coeff.of(c)
                                      for w, c in rctx.expand(br).items()})
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
