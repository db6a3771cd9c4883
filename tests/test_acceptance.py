"""Acceptance gate: every numbered criterion, one test and one line each.

Each test prints `criterion N: PASS ...` on success (visible with -s; the
per-test PASSED/FAILED line of `pytest -v` mirrors it) and asserts both the
mathematical content and the runtime budget.  Criterion 8 is the extended
(6,4,3) replay, run by default like the others."""

import time
from fractions import Fraction

import pytest

from conftest import centralizer_oracle, ctx_of, gen, reexpress, sharp_project, sl_basis, \
    table_of
from walgebra.coeffs import Coeff
from walgebra.dsreduction import ReductionCtx, reconcile, reduced_bracket, \
    solve_all
from walgebra.errors import SuperEqualParts
from walgebra.liestruct import PartitionSpec, build_algebra
from walgebra.pvacore import BracketTable, DiffPoly, LambdaPoly, \
    apply_partial, check_jacobi, check_skew, extend_bracket, linear_term, \
    nth_product
from walgebra.wbracket import bracket_table, conformal_check, conformal_vector
from walgebra import weakgen

F = Fraction


def _report(num, detail):
    print(f"criterion {num}: PASS — {detail}")


def test_criterion_01_sl2_oracle_equivalence():
    t0 = time.perf_counter()
    ctx = build_algebra(PartitionSpec("sl", (2,), ()))
    q = ctx.gen(F(2), 1, 1)
    master = bracket_table(ctx).lookup(q, q)
    rctx = ReductionCtx(ctx)
    sol = solve_all(rctx)
    W = sol[q]
    br = reduced_bracket(rctx, W, W)
    for n in sorted(set(br.coeffs) | set(master.coeffs)):
        expressed, residual = reexpress(sol, br.get(n))
        assert set(residual.terms) <= {()}
        assert expressed + residual == master.get(n)
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"took {dt:.2f}s"
    _report(1, f"sl2 master = reduction oracle bit-exact in {dt:.2f}s")


def _reconcile_within(kind, p1, p2, budget):
    t0 = time.perf_counter()
    ctx = ctx_of(kind, p1, p2)
    rep = reconcile(ReductionCtx(ctx), table_of(kind, p1, p2))
    dt = time.perf_counter() - t0
    assert rep.ok, (kind, p1, p2, rep.failure)
    assert dt < budget, f"{kind}{p1}{p2} took {dt:.1f}s"
    return dt


def test_criterion_02_reconcile_zero_residual():
    shapes = [("sl", (3,), ()), ("sl", (2, 1), ()), ("sl", (2, 2), ()),
              ("sl", (3, 1), ()), ("sl", (4,), ()),
              ("sl_super", (2,), (1,)), ("sl_super", (3,), (1,)),
              ("sl_super", (3,), (2,)), ("sl", (3, 2), ()), ("sl", (3, 3), ()),
              ("sl", (2, 2, 1), ()), ("sl_super", (4,), (2,)), ("sl", (4, 2), ()),
              ("sl", (3, 2, 1), ())]
    times = [_reconcile_within(kind, p1, p2, 60.0) for kind, p1, p2 in shapes]
    each = ", ".join(f"({'|'.join(','.join(map(str, p)) for p in (p1, p2) if p)}) {dt:.2f}s"
                     for (_, p1, p2), dt in zip(shapes, times))
    _report(2, f"{len(shapes)} reconciliations: {each}")


def test_criterion_03_axiom_suite():
    specs = [("sl", (2, 1), ()), ("sl", (3,), ()), ("sl", (2, 2), ()),
             ("sl", (2, 1, 1), ()), ("sl", (3, 2), ()), ("sl", (4, 3), ()),
             ("sl_super", (2,), (1,)), ("sl_super", (3,), (2,))]
    t0 = time.perf_counter()
    total_triples = 0
    for kind, p1, p2 in specs:
        ctx = ctx_of(kind, p1, p2)
        tab = table_of(kind, p1, p2)
        gens = ctx.centralizer().gens
        assert check_skew(tab) == [], (kind, p1, p2)
        triples = [(a, b, c) for a in gens for b in gens for c in gens]
        assert check_jacobi(tab, triples) == [], (kind, p1, p2)
        total_triples += len(triples)
    dt = time.perf_counter() - t0
    assert dt < 600.0, f"took {dt:.1f}s"
    _report(3, f"0 violations over {len(specs)} tables, {total_triples} Jacobi triples,"
               f" {dt:.1f}s")


def test_criterion_04_leading_coefficient_ratios():
    ctx = ctx_of("sl", (3, 2))
    tab = table_of("sl", (3, 2))
    lt = linear_term(nth_product(
        tab, DiffPoly.variable(gen(ctx, "5/2", 1, 2)),
        DiffPoly.variable(gen(ctx, "5/2", 2, 1)), 2))
    c11, c22 = lt[gen(ctx, 2, 1, 1)], lt[gen(ctx, 2, 2, 2)]
    assert c22 == c11 * Coeff.of(2), "expected exact ratio 2 = 3*4/(2*3)"

    ctx2 = ctx_of("sl", (2, 2))
    lt2 = linear_term(nth_product(
        table_of("sl", (2, 2)), DiffPoly.variable(gen(ctx2, 2, 1, 2)),
        DiffPoly.variable(gen(ctx2, 1, 2, 1)), 0))
    assert lt2[gen(ctx2, 2, 2, 2)] == -lt2[gen(ctx2, 2, 1, 1)]
    _report(4, "(3,2) ratio exactly 2; (2,2) ratio exactly -1")


BIG_SPECS = [("sl", (3, 2), ()), ("sl", (2, 2), ()), ("sl", (4, 2), ()),
             ("sl", (4, 3), ()), ("sl_super", (3,), (2,)),
             ("sl_super", (4,), (2,))]


def _scripted_sweep(flavor, specs):
    worst = 0.0
    for kind, p1, p2 in specs:
        t0 = time.perf_counter()
        ctx = ctx_of(kind, p1, p2)
        rep = weakgen.scripted_verify(ctx, ctx.centralizer(),
                                      table_of(kind, p1, p2), flavor)
        dt = time.perf_counter() - t0
        assert rep.ok, (kind, p1, p2, flavor, rep.missing)
        assert rep.all_identities_passed, (kind, p1, p2, flavor)
        assert len(rep.recovered) == len(ctx.centralizer().gens)
        assert dt < 300.0, f"{kind}{p1}{p2} {flavor} took {dt:.1f}s"
        worst = max(worst, dt)
    return worst


def test_criterion_05_big_weak_sets():
    worst = _scripted_sweep("big", BIG_SPECS)
    _report(5, f"6 big schedules recover everything, slowest {worst:.2f}s")


def test_criterion_06_small_weak_sets():
    worst = _scripted_sweep("small", BIG_SPECS + [("sl", (2, 1), ())])
    ctx = ctx_of("sl", (2, 1))
    assert gen(ctx, 3, 1, 1) not in weakgen.weak_set(ctx, "small")
    _report(6, f"7 small schedules recover everything, slowest {worst:.2f}s")


def test_criterion_07_principal_closures():
    t0 = time.perf_counter()
    ctx4 = ctx_of("sl", (4,))
    rep4 = weakgen.closure_search(ctx4, ctx4.centralizer(), table_of("sl", (4,)),
                                  [gen(ctx4, 3, 1, 1)])
    assert rep4.complete
    steps = {g: s for s in rep4.dag for g in s.news}
    assert steps[gen(ctx4, 2, 1, 1)].n == 3
    assert steps[gen(ctx4, 4, 1, 1)].n == 1

    ctx5 = ctx_of("sl", (5,))
    rep5 = weakgen.closure_search(ctx5, ctx5.centralizer(), table_of("sl", (5,)),
                                  [gen(ctx5, 5, 1, 1)])
    assert rep5.complete
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"took {dt:.1f}s"
    _report(7, f"sl4 from q3 and sl5 from q5 complete in {dt:.1f}s")


def test_criterion_08_extended_6_4_3():
    t0 = time.perf_counter()
    ctx = ctx_of("sl", (6, 4, 3))
    tab = table_of("sl", (6, 4, 3))
    for flavor in ("big", "small"):
        rep = weakgen.scripted_verify(ctx, ctx.centralizer(), tab, flavor)
        assert rep.ok and rep.all_identities_passed
        assert len(rep.recovered) == 32
    # fold in the conformal check deferred from criterion 9
    conf = conformal_check(ctx, bracket_table(ctx, ktilde=1))
    assert conf["ok"]
    dt = time.perf_counter() - t0
    assert dt < 300.0, f"took {dt:.1f}s"
    _report(8, f"(6,4,3) both schedules recover all 32 generators in {dt:.1f}s")


ALL_SPECS = [("sl", (2,), ()), ("sl", (3,), ()), ("sl", (4,), ()),
             ("sl", (5,), ()), ("sl", (2, 1), ()), ("sl", (2, 2), ()),
             ("sl", (2, 1, 1), ()), ("sl", (3, 2), ()), ("sl", (4, 2), ()),
             ("sl", (4, 3), ()), ("sl_super", (2,), (1,)),
             ("sl_super", (3,), (2,)), ("sl_super", (4,), (2,)),
             ("sl_super", (3, 1), (2,))]


def test_criterion_09_structural_properties():
    for kind, p1, p2 in ALL_SPECS:
        ctx = ctx_of(kind, p1, p2)
        cdata = ctx.centralizer()
        oracle = centralizer_oracle(ctx)
        assert len(oracle) == len(cdata.gens)
        for m in oracle:
            assert sharp_project(ctx, cdata, m) == m
        for g in cdata.gens:
            for n, up in enumerate(cdata.dualFamily[g]):
                for h in cdata.gens:
                    for k, down in enumerate(cdata.adFPowers[h]):
                        assert ctx.pair(up, down) == (
                            1 if (g == h and n == k) else 0)
        for b in sl_basis(ctx):
            once = sharp_project(ctx, cdata, b)
            assert sharp_project(ctx, cdata, once) == once
        # conformal action: 0th product is the derivative, 1st is the weight
        conf = conformal_check(ctx, bracket_table(ctx, ktilde=1))
        assert conf["ok"], (kind, p1, p2, conf["failures"])
    _report(9, f"span/biorthogonality/sharp/conformal exact on {len(ALL_SPECS)} specs")


def test_criterion_10_negative_controls():
    # (a) corrupting one table entry must break skew-symmetry
    ctx = ctx_of("sl", (2, 1))
    clean = table_of("sl", (2, 1))
    entries = dict(clean.entries)
    a, b = gen(ctx, "3/2", 1, 2), gen(ctx, "3/2", 2, 1)
    entries[(a, b)] = entries[(a, b)] + LambdaPoly(
        {0: DiffPoly.variable(gen(ctx, 1, 2, 2))})
    assert len(check_skew(BracketTable(ctx.centralizer().gens, entries))) >= 1

    # (b) an empty seed set recovers nothing
    rep = weakgen.closure_search(ctx, ctx.centralizer(), clean, [])
    assert not rep.complete
    assert set(rep.missing) == set(ctx.centralizer().delta)

    # (c) equal-size super families are refused outright
    with pytest.raises(SuperEqualParts):
        PartitionSpec("sl_super", (2,), (2,))
    with pytest.raises(SuperEqualParts):
        PartitionSpec("sl_super", (3, 1), (2, 2))
    _report(10, "corrupted table caught, empty seeds inert, N1=N2 refused")
