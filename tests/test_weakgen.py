"""Weak generating sets, scripted derivations, and the closure search.

The weak-set contents are frozen against the case rules (including both
equal-block replacements, the weight floor, and the super reference-block
rule); the scripted schedules must recover every strong generator with all
claimed identities passing; the closure search must reach the same fixpoint
from the weak sets alone."""

import os
from fractions import Fraction

import pytest

from conftest import ctx_of, gen, table_of
from walgebra.coeffs import Coeff
from walgebra.errors import ScheduleInapplicable, UnknownGenerator
from walgebra.pvacore import BracketTable, DiffPoly, LambdaPoly, check_skew
from walgebra import weakgen

F = Fraction
K = Coeff.level()

ACCEPTED = [
    ("sl", (3, 2), ()),
    ("sl", (2, 2), ()),
    ("sl", (4, 2), ()),
    ("sl", (4, 3), ()),
    ("sl", (2, 1), ()),
    ("sl_super", (2,), (1,)),
    ("sl_super", (3,), (2,)),
    ("sl_super", (4,), (2,)),
    ("sl_super", (3, 1), (2,)),
]


def _gens(ctx, *specs):
    return [gen(ctx, t, i, j) for (t, i, j) in specs]


def _run(kind, p1, p2, flavor):
    ctx = ctx_of(kind, p1, p2)
    return ctx, weakgen.scripted_verify(ctx, ctx.centralizer(),
                                        table_of(kind, p1, p2), flavor)


# ---------------------------------------------------------------------------
# the weak sets themselves


def test_weak_set_3_2():
    ctx = ctx_of("sl", (3, 2))
    assert weakgen.weak_set(ctx, "big") == _gens(ctx, ("5/2", 1, 2), ("5/2", 2, 1))
    assert weakgen.weak_set(ctx, "small") == _gens(
        ctx, (3, 1, 1), ("3/2", 1, 2), ("3/2", 2, 1))


def test_weak_set_equal_blocks():
    ctx = ctx_of("sl", (2, 2))
    # equal leading pair: the (2,1) entry drops a weight
    assert weakgen.weak_set(ctx, "big") == _gens(ctx, (1, 2, 1), (2, 1, 2))
    assert weakgen.weak_set(ctx, "small") == _gens(ctx, (1, 1, 2), (2, 2, 1))


def test_weak_set_6_4_3():
    ctx = ctx_of("sl", (6, 4, 3))
    assert weakgen.weak_set(ctx, "big") == _gens(
        ctx, (5, 1, 2), (5, 2, 1), ("7/2", 2, 3), ("7/2", 3, 2))
    assert weakgen.weak_set(ctx, "small") == _gens(
        ctx, (3, 1, 1), (2, 1, 2), (2, 2, 1), ("3/2", 2, 3), ("3/2", 3, 2))


def test_weak_set_m1_equals_2_removal():
    # no weight-3 diagonal element exists on a height-2 block
    ctx = ctx_of("sl", (2, 1))
    assert weakgen.weak_set(ctx, "small") == _gens(ctx, ("3/2", 1, 2), ("3/2", 2, 1))


def test_weak_set_super_reference_block():
    # the reference diagonal moves to the tallest block of the second family
    ctx = ctx_of("sl_super", (2,), (3,))
    small = weakgen.weak_set(ctx, "small")
    assert small[0] == gen(ctx, 3, 2, 2)
    ctx2 = ctx_of("sl_super", (3,), (2,))
    assert weakgen.weak_set(ctx2, "small")[0] == gen(ctx2, 3, 1, 1)


def test_weak_set_sizes():
    for kind, p1, p2 in ACCEPTED:
        ctx = ctx_of(kind, p1, p2)
        d = len(ctx.spec.sizes)
        big = weakgen.weak_set(ctx, "big")
        assert len(big) == 2 * d - 2
        assert all(g.t >= 1 for g in big)
        small = weakgen.weak_set(ctx, "small")
        assert all(g.t >= 1 for g in small)
        have = set(ctx.centralizer().delta)
        assert set(big) <= have and set(small) <= have


# ---------------------------------------------------------------------------
# coefficient genericity


def test_genericity_classification():
    assert weakgen.coefficient_genericity(Coeff.of(0)).kind == "identicallyZero"
    r = weakgen.coefficient_genericity(K)
    assert r.kind == "nonzeroAtOne" and r.roots == (F(0),)
    r = weakgen.coefficient_genericity(K - Coeff.of(1))
    assert r.kind == "vanishingSet" and r.roots == (F(1),)
    r = weakgen.coefficient_genericity(K * (K - Coeff.of(1)))
    assert r.kind == "vanishingSet" and r.roots == (F(0), F(1))
    r = weakgen.coefficient_genericity(K * K + Coeff.of(1))
    assert r.kind == "nonzeroAtOne" and r.roots == ()
    assert weakgen.coefficient_genericity(Coeff.of(F(3, 7))).kind == "nonzeroAtOne"


# ---------------------------------------------------------------------------
# scripted derivations


def test_scripted_recovers_everything():
    for kind, p1, p2 in ACCEPTED:
        for flavor in ("big", "small"):
            ctx, rep = _run(kind, p1, p2, flavor)
            label = (kind, p1, p2, flavor)
            assert rep.ok, (label, rep.missing)
            assert rep.all_identities_passed, (
                label, [c.label for c in rep.identities if not c.passed])
            # seeds count as generation-0 recoveries, so the ledger is total
            assert len(rep.recovered) == len(ctx.centralizer().gens)
            assert set(weakgen.weak_set(ctx, flavor)) <= set(rep.recovered)
            # nothing recovered may carry an identically-zero coefficient
            for rec in rep.recovered.values():
                assert rec.genericity.kind != "identicallyZero"


def test_recovery_coefficients_are_single_powers_of_the_level():
    # every pooled vector is k^p times its values at k=1, so a slice
    # solution lifted per vector is one power of k times the target: it
    # vanishes at k=0 at most
    for shape in [("sl", (2, 2), ()), ("sl", (3, 3), ()), ("sl", (3, 2), ()),
                  ("sl", (4, 3), ()), ("sl_super", (3,), (2,))]:
        for flavor in ("big", "small"):
            _, rep = _run(*shape, flavor)
            for gi, rec in rep.recovered.items():
                num = rec.coeff.num
                assert num and not any(num[:-1]), (shape, flavor, gi, rec.coeff)
                assert rec.genericity.roots in ((), (F(0),)), (shape, flavor, gi)
    _, rep = _run("sl", (2, 2), (), "big")
    assert {r for rec in rep.recovered.values() for r in rec.genericity.roots} == {F(0)}


def test_scripted_3_2_big_details():
    ctx, rep = _run("sl", (3, 2), (), "big")
    assert rep.branch == "descending leading pair"
    assert len(rep.recovered) == 8  # all generators, seeds included
    labels = [c.label for c in rep.identities]
    assert any("pair(1,2)" in lab for lab in labels)
    ratio = [c for c in rep.identities if "top product" in c.label]
    assert ratio and all(c.passed for c in ratio)


def test_scripted_2_1_small_branch():
    _, rep = _run("sl", (2, 1), (), "small")
    assert "no weight-3 element" in rep.branch
    assert rep.ok


def test_scripted_equal_pair_auxiliary():
    # the (2,2) small schedule needs the mirrored auxiliary product to split
    # the weight-2 slice
    _, rep = _run("sl", (2, 2), (), "small")
    assert rep.ok
    assert any("auxiliary top product" in c.label for c in rep.identities)


def test_scripted_super_nonmonotone_hops():
    # (3,1|2): the hop between distant blocks lands above the ladder bottom
    # and must be walked down
    _, rep = _run("sl_super", (3, 1), (2,), "small")
    assert rep.ok
    labels = [c.label for c in rep.identities]
    assert any(lab.startswith("hop(") for lab in labels)
    assert any("lower to weight" in lab for lab in labels)


def test_scripted_rejects_principal():
    # a single block has an empty big weak set: no schedule applies
    ctx = ctx_of("sl", (4,))
    with pytest.raises(ScheduleInapplicable):
        weakgen.scripted_verify(ctx, ctx.centralizer(), table_of("sl", (4,)), "big")


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("WALGEBRA_RUN_SLOW") != "1",
                    reason="extended (6,4,3) replay; set WALGEBRA_RUN_SLOW=1")
def test_scripted_6_4_3_extended():
    for flavor in ("big", "small"):
        ctx, rep = _run("sl", (6, 4, 3), (), flavor)
        assert rep.ok and rep.all_identities_passed
        assert len(ctx.centralizer().gens) == 32


# ---------------------------------------------------------------------------
# closure search


def test_closure_principal_sl4():
    ctx = ctx_of("sl", (4,))
    rep = weakgen.closure_search(ctx, ctx.centralizer(), table_of("sl", (4,)),
                                 [gen(ctx, 3, 1, 1)])
    assert rep.complete
    by_gen = {}
    for step in rep.dag:
        for g in step.news:
            by_gen[g] = step
    assert by_gen[gen(ctx, 2, 1, 1)].n == 3
    assert by_gen[gen(ctx, 4, 1, 1)].n == 1


def test_closure_principal_sl5():
    ctx = ctx_of("sl", (5,))
    rep = weakgen.closure_search(ctx, ctx.centralizer(), table_of("sl", (5,)),
                                 [gen(ctx, 5, 1, 1)])
    assert rep.complete
    assert set(rep.recovered) >= {gen(ctx, 2, 1, 1), gen(ctx, 3, 1, 1),
                                  gen(ctx, 4, 1, 1)}


def test_closure_empty_seeds_reports_all_missing():
    ctx = ctx_of("sl", (2, 2))
    rep = weakgen.closure_search(ctx, ctx.centralizer(), table_of("sl", (2, 2)), [])
    assert not rep.complete
    assert set(rep.missing) == set(ctx.centralizer().delta)
    assert rep.products_tried == 0


def test_closure_from_weak_sets():
    for kind, p1, p2 in [("sl", (3, 2), ()), ("sl", (2, 2), ()),
                         ("sl_super", (3,), (2,)), ("sl_super", (3, 1), (2,))]:
        ctx = ctx_of(kind, p1, p2)
        cd = ctx.centralizer()
        tab = table_of(kind, p1, p2)
        for flavor in ("big", "small"):
            rep = weakgen.closure_search(ctx, cd, tab, weakgen.weak_set(ctx, flavor))
            assert rep.complete, (kind, p1, p2, flavor, rep.missing)
            assert not (set(rep.recovered) & set(rep.missing))
            assert set(rep.recovered) | set(rep.missing) == set(cd.delta)


def test_closure_minimality_evidence_3_2():
    # dropping either big seed strands the search: reported as data, not as a
    # minimality theorem
    ctx = ctx_of("sl", (3, 2))
    cd = ctx.centralizer()
    tab = table_of("sl", (3, 2))
    ws = weakgen.weak_set(ctx, "big")
    for keep in range(len(ws)):
        rep = weakgen.closure_search(ctx, cd, tab, [ws[keep]])
        assert not rep.complete
        assert len(rep.missing) == 7


def test_closure_respects_caps():
    ctx = ctx_of("sl", (2, 2))
    cd = ctx.centralizer()
    tab = table_of("sl", (2, 2))
    caps = weakgen.ClosureCaps(F(3, 2), 1, 50)
    rep = weakgen.closure_search(ctx, cd, tab, weakgen.weak_set(ctx, "big"), caps)
    assert not rep.complete
    for step in rep.dag:
        assert step.n <= 1


def test_closure_rectangular_presets():
    for parts in [(2, 2), (3, 3), (2, 2, 2)]:
        ctx = ctx_of("sl", parts)
        cd = ctx.centralizer()
        tab = table_of("sl", parts)
        for flavor in ("big", "small"):
            seeds = weakgen.reduced_rectangular_seeds(ctx, flavor)
            rep = weakgen.closure_search(ctx, cd, tab, seeds)
            assert rep.complete, (parts, flavor, rep.missing)


def test_closure_seed_validation():
    ctx = ctx_of("sl", (2, 1))
    cd = ctx.centralizer()
    tab = table_of("sl", (2, 1))
    with pytest.raises(UnknownGenerator):
        weakgen.closure_search(ctx, cd, tab, [gen(ctx, 7, 1, 1)])
    with pytest.raises(UnknownGenerator):
        weakgen.closure_search(ctx, cd, tab,
                               [{gen(ctx, 2, 1, 1): F(1), gen(ctx, 1, 2, 2): F(1)}])
    # a zero coefficient still has to name a generator of the shape
    with pytest.raises(UnknownGenerator):
        weakgen.closure_search(ctx, cd, tab, [{gen(ctx, 2, 1, 1): F(1), gen(ctx, 7, 1, 1): 0}])
    # but is dropped before the weight check
    rep = weakgen.closure_search(ctx, cd, tab, [{gen(ctx, 2, 1, 1): F(1), gen(ctx, 1, 2, 2): 0}])
    assert rep.seeds == [{gen(ctx, 2, 1, 1): F(1)}]
    # the zero element recovers nothing: its seed is skipped like an empty one
    ctx3 = ctx_of("sl", (3,))
    rep = weakgen.closure_search(ctx3, ctx3.centralizer(), table_of("sl", (3,)),
                                 [{gen(ctx3, 3, 1, 1): 0}])
    assert rep.seeds == [] and not rep.recovered and rep.products_tried == 0


def test_closure_seeding_everything_is_immediate():
    ctx = ctx_of("sl", (2, 1))
    cd = ctx.centralizer()
    rep = weakgen.closure_search(ctx, cd, table_of("sl", (2, 1)), list(cd.gens))
    assert rep.complete
    assert rep.products_tried == 0


# ---------------------------------------------------------------------------
# negative control: a corrupted table cannot pass the axioms


def test_corrupted_table_fails_skew():
    ctx = ctx_of("sl", (2, 1))
    clean = table_of("sl", (2, 1))
    gens = ctx.centralizer().gens
    a = gen(ctx, "3/2", 1, 2)
    b = gen(ctx, "3/2", 2, 1)
    entries = dict(clean.entries)
    entries[(a, b)] = entries[(a, b)] + LambdaPoly(
        {0: DiffPoly.variable(gen(ctx, 1, 2, 2))})
    dirty = BracketTable(gens, entries)
    assert check_skew(clean) == []
    assert len(check_skew(dirty)) >= 1
    assert check_skew(dirty, pairs=[]) == []
