"""Weak generating sets, scripted derivations, and the closure search.

The weak-set contents are frozen against the case rules (including both
equal-block replacements, the weight floor, and the super reference-block
rule); the scripted schedules must recover every strong generator with all
claimed identities passing; the closure search must reach the same fixpoint
from the weak sets alone."""

import hashlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import closure_reference, ctx_of, gen, small_shapes, table_of
from walgebra.coeffs import Coeff
from walgebra.errors import (NormalizationImpossible, ScheduleInapplicable, UnknownGenerator,
                             WAlgebraError)
from walgebra.pvacore import BracketTable, DiffPoly, LambdaPoly, check_skew, linear_term
from walgebra import pvacore, weakgen
from walgebra.serialize import closure_report_to_json, derivation_report_to_json

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
    # a recovery coefficient is c*k^m: its only possible root is k=0
    assert weakgen.coefficient_genericity(Coeff.of(0)).kind == "identicallyZero"
    r = weakgen.coefficient_genericity(K)
    assert r.kind == "nonzeroAtOne" and r.roots == (F(0),)
    r = weakgen.coefficient_genericity(Coeff.level(3, F(-2, 5)))
    assert r.kind == "nonzeroAtOne" and r.roots == (F(0),)
    r = weakgen.coefficient_genericity(Coeff.of(F(3, 7)))
    assert r.kind == "nonzeroAtOne" and r.roots == ()
    for off in (K - Coeff.of(1), K * (K - Coeff.of(1)), K * K + Coeff.of(1)):
        with pytest.raises(ValueError, match="not a single power"):
            weakgen.coefficient_genericity(off)


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


def _at(text: str, q: Fraction) -> Fraction:
    """The value at k = q of a single power of k as Coeff prints it: c,
    c*k^i, k^i, -k (i = 1 when omitted)."""
    if "k" not in text:
        return F(text)
    head, _, tail = text.partition("k")
    c = {"": F(1), "-": F(-1)}.get(head) or F(head.rstrip("*"))
    return c * q ** (int(tail[1:]) if tail else 1)


SMALL_SHAPES = small_shapes(6)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_SHAPES),
       st.builds(lambda n, d, sign: F(sign * n, d), st.integers(1, 40), st.integers(1, 40),
                 st.sampled_from((1, -1))))
def test_slice_recoveries_hold_at_generic_levels(shape, q):
    # each solve_slice recovery was found at k=1; rebuilt from its expression
    # and the symbolic linear terms of the pooled vectors, it is q^P times the
    # target plus generators recovered earlier at every nonzero level q
    kind, p1, p2 = shape
    try:
        ctx = ctx_of(kind, p1, p2)
    except NormalizationImpossible:
        reject()  # str(ef) = 0: not an algebra of the workbench
    for flavor in ("big", "small"):
        try:
            rep = weakgen.scripted_verify(ctx, ctx.centralizer(), table_of(kind, p1, p2), flavor)
        except ScheduleInapplicable:
            continue
        pooled = {c.expression.partition(" := ")[0]: c.linear
                  for c in rep.identities if " := " in c.expression}
        earlier: set = set()
        for gi, rec in rep.recovered.items():
            if "*V" in rec.expression:
                total: dict = {}
                for term in rec.expression.split(" + "):
                    x, label = term[1:].split(")*")
                    for g, c in pooled[label].items():
                        total[g] = total.get(g, 0) + _at(x, q) * c.eval(q)
                P = len(rec.coeff.num) - 1
                assert rec.coeff == Coeff.level(P), (kind, p1, p2, flavor, gi)
                assert total.pop(gi) == q ** P, (kind, p1, p2, flavor, gi)
                assert {g for g, c in total.items() if c} <= earlier, (kind, p1, p2, flavor, gi)
            earlier.add(gi)


def test_a_linear_term_off_the_grading_is_refused():
    # (1+k) g at lambda^1 of {q[3/2](1,2) lambda q[3/2](2,1)}, which both the
    # small schedule (the weight-1 combination) and the closure search from
    # the small weak set read: its power of k cannot be read off
    ctx = ctx_of("sl", (3, 2))
    cd = ctx.centralizer()
    u, v = gen(ctx, "3/2", 1, 2), gen(ctx, "3/2", 2, 1)
    entries = dict(table_of("sl", (3, 2)).entries)
    lam1 = entries[(u, v)].get(1)
    (g,) = linear_term(lam1)
    entries[(u, v)] = LambdaPoly({**entries[(u, v)].coeffs,
                                  1: DiffPoly({**lam1.terms, ((g, 0),): 1 + K})})
    named = re.escape(f"bracket ({u}, {v}) is not graded")
    with pytest.raises(WAlgebraError, match=named):
        weakgen.scripted_verify(ctx, cd, BracketTable(cd.gens, entries), "small")
    with pytest.raises(WAlgebraError, match=named):
        weakgen.closure_search(ctx, cd, BracketTable(cd.gens, entries),
                               weakgen.weak_set(ctx, "small"))


def test_a_weak_set_naming_an_absent_generator_is_inapplicable():
    # sl(2|3) of f-type [1,1]|[3]: the small set's equal leading pair of
    # size-1 blocks names q[2](2,1), which the shape lacks
    ctx = ctx_of("sl_super", (1, 1), (3,))
    with pytest.raises(ScheduleInapplicable, match="lacks"):
        weakgen.scripted_verify(ctx, ctx.centralizer(), table_of("sl_super", (1, 1), (3,)),
                                "small")


def test_scripted_6_4_3_extended():
    for flavor in ("big", "small"):
        ctx, rep = _run("sl", (6, 4, 3), (), flavor)
        assert rep.ok and rep.all_identities_passed
        assert len(ctx.centralizer().gens) == 32


# sha256 of the JSON reports (big and small scripted derivations, then the
# closure search from the small weak set), symbolic and at k=1: recovery
# coefficients, identity linear terms, expressions and genericity all show here
REPORT_DIGESTS = {
    ('sl', (2, 1), (), 'symbolic'): (
        "3b7472cbe907709d6ad27d2e4672ed03c3685d33ff9aa775b40b09c489bb045b",
        "b01ab0ed13686404a8c0abb3315460725b39e6ca01d5826a2520b0e55ad2488f",
        "b548bc376c8c6e7488d4ba39548bead62b0abeafe6350202412d8a09b6292afc"),
    ('sl', (2, 1), (), 1): (
        "a173c7c1481d9b2b5885cb275b1fb88e612167d87b14decada0281d7567c9e2f",
        "24a93a994da3cd1975dee34d09b791f68c7b1a9269e4e2ac5d90a9f0ed4c83c4",
        "f05f25f6c4e6afffd3760ec13efcd10ca75e240f551dd8794eaa9d99dab72e8a"),
    ('sl', (2, 2), (), 'symbolic'): (
        "bdf526320f366969ef1045f82043ce36bc1f25cfc0ceeb35d8b8fcccd572f638",
        "b81e3ff747d504e259fbf129a2bf3922e930c33b775a5455f701040aaae83510",
        "066c0ff793c7bcf7e83317e4fdd14a1cd31897ea477b946c51666c4e9adccedc"),
    ('sl', (2, 2), (), 1): (
        "562e591e57feaa8c44c0c2361c9495a1b4c76128f204a887a090c557dea10bbf",
        "e87a699d4a677f24a1ff307396dc1cf13a640b9c205ef4c23f39be0ef1dc2a07",
        "e9c9e0b718ac17459118b268e1e4ef3995e34cd0b4520193264d17652f1c3902"),
    ('sl', (3, 2), (), 'symbolic'): (
        "931ecd134e9af7e1f83cea00d0773a6fcbccfc1b42bf483c25554be6600cd3ac",
        "82246b400c7bea9a48d01784a28db56ee2c5898855cacca2ee3fdd0ff938f573",
        "c242f29b75079a2b10acebce896538d0bd726db57e424dcb9d1d4804109017e8"),
    ('sl', (3, 2), (), 1): (
        "6da8f8a179e1e444b7fc6d9b2270778d480ab6c299ffe413d108cbdbe79fa6c6",
        "8963e55a0a28c9738943cf87afe49f542cbf8b9a7bc708ff0b95dc6b25a39e4e",
        "1106550b23be4826a7716bdb12643afe641b6f21cf25dd37246bbca53c7d4806"),
    ('sl', (4, 3), (), 'symbolic'): (
        "babf3db82fb87daed7f5d4951632f7fa3dde2ad4a7f08fb7cd31033189333114",
        "9e4511582efef9ec11f22058a14bf155f277d9bef6c736c2c53db86315da33bc",
        "6253cb5e187483edcb66eb0633d62d28604a1158bb3647d09c82a17bb2121cc0"),
    ('sl', (4, 3), (), 1): (
        "e6a81da6e91fda02d78b95ea334cb1d93d8fb5a80eebed2114e772da2f245139",
        "f360a6550af8258bd9d1ce9ae5ca02b883ff098d91677ef01b18dadd4404b0e6",
        "416e1ceaf24f7fcd3af1355b344e3b13e8be5e455546b797a09fa9a5fa8d57f7"),
    ('sl_super', (3,), (2,), 'symbolic'): (
        "dfde986dc29c2e828b8c4891a41e460d081351afd1c429bdc1fcdc5aaf8658d9",
        "493e5075f2803bc6d3db0188483fdecc818c33f9bdc2e30fb5456c00ec576b74",
        "e5b57fede3a3187158f22d5cf7d14b5ca68bda68ccb7ea3b798a583ada738771"),
    ('sl_super', (3,), (2,), 1): (
        "92082e6bed1a90fa8c916ce46916767a8a61626e01bed33e718d4a5eda1e8baf",
        "cffa4c7f2c422bc04b1ffeb3da9f79b206943ba63fd33f5084b6e6708b500ad9",
        "a92bf1e0828da326b857eb9d33c901e383b8ff03e2c28eae92fd14a5923e3d28"),
}


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_reports_are_pinned():
    for (kind, p1, p2, level), digests in REPORT_DIGESTS.items():
        ctx = ctx_of(kind, p1, p2)
        cd, tab = ctx.centralizer(), table_of(kind, p1, p2, ktilde=level)
        got = tuple(_json_digest(derivation_report_to_json(
            weakgen.scripted_verify(ctx, cd, tab, flavor))) for flavor in ("big", "small"))
        got += (_json_digest(closure_report_to_json(
            weakgen.closure_search(ctx, cd, tab, weakgen.weak_set(ctx, "small")))),)
        assert got == digests, (kind, p1, p2, level)


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


def test_closure_seed_coefficients_must_be_exact():
    # a float runs as its binary value, True as 1 and "1/2" as 1/2: refused,
    # naming the generator and the value; ints and Fractions run exactly
    ctx = ctx_of("sl", (2, 2))
    cd, tab = ctx.centralizer(), table_of("sl", (2, 2))
    g = gen(ctx, 2, 2, 2)
    for bad in (0.1, 1.0, True, False, "1/2"):
        with pytest.raises(WAlgebraError, match=re.escape(f"coefficient {bad!r} of {g} is a")):
            weakgen.closure_search(ctx, cd, tab, [{g: bad}])
    with pytest.raises(WAlgebraError, match=re.escape(f"0.5 of {g}")):
        weakgen.closure_search(ctx, cd, tab, [{gen(ctx, 2, 1, 1): 1, g: 0.5}])
    rep = weakgen.closure_search(ctx, cd, tab, [{gen(ctx, 2, 1, 1): 1, g: F(-3, 2)}])
    assert rep.seeds == [{gen(ctx, 2, 1, 1): F(1), g: F(-3, 2)}]
    assert all(type(c) is Fraction for c in rep.seeds[0].values())


SHAPES_5 = small_shapes(5)


@st.composite
def _closure_inputs(draw):
    """A shape of either kind with at most 5 boxes, a level, and 1-3 seed
    elements: generators, or two-term combinations g1 + c*g2 of one weight."""
    kind, p1, p2 = draw(st.sampled_from(SHAPES_5))
    try:
        ctx = ctx_of(kind, p1, p2)
    except NormalizationImpossible:
        reject()  # str(ef) = 0: not an algebra of the workbench
    gens = ctx.centralizer().gens
    pairs = [(a, b) for a in gens for b in gens if a != b and a.weight == b.weight]
    seeds = []
    for _ in range(draw(st.integers(1, 3))):
        if pairs and draw(st.booleans()):
            a, b = draw(st.sampled_from(pairs))
            seeds.append({a: F(1), b: draw(st.sampled_from((1, -1, 2, F(1, 2), F(-3, 2))))})
        else:
            seeds.append(draw(st.sampled_from(gens)))
    return (kind, p1, p2), draw(st.sampled_from(("symbolic", 1))), seeds


@settings(max_examples=150, deadline=None)
@given(_closure_inputs())
def test_closure_search_matches_the_reference_walk(inputs):
    # the per-weight-sum product lists and the int linear products give the
    # report of the Fraction walk over every n with nth_product's linear terms
    (kind, p1, p2), level, seeds = inputs
    ctx = ctx_of(kind, p1, p2)
    cd, tab = ctx.centralizer(), table_of(kind, p1, p2, ktilde=level)
    got = weakgen.closure_search(ctx, cd, tab, seeds)
    want = closure_reference(ctx, cd, tab, seeds)
    assert closure_report_to_json(got) == closure_report_to_json(want)


@pytest.mark.parametrize("level", ["symbolic", 1])
@pytest.mark.parametrize("shape", [("sl", (4, 3), ()), ("sl_super", (3,), (2,))])
def test_closure_search_forms_and_lifts_only_what_can_reveal(monkeypatch, shape, level):
    # the walk builds Fractions only for the seeds' coefficients and the kept
    # products' linear entries, and forms fewer products than it tries:
    # replaying its int products in order, from the seeds' recovery state,
    # every formed product's weight slice still had an unrecovered generator,
    # and the products that reveal one lift to the kept steps' linear terms
    kind, p1, p2 = shape
    ctx = ctx_of(kind, p1, p2)
    cd, tab = ctx.centralizer(), table_of(kind, p1, p2, ktilde=level)
    seeds, caps = weakgen.weak_set(ctx, "small"), weakgen.default_caps(ctx)
    fractions, calls = [], []
    linear_ints = BracketTable.linear_ints

    def counting_fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    def recording(self, A, B, n):
        out = linear_ints(self, A, B, n)
        calls.append((A, B, n, out))
        return out

    monkeypatch.setattr(BracketTable, "linear_ints", recording)
    monkeypatch.setattr(pvacore, "Fraction", counting_fraction)
    monkeypatch.setattr(weakgen, "F", counting_fraction)
    rep = weakgen.closure_search(ctx, cd, tab, seeds, caps)
    monkeypatch.undo()
    assert rep.complete
    assert 0 < len(fractions) <= sum(len(step.linear) for step in rep.dag)
    assert 0 < len(calls) < rep.products_tried
    twice = [int(2 * v.weight) for v in tab.variables]
    rank = tab.store.space.rank
    recovered = {rank[gi] for seed in rep.seeds for gi in seed}
    kept = []
    for (_, ia), (_, ib), n, (_, scale, ints) in calls:
        rw2 = twice[ia[0][0]] + twice[ib[0][0]] - 2 * n - 2
        assert any(t == rw2 and r not in recovered for r, t in enumerate(twice))
        news = {r for r, v in ints.items() if v and r not in recovered}
        if news:
            recovered |= news
            kept.append(tab.lift_linear(scale, ints))
    assert kept == [step.linear for step in rep.dag if step.n >= 0]


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
