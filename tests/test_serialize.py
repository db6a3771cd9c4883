"""JSON encoding: lossless round trips, stable ordering, strict parsing."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ctx_of, gen, poly_normalize, table_of
from walgebra import serialize as ser
from walgebra import weakgen
from walgebra.coeffs import Coeff
from walgebra.errors import UnknownGenerator
from walgebra.pvacore import DiffPoly, LambdaPoly, apply_partial

F = Fraction
K = Coeff.level()


@given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))
def test_fraction_roundtrip(x):
    j = ser.fraction_to_json(x)
    assert isinstance(j["num"], str) and isinstance(j["den"], str)
    assert ser.fraction_from_json(j) == x


def test_coeff_forms():
    # constant rationals use the compact pair form
    assert ser.coeff_to_json(Coeff.of(F(3, 2))) == {"num": "3", "den": "2"}
    assert ser.coeff_to_json(Coeff.of(0)) == {"num": "0", "den": "1"}
    # level polynomials use the ascending term list
    j = ser.coeff_to_json(K * Coeff.of(2) - Coeff.of(1))
    assert j == [{"pow": 0, "num": "-1", "den": "1"}, {"pow": 1, "num": "2", "den": "1"}]
    for c in (Coeff.of(5), K * K * K):
        assert ser.coeff_from_json(ser.coeff_to_json(c)) == c
    # a term list whose top term is zero parses to the canonical value
    terms = [{"pow": 0, "num": "2", "den": "1"}, {"pow": 3, "num": "0", "den": "1"}]
    assert ser.coeff_from_json(terms).num == (F(2),)
    assert ser.coeff_from_json(terms) == Coeff.of(2)


def test_gen_roundtrip():
    ctx = ctx_of("sl", (3, 2))
    for g in ctx.centralizer().gens:
        lst = ser.gen_to_json(g)
        assert len(lst) == 4
        assert ser.gen_from_json(ctx, lst) == g
    with pytest.raises(UnknownGenerator):
        ser.gen_from_json(ctx, [9, 1, 1, 1])


def test_whole_table_roundtrip():
    for kind, p1, p2 in [("sl", (2, 1), ()), ("sl_super", (2,), (1,))]:
        ctx = ctx_of(kind, p1, p2)
        tab = table_of(kind, p1, p2)
        for entry in tab.entries.values():
            blob = json.dumps(ser.lambda_poly_to_json(entry))
            assert ser.lambda_poly_from_json(ctx, json.loads(blob)) == entry


def test_composite_poly_roundtrip():
    ctx = ctx_of("sl", (2, 1))
    a = DiffPoly.variable(gen(ctx, 2, 1, 1))
    b = DiffPoly.variable(gen(ctx, 1, 2, 2))
    p = a * apply_partial(b) + b.scale(K) + DiffPoly.constant(F(-1, 3))
    assert ser.diff_poly_from_json(ctx, ser.diff_poly_to_json(p)) == p


FRACS = st.fractions(min_value=-50, max_value=50, max_denominator=12)
# constants (at most one term) and polynomials in the level, interior zeros
# included
COEFFS = st.lists(st.one_of(st.just(F(0)), FRACS), max_size=4).map(
    lambda xs: Coeff(tuple(xs)))
SUPER_GENS = ctx_of("sl_super", (3,), (2,)).centralizer().gens


@st.composite
def diff_polys(draw):
    """Up to four terms of up to three factors over sl(3|2)'s generators,
    odd and even, derivative powers up to 3."""
    factors = st.lists(st.tuples(st.sampled_from(SUPER_GENS), st.integers(0, 3)),
                       max_size=3)
    return poly_normalize(draw(st.lists(st.tuples(factors, COEFFS), max_size=4)))


@settings(max_examples=100, deadline=None)
@given(COEFFS, diff_polys(), st.dictionaries(st.integers(0, 4), diff_polys(), max_size=3))
def test_random_values_roundtrip_through_json(c, p, lp):
    ctx = ctx_of("sl_super", (3,), (2,))
    assert ser.coeff_from_json(json.loads(json.dumps(ser.coeff_to_json(c)))) == c
    blob = json.dumps(ser.diff_poly_to_json(p))
    assert ser.diff_poly_from_json(ctx, json.loads(blob)) == p
    lam = LambdaPoly(lp)
    blob = json.dumps(ser.lambda_poly_to_json(lam))
    assert ser.lambda_poly_from_json(ctx, json.loads(blob)) == lam


def test_dump_determinism():
    # two independently built reports of the same run serialize identically
    def make():
        ctx = ctx_of("sl", (2, 1))
        rep = weakgen.scripted_verify(ctx, ctx.centralizer(),
                                      table_of("sl", (2, 1)), "small")
        return json.dumps(ser.derivation_report_to_json(rep))

    assert make() == make()


def test_derivation_report_schema():
    ctx = ctx_of("sl", (2, 1))
    rep = weakgen.scripted_verify(ctx, ctx.centralizer(),
                                  table_of("sl", (2, 1)), "big")
    doc = ser.derivation_report_to_json(rep)
    assert doc["ok"] is True and doc["missing"] == []
    assert {r["gen"][0] for r in doc["recovered"]} <= {1, 2, 3}
    for ident in doc["identities"]:
        assert set(ident) == {"label", "expression", "n", "expected",
                              "passed", "note", "linear"}
    for rec in doc["recovered"]:
        assert rec["genericity"]["kind"] in ("nonzeroAtOne", "vanishingSet")


def test_closure_report_schema():
    ctx = ctx_of("sl", (2, 2))
    rep = weakgen.closure_search(ctx, ctx.centralizer(), table_of("sl", (2, 2)),
                                 weakgen.weak_set(ctx, "big"))
    doc = ser.closure_report_to_json(rep)
    assert doc["complete"] is True
    assert doc["caps"]["max_weight"] == {"num": "4", "den": "1"}
    assert len(doc["seeds"]) == 2
    for step in doc["dag"]:
        assert step["kept"] is True
        assert step["news"], "kept closure nodes must reveal something"
    json.dumps(doc)


def test_algebra_summary_contents():
    doc = ser.algebra_summary(ctx_of("sl", (2, 1)))
    assert doc["matrix_size"] == 3 and doc["dimension"] == 8
    assert doc["num_generators"] == 4
    assert sum(h["count"] for h in doc["grading"]) == 8
    weights = sorted(F(int(g["weight"]["num"]), int(g["weight"]["den"]))
                     for g in doc["generators"])
    assert weights == [F(1), F(3, 2), F(3, 2), F(2)]
