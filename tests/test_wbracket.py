"""The master bracket formula: frozen values, gradings, signs, axioms.

The sl2 principal bracket is small enough to freeze term by term; it was
cross-checked bit-exactly against the independent reduction engine (see
test_dsreduction).  The super sign convention is pinned by elimination: of
the four parity characters, only one clears skew + Jacobi.  The suffix-sum
rows are checked against the chain-by-chain evaluator, and the fixed-level
tables against digests recorded when each level had its own engine build."""

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import ctx_of, gen, table_of
from walgebra import serialize
from walgebra.coeffs import Coeff
from walgebra.errors import MissingTableEntry
from walgebra.pvacore import (DiffPoly, LambdaPoly, check_jacobi, check_skew,
                              linear_term, monomial_weight, nth_product)
from walgebra.wbracket import (SIGN_CONVENTIONS, MasterEngine, bracket_table,
                               conformal_check, conformal_vector,
                               default_signs, master_bracket)

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
    br = master_bracket(ctx, q, q)
    v = DiffPoly.variable(q)
    assert br.get(0) == v.d().scale(K)
    assert br.get(1) == v.scale(K * Coeff.of(2))
    assert br.get(2) == DiffPoly()
    assert br.get(3) == DiffPoly.constant(-(K * K * K) * Coeff.of(F(1, 2)))
    assert br.degree() == 3


def test_master_matches_table():
    ctx = ctx_of("sl", (2, 1))
    tab = table_of("sl", (2, 1))
    for (a, b), entry in tab.entries.items():
        assert master_bracket(ctx, a, b) == entry


def test_rows_match_chain_by_chain_evaluation():
    for kind, p1, p2 in [("sl", (2, 1), ()), ("sl", (2, 2), ()), ("sl", (3, 1), ()),
                         ("sl", (2, 1, 1), ()), ("sl_super", (2,), (1,)),
                         ("sl_super", (3,), (2,))]:
        engine = MasterEngine(ctx_of(kind, p1, p2))
        gens = engine.cdata.gens
        for a in gens:
            row = engine.row(a)
            for b in gens:
                assert row[b] == engine.bracket_by_chains(a, b), (kind, p1, p2, a, b)


def test_fixed_level_tables_are_evaluations():
    for (shape, level), want in FIXED_LEVEL_DIGESTS.items():
        ctx = ctx_of(*shape)
        tab = bracket_table(ctx, ktilde=level)
        assert _digest(tab) == want, (shape, level)
        sym = bracket_table(ctx)
        assert tab.entries == {ab: v.at_level(level) for ab, v in sym.entries.items()}
    assert bracket_table(ctx_of("sl", (3, 2)), ktilde=1) is table_of("sl", (3, 2), ktilde=1)


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


def test_default_signs():
    assert default_signs(ctx_of("sl", (3, 2))).name == "all_plus"
    assert default_signs(ctx_of("sl_super", (2,), (1,))).name == "both_parity"


def test_super_sign_convention_selected_by_elimination():
    # on sl(2|1) principal exactly one of the four parity characters clears
    # both skew and Jacobi
    ctx = ctx_of("sl_super", (2,), (1,))
    gens = ctx.centralizer().gens
    triples = [(a, b, c) for a in gens for b in gens for c in gens]
    survivors = []
    for name, signs in SIGN_CONVENTIONS.items():
        tab = bracket_table(ctx, signs=signs)
        if not check_skew(tab) and not check_jacobi(tab, triples):
            survivors.append(name)
    assert survivors == ["both_parity"]


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
    assert L.weight() == 2


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
