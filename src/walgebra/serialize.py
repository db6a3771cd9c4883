"""JSON views of workbench values and reports.

Everything stays exact: rationals travel as decimal strings inside
{"num": ..., "den": ...} objects, level-polynomial coefficients as ascending
term lists, and generators as [weight_num, weight_den, row, col] quadruples.
Dictionaries are built in a fixed field order so dumps are reproducible, and
the value parsers invert the emitters losslessly (the round trip
``lambda_poly_from_json(ctx, lambda_poly_to_json(x)) == x`` is an identity).
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .coeffs import Coeff
from .errors import UnknownGenerator
from .liestruct import AlgebraCtx, GenIndex
from .pvacore import DiffPoly, LambdaPoly, monomial_key

F = Fraction

# ---------------------------------------------------------------------------
# scalars


def _rational(x) -> Rational:
    """x as itself when it is already a Rational (int, Fraction, Weight),
    else as a Fraction: its numerator and denominator are then read
    directly."""
    return x if isinstance(x, Rational) else F(x)


def fraction_to_json(x) -> dict:
    x = _rational(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def fraction_from_json(obj) -> Fraction:
    return F(int(obj["num"]), int(obj["den"]))


def _poly_terms(poly: tuple) -> list:
    out = []
    for power, c in enumerate(poly):
        if c:
            out.append({"pow": power, "num": str(c.numerator), "den": str(c.denominator)})
    return out


def _poly_from_terms(terms: list) -> tuple:
    if not terms:
        return ()
    top = max(t["pow"] for t in terms)
    coeffs = [F(0)] * (top + 1)
    for t in terms:
        coeffs[t["pow"]] = F(int(t["num"]), int(t["den"]))
    return tuple(coeffs)


def coeff_to_json(c: Coeff):
    """Constant -> {"num","den"}; polynomial in the level -> ascending term
    list."""
    num = c.num
    if len(num) <= 1:
        return fraction_to_json(num[0] if num else F(0))
    return _poly_terms(num)


def coeff_from_json(obj) -> Coeff:
    if isinstance(obj, list):
        return Coeff(_poly_from_terms(obj))
    return Coeff.of(fraction_from_json(obj))


# ---------------------------------------------------------------------------
# generators, monomials, polynomials


def gen_to_json(g: GenIndex) -> list:
    t = _rational(g.t)
    return [t.numerator, t.denominator, g.i, g.j]


def gen_from_json(ctx: AlgebraCtx, obj) -> GenIndex:
    t_num, t_den, i, j = obj
    g = ctx.gen(F(t_num, t_den), i, j)
    if g not in ctx.centralizer().delta:
        raise UnknownGenerator(f"{g} is not a generator of this algebra")
    return g


def diff_poly_to_json(p: DiffPoly) -> list:
    out = []
    for mono in sorted(p.terms, key=monomial_key):
        out.append({
            "coeff": coeff_to_json(p.terms[mono]),
            "factors": [{"gen": gen_to_json(v), "dpow": d} for v, d in mono],
        })
    return out


def diff_poly_from_json(ctx: AlgebraCtx, obj) -> DiffPoly:
    total = DiffPoly()
    for term in obj:
        mono = tuple((gen_from_json(ctx, f["gen"]), f["dpow"]) for f in term["factors"])
        total = total + DiffPoly({mono: coeff_from_json(term["coeff"])})
    return total


def lambda_poly_to_json(lp: LambdaPoly) -> list:
    return [{"lpow": n, "poly": diff_poly_to_json(lp.coeffs[n])}
            for n in sorted(lp.coeffs)]


def lambda_poly_from_json(ctx: AlgebraCtx, obj) -> LambdaPoly:
    return LambdaPoly({t["lpow"]: diff_poly_from_json(ctx, t["poly"]) for t in obj})


def _linear_to_json(linear: dict, value_to_json) -> list:
    return [{"gen": gen_to_json(g), "coeff": value_to_json(linear[g])}
            for g in sorted(linear, key=lambda g: g.sort_key())]


# ---------------------------------------------------------------------------
# reports


def algebra_summary(ctx: AlgebraCtx) -> dict:
    """Dimensions, ad-x grading histogram, and the generator table."""
    spec = ctx.spec
    sh = ctx.shape
    xdiag = ctx._xdiag
    hist: dict = {}
    for r in range(sh.N):
        for s in range(sh.N):
            if r != s:
                deg = xdiag[r] - xdiag[s]
                hist[deg] = hist.get(deg, 0) + 1
    hist[F(0)] = hist.get(F(0), 0) + sh.N - 1
    gens = ctx.centralizer().gens
    return {
        "kind": spec.kind,
        "partition": list(spec.parts1),
        "partition2": list(spec.parts2),
        "matrix_size": sh.N,
        "dimension": sh.N * sh.N - 1,
        "num_generators": len(gens),
        "grading": [{"degree": fraction_to_json(d), "count": hist[d]}
                    for d in sorted(hist)],
        "generators": [{"gen": gen_to_json(g),
                        "weight": fraction_to_json(g.t),
                        "parity": g.parity}
                       for g in sorted(gens, key=lambda g: g.sort_key())],
    }


def genericity_to_json(rep) -> dict:
    return {"kind": rep.kind, "roots": [fraction_to_json(r) for r in rep.roots]}


def recovery_to_json(rec) -> dict:
    return {
        "gen": gen_to_json(rec.gen),
        "expression": rec.expression,
        "coeff": coeff_to_json(rec.coeff),
        "genericity": genericity_to_json(rec.genericity),
    }


def identity_to_json(check) -> dict:
    return {
        "label": check.label,
        "expression": check.expression,
        "n": check.n,
        "expected": check.expected,
        "passed": check.passed,
        "note": check.note,
        "linear": _linear_to_json(check.linear, coeff_to_json),
    }


def derivation_report_to_json(rep) -> dict:
    return {
        "flavor": rep.flavor,
        "branch": rep.branch,
        "ok": rep.ok,
        "all_identities_passed": rep.all_identities_passed,
        "weak_set": [gen_to_json(g) for g in rep.weak_set],
        "identities": [identity_to_json(c) for c in rep.identities],
        "recovered": [recovery_to_json(r) for r in rep.recovered.values()],
        "missing": [gen_to_json(g) for g in rep.missing],
    }


def caps_to_json(caps) -> dict:
    return {
        "max_weight": fraction_to_json(caps.max_weight),
        "max_n": caps.max_n,
        "max_elements": caps.max_elements,
    }


def closure_step_to_json(step) -> dict:
    return {
        "element": step.element,
        "expression": step.expression,
        "n": step.n,
        "news": [gen_to_json(g) for g in step.news],
        "kept": step.kept,
        "linear": _linear_to_json(step.linear, fraction_to_json),
    }


def closure_report_to_json(rep) -> dict:
    return {
        "complete": rep.complete,
        "products_tried": rep.products_tried,
        "caps": caps_to_json(rep.caps),
        "seeds": [_linear_to_json(seed, fraction_to_json) for seed in rep.seeds],
        "recovered": [recovery_to_json(r) for r in rep.recovered.values()],
        "missing": [gen_to_json(g) for g in rep.missing],
        "dag": [closure_step_to_json(s) for s in rep.dag],
    }


def axiom_report_to_json(rep: dict) -> dict:
    out = {
        "skew_violations": rep["skew_violations"],
        **({"parity_violations": rep["parity_violations"]} if "parity_violations" in rep else {}),
        "jacobi_violations": rep["jacobi_violations"],
        "pairs_checked": rep["pairs_checked"],
        "triples_checked": rep["triples_checked"],
    }
    if "conformal_ok" in rep:
        out["conformal_ok"] = rep["conformal_ok"]
        out["central_coeff"] = coeff_to_json(rep["central_coeff"])
    if "first_failures" in rep:
        out["first_failures"] = [violation_to_json(v) for v in rep["first_failures"]]
    return out


def violation_to_json(v: dict) -> dict:
    """A check_skew or check_jacobi violation with its exact diff: a lambda
    polynomial for a pair, {lpow, mupow, poly} terms for a triple; a parity
    violation with the wrong-parity terms of its pair's bracket."""
    if v["kind"] == "skew":
        return {"kind": "skew", "pair": [gen_to_json(g) for g in v["pair"]],
                "diff": lambda_poly_to_json(v["diff"])}
    if v["kind"] == "parity":
        return {"kind": "parity", "pair": [gen_to_json(g) for g in v["pair"]],
                "terms": lambda_poly_to_json(v["terms"])}
    diff = v["diff"].coeffs
    return {"kind": "jacobi", "triple": [gen_to_json(g) for g in v["triple"]],
            "diff": [{"lpow": i, "mupow": j, "poly": diff_poly_to_json(diff[(i, j)])}
                     for i, j in sorted(diff)]}


def reconcile_report_to_json(rep) -> dict:
    out = {
        "ok": rep.ok,
        "corrections": [{"gen": gen_to_json(g), "terms": len(p.terms)}
                        for g, p in sorted(rep.corrections.items(),
                                           key=lambda kv: kv[0].sort_key())],
    }
    if rep.failure is not None:
        fail = {}
        for key, val in rep.failure.items():
            if isinstance(val, tuple):
                fail[key] = [str(x) for x in val]
            else:
                fail[key] = str(val)
        out["failure"] = fail
    return out
