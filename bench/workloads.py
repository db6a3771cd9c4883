"""The benchmark's four workloads: inputs, timed bodies and exactness gates.

Each workload is three functions over one repetition in a fresh interpreter:

* ``setup(tr, seed)`` builds the algebras (and, on ``explore``, the bracket
  table) and returns the state the timed body needs;
* ``run(tr, state, units, docs)`` is the timed work; on workloads with
  hundreds of units a repetition it appends one latency in milliseconds per
  unit to ``units``; it appends the JSON text of every report to ``docs``
  and returns its outputs;
* ``gate(state, out)`` checks those outputs exactly, outside the timed
  region, and returns ``(attempted, failures)``.

``replay``, ``axioms`` and ``reconcile`` are deterministic: their inputs do
not depend on the seed.  On ``explore`` the seed picks the combination
coefficients of the closure seed sets and the order of the searches.
Rationale: README.md in this directory.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

from walgebra import serialize
from walgebra.liestruct import PartitionSpec, build_algebra
from walgebra.pvacore import DiffPoly, check_jacobi, check_skew, linear_term, nth_product
from walgebra.wbracket import bracket_table, conformal_check
from walgebra.dsreduction import ReductionCtx, reconcile
from walgebra.weakgen import closure_search, scripted_verify, weak_set

F = Fraction
DIGESTS_FILE = Path(__file__).resolve().parent / "table_digests.json"

SHAPES = {
    "replay": [("sl", (3, 2), ()), ("sl", (4, 3), ()), ("sl", (5, 3, 2), ()),
               ("sl_super", (3,), (2,)), ("sl_super", (4,), (2,))],
    "axioms": [("sl", (3, 2), ()), ("sl_super", (3,), (2,)), ("sl", (3, 1, 1), ())],
    "reconcile": [("sl", (3,), ()), ("sl", (2, 1), ()), ("sl", (2, 2), ()),
                  ("sl", (3, 1), ()), ("sl", (4,), ()), ("sl", (2, 1, 1), ()),
                  ("sl_super", (2,), (1,)), ("sl_super", (3,), (1,)),
                  ("sl_super", (2, 1), (1,))],
    "explore": [("sl", (4, 3), ())],
}
EXPLORE_SEARCHES = 250
COMBO_COEFFS = (F(1), F(-1), F(2), F(1, 2), F(-3, 2))


def label(shape) -> str:
    kind, p1, p2 = shape
    parts = ",".join(map(str, p1))
    if kind == "sl_super":
        parts += "|" + ",".join(map(str, p2))
    return f"sl({parts})"


def _algebras(tr, shapes) -> list:
    out = []
    for shape in shapes:
        ctx = tr.call("liestruct.build_algebra", build_algebra, PartitionSpec(*shape))
        cdata = tr.call("liestruct.centralizer", ctx.centralizer)
        out.append((shape, ctx, cdata))
    return out


def _table(tr, ctx, ktilde="symbolic"):
    level = "symbolic" if ktilde == "symbolic" else f"k={ktilde}"
    table = tr.call(f"wbracket.bracket_table[{level}]", bracket_table, ctx, ktilde=ktilde)
    if ktilde == "symbolic":
        tr.count("wbracket.pairs", len(table.entries))
    return table


def _count_closure(tr, rep):
    tr.count("weakgen.products_tried", rep.products_tried)
    tr.count("weakgen.revealing_products", sum(1 for s in rep.dag if s.n >= 0))


# ---------------------------------------------------------------------------
# replay: the paper's headline pipeline, cold, on the shape ladder


def table_digest(table) -> str:
    """sha256 of the table, entry by entry in generator order, through the
    package's own exact JSON view."""
    h = hashlib.sha256()
    for a, b in sorted(table.entries, key=lambda ab: (ab[0].sort_key(), ab[1].sort_key())):
        row = [serialize.gen_to_json(a), serialize.gen_to_json(b),
               serialize.lambda_poly_to_json(table.entries[(a, b)])]
        h.update(json.dumps(row, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text())


def replay_setup(tr, seed):
    return _algebras(tr, SHAPES["replay"])


def replay_run(tr, algebras, units, docs):
    out = []
    for shape, ctx, cdata in algebras:
        with tr.span("replay.shape"):
            sym = _table(tr, ctx)
            reports = [tr.call("weakgen.scripted_verify", scripted_verify, ctx, cdata, sym, fl)
                       for fl in ("big", "small")]
            for rep in reports:
                tr.count("weakgen.identities", len(rep.identities))
                tr.count("weakgen.failed_identities",
                         sum(1 for c in rep.identities if not c.passed))
            closure = tr.call("weakgen.closure_search", closure_search, ctx, cdata, sym,
                              weak_set(ctx, "small"))
            _count_closure(tr, closure)
            k1 = _table(tr, ctx, ktilde=1)
            conf = tr.call("wbracket.conformal_check", conformal_check, ctx, k1)
            views = [tr.call("serialize.derivation_report_to_json",
                             serialize.derivation_report_to_json, rep) for rep in reports]
            views.append(tr.call("serialize.closure_report_to_json",
                                 serialize.closure_report_to_json, closure))
            docs.append(json.dumps(views))
        out.append((shape, sym, k1, reports, closure, conf))
    return out


def replay_checks(shape, sym, k1, reports, closure, conf, digests) -> tuple:
    """(attempted, failures) for one shape of the replay workload."""
    name = label(shape)
    failures = []
    attempted = 2 + len(sym.entries)
    if table_digest(sym) != digests.get(name):
        failures.append(f"{name}: symbolic table digest differs from the recorded one")
    if set(sym.entries) != set(k1.entries):
        failures.append(f"{name}: k=1 table has other pairs than the symbolic table")
    for pair, val in sym.entries.items():
        if pair in k1.entries and val.at_level_one() != k1.entries[pair]:
            failures.append(f"{name}: k=1 entry {pair[0]},{pair[1]} != symbolic at k=1")
    for rep in reports:
        attempted += 1 + len(rep.identities)
        if not rep.ok:
            failures.append(f"{name}: {rep.flavor} schedule misses {len(rep.missing)} generators")
        failures += [f"{name}: {rep.flavor} identity {c.label} failed"
                     for c in rep.identities if not c.passed]
    attempted += 2
    if not closure.complete:
        failures.append(f"{name}: closure from the small weak set is incomplete")
    if not conf["ok"]:
        failures.append(f"{name}: conformal check failed")
    return attempted, failures


def replay_gate(algebras, out):
    digests = load_digests()
    attempted, failures = 0, []
    for row in out:
        a, f = replay_checks(*row, digests)
        attempted += a
        failures += f
    return attempted, failures


# ---------------------------------------------------------------------------
# axioms: skew symmetry and full Jacobi sweeps


def axioms_setup(tr, seed):
    return _algebras(tr, SHAPES["axioms"])


def axioms_run(tr, algebras, units, docs):
    out = []
    for shape, ctx, cdata in algebras:
        with tr.span("axioms.shape"):
            table = _table(tr, ctx)
            skew = tr.call("pvacore.check_skew", check_skew, table)
            gens = cdata.gens
            jacobi = []
            for a in gens:
                for b in gens:
                    for c in gens:
                        t0 = tr.clock()
                        jacobi += tr.call("pvacore.check_jacobi", check_jacobi, table, [(a, b, c)])
                        units.append((tr.clock() - t0) * 1e3)
            report = {"skew_violations": len(skew), "jacobi_violations": len(jacobi),
                      "pairs_checked": len(table.entries), "triples_checked": len(gens) ** 3}
            tr.count("pvacore.triples", len(gens) ** 3)
            tr.count("pvacore.violations", len(skew) + len(jacobi))
            docs.append(json.dumps(tr.call("serialize.axiom_report_to_json",
                                           serialize.axiom_report_to_json, report)))
        out.append((shape, report, skew, jacobi))
    return out


def axioms_gate(algebras, out):
    attempted, failures = 0, []
    for shape, report, skew, jacobi in out:
        attempted += report["pairs_checked"] + report["triples_checked"]
        failures += [f"{label(shape)}: skew violation at {v['pair']}" for v in skew]
        failures += [f"{label(shape)}: Jacobi violation at {v.get('triple')}" for v in jacobi]
    return attempted, failures


# ---------------------------------------------------------------------------
# reconcile: the independent reduction oracle against the closed formula


def reconcile_setup(tr, seed):
    return _algebras(tr, SHAPES["reconcile"])


def reconcile_run(tr, algebras, units, docs):
    out = []
    for shape, ctx, cdata in algebras:
        with tr.span("reconcile.shape"):
            table = _table(tr, ctx)
            rctx = tr.call("dsreduction.ReductionCtx", ReductionCtx, ctx)
            tr.call("dsreduction.affine_table", rctx.affine_table)
            rep = tr.call("dsreduction.reconcile", reconcile, rctx, table)
            tr.count("dsreduction.variables", len(rctx.variables))
            tr.count("dsreduction.deferred", len(rep.deferred))
            tr.count("dsreduction.failed", 0 if rep.ok else 1)
            docs.append(json.dumps(tr.call("serialize.reconcile_report_to_json",
                                           serialize.reconcile_report_to_json, rep)))
        out.append((shape, rep))
    return out


def reconcile_gate(algebras, out):
    failures = [f"{label(shape)}: reconcile ok=False, {rep.failure}"
                for shape, rep in out if not rep.ok]
    return len(out), failures


# ---------------------------------------------------------------------------
# explore: seeded closure searches on the (4,3) table


def explore_seed_sets(gens: list, seed: int, count: int = EXPLORE_SEARCHES) -> list:
    """``count`` seed sets of 1-3 elements, a third of each size; a third of
    all elements are two-term combinations ``g1 + c*g2`` of generators of one
    weight.

    Which generators each set holds is dealt once, from seeded shuffles of
    the full generator and pair lists under a fixed seed.  The cost of a
    search depends on that structure, and its median jumps between plateaus
    when the structure is redrawn, so it stays fixed and every run does
    comparable work.  ``seed`` picks every coefficient ``c`` and the order
    of the searches."""
    fixed = random.Random(0)
    pairs = [(g1, g2) for g1 in gens for g2 in gens if g1 != g2 and g1.weight == g2.weight]

    def dealer(items):
        deck: list = []
        while True:
            if not deck:
                deck = fixed.sample(items, len(items))
            yield deck.pop()

    singles, combos = dealer(gens), dealer(pairs)
    sizes = [1 + i % 3 for i in range(count)]
    fixed.shuffle(sizes)
    total = sum(sizes)
    is_combo = set(fixed.sample(range(total), total // 3))
    rng = random.Random(seed)
    sets, k = [], 0
    for size in sizes:
        elements = []
        for _ in range(size):
            if k in is_combo:
                g1, g2 = next(combos)
                elements.append({g1: F(1), g2: rng.choice(COMBO_COEFFS)})
            else:
                elements.append(next(singles))
            k += 1
        sets.append(elements)
    rng.shuffle(sets)
    return sets


def explore_setup(tr, seed):
    [(shape, ctx, cdata)] = _algebras(tr, SHAPES["explore"])
    table = _table(tr, ctx)
    return ctx, cdata, table, explore_seed_sets(cdata.gens, seed)


def explore_run(tr, state, units, docs):
    ctx, cdata, table, seed_sets = state
    out = []
    for seeds in seed_sets:
        t0 = tr.clock()
        rep = tr.call("weakgen.closure_search", closure_search, ctx, cdata, table, seeds)
        units.append((tr.clock() - t0) * 1e3)
        _count_closure(tr, rep)
        docs.append(json.dumps(tr.call("serialize.closure_report_to_json",
                                       serialize.closure_report_to_json, rep)))
        out.append(rep)
    return out


_EXPR = re.compile(r"^\((\w+)\)_\((\d+)\)\((\w+)\)$")


def _as_poly(coords: dict) -> DiffPoly:
    poly = DiffPoly()
    for g, c in coords.items():
        poly = poly + DiffPoly.variable(g).scale(c)
    return poly


def closure_checks(table, rep) -> tuple:
    """Recompute every kept product step of one closure search through
    ``nth_product`` on its recorded operands and compare the k=1 linear
    part with the one the step recorded.  Returns (attempted, failures)."""
    linear = {step.element: step.linear for step in rep.dag}
    attempted, failures = 0, []
    for step in rep.dag:
        if step.n < 0:
            continue
        attempted += 1
        m = _EXPR.match(step.expression)
        if m is None or m.group(1) not in linear or m.group(3) not in linear:
            failures.append(f"step {step.element}: unreadable expression {step.expression!r}")
            continue
        a, n, b = m.group(1), int(m.group(2)), m.group(3)
        poly = nth_product(table, _as_poly(linear[a]), _as_poly(linear[b]), n)
        got = {g: v for g, c in linear_term(poly).items() if (v := c.at_one())}
        if got != step.linear:
            failures.append(f"step {step.element} = {step.expression}: recomputed linear part differs")
    return attempted, failures


def explore_gate(state, out):
    _ctx, _cdata, table, _seed_sets = state
    attempted, failures = 0, []
    for rep in out:
        a, f = closure_checks(table, rep)
        attempted += a
        failures += f
    return attempted, failures


WORKLOADS = {
    "replay": (replay_setup, replay_run, replay_gate),
    "axioms": (axioms_setup, axioms_run, axioms_gate),
    "reconcile": (reconcile_setup, reconcile_run, reconcile_gate),
    "explore": (explore_setup, explore_run, explore_gate),
}
