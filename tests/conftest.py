"""Shared builders for the test suite.

Contexts and bracket tables are cached per process: bracket_table already
memoizes the symbolic table per (kind, partitions) and each fixed-level
evaluation of it, and ctx_of adds the same for algebra contexts, so every
test file can ask for what it needs without re-deriving it.  There is one
sign rule for both kinds, so a table is named by its shape alone.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import NamedTuple

from walgebra.coeffs import ONE, Coeff
from walgebra.errors import NoSolution, UnknownGenerator
from walgebra.linalg import System, _reduce
from walgebra.liestruct import (GenIndex, PartitionSpec, StructureKernel, SuperMatrix,
                                build_algebra, pairing_index, sharp_coords)
from walgebra.pvacore import (BracketTable, DiffPoly, GradedStore, LambdaPoly, _accum,
                              apply_partial, linear_term, monomial_weight, normalize_factors,
                              nth_product)
from walgebra.wbracket import bracket_table, ladder_nodes
from walgebra.weakgen import (ClosureReport, ClosureStep, Recovery, coefficient_genericity,
                              default_caps)

F = Fraction
_F0 = F(0)


# shapes whose small weak set names q[2](2,1), absent from a leading pair of
# size-1 blocks
ABSENT_SMALL_SEED_SHAPES = [("sl_super", (1, 1), (3,)), ("sl_super", (1, 1, 1), (2,)),
                            ("sl_super", (1, 1), (2, 2))]


@lru_cache(maxsize=None)
def ctx_of(kind, parts1, parts2=()):
    return build_algebra(PartitionSpec(kind, parts1, parts2))


def table_of(kind, parts1, parts2=(), ktilde="symbolic"):
    return bracket_table(ctx_of(kind, parts1, parts2), ktilde=ktilde)


def gen(ctx, t, i, j):
    return ctx.gen(F(t), i, j)


def poly_normalize(raw_terms):
    """Build a DiffPoly from arbitrarily ordered factor lists."""
    out: dict = {}
    for factors, coeff in raw_terms:
        sign, m = normalize_factors(factors)
        if m is not None:
            c = Coeff.of(coeff)
            _accum(out, m, c if sign > 0 else -c)
    return DiffPoly(out)


def monomial_parity(m):
    return sum(v.parity for v, _ in m) % 2


def poly_weight(p):
    """The common conformal weight of a DiffPoly's monomials; None if they
    differ or p is zero."""
    weights = {monomial_weight(m) for m in p.terms}
    return weights.pop() if len(weights) == 1 else None


def subst_neg_lambda_partial(lp):
    """lambda -> -lambda - d on a LambdaPoly: sum_n (-lambda-d)^n . coeff_n."""
    out = LambdaPoly()
    for n, p in lp.coeffs.items():
        for m in range(n + 1):
            term = apply_partial(p, n - m).scale(Coeff.of((-1) ** n * comb(n, m)))
            out += LambdaPoly({m: term})
    return out


def canonical_reference(space, xs):
    """VarSpace.canonical by insertion sort: (sign, sorted int tuple), the
    sign flipped at each transposition of two odd factors; None when an odd
    factor repeats."""
    fs = list(xs)
    odd = space.odd
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j and fs[j - 1] > fs[j]:
            if odd[fs[j - 1]] and odd[fs[j]]:
                sign = -sign
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    for x, y in zip(fs, fs[1:]):
        if x == y and odd[x]:
            return None
    return sign, tuple(fs)


def kernel_basis(columns: list[dict]) -> list[dict]:
    """Kernel of the linear map sending basis vector j to the sparse column
    vector columns[j].  Returns a list of coefficient dicts {j: value}, one
    per free column, each normalized so its free coordinate is 1."""
    # equations: one per output coordinate r: sum_j columns[j][r] * x_j = 0
    system = System()
    for j, col in enumerate(columns):
        for r, v in col.items():
            system.add(r, j, v)
    reduced, pivots, _ = _reduce(system.rows.values(), len(columns))
    basis = []
    for j in range(len(columns)):
        if j in pivots:
            continue
        vec = {j: 1}
        for col, ridx in pivots.items():
            v = reduced[ridx].get(j)
            if v:
                vec[col] = -F(v, reduced[ridx][col])
        basis.append(vec)
    return basis


def row_axpy(target: dict, factor, source: dict) -> None:
    """target += factor * source, dropping entries that cancel to zero."""
    if not factor:
        return
    for c, v in source.items():
        w = target.get(c)
        if w is None:
            target[c] = factor * v
        else:
            w = w + factor * v
            if w:
                target[c] = w
            else:
                del target[c]


def fraction_rref(rows):
    """Reference for linalg._reduce on Fraction arithmetic: the reduced row
    echelon form with leading entries 1, pivot rows chosen first-come, as
    (reduced_rows, pivots) with pivots mapping column -> row index."""
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    for row in rows:
        row = {c: F(v) for c, v in row.items()}
        # eliminate against existing pivots
        for col in sorted(c for c in row if c in pivots):
            v = row.get(col)
            if v:
                row_axpy(row, -v, reduced[pivots[col]])
        if not row:
            continue
        lead = min(row)
        inv = 1 / row[lead]
        row = {c: v * inv for c, v in row.items()}
        # back-substitute into earlier rows
        for r in reduced:
            v = r.get(lead)
            if v is not None:
                row_axpy(r, -v, row)
                r.pop(lead, None)
        pivots[lead] = len(reduced)
        reduced.append(row)
    return reduced, pivots


def reduce_reference(rows, stop):
    """linalg._reduce as it was before full-rank systems checked their
    further rows by residual: every row eliminated against the pivots, one
    by one, to the end.  Returns (reduced_rows, pivots, witnesses)."""
    from walgebra.linalg import _eliminate, _primitive

    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    witnesses: list[dict] = []
    for row in rows:
        if not row:
            continue
        row = _primitive(row)
        for col in sorted(c for c in row if c in pivots):
            P = reduced[pivots[col]]
            row = _eliminate(row, row[col], P, P[col])
        if not row:
            continue
        lead = min(row)
        if lead >= stop:
            witnesses.append(row)
            continue
        p = row[lead]
        if p < 0:
            row = {c: -x for c, x in row.items()}
            p = -p
        for i, r in enumerate(reduced):
            v = r.get(lead)
            if v is not None:
                reduced[i] = _eliminate(r, v, row, p)
        pivots[lead] = len(reduced)
        reduced.append(row)
    return reduced, pivots, witnesses


def solve_each_reference(rows, rhs, count):
    """linalg.solve_each on reduce_reference."""
    from walgebra import linalg

    real = linalg._reduce
    linalg._reduce = reduce_reference
    try:
        return linalg.solve_each(rows, rhs, count)
    finally:
        linalg._reduce = real


def sl_basis(ctx):
    """Deterministic basis of sl: off-diagonal units then supertraceless
    diagonal differences."""
    sh = ctx.shape
    out = []
    for r in range(sh.N):
        for c in range(sh.N):
            if r != c:
                out.append(SuperMatrix(sh, {(r, c): F(1)}))
    for r in range(sh.N - 1):
        out.append(SuperMatrix(sh, {(r, r): F(sh.eps[r]), (r + 1, r + 1): F(-sh.eps[r + 1])}))
    return out


def flatten(m):
    """A SuperMatrix vectorized for span comparisons: column index = r*N + c."""
    N = m.shape.N
    return {r * N + c: v for (r, c), v in m.entries.items()}


def centralizer_oracle(ctx):
    """Independent computation of ker(ad f) inside sl by raw nullspace."""
    basis = sl_basis(ctx)
    cols = [flatten(ctx.f.comm(b)) for b in basis]
    out = []
    for coeffs in kernel_basis(cols):
        m = SuperMatrix(ctx.shape)
        for j, v in coeffs.items():
            m += basis[j].scale(v)
        out.append(m)
    return out


def grade_of(ctx, m):
    """Common ad-x eigenvalue of all entries of m, or None if mixed/zero."""
    g = None
    for (r, c) in m.entries:
        val = ctx._xdiag[r] - ctx._xdiag[c]
        if g is None:
            g = val
        elif g != val:
            return None
    return g


def sharp_project(ctx, cdata, z):
    """Project z onto the ad-f kernel along the rest of each sl2-string."""
    m = SuperMatrix(ctx.shape)
    for g, v in sharp_coords(cdata, z).items():
        m += cdata.basisF[g].scale(v)
    return m


def dual_bases_reference(ctx, cdata):
    """Reference for liestruct.dual_bases on Fraction matrices: the dual
    system, both ladder walks and the (ad e)^n scale through SuperMatrix.comm
    and SuperMatrix.scale."""
    sh = ctx.shape
    for g in cdata.gens:
        q = cdata.basisF[g]
        dlt = cdata.delta[g]
        pool = [(sh.glob(g.j, r), sh.glob(g.i, c))
                for r in range(1, sh.sizes[g.j - 1] + 1) for c in range(1, sh.sizes[g.i - 1] + 1)
                if ctx._xdiag[sh.glob(g.j, r)] - ctx._xdiag[sh.glob(g.i, c)] == dlt]
        units = [SuperMatrix(sh, {pos: F(1)}) for pos in pool]
        system = System()
        for jcol, u in enumerate(units):
            for pos, v in ctx.e.comm(u).entries.items():
                system.add(pos, jcol, v)
            pairing = ctx.pair(u, q)
            if pairing:
                system.add("norm", jcol, pairing)
        system.add("norm", None, -F(1))
        sol = system.solve()
        qs = SuperMatrix(sh)
        for jcol, v in sol.items():
            qs += units[jcol].scale(v)
        assert not ctx.e.comm(qs) and ctx.pair(qs, q) == 1
        cdata.basisE[g] = qs

        two_delta = int(2 * dlt)
        ups = [qs]
        for _ in range(two_delta):
            ups.append(ctx.f.comm(ups[-1]))
        cdata.dualFamily[g] = ups

        downs = [q]
        cur = q
        for n in range(1, two_delta + 1):
            cur = ctx.e.comm(cur)
            denom = F(factorial(n) ** 2) * comb(two_delta, n)
            downs.append(cur.scale(F((-1) ** n) / denom))
        cdata.adFPowers[g] = downs
    cdata.dual_at = pairing_index(ctx, [cdata.basisE[g] for g in cdata.gens])
    return cdata


def substitute(poly, mapping, memo=None):
    """Reference for pvacore.Substitution on DiffPoly arithmetic: replace
    letters by differential polynomials (a differential-algebra morphism:
    derivative powers push onto the image).  Variables absent from the
    mapping stay themselves; images may be DiffPoly or plain scalars.
    The image of each d^k(letter) is computed once, from that of
    d^(k-1)(letter), and so is the image of each monomial prefix: within a
    call, or across calls that pass the same memo dict, which the caller
    keeps for one unchanging mapping."""
    if memo is None:
        memo = {}
    letters = memo.setdefault("letters", {})  # (letter, k) -> image of d^k(letter)
    prefixes = memo.setdefault("prefixes", {(): DiffPoly.constant(1)})  # prefix -> image

    def letter(v, k):
        fac = letters.get((v, k))
        if fac is None:
            img = mapping.get(v)
            if img is None:
                fac = DiffPoly({((v, k),): ONE})
            elif not isinstance(img, DiffPoly):  # scalar image: derivative kills it
                fac = DiffPoly.constant(img) if k == 0 else DiffPoly()
            else:
                fac = img if k == 0 else apply_partial(letter(v, k - 1))
            letters[(v, k)] = fac
        return fac

    def image(m):
        img = prefixes.get(m)
        if img is None:
            img = prefixes[m] = _times(image(m[:-1]), letter(*m[-1]))
        return img

    out = DiffPoly()
    for m, c in poly.terms.items():
        out = out + image(m).scale(c)
    return out


def _times(P, Q):
    """P*Q on DiffPolys with canonical monomials.  The factors of both are
    ranked in factor order, and each pair of monomials is merged on the
    ranks: each odd factor of Q's monomial that moves ahead of odd factors
    of P's flips the sign once per factor passed, and an odd factor met in
    both kills the product.  Coefficients are summed per power of k on
    ints over the product of the two common denominators and made Coeffs
    once per monomial."""
    factors = sorted({f for poly in (P, Q) for m in poly.terms for f in m},
                     key=lambda f: (f[0].sort_key(), f[1]))
    rank = {f: r for r, f in enumerate(factors)}
    odd = [f[0].parity for f in factors]

    def ranked(poly):
        """(D, [(ranked monomial, odd factors, coefficient ints over D)])."""
        D = lcm(*(x.denominator for c in poly.terms.values() for x in c.num))
        return D, [(tuple(rank[f] for f in m), sum(f[0].parity for f in m),
                    [x.numerator * (D // x.denominator) for x in c.num])
                   for m, c in poly.terms.items()]

    acc: dict = {}  # ranked monomial -> {power of k: int over DP*DQ}
    DQ, right = ranked(Q)
    DP, left_terms = ranked(P)
    for r1, odd1, c1 in left_terms:
        n1 = len(r1)
        for r2, _, c2 in right:
            out, sign, i, j, left = [], 1, 0, 0, odd1
            while i < n1 and j < len(r2):
                x, y = r1[i], r2[j]
                if y < x:
                    if odd[y] and left % 2:
                        sign = -sign
                    out.append(y)
                    j += 1
                elif x == y and odd[x]:
                    break
                else:
                    left -= odd[x]
                    out.append(x)
                    i += 1
            else:
                powers = acc.setdefault(tuple(out) + r1[i:] + r2[j:], {})
                for a, x in enumerate(c1):
                    if x:
                        x = x if sign > 0 else -x
                        for b, y in enumerate(c2):
                            if y:
                                powers[a + b] = powers.get(a + b, 0) + x * y
    out = {}
    for r, powers in acc.items():
        c = Coeff(tuple(F(v, DP * DQ) if v else _F0 for v in
                        (powers.get(i, 0) for i in range(max(powers, default=-1) + 1))))
        if c:
            out[tuple(factors[x] for x in r)] = c
    return DiffPoly(out)


def verify_every_ordered_pair(rctx, table, W):
    """The ordered pairs (a, b) of generators whose reduced bracket
    {W_a lambda W_b} differs from table's {a lambda b} with W substituted,
    both computed on DiffPoly: the full verification, in both orientations,
    with no appeal to skew symmetry."""
    from walgebra.dsreduction import reduced_bracket

    bad = []
    memo: dict = {}
    for a in W:
        for b in W:
            want = LambdaPoly({n: substitute(p, W, memo)
                               for n, p in table.lookup(a, b).coeffs.items()})
            if reduced_bracket(rctx, W[a], W[b]) != want:
                bad.append((a, b))
    return bad


def affine_table_reference(rctx):
    """The rho-projected affine table built on DiffPoly entries, interned by
    BracketTable: {u lambda v} = rho([u, v]) + k*lambda*(u|v), the pairings
    of [u, v] with the dual rungs of p_vars at their letters, f's as a
    constant and the level term (u|v) at lambda^1."""
    ctx, p_vars, cd = rctx.ctx, rctx.p_vars, rctx.cdata
    kernel = StructureKernel(ctx, pairing_index(
        ctx, [cd.dualFamily[v.g][v.n] for v in p_vars] + [ctx.f]))
    f_row = len(p_vars)
    entries = {}
    for u in rctx.variables:
        for v in rctx.variables:
            coords, pairing = kernel(rctx.matrix[u], rctx.matrix[v])
            coeffs = {}
            if coords:
                coeffs[0] = DiffPoly({((p_vars[i], 0),) if i < f_row else (): Coeff.of(c)
                                      for i, c in coords})
            if pairing:
                coeffs[1] = DiffPoly.constant(Coeff.level(1, pairing))
            entries[(u, v)] = LambdaPoly(coeffs)
    return BracketTable(rctx.variables, entries)


def partitions(n, top=None):
    """Every partition of n, parts non-increasing."""
    if not n:
        yield ()
    for k in range(min(n, top or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def small_shapes(boxes):
    """Every shape of both kinds with at most `boxes` boxes, sl(n|n)
    excluded."""
    return [("sl", p, ()) for n in range(2, boxes + 1) for p in partitions(n)] + [
        ("sl_super", p1, p2) for n1 in range(1, boxes) for n2 in range(1, boxes + 1 - n1)
        if n1 != n2 for p1 in partitions(n1) for p2 in partitions(n2)]


def _mono_order_key(mono: tuple):
    letters = len(mono)
    depth = sum(v.n + d for v, d in mono)
    lex = tuple((v.sort_key(), d) for v, d in mono)
    return (letters, depth, lex)


def reexpress(gens, P):
    """Write P, a DiffPoly over the reduction oracle's ladder variables, as a
    differential polynomial in the generators realized by gens, {GenIndex:
    DiffPoly} as dsreduction.solve_all returns it.

    Returns (Q, residual): P = Q(W) + residual, residual zero exactly when P
    lies in the subalgebra the W_a generate.  Elimination peels the minimal
    monomial (fewest letters, then shallowest, then lexicographic); a minimal
    monomial using any non-generator letter is unremovable and goes to the
    residual."""
    Q = DiffPoly()
    residual = DiffPoly()
    P = DiffPoly(dict(P.terms))
    guard = 0
    while P:
        guard += 1
        if guard > 100000:
            raise NoSolution("re-expression failed to terminate")
        mono = min(P.terms, key=_mono_order_key)
        c = P.terms[mono]
        if mono and all(v.n == 0 for v, _ in mono):
            gen_mono = tuple((v.g, d) for v, d in mono)
            image = DiffPoly.constant(c)
            for v, d in mono:
                image = image * apply_partial(gens[v.g], d)
            P = P - image
            Q = Q + DiffPoly({gen_mono: c})
        else:
            P = P - DiffPoly({mono: c})
            residual = residual + DiffPoly({mono: c})
    return Q, residual


def corrupted_table():
    """The symbolic (2,1) table with q[2](1,1) added to the lambda^0 term of
    {q[3/2](1,2) lambda q[3/2](2,1)} and subtracted from the reverse bracket:
    skew symmetry still holds, the Jacobi identity does not."""
    from walgebra.pvacore import BracketTable, DiffPoly, LambdaPoly

    ctx = ctx_of("sl", (2, 1))
    a, b, w = gen(ctx, "3/2", 1, 2), gen(ctx, "3/2", 2, 1), gen(ctx, 2, 1, 1)
    extra = LambdaPoly({0: DiffPoly.variable(w)})
    entries = dict(table_of("sl", (2, 1)).entries)
    entries[(a, b)] = entries[(a, b)] + extra
    entries[(b, a)] = entries[(b, a)] - extra
    return BracketTable(ctx.centralizer().gens, entries)


def skew_corrupted(tab, a, b, w, c=1):
    """tab with c*w added to {a lambda b} at lambda^0 and -(-1)^{p(a)p(b)} c*w
    to {b lambda a}: skew symmetry still holds (for a = b even the two
    cancel)."""
    from walgebra.pvacore import BracketTable

    entries = dict(tab.entries)
    extra = LambdaPoly({0: DiffPoly.variable(w).scale(c)})
    entries[(a, b)] = entries[(a, b)] + extra
    entries[(b, a)] = entries[(b, a)] - extra.scale(-1 if a.parity and b.parity else 1)
    return BracketTable(tab.variables, entries)


def wrong_parity_table():
    """The symbolic sl(2|1) table with the even q[1](2,2) added to the odd
    bracket {q[1](2,2) lambda q[3/2](1,2)} and the reverse: skew-symmetric,
    but its extension is not."""
    ctx = ctx_of("sl_super", (2,), (1,))
    a, b = gen(ctx, 1, 2, 2), gen(ctx, "3/2", 1, 2)
    return skew_corrupted(table_of("sl_super", (2,), (1,)), a, b, a)


def solve_generator_reference(rctx, a):
    """The realization W_a solved on its own, as dsreduction did before one
    elimination per weight: the columns are the weight-t unknowns other
    than a's letter, a's constraint brackets the right-hand side, and every
    other bare variable of the weight pinned to zero."""
    from walgebra.dsreduction import AffVar, _add_rows, _agrees, _lifted

    avar = AffVar(a, 0)
    unknowns = [u for u in rctx.unknowns(a.t) if u[0] != ((avar, 0),)]
    engine = rctx.affine_table().engine
    system = System()
    base = engine.graded(DiffPoly.variable(avar))
    nv_vals = [engine.graded(DiffPoly.variable(nv)) for nv in rctx.n_vars]
    for nv, nv_val in zip(rctx.n_vars, nv_vals):
        _add_rows(system, nv, None, engine.graded_bracket(nv_val, base))
        for col, (m, _) in enumerate(unknowns):
            val = engine.graded(DiffPoly({m: ONE}))
            _add_rows(system, nv, col, engine.graded_bracket(nv_val, val))
    for col, (m, _) in enumerate(unknowns):
        if len(m) == 1 and m[0][1] == 0:
            system.add(("pin", m), col, F(1))
    sol = system.solve()
    if sol is None:
        raise NoSolution(f"constraint system inconsistent for {a}")
    W = DiffPoly({((avar, 0),): ONE, **{unknowns[col][0]: _lifted(unknowns[col][0], x)
                                        for col, x in sol.items()}})
    W_val = engine.graded(W)
    for nv_val in nv_vals:
        if not _agrees(engine.graded_bracket(nv_val, W_val), {}):
            raise NoSolution(f"constraint violated after solve for {a}")
    return W


def weight_system_reference(rctx, stage):
    """dsreduction._weight_system with each constraint row the engine's
    graded_bracket of the constraint letter and the unknown's monomial, as
    solve_all built them before it read the {var lambda mono} memo."""
    from walgebra.dsreduction import AffVar, _add_rows

    engine = rctx.affine_table().engine
    unknowns = rctx.unknowns(stage[0].t)
    system = System()
    for nv in rctx.n_vars:
        nv_val = engine.graded(DiffPoly.variable(nv))
        for col, (m, _) in enumerate(unknowns):
            val = engine.graded(DiffPoly({m: ONE}))
            _add_rows(system, nv, col, engine.graded_bracket(nv_val, val))
    side = {((AffVar(a, 0), 0),): j for j, a in enumerate(stage)}
    for col, (m, _) in enumerate(unknowns):
        if len(m) == 1 and m[0][1] == 0:
            system.add(("pin", m), col, 1)
            if m in side:
                system.add(("pin", m), None, -1, side[m])
    return system


# ---------------------------------------------------------------------------
# the closure search as it was before it ran on ints: a Fraction `while n <
# top` walk over every candidate n of every pool pair, with each product's
# linear term read off nth_product (extend_bracket on DiffPolys) instead of
# BracketTable.linear_product


class _ClosureNode(NamedTuple):
    label: str
    coords: dict  # GenIndex -> Fraction at k=1
    weight: Fraction


def nth_linear(table, ca: dict, cb: dict, n: int) -> dict:
    """{variable: Coeff}, the linear term of the n-th product of two linear
    combinations {variable: coefficient}, through nth_product."""
    def poly(coords):
        return sum((DiffPoly.variable(g).scale(c) for g, c in coords.items()), DiffPoly())

    return linear_term(nth_product(table, poly(ca), poly(cb), n))


def _linear_at_one(table, A: dict, B: dict, n: int) -> tuple:
    """(power m of k, {generator: value at k=1}) of nth_linear."""
    lt = nth_linear(table, A, B, n)
    m = max((len(c.num) - 1 for c in lt.values()), default=0)
    return m, {g: lt[g].at_one() for g in sorted(lt, key=lambda g: g.sort_key())
               if lt[g].at_one()}


def closure_reference(ctx, cdata, table, seeds, caps=None):
    """weakgen.closure_search on the reference walk: the same ClosureReport."""
    if caps is None:
        caps = default_caps(ctx)
    recovered: dict = {}
    dag: list = []
    nodes: list = []
    seed_coords: list = []
    weights_present = {gi.weight for gi in cdata.gens}
    gens_order = {gi: k for k, gi in enumerate(cdata.gens)}

    def reveal(m, lt1, expr):
        news = []
        for gi in lt1:
            if gi not in recovered:
                ck = Coeff.level(m, lt1[gi])
                recovered[gi] = Recovery(gi, expr, ck, coefficient_genericity(ck))
                news.append(gi)
        return news

    for k, s in enumerate(seeds):
        coords = {s: F(1)} if isinstance(s, GenIndex) else {gi: F(c) for gi, c in s.items()}
        for gi in coords:
            if gi not in cdata.delta:
                raise UnknownGenerator(f"closure seed mentions {gi}, which this shape lacks")
        coords = {gi: c for gi, c in coords.items() if c}
        if not coords:
            continue
        wt = next(iter(coords)).weight
        if any(gi.weight != wt for gi in coords):
            raise UnknownGenerator("closure seeds must be weight-homogeneous")
        label = f"S{k}"
        coords = {gi: coords[gi] for gi in sorted(coords, key=lambda g: gens_order[g])}
        news = reveal(0, coords, label)
        seed_coords.append(dict(coords))
        nodes.append(_ClosureNode(label, coords, wt))
        dag.append(ClosureStep(label, "seed", -1, news, dict(coords), True))

    tried = 0
    fresh_from = 0
    counter = 0
    while fresh_from < len(nodes) and len(recovered) < len(cdata.gens):
        lo = fresh_from
        fresh_from = len(nodes)
        for i in range(fresh_from):
            for k in range(fresh_from):
                if max(i, k) < lo or len(nodes) >= caps.max_elements:
                    continue
                A, B = nodes[i], nodes[k]
                top = A.weight + B.weight
                n = 0
                while n < top and n <= caps.max_n:
                    rw = top - n - 1
                    if rw < 1 or rw > caps.max_weight or rw not in weights_present:
                        n += 1
                        continue
                    tried += 1
                    m, lt1 = _linear_at_one(table, A.coords, B.coords, n)
                    if lt1:
                        expr = f"({A.label})_({n})({B.label})"
                        news = reveal(m, lt1, expr)
                        if news:
                            counter += 1
                            label = f"E{counter}"
                            nodes.append(_ClosureNode(label, lt1, rw))
                            dag.append(ClosureStep(label, expr, n, news, lt1, True))
                    n += 1

    missing = [gi for gi in cdata.gens if gi not in recovered]
    return ClosureReport(seed_coords, caps, recovered, missing, dag, tried)


# ---------------------------------------------------------------------------
# the chain-by-chain oracle for wbracket.MasterEngine, on DiffPoly/LambdaPoly
# with k kept formal: it reads the engine's structure constants (Fractions)
# and sums over enumerate_chains directly, multiplying the signs out chain by
# chain where the engine's sweep folds them into its constants


def enumerate_chains(cdata, t1, t2):
    """All chains for a bracket with first-slot string half-length t1 and
    second-slot t2: the empty chain, then every sequence with grades rising
    by at least 1 per step, starting at grade >= -t2, ending <= t1 - 1."""
    nodes = [c for c in ladder_nodes(cdata) if c.alpha <= t1 - 1]
    nodes.sort(key=lambda c: (c.alpha, c.j.sort_key(), c.n))
    yield ()

    def extend(prefix):
        yield tuple(prefix)
        last = prefix[-1].alpha
        for c in nodes:
            if c.alpha >= last + 1:
                prefix.append(c)
                yield from extend(prefix)
                prefix.pop()

    for c in nodes:
        if c.alpha >= -t2:
            yield from extend([c])


def _linear_part(engine, factor):
    """factor as (the DiffPoly linear term P, pairing c)."""
    gens = engine.cdata.gens
    P, c = factor
    return DiffPoly({((gens[r], 0),): Coeff.of(v) for r, v in P}), c


def apply_factor(engine, factor, X):
    """(P - c*k(lambda+d)) applied to the LambdaPoly X, the operator acting
    on X."""
    P, c = _linear_part(engine, factor)
    out = LambdaPoly({n: P * p for n, p in X.coeffs.items()})
    ck = Coeff.level(1, c)
    if ck:
        dX = LambdaPoly({n: apply_partial(p) for n, p in X.coeffs.items()})
        lX = LambdaPoly({n + 1: p for n, p in X.coeffs.items()})
        out = out - (dX + lX).scale(ck)
    return out


def _lambda_value(engine, factor, ksign):
    """P + ksign * c k lambda for factor (P, c)."""
    P, c = _linear_part(engine, factor)
    return LambdaPoly({0: P, 1: DiffPoly.constant(Coeff.level(1, ksign * c))})


def lifted_row(engine, a):
    """engine.row(a) as {b: LambdaPoly}, every int lifted at the sweep's scale."""
    row = engine.row(a)
    store = GradedStore(engine.space, engine._scale, 1, {})
    return {b: store.lift(val) for b, val in zip(engine.cdata.gens, row)}


def bracket_by_chains(engine, a, b):
    """{a lambda b} summed over enumerate_chains directly."""
    cdata = engine.cdata
    ra, rb = cdata.col[a], cdata.col[b]
    index = {c: i for i, c in enumerate(engine.nodes)}
    chain_sum = LambdaPoly()
    for chain in enumerate_chains(cdata, cdata.delta[a], cdata.delta[b]):
        if not chain:
            continue
        us = [index[c] for c in chain]
        val = _lambda_value(engine, engine.tail_factor(us[-1], ra), -1)
        for u, v in zip(reversed(us[:-1]), reversed(us[1:])):
            val = apply_factor(engine, engine.mid_factor(u, v), val)
        val = apply_factor(engine, engine.head_factor(rb, us[0]), val)
        s = 1
        for u in chain:
            s *= (-1) ** u.j.parity
        chain_sum = chain_sum + (val.scale(s) if s < 0 else val)
    sab = (-1) ** (a.parity * b.parity)
    return _lambda_value(engine, engine.head_term(ra, rb), 1) - chain_sum.scale(sab)


def sweep_scale_reference(engine):
    """S^H, the one scale the chain sweep used to keep every entry at: S the
    lcm of the denominators of every structure constant a full table uses,
    h(u) = 1 + the largest h over the nodes a chain may step to from the live
    node u (1 if there are none), and H = 1 + max h.  The sweep's per-node
    scales divide the powers of S, so its top scale divides S^H."""
    cdata, live, alpha2 = engine.cdata, engine._live, engine._alpha2
    ranks = range(len(cdata.gens))
    delta2 = [int(2 * cdata.delta[g]) for g in cdata.gens]
    succ = {u: [v for v in live if alpha2[v] >= alpha2[u] + 2 and any(engine.mid_factor(u, v))]
            for u in live}
    used = [engine.mid_factor(u, v) for u, vs in succ.items() for v in vs]
    used += [engine.head_factor(rb, u) for rb in ranks for u in live
             if alpha2[u] >= -delta2[rb]]
    used += [engine.tail_factor(u, ra) for u in live for ra in ranks
             if alpha2[u] <= delta2[ra] - 2]
    used += [engine.head_term(ra, rb) for ra in ranks for rb in ranks]
    S = lcm(*(x.denominator for P, c in used for x in (c, *(v for _, v in P))))
    h: dict = {}
    for u in live:  # successors come first
        h[u] = 1 + max((h[v] for v in succ[u]), default=0)
    return S ** (1 + max(h.values(), default=0))
