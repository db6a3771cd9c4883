"""Closed-form lambda-brackets between the W-algebra's strong generators.

The bracket of two generators is a finite sum over 'chains': strictly
grade-ascending sequences of ladder positions (j, n) through the centralizer
strings.  Each chain contributes a left-to-right product of factors, every
factor being a linear generator term minus a scalar multiple of k(lambda+d)
(a bare k*lambda on the rightmost factor); the (lambda+d) operators act on
everything to their right.

Evaluation runs right-to-left with memoized suffix sums: V(node) collects the
value of all chain tails starting at that node, so a full row of brackets
{a, -} reuses one suffix sweep.  The direct chain-by-chain evaluator over
enumerate_chains is the reference the test suite checks every row against.

Brackets are built once, with the level k kept formal.  The engine only adds
and multiplies, so every entry is a polynomial in k, and a table at a fixed
rational level is exactly the symbolic table evaluated there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .coeffs import Coeff
from .liestruct import AlgebraCtx, CentralizerData, GenIndex, sharp_coords
from .linalg import solve
from .pvacore import BracketTable, DiffPoly, LambdaPoly, apply_partial

F = Fraction


class ChainIndex(NamedTuple):
    j: GenIndex
    n: int
    alpha: Fraction


Chain = tuple  # tuple[ChainIndex, ...]


@dataclass(frozen=True)
class SignConvention:
    """The two sign characters of the chain sum.

    sAB takes the parities of the two bracketed generators; sJ takes the
    parity of a chain element's generator.  The plain algebra forces both
    to 1; the super case is pinned by the axiom/reduction cross-checks."""

    name: str
    sAB: Callable[[int, int], int]
    sJ: Callable[[int], int]


PLAIN_SIGNS = SignConvention("all_plus", lambda pa, pb: 1, lambda pj: 1)

SIGN_CONVENTIONS: dict[str, SignConvention] = {
    "all_plus": PLAIN_SIGNS,
    "sab_parity": SignConvention("sab_parity", lambda pa, pb: (-1) ** (pa * pb), lambda pj: 1),
    "sj_parity": SignConvention("sj_parity", lambda pa, pb: 1, lambda pj: (-1) ** pj),
    "both_parity": SignConvention(
        "both_parity", lambda pa, pb: (-1) ** (pa * pb), lambda pj: (-1) ** pj
    ),
}


def default_signs(ctx: AlgebraCtx) -> SignConvention:
    """The convention the cross-checks selected: argument-parity product on
    the whole chain sum, one parity sign per chain element (the unique
    candidate passing skew, Jacobi, and the reduction oracle; see the
    selection test)."""
    if ctx.spec.kind == "sl":
        return PLAIN_SIGNS
    return SIGN_CONVENTIONS["both_parity"]


def ladder_nodes(cdata: CentralizerData) -> list[ChainIndex]:
    """All ladder positions (j, n), 0 <= n <= 2*delta(j), with their grades."""
    out = []
    for g in cdata.gens:
        dlt = cdata.delta[g]
        for n in range(int(2 * dlt) + 1):
            out.append(ChainIndex(g, n, n - dlt))
    return out


def enumerate_chains(
    cdata: CentralizerData, t1: Fraction, t2: Fraction, max_len: Optional[int] = None
) -> Iterator[Chain]:
    """All chains for a bracket with first-slot string half-length t1 and
    second-slot t2: the empty chain, then every sequence with grades rising
    by at least 1 per step, starting at grade >= -t2, ending <= t1 - 1."""
    nodes = [c for c in ladder_nodes(cdata) if c.alpha <= t1 - 1]
    nodes.sort(key=lambda c: (c.alpha, c.j.sort_key(), c.n))
    yield ()

    def extend(prefix: list) -> Iterator[Chain]:
        yield tuple(prefix)
        if max_len is not None and len(prefix) >= max_len:
            return
        last = prefix[-1].alpha
        for c in nodes:
            if c.alpha >= last + 1:
                prefix.append(c)
                yield from extend(prefix)
                prefix.pop()

    for c in nodes:
        if c.alpha >= -t2:
            yield from extend([c])


KTilde = Union[str, int, Fraction]

K = Coeff.level(1)


class MasterEngine:
    """Evaluates generator brackets, symbolic in the level, for one algebra
    and sign convention; caches the per-edge factors."""

    def __init__(self, ctx: AlgebraCtx, signs: Optional[SignConvention] = None):
        self.ctx = ctx
        self.cdata = ctx.centralizer()
        self.signs = signs or default_signs(ctx)
        self.nodes = ladder_nodes(self.cdata)
        self._mid_cache: dict = {}

    # -- factor ingredients --------------------------------------------------

    def _lin(self, coords: dict[GenIndex, Fraction]) -> DiffPoly:
        return DiffPoly({((g, 0),): Coeff.of(v) for g, v in coords.items()})

    def _raised(self, u: ChainIndex):
        """q[n+1] one rung past u, or None when u tops out its string."""
        fam = self.cdata.adFPowers[u.j]
        return fam[u.n + 1] if u.n + 1 < len(fam) else None

    def _mid_factor(self, u: ChainIndex, v: ChainIndex):
        """Factor coupling consecutive chain elements u -> v."""
        key = (u.j, u.n, v.j, v.n)
        hit = self._mid_cache.get(key)
        if hit is None:
            qu = self._raised(u)
            if qu is None:
                hit = (DiffPoly(), F(0))
            else:
                qv = self.cdata.dualFamily[v.j][v.n]
                br = qu.comm(qv)
                hit = (self._lin(sharp_coords(self.ctx, self.cdata, br)),
                       self.ctx.pair(qu, qv))
            self._mid_cache[key] = hit
        return hit

    def _tail_factor(self, u: ChainIndex, a: GenIndex):
        qu = self._raised(u)
        if qu is None:
            return (DiffPoly(), F(0))
        qa = self.cdata.basisF[a]
        br = qu.comm(qa)
        return (self._lin(sharp_coords(self.ctx, self.cdata, br)),
                self.ctx.pair(qu, qa))

    def _head_factor(self, b: GenIndex, u: ChainIndex):
        qb = self.cdata.basisF[b]
        qu = self.cdata.dualFamily[u.j][u.n]
        br = qb.comm(qu)
        return (self._lin(sharp_coords(self.ctx, self.cdata, br)),
                self.ctx.pair(qb, qu))

    def _apply(self, factor, X: LambdaPoly) -> LambdaPoly:
        """(P - c*k(lambda+d)) applied to X, the operator acting on X."""
        P, c = factor
        out: dict = {}
        ck = Coeff.of(c) * K
        for n, p in X.coeffs.items():
            pieces = []
            if P:
                pieces.append(P * p)
            if ck:
                pieces.append(apply_partial(p).scale(-ck))
            if pieces:
                tot = pieces[0]
                for q in pieces[1:]:
                    tot = tot + q
                if tot:
                    cur = out.get(n)
                    out[n] = tot if cur is None else cur + tot
            if ck:
                shifted = p.scale(-ck)
                cur = out.get(n + 1)
                out[n + 1] = shifted if cur is None else cur + shifted
        return LambdaPoly({n: p for n, p in out.items() if p})

    def _tail_value(self, factor) -> LambdaPoly:
        P, c = factor
        coeffs = {}
        if P:
            coeffs[0] = P
        ck = Coeff.of(c) * K
        if ck:
            coeffs[1] = DiffPoly.constant(-ck)
        return LambdaPoly(coeffs)

    # -- rows of brackets ------------------------------------------------------

    def row(self, a: GenIndex) -> dict[GenIndex, LambdaPoly]:
        """{omega(a) lambda omega(b)} for every generator b."""
        ctx, cdata = self.ctx, self.cdata
        t1 = cdata.delta[a]
        # string tops never contribute: every factor to their right vanishes
        pool = [c for c in self.nodes
                if c.alpha <= t1 - 1 and c.n < 2 * cdata.delta[c.j]]
        pool.sort(key=lambda c: (c.alpha, c.j.sort_key(), c.n), reverse=True)
        # suffix sums, descending grade so successors are already done
        V: dict[ChainIndex, LambdaPoly] = {}
        for u in pool:
            acc = self._tail_value(self._tail_factor(u, a))
            for v in pool:
                if v.alpha >= u.alpha + 1:
                    Sv = V[v]
                    if Sv:
                        factor = self._mid_factor(u, v)
                        if factor[0] or factor[1]:
                            acc = acc + self._apply(factor, Sv)
            sj = self.signs.sJ(u.j.parity)
            V[u] = acc.scale(sj) if sj < 0 else acc

        out: dict[GenIndex, LambdaPoly] = {}
        for b in cdata.gens:
            t2 = cdata.delta[b]
            qa, qb = cdata.basisF[a], cdata.basisF[b]
            head = LambdaPoly(
                {0: self._lin(sharp_coords(ctx, cdata, qa.comm(qb)))}
            ) + LambdaPoly({1: DiffPoly.constant(K * Coeff.of(ctx.pair(qa, qb)))})
            chain_sum = LambdaPoly()
            for u in pool:
                if u.alpha >= -t2 and V[u]:
                    factor = self._head_factor(b, u)
                    if factor[0] or factor[1]:
                        chain_sum = chain_sum + self._apply(factor, V[u])
            sab = self.signs.sAB(a.parity, b.parity)
            out[b] = head - chain_sum.scale(sab)
        return out

    def bracket(self, a: GenIndex, b: GenIndex) -> LambdaPoly:
        return self.row(a)[b]

    def bracket_by_chains(self, a: GenIndex, b: GenIndex) -> LambdaPoly:
        """Independent evaluation summing over enumerate_chains directly."""
        ctx, cdata = self.ctx, self.cdata
        t1, t2 = cdata.delta[a], cdata.delta[b]
        qa, qb = cdata.basisF[a], cdata.basisF[b]
        total = LambdaPoly(
            {0: self._lin(sharp_coords(ctx, cdata, qa.comm(qb)))}
        ) + LambdaPoly({1: DiffPoly.constant(K * Coeff.of(ctx.pair(qa, qb)))})
        chain_sum = LambdaPoly()
        for chain in enumerate_chains(cdata, t1, t2):
            if not chain:
                continue
            val = self._tail_value(self._tail_factor(chain[-1], a))
            for u, v in zip(reversed(chain[:-1]), reversed(chain[1:])):
                val = self._apply(self._mid_factor(u, v), val)
            val = self._apply(self._head_factor(b, chain[0]), val)
            s = 1
            for u in chain:
                s *= self.signs.sJ(u.j.parity)
            chain_sum = chain_sum + (val.scale(s) if s < 0 else val)
        sab = self.signs.sAB(a.parity, b.parity)
        return total - chain_sum.scale(sab)


def master_bracket(
    ctx: AlgebraCtx,
    a: GenIndex,
    b: GenIndex,
    signs: Optional[SignConvention] = None,
) -> LambdaPoly:
    """One generator bracket, evaluated through the chain formula."""
    return MasterEngine(ctx, signs).bracket(a, b)


_TABLE_CACHE: dict = {}


def bracket_table(
    ctx: AlgebraCtx,
    signs: Optional[SignConvention] = None,
    ktilde: KTilde = "symbolic",
) -> BracketTable:
    """All ordered generator-pair brackets, memoized per algebra/level.

    Only the symbolic table is built; a rational ktilde gives that table
    with every entry evaluated at the level ktilde."""
    signs = signs or default_signs(ctx)
    spec = ctx.spec
    key = (spec.kind, spec.parts1, spec.parts2, signs.name, str(ktilde))
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    if ktilde == "symbolic":
        engine = MasterEngine(ctx, signs)
        entries = {}
        for a in engine.cdata.gens:
            row = engine.row(a)
            for b, val in row.items():
                entries[(a, b)] = val
        table = BracketTable(engine.cdata.gens, entries)
    else:
        sym = bracket_table(ctx, signs)
        level = F(ktilde)
        table = BracketTable(sym.variables,
                             {ab: val.at_level(level) for ab, val in sym.entries.items()})
    _TABLE_CACHE[key] = table
    return table


# ---------------------------------------------------------------------------
# conformal structure


def conformal_vector(ctx: AlgebraCtx) -> DiffPoly:
    """L = (image of f) + 1/2 sum over the grade-zero centralizer of
    q_j q'_j, with {q'_j} the form-dual basis of that grade-zero subspace."""
    cdata = ctx.centralizer()
    L = DiffPoly(
        {((g, 0),): Coeff.of(v) for g, v in sharp_coords(ctx, cdata, ctx.f).items()}
    )
    zero_gens = [g for g in cdata.gens if cdata.delta[g] == 0]
    if zero_gens:
        gram_rows = []
        for gi in zero_gens:
            row = {}
            for jdx, gj in enumerate(zero_gens):
                v = ctx.pair(cdata.basisF[gi], cdata.basisF[gj])
                if v:
                    row[jdx] = v
            gram_rows.append(row)
        for jdx, gj in enumerate(zero_gens):
            rhs = [F(1) if i == jdx else F(0) for i in range(len(zero_gens))]
            sol = solve(gram_rows, rhs, F(1))
            if sol is None:
                raise ValueError("grade-zero pairing is singular")
            dual = DiffPoly(
                {((zero_gens[i], 0),): Coeff.of(c) for i, c in sol.items() if c}
            )
            L = L + (DiffPoly.variable(gj) * dual).scale(F(1, 2))
    return L


def conformal_check(ctx: AlgebraCtx, table: BracketTable) -> dict:
    """Verify L acts with the right weights at level 1.

    Returns {'ok': bool, 'failures': [...], 'central': Coeff} where central
    is the coefficient of lambda^3 in {L lambda L}."""
    from .pvacore import extend_bracket

    cdata = ctx.centralizer()
    L = conformal_vector(ctx)
    failures = []
    for g in cdata.gens:
        br = extend_bracket(table, L, DiffPoly.variable(g))
        want0 = apply_partial(DiffPoly.variable(g))
        want1 = DiffPoly.variable(g).scale(Coeff.of(g.t))
        if br.get(0) != want0:
            failures.append({"gen": g, "slot": 0, "got": br.get(0), "want": want0})
        if br.get(1) != want1:
            failures.append({"gen": g, "slot": 1, "got": br.get(1), "want": want1})
    brLL = extend_bracket(table, L, L)
    if brLL.get(0) != apply_partial(L):
        failures.append({"gen": "L", "slot": 0, "got": brLL.get(0), "want": apply_partial(L)})
    if brLL.get(1) != L.scale(2):
        failures.append({"gen": "L", "slot": 1, "got": brLL.get(1), "want": L.scale(2)})
    if brLL.get(2):
        failures.append({"gen": "L", "slot": 2, "got": brLL.get(2), "want": DiffPoly()})
    central = brLL.get(3)
    central_coeff = central.terms.get((), Coeff.of(0)) if central else Coeff.of(0)
    if central and set(central.terms) != {()}:
        failures.append({"gen": "L", "slot": 3, "got": central, "want": "a constant"})
    for n in range(4, brLL.degree() + 1):
        if brLL.get(n):
            failures.append({"gen": "L", "slot": n, "got": brLL.get(n), "want": DiffPoly()})
    return {"ok": not failures, "failures": failures, "central": central_coeff}
