"""Closed-form lambda-brackets between the W-algebra's strong generators.

The bracket of two generators is a finite sum over 'chains': strictly
grade-ascending sequences of ladder positions (j, n) through the centralizer
strings.  Each chain contributes a left-to-right product of factors, every
factor being a linear generator term minus a scalar multiple of k(lambda+d)
(a bare k*lambda on the rightmost factor); the (lambda+d) operators act on
everything to their right.

Signs.  One rule covers sl(N) and sl(N1|N2): the chain sum enters with the
sign -(-1)^(p(a)p(b)) for the bracket {a lambda b}, and each chain node
(j, n) contributes (-1)^p(j).  On plain sl every parity is 0 and both signs
are +1.  The sweep folds a node's sign into its tail and successor
constants once; the test suite's chain-by-chain oracle multiplies the signs
out per chain.

Structure constants.  Every factor is read off one supercommutator of ladder
elements: the centralizer coordinates of [x, y] (trace pairings against the
dual basis) and the pairing (x|y), both read on ints by one
liestruct.StructureKernel.  MasterEngine computes each once, keyed by ints
(generator ranks in cdata.gens, node indices in ladder_nodes): mid factors
by (u, v), head factors by (b, u), tail factors by (u, a) and the
chain-free head terms by (a, b).  Each is stored as (tuple of (rank,
coordinate) pairs, pairing) of Fractions and lives as long as the engine.
The first row computes every constant a full table uses, at once.

The sweep.  Evaluation runs right-to-left with memoized suffix sums: V(u)
collects the value of all chain tails starting at node u, so a full row of
brackets {a, -} reuses one suffix sweep.  Inside it monomials are interned
in a pvacore.VarSpace over cdata.gens, with stride one more than the number
of ladder nodes, and coefficients are ints accumulated in place.  The level
is a grading: give k degree 1 and lambda and d degree -1; every factor is of
degree 0, and so is every value, so the coefficient of lambda^n times a
monomial with D derivatives is c*k^(n+D).  The sweep keeps only c.
S is the lcm of the denominators of all the structure constants.  A
live node u has the exponent h(u) = 1 + the largest h over the nodes a chain
may step to from u (1 if there are none), and H = 1 + max h.  The sweep
keeps S^h(u) V(u), which is integral: each constant is stored once as an
int, S times the Fraction times the power of S that brings the term it
builds to its node's scale (S^(h(u)-1-h(v)) for a step u -> v, S^(h(u)-1)
for a tail, S^(H-1-h(u)) for an opener, S^(H-1) for a head term).  So a
finished row holds every entry at the one scale S^H.

The store.  bracket_table keeps the finished rows as they are, in a
pvacore.GradedStore over the sweep's VarSpace (its stride at least the
Leibniz engine's), with g = 1: the int c of lambda^n and a monomial with D
derivatives stands for c/S^H * k^(n+D).  One pass divides S^H and every int
by their gcd, so the table's scale is the lcm of the reduced denominators.
No Coeff is built: an entry is lifted to a LambdaPoly only when read.  The
table at k = 1 is the same store with g = 0, and at another rational level q
a copy of it with every c*k^e rescaled to an int at one scale.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .coeffs import Coeff
from .errors import WAlgebraError
from .liestruct import AlgebraCtx, CentralizerData, GenIndex, StructureKernel, sharp_coords
from .linalg import solve
from .pvacore import _STRIDE, BracketTable, DiffPoly, GradedStore, VarSpace, _accum, apply_partial

F = Fraction


class ChainIndex(namedtuple("ChainIndex", "j n alpha")):
    """A ladder position: generator j (a GenIndex), rung n and its grade
    alpha = n - delta(j), a Fraction."""

    __slots__ = ()


Chain = tuple  # tuple[ChainIndex, ...]


def ladder_nodes(cdata: CentralizerData) -> list[ChainIndex]:
    """All ladder positions (j, n), 0 <= n <= 2*delta(j), with their grades."""
    out = []
    for g in cdata.gens:
        dlt = cdata.delta[g]
        for n in range(int(2 * dlt) + 1):
            out.append(ChainIndex(g, n, n - dlt))
    return out


_F0 = F(0)

# A structure constant of the chain sum: the centralizer coordinates of a
# supercommutator as (generator rank, coordinate) pairs, and the pairing;
# Fractions, or ints scaled for the sweep.
Factor = tuple  # (tuple[tuple[int, Fraction], ...], Fraction)
_NO_FACTOR: Factor = ((), _F0)


class MasterEngine:
    """Evaluates generator brackets, symbolic in the level, for one algebra.

    Generators are named by their rank in cdata.gens and ladder positions by
    their index in self.nodes.  Every structure constant is computed once and
    kept for the engine's lifetime; the first row computes all that a full
    table uses."""

    def __init__(self, ctx: AlgebraCtx):
        self.ctx = ctx
        self.cdata = cdata = ctx.centralizer()
        self.nodes = nodes = ladder_nodes(cdata)
        # the table keeps this space: a chain applies at most one d per node,
        # and the Leibniz engine needs 64; ranks are cdata.col (sort_key order)
        self.space = VarSpace(cdata.gens, max(_STRIDE, len(nodes) + 1))
        self._alpha2 = [int(2 * c.alpha) for c in nodes]  # twice each grade, an int
        # string tops never contribute: every factor to their right vanishes;
        # descending grade, so a node's successors come before it
        live = [i for i, c in enumerate(nodes) if c.n < 2 * cdata.delta[c.j]]
        live.sort(key=lambda i: (nodes[i].alpha, nodes[i].j.sort_key(), nodes[i].n),
                  reverse=True)
        self._live = live
        self._kernel = StructureKernel(ctx, cdata.dual_at)
        self._constants: dict = {}
        self._scale = 0  # S^H once _prepare has run

    # -- structure constants, keyed by ranks and node indices ----------------

    def _constant(self, key: tuple, x, y) -> Factor:
        """The factor of the ladder pair (x, y), memoized under key; x is None
        past a string top, where the factor vanishes."""
        hit = self._constants.get(key)
        if hit is None:
            hit = _NO_FACTOR if x is None else self._kernel(x, y)
            self._constants[key] = hit
        return hit

    def _raised(self, u: int):
        """q[n+1] one rung past node u, or None when u tops out its string."""
        c = self.nodes[u]
        fam = self.cdata.adFPowers[c.j]
        return fam[c.n + 1] if c.n + 1 < len(fam) else None

    def _dual(self, u: int):
        c = self.nodes[u]
        return self.cdata.dualFamily[c.j][c.n]

    def _basis(self, r: int):
        return self.cdata.basisF[self.cdata.gens[r]]

    def mid_factor(self, u: int, v: int) -> Factor:
        """Factor coupling consecutive chain nodes u -> v."""
        return self._constant(("mid", u, v), self._raised(u), self._dual(v))

    def tail_factor(self, u: int, a: int) -> Factor:
        """Factor closing a chain at node u in the row of generator a."""
        return self._constant(("tail", u, a), self._raised(u), self._basis(a))

    def head_factor(self, b: int, u: int) -> Factor:
        """Factor opening a chain at node u in the column of generator b."""
        return self._constant(("head", b, u), self._basis(b), self._dual(u))

    def head_term(self, a: int, b: int) -> Factor:
        """The chain-free term of {a lambda b}: [q_a, q_b] and (q_a|q_b)."""
        return self._constant(("top", a, b), self._basis(a), self._basis(b))

    def _prepare(self) -> None:
        """Every structure constant a full table uses, as an int at the scale
        the sweep needs (see the module docstring); zero mid and head
        factors are dropped.  The tail and successor factors of a node on an
        odd string carry its sign -1 (the sign rule in the module
        docstring)."""
        cdata, live, alpha2 = self.cdata, self._live, self._alpha2
        ranks = range(len(cdata.gens))
        succ = {u: [(v, fac) for v in live
                    if alpha2[v] >= alpha2[u] + 2 and any(fac := self.mid_factor(u, v))]
                for u in live}
        delta2 = [int(2 * cdata.delta[g]) for g in cdata.gens]
        opens = [[(u, fac) for u in live
                  if alpha2[u] >= -delta2[rb] and any(fac := self.head_factor(rb, u))]
                 for rb in ranks]
        # a row skips the nodes above its generator's top grade
        tails = {u: [self.tail_factor(u, ra) if alpha2[u] <= delta2[ra] - 2 else _NO_FACTOR
                     for ra in ranks] for u in live}
        tops = [[self.head_term(ra, rb) for rb in ranks] for ra in ranks]

        used = [f for vs in succ.values() for _, f in vs] + [f for us in opens for _, f in us]
        used += [f for fs in (*tails.values(), *tops) for f in fs]
        S = lcm(*{x.denominator for P, c in used for x in (c, *(v for _, v in P))})

        def scaled(fac: Factor, e: int, odd: int = 0) -> Factor:
            """(-1)^odd S^(e+1) * fac, as ints."""
            m = -S ** e if odd else S ** e
            P, c = fac
            return (tuple((r, v.numerator * (S // v.denominator) * m) for r, v in P),
                    c.numerator * (S // c.denominator) * m)

        h: dict[int, int] = {}
        for u in live:  # successors come first
            h[u] = 1 + max((h[v] for v, _ in succ[u]), default=0)
        H = 1 + max(h.values(), default=0)
        odd = {u: self.nodes[u].j.parity for u in live}
        self._succ = {u: [(v, scaled(f, h[u] - 1 - h[v], odd[u])) for v, f in vs]
                      for u, vs in succ.items()}
        self._opens = [[(u, scaled(f, H - 1 - h[u])) for u, f in us] for us in opens]
        self._tails = {u: [scaled(f, h[u] - 1, odd[u]) for f in fs] for u, fs in tails.items()}
        self._tops = [[scaled(f, H - 1) for f in fs] for fs in tops]
        self._scale = S ** H

    # -- the interned sweep ---------------------------------------------------
    #
    # Monomials are interned in self.space; values are
    # {lambda power: {monomial: int}}, at the scale of their factors, each
    # int standing for itself times k^(lambda power + derivative count).

    def _value(self, factor: Factor, ksign: int) -> dict:
        """{0: P, 1: ksign * c k} for an int factor (P, c), interned."""
        P, c = factor
        D = self.space.stride
        out = {}
        if P:
            out[0] = {(r * D,): v for r, v in P}
        if c:
            out[1] = {(): c if ksign > 0 else -c}
        return out

    def _apply_into(self, out: dict, factor: Factor, X: dict) -> None:
        """out += (P - c*k(lambda+d)) X, the operator acting on X; an int
        factor keeps int values int."""
        P, c = factor
        space = self.space
        D, odd, deriv = space.stride, space.odd, space.deriv
        for n, p in X.items():
            if P:
                dst = out.get(n)
                if dst is None:
                    dst = out[n] = {}
                for r, coord in P:
                    x = r * D
                    for m, cp in p.items():
                        pos = bisect_left(m, x)
                        s = coord
                        if odd[x]:
                            if pos < len(m) and m[pos] == x:
                                continue  # a repeated odd factor
                            for y in m[:pos]:
                                if odd[y]:
                                    s = -s
                        key = m[:pos] + (x,) + m[pos:]
                        t = dst[key] = dst.get(key, 0) + s * cp
                        if not t:  # _accum inlined: this loop is the sweep's hot spot
                            del dst[key]
            if c:
                dst = out.get(n)
                if dst is None:
                    dst = out[n] = {}
                up = out.get(n + 1)
                if up is None:
                    up = out[n + 1] = {}
                for m, cp in p.items():
                    term = -c * cp
                    t = up[m] = up.get(m, 0) + term
                    if not t:
                        del up[m]
                    for dm in deriv(m):
                        t = dst[dm] = dst.get(dm, 0) + term
                        if not t:
                            del dst[dm]

    # -- rows of brackets ------------------------------------------------------

    def row(self, a: GenIndex) -> list[dict]:
        """{omega(a) lambda omega(b)} for every generator b in generator
        order, as {lambda power: {monomial: int}} at the scale self._scale."""
        if not self._scale:
            self._prepare()
        cdata = self.cdata
        ra = cdata.col[a]
        top2 = int(2 * cdata.delta[a]) - 2  # twice the top grade of a chain node
        # suffix sums over the chains starting at each node, V[u] at scale S^h(u)
        V: dict[int, dict] = {}
        for u in self._live:
            if self._alpha2[u] > top2:
                continue
            acc = self._value(self._tails[u][ra], -1)
            for v, factor in self._succ[u]:
                Sv = V.get(v)
                if Sv is not None:
                    self._apply_into(acc, factor, Sv)
            acc = {n: p for n, p in acc.items() if p}
            if acc:
                V[u] = acc

        # every entry at scale S^H
        out = []
        for rb, b in enumerate(cdata.gens):
            chain_sum: dict = {}
            for u, factor in self._opens[rb]:
                Vu = V.get(u)
                if Vu is not None:
                    self._apply_into(chain_sum, factor, Vu)
            val = self._value(self._tops[ra][rb], 1)
            sign = 1 if a.parity and b.parity else -1
            for n, p in chain_sum.items():
                dst = val.setdefault(n, {})
                for m, cp in p.items():
                    _accum(dst, m, sign * cp)
            out.append({n: p for n, p in val.items() if p})
        return out


_TABLE_CACHE: dict = {}


def bracket_table(ctx: AlgebraCtx, ktilde: str | int | Fraction = "symbolic") -> BracketTable:
    """All ordered generator-pair brackets, memoized per algebra/level.

    Only the symbolic table is built; a rational ktilde (an int, a Fraction
    or a string Fraction reads) gives its store read at the level ktilde,
    cached under the normalised Fraction.  A float or a bool level is
    refused with WAlgebraError: Fraction(0.1) is the float's binary value,
    not 1/10, and True would run as level 1; so is anything else Fraction
    cannot read as a rational."""
    if ktilde != "symbolic":
        if isinstance(ktilde, (float, bool)):
            raise WAlgebraError(f"level {ktilde!r} is a {type(ktilde).__name__};"
                                f" give an int, a Fraction or a string such as '1/10'")
        try:
            ktilde = F(ktilde)
        except (TypeError, ValueError, ZeroDivisionError):
            raise WAlgebraError(f"level {ktilde!r} is not a rational number") from None
    spec = ctx.spec
    key = (spec.kind, spec.parts1, spec.parts2, ktilde)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    if ktilde == "symbolic":
        engine = MasterEngine(ctx)
        ints = {(ra, rb): val for ra, a in enumerate(engine.cdata.gens)
                for rb, val in enumerate(engine.row(a))}
        # the store's scale: S^H over the gcd of S^H and every int
        parts = [p for val in ints.values() for p in val.values()]
        G = gcd(engine._scale, *(gcd(*p.values()) for p in parts))
        for p in parts:
            for m, c in p.items():
                p[m] = c // G
        table = BracketTable.of_store(GradedStore(engine.space, engine._scale // G, 1, ints))
    else:
        table = BracketTable.of_store(bracket_table(ctx).store.at_level(ktilde))
    _TABLE_CACHE[key] = table
    return table


# ---------------------------------------------------------------------------
# conformal structure


def conformal_vector(ctx: AlgebraCtx) -> DiffPoly:
    """L = (image of f) + 1/2 sum over the grade-zero centralizer of
    q_j q'_j, with {q'_j} the form-dual basis of that grade-zero subspace."""
    cdata = ctx.centralizer()
    L = DiffPoly(
        {((g, 0),): Coeff.of(v) for g, v in sharp_coords(cdata, ctx.f).items()}
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
            sol = solve(gram_rows, rhs)
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
