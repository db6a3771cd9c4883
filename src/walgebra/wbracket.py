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
constants once, and the chain sum's sign into the constants that open a
chain, one set for each parity of a; the test suite's chain-by-chain oracle
multiplies the signs out per chain.

Structure constants.  Every factor is read off one supercommutator of ladder
elements: the centralizer coordinates of [x, y] (trace pairings against the
dual basis) and the pairing (x|y), both read on ints by one
liestruct.StructureKernel, which answers zero without forming a product when
the two matrices' supports do not meet (no column of either is a row of the
other); about half the constants of a table are such pairs.  MasterEngine
computes each once, keyed by ints (generator ranks in cdata.gens, node
indices in ladder_nodes): mid factors by (u, v), head factors by (b, u),
tail factors by (u, a) and the chain-free head terms by (a, b).  Each is
stored as (tuple of (rank, coordinate) pairs, pairing) of Fractions and
lives as long as the engine.  The first row computes every constant a full
table uses, at once.

The sweep.  Evaluation runs right-to-left with memoized suffix sums: V(u)
collects the value of all chain tails starting at node u, so a full row of
brackets {a, -} reuses one suffix sweep.  The level is a grading: give k
degree 1 and lambda and d degree -1; every factor is of degree 0, and so is
every value, so the coefficient of lambda^n times a monomial with D
derivatives is c*k^(n+D).  The sweep keeps only c, an int, at a scale of
its own per node.  With den(f) the lcm of the denominators of a constant f,
a live node u has the scale sigma(u) = lcm of den(tail(u, a)) over the
generators a and of den(mid(u, v))*sigma(v) over the nodes v a chain may
step to from u, successors first; the top scale T is the lcm of
den(head(b, u))*sigma(u) and den(top(a, b)).  The sweep keeps
sigma(u) V(u), which is integral: each constant is stored once as an int,
a mid factor as f*sigma(u)/sigma(v), a tail as f*sigma(u), an opener as
f*T/sigma(u) and a head term as f*T.  So a finished row holds every entry
at the one scale T, and T divides the power of the lcm of all denominators
that a single scale for every node would need, so no int grows past it.
Inside the sweep a monomial is an int id naming a monomial interned in a
pvacore.VarSpace over cdata.gens, with stride one more than the number of
ladder nodes; values are {lambda power: {id: int}}, accumulated in place.
Each variable keeps a memo from an id to the signed id of its product with
that monomial (0 for a repeated odd factor), and each id the ids of its
derivative, so the inner loop does dict lookups on small ints only.  A
finished row maps its ids back to VarSpace monomials once.

The store.  bracket_table keeps the finished rows as they are, in a
pvacore.GradedStore over the sweep's VarSpace (its stride at least the
Leibniz engine's), with g = 1: the int c of lambda^n and a monomial with D
derivatives stands for c/T * k^(n+D).  One pass divides T and every int by
their gcd, so the table's scale is the lcm of the reduced denominators; a
reduced (scale, ints) pair is unique, so the store does not depend on which
common scale the sweep ran at.  No Coeff is built: an entry is lifted to a
LambdaPoly only when read.  The table at k = 1 is the same store with g =
0, and at another rational level q a copy of it with every c*k^e rescaled
to an int at one scale.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .coeffs import Coeff
from .errors import WAlgebraError
from .liestruct import AlgebraCtx, CentralizerData, GenIndex, StructureKernel, sharp_coords
from .linalg import solve_each
from .pvacore import (_STRIDE, BracketTable, DiffPoly, GradedStore, VarSpace, apply_partial,
                      extend_bracket)

F = Fraction


class ChainIndex(namedtuple("ChainIndex", "j n alpha")):
    """A ladder position: generator j (a GenIndex), rung n and its grade
    alpha = n - delta(j), a Fraction."""

    __slots__ = ()


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
        self._scale = 0  # T once _prepare has run
        # the sweep's interned monomials, id 0 unused; per id the memoized
        # derivative ids, per variable rank {id: signed id of the product}
        self._monos: list = [None]
        self._ids: dict = {}
        self._dids: list = [None]
        self._inserts = [{} for _ in cdata.gens]
        self._unit = self._id(())
        self._var_ids = [self._id((r * self.space.stride,)) for r in range(len(cdata.gens))]

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
        odd string carry its sign -1, and the openers the chain sum's sign
        (the sign rule in the module docstring), one list per parity of the
        row's generator."""
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

        sigma: dict[int, int] = {}
        for u in live:  # successors come first
            sigma[u] = lcm(*map(_den, tails[u]), *(_den(f) * sigma[v] for v, f in succ[u]))
        T = lcm(*(_den(f) * sigma[u] for us in opens for u, f in us),
                *(_den(f) for fs in tops for f in fs))
        odd = {u: self.nodes[u].j.parity for u in live}
        self._succ = {u: [(v, _scaled(f, sigma[u], sigma[v], odd[u])) for v, f in vs]
                      for u, vs in succ.items()}
        self._tails = {u: [_scaled(f, sigma[u], 1, odd[u]) for f in fs]
                       for u, fs in tails.items()}
        self._tops = [[_scaled(f, T) for f in fs] for fs in tops]
        # the chain sum enters with -(-1)^(p(a)p(b)): -1 unless a and b are odd
        even_a = [[(u, _scaled(f, T, sigma[u], 1)) for u, f in us] for us in opens]
        odd_a = [[(u, _scaled(f, T, sigma[u])) for u, f in us] if cdata.gens[rb].parity
                 else even_a[rb] for rb, us in enumerate(opens)]
        self._opens = (even_a, odd_a)
        self._scale = T

    # -- the interned sweep ---------------------------------------------------
    #
    # Values are {lambda power: {monomial id: int}}, at the scale of their
    # node, each int standing for itself times k^(lambda power + derivative
    # count).  Id i >= 1 names the VarSpace monomial self._monos[i].

    def _id(self, m: tuple) -> int:
        """The id of the interned monomial m, new ids counted up from 1."""
        i = self._ids.get(m)
        if i is None:
            i = self._ids[m] = len(self._monos)
            self._monos.append(m)
            self._dids.append(None)
        return i

    def _insert(self, r: int, i: int) -> int:
        """The memoized x*m for x the variable of rank r and m the monomial
        of id i: the id of the product, negated when x moves past an odd
        number of odd factors, 0 when x is odd and in m already."""
        hit = self.space.canonical((r * self.space.stride, *self._monos[i]))
        j = self._inserts[r][i] = 0 if hit is None else hit[0] * self._id(hit[1])
        return j

    def _deriv(self, i: int) -> list:
        """The ids of VarSpace.deriv of the monomial of id i, memoized here
        by id: the sweep's one derivative memo."""
        ds = self._dids[i] = [self._id(m) for m in self.space.deriv(self._monos[i])]
        return ds

    def _value(self, factor: Factor, ksign: int) -> dict:
        """{0: P, 1: ksign * c k} for an int factor (P, c)."""
        P, c = factor
        out = {}
        if P:
            out[0] = {self._var_ids[r]: v for r, v in P}
        if c:
            out[1] = {self._unit: c if ksign > 0 else -c}
        return out

    def _apply_into(self, out: dict, factor: Factor, X: dict) -> None:
        """out += (P - c*k(lambda+d)) X, the operator acting on X; an int
        factor keeps int values int.  This loop is the sweep's hot spot: the
        accumulation is inlined and zeros deleted as they arise."""
        P, c = factor
        inserts, dids = self._inserts, self._dids
        for n, p in X.items():
            if P:
                dst = out.get(n)
                if dst is None:
                    dst = out[n] = {}
                for r, coord in P:
                    ins = inserts[r]
                    for i, cp in p.items():
                        j = ins.get(i)
                        if j is None:
                            j = self._insert(r, i)
                        if j > 0:
                            t = dst[j] = dst.get(j, 0) + coord * cp
                        elif j:
                            j = -j
                            t = dst[j] = dst.get(j, 0) - coord * cp
                        else:
                            continue  # a repeated odd factor
                        if not t:
                            del dst[j]
            if c:
                dst = out.get(n)
                if dst is None:
                    dst = out[n] = {}
                up = out.get(n + 1)
                if up is None:
                    up = out[n + 1] = {}
                for i, cp in p.items():
                    term = -c * cp
                    t = up[i] = up.get(i, 0) + term
                    if not t:
                        del up[i]
                    ds = dids[i]
                    if ds is None:
                        ds = self._deriv(i)
                    for j in ds:
                        t = dst[j] = dst.get(j, 0) + term
                        if not t:
                            del dst[j]

    def _tuples(self, val: dict) -> dict:
        """val with its ids mapped back to VarSpace monomials, empty powers
        dropped."""
        monos = self._monos
        return {n: {monos[i]: c for i, c in p.items()} for n, p in val.items() if p}

    # -- rows of brackets ------------------------------------------------------

    def row(self, a: GenIndex) -> list[dict]:
        """{omega(a) lambda omega(b)} for every generator b in generator
        order, as {lambda power: {monomial: int}} at the scale self._scale."""
        if not self._scale:
            self._prepare()
        cdata = self.cdata
        ra = cdata.col[a]
        top2 = int(2 * cdata.delta[a]) - 2  # twice the top grade of a chain node
        # suffix sums over the chains starting at each node, V[u] at scale sigma(u)
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

        # every entry at scale T, the openers carrying the chain sum's sign
        opens = self._opens[1 if a.parity else 0]
        out = []
        for rb in range(len(cdata.gens)):
            val = self._value(self._tops[ra][rb], 1)
            for u, factor in opens[rb]:
                Vu = V.get(u)
                if Vu is not None:
                    self._apply_into(val, factor, Vu)
            out.append(self._tuples(val))
        return out


def _den(factor: Factor) -> int:
    """The lcm of the denominators of a Fraction factor."""
    P, c = factor
    return lcm(c.denominator, *(x.denominator for _, x in P))


def _scaled(factor: Factor, num: int, den: int = 1, odd: int = 0) -> Factor:
    """(-1)^odd * num/den * factor as ints, den * _den(factor) dividing num."""
    P, c = factor
    s = -1 if odd else 1
    return (tuple((r, s * x.numerator * (num // (den * x.denominator))) for r, x in P),
            s * c.numerator * (num // (den * c.denominator)))


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
        # the store's scale: T over the gcd of T and every int
        parts = [p for val in ints.values() for p in val.values()]
        G = engine._scale
        for p in parts:
            G = gcd(G, *p.values())
            if G == 1:
                break
        if G > 1:
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
        # the duals by one elimination, the right-hand side of q'_j being e_j
        n = len(zero_gens)
        for gj, sol in zip(zero_gens, solve_each(gram_rows, [{i: 1} for i in range(n)], n)):
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
