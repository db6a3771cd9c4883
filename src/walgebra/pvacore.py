"""Differential polynomials and lambda-brackets over an arbitrary variable set.

A variable is any hashable object exposing `.weight` (Fraction), `.parity`
(0 or 1) and `.sort_key()`; the package uses GenIndex (W-algebra generators)
and the affine ladder variables of the reduction engine.  A monomial is a
canonically ordered tuple of (variable, derivative-power) factors; odd
variables anticommute, so reordering tracks a sign and a repeated odd factor
kills the monomial.  Polynomials map monomials to Coeff scalars.

Lambda-polynomials collect differential polynomials by power of lambda.  A
BracketTable holds the generator-pair brackets of one algebra as a graded
store, and every read of an entry is a fresh LambdaPoly; its Leibniz engine
extends them to arbitrary differential polynomials by sesquilinearity and
both Leibniz rules of a Poisson vertex algebra (the Master Formula of
Barakat-De Sole-Kac), and checks the Jacobi identity.

VarSpace.  The interned monomial format both engines run on (this one and
wbracket's chain sweep).  Variables are ranked by sort_key(); a factor (rank
r, derivative power n) is the int r*stride + n, so a monomial is a sorted
int tuple in the canonical factor order and parity is an array lookup.  The
space codes DiffPoly monomials (sign and int tuple; a derivative power of
stride or more is refused with WAlgebraError, an unknown variable raises
MissingTableEntry), differentiates int monomials, and converts them back to
(variable, dpow) factors at the edge, memoizing each.

The grading.  Give k degree 1 and lambda and d degree -1.  A symbolic or
affine table is homogeneous of degree 0: its coefficient of lambda^n times a
monomial with D derivatives is c*k^(n+D).  A fixed-level table has constant
coefficients.  The Leibniz rules preserve degree, so the engine carries c.

The store.  A GradedStore holds a table as ints: a VarSpace, a scale L, the
grading flag g and {(rank a, rank b): {n: {interned monomial: int}}}, an int
c standing for c/L * k^(g*(n+D)).  The chain sweep builds one (g = 1) per
algebra and its table keeps it as it is; the k=1 view is the same ints with
g = 0, another level's a rescaled copy.  A table built from DiffPoly entries
(hand-built, affine, corrupted) interns them on construction into a store
over a VarSpace of stride 64: g is 1 when some coefficient has a positive
power of k, each lambda^n part is read by VarSpace.graded, a part off
c*k^(g*(n+D)) is refused with a WAlgebraError naming its pair, and L is the
lcm of the parts' scales.  Every table's entries lift through diff_poly on
every read, and nothing lifted is kept: a read shares only immutable Coeffs
and monomial tuples with the store, so no caller can corrupt it.

The engine.  Each table builds one with its store and keeps it; it holds the
store, not the table, so it dies with the table.  The Leibniz rules only add
and multiply by integers (binomials, signs, multiplicities), so every
memoized bracket is an int value at scale L, and a Jacobi term at L^2.  Its
bracket memos ({var lambda mono}, {mono lambda mono}, products,
derivatives) grow with every call and are dropped by drop_memos, which the
reduction oracle calls when reconcile returns.

Products.  A product of polynomials is bracketed through its factors by one
routine, ProductBracket, against one fixed right operand B: the left
Leibniz rule {f r lambda B} = (-1)^{p(r)p(B)} {f lambda+d B}-> r +
(-1)^{p(f)(p(r)+p(B))} {r lambda+d B}-> f, peeling the first factor, with a
memo of {suffix lambda B} that lives as long as the object, one call.  The
caller gives the bracket of one factor with B and d^k of a product.  It
serves graded_self_bracket, whose factors are interned letters, and
Substitution.bracket_images, whose factors are the images of generator
letters under a substitution.

The Jacobi orbit rule.  When a table's generator brackets are skew-symmetric
and each {a lambda b} has the parity p(a) + p(b), their extension to all
differential polynomials is skew-symmetric too (Barakat-De Sole-Kac), and the
Jacobi identity holds at a triple exactly when it holds at every permutation
of it.  The engine settles that precondition once (symmetric(): all n^2
ordered entries stored, every monomial of the right parity, the skew sweep
clean; a missing entry makes it False, it never raises) and keeps the sorted
rank triples it has seen hold, at most C(n+2, 3) of them; check_jacobi skips
a triple whose orbit is kept.  A violation is never kept, so each violating
triple is computed and reported with its own diff, and on a table that fails
the precondition every triple is computed.

The edge: graded values, the one int format of inputs and results.  (M,
{s: {interned monomial: int}}) holds an int c of a monomial with D
derivatives at degree s for c/M * k^(s + g*D).  VarSpace.graded splits a
DiffPoly's coefficients into one (s = power of k - g*D), and lift turns one
back through diff_poly, the one conversion of ints to Coeffs.  The engine's
graded_bracket returns one per power of lambda at scale L*M_A*M_B, degrees
s_A, s_B landing at lambda^n in degree s_A + s_B + g*n; extend_bracket wraps
it, and the reduction oracle reads its ints at k=1.  graded_self_bracket
gives graded_bracket(A, A) as the sum over the terms x of A of {x lambda A}
through x's factors, {v lambda A} summed once per letter v; it holds on any
table.  The linear term of an n-th
product of two linear combinations has one summation, linear_ints: it
takes both combinations cleared by clear (a common denominator and one
int per variable rank), reads the store's ints at k=1 beside their power
g*n, and returns the sum as ints at L times the two denominators, with no
Fraction built.  linear_product, which the scripted schedules call, clears,
sums and lifts to one Fraction per nonzero variable; the closure search
keeps its pool cleared and lifts only the products it keeps.  check_skew
and check_jacobi accumulate lhs - rhs on ints, and only a failing pair's or
triple's diff is lifted, a Jacobi diff to a TwoVar with k^(g*(i+j+D)) at
lambda^i mu^j.  check_skew also reports each pair whose {a lambda b} holds
a monomial of parity other than p(a) + p(b), kind "parity", with those
terms lifted.

Substitution.  The differential-algebra morphism that replaces letters by
DiffPolys over a table's variables runs on the same interned monomials and
the engine's product memo, on graded values with g = 1, so any Q[k]
coefficients pass exactly: d lowers s by one and products add it.  Its
entry point returns a graded value; calling it lifts that at the edge.  It
memoizes d^k of the images of letters and monomials, and bracket_images
brackets the images of monomials with a fixed graded value through their
factors by a ProductBracket.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import comb, factorial, lcm, prod

from .coeffs import Coeff, ONE
from .errors import MissingTableEntry, WAlgebraError

Factor = tuple  # (var, dpow)
Monomial = tuple  # tuple of factors, canonically ordered
_EMPTY: Monomial = ()


def normalize_factors(factors: Iterable[Factor]) -> tuple[int, Monomial | None]:
    """Canonically order factors, returning (sign, monomial).

    One stable sort on keys computed once per factor; the sign is the parity
    of the inversions among odd factors, the odd-odd transpositions of that
    sort.  A repeated odd factor returns (+1, None) meaning the monomial
    vanishes."""
    fs = list(factors)
    keys = [_factor_key(f) for f in fs]
    order = sorted(range(len(fs)), key=keys.__getitem__)
    odd = [i for i in order if fs[i][0].parity]
    inversions = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1:])
    for i, j in zip(order, order[1:]):
        if keys[i] == keys[j] and fs[i][0].parity:
            return 1, None
    return -1 if inversions % 2 else 1, tuple([fs[i] for i in order])


def _factor_key(f: Factor):
    return (f[0].sort_key(), f[1])


def _accum(out: dict, key, c) -> None:
    """out[key] += c, dropping a sum that cancels."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _add_scaled(out: dict, p: dict, w: int) -> None:
    """out += w * p on {monomial: int}, dropping sums that cancel; w and
    the ints of p are nonzero."""
    get = out.get
    for m, c in p.items():
        t = get(m, 0) + w * c
        if t:
            out[m] = t
        else:
            del out[m]


def monomial_weight(m: Monomial) -> Fraction:
    return sum((v.weight + k for v, k in m), Fraction(0))


def monomial_key(m: Monomial):
    """Deterministic total order: weight, then length, then factor keys."""
    return (monomial_weight(m), len(m), tuple(_factor_key(f) for f in m))


class DiffPoly:
    """Differential polynomial: {monomial: Coeff}, zero entries dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms or {}

    @staticmethod
    def variable(v) -> "DiffPoly":
        return DiffPoly({((v, 0),): ONE})

    @staticmethod
    def constant(c) -> "DiffPoly":
        c = Coeff.of(c)
        return DiffPoly({_EMPTY: c} if c else {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accum(out, m, c)
        return DiffPoly(out)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "DiffPoly":
        return self.scale(-1)

    def scale(self, c) -> "DiffPoly":
        c = Coeff.of(c)
        if not c:
            return DiffPoly()
        return DiffPoly({m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, m = normalize_factors(m1 + m2)
                if m is None:
                    continue
                c = c1 * c2
                _accum(out, m, c if sign > 0 else -c)
        return DiffPoly(out)

    def d(self) -> "DiffPoly":
        """Total derivative (the translation operator of the algebra)."""
        out: dict = {}
        for m, c in self.terms.items():
            for idx in range(len(m)):
                v, k = m[idx]
                bumped = m[:idx] + ((v, k + 1),) + m[idx + 1:]
                sign, mono = normalize_factors(bumped)
                if mono is not None:
                    _accum(out, mono, c if sign > 0 else -c)
        return DiffPoly(out)

    def at_level(self, k) -> "DiffPoly":
        """Every coefficient evaluated at the rational level k."""
        out = {}
        for m, c in self.terms.items():
            v = c.eval(k)
            if v:
                out[m] = Coeff.of(v)
        return DiffPoly(out)

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        return sorted(self.terms.items(), key=lambda mc: monomial_key(mc[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            fac = "*".join(
                (f"{v}" if k == 0 else f"d^{k}({v})") for v, k in m
            ) or "1"
            bits.append(f"({c})*{fac}")
        return " + ".join(bits)


def apply_partial(poly: DiffPoly, times: int = 1) -> DiffPoly:
    for _ in range(times):
        poly = poly.d()
    return poly


def linear_term(poly: DiffPoly) -> dict:
    """Coefficients of the bare single-variable monomials (no derivative)."""
    out = {}
    for m, c in poly.terms.items():
        if len(m) == 1 and m[0][1] == 0:
            out[m[0][0]] = c
    return out


class LambdaPoly:
    """Polynomial in lambda with DiffPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {n: p for n, p in (coeffs or {}).items() if p}

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        out = dict(self.coeffs)
        for n, p in other.coeffs.items():
            _accum(out, n, p)
        return LambdaPoly(out)

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "LambdaPoly":
        c = Coeff.of(c)
        if not c:
            return LambdaPoly()
        return LambdaPoly({n: p.scale(c) for n, p in self.coeffs.items()})

    def get(self, n: int) -> DiffPoly:
        return self.coeffs.get(n, DiffPoly())

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def at_level(self, k) -> "LambdaPoly":
        return LambdaPoly({n: p.at_level(k) for n, p in self.coeffs.items()})

    def at_level_one(self) -> "LambdaPoly":
        return self.at_level(1)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"L^{n}[{self.coeffs[n]!r}]" for n in sorted(self.coeffs)
        )


class BracketTable:
    """All ordered generator-pair lambda-brackets of one algebra, kept as a
    graded store: the entries it is given are interned on construction
    (BracketTable.of_store takes a store as it is).  Its variables are in
    rank order, and every read of an entry is a fresh LambdaPoly."""

    def __init__(self, variables: list, entries: dict):
        self._init(_intern(variables, entries))

    @classmethod
    def of_store(cls, store: "GradedStore") -> "BracketTable":
        """The table over a graded store."""
        table = cls.__new__(cls)
        table._init(store)
        return table

    def _init(self, store: "GradedStore") -> None:
        self.store = store
        self.variables = list(store.space.vars)
        self.entries = _LiftedEntries(store)
        self._engine = _Leibniz(store)

    def lookup(self, u, v) -> LambdaPoly:
        try:
            return self.entries[(u, v)]
        except KeyError:
            raise MissingTableEntry(f"no bracket stored for ({u}, {v})") from None

    def _leibniz(self) -> "_Leibniz":
        """The table's Leibniz engine."""
        return self._engine

    def clear(self, combo: dict) -> tuple:
        """A linear combination {variable: int or Fraction} cleared of its
        denominators: (d, ((rank, int), ...)), each variable's value its int
        over d, the lcm of the denominators."""
        rank_of = self._engine.space.rank_of
        d = lcm(*(v.denominator for v in combo.values()))
        return d, tuple((rank_of(x), v.numerator * (d // v.denominator)) for x, v in combo.items())

    def linear_ints(self, A: tuple, B: tuple, n: int) -> tuple:
        """The linear term of the n-th product of two cleared combinations,
        n! * sum of va*vb * linear_term({ga lambda gb} at lambda^n), as (g*n,
        scale, {rank: int}): k^(g*n) times each int over scale = L*da*db at
        k=1.  A sum that cancels stays as a 0.  No Fraction is built."""
        engine = self._engine
        (da, ia), (db, ib) = A, B
        linear = engine.linear
        out: dict = {}
        for ra, va in ia:
            for rb, vb in ib:
                s = va * vb
                for r, c in linear(ra, rb, n):
                    out[r] = out.get(r, 0) + c * s
        return engine.g * n, engine.L * da * db, out

    def lift_linear(self, scale: int, ints: dict) -> dict:
        """{rank: int} at scale as {variable: nonzero Fraction}, in variable
        order: the one place a linear product builds Fractions."""
        vs = self.variables
        return {vs[r]: Fraction(v, scale) for r, v in sorted(ints.items()) if v}

    def linear_product(self, ca: dict, cb: dict, n: int) -> tuple:
        """linear_ints on two combinations {variable: int or Fraction}, lifted:
        (g*n, {variable: nonzero value at k=1}) in variable order, the term
        k^(g*n) times them."""
        m, scale, ints = self.linear_ints(self.clear(ca), self.clear(cb), n)
        return m, self.lift_linear(scale, ints)


class GradedStore(namedtuple("GradedStore", "space scale g ints")):
    """A table's brackets as ints over a VarSpace: the int c of lambda^n and
    interned monomial m in ints[(rank a, rank b)][n] stands for c/scale *
    k^(g*(n + D(m))) in {a lambda b}, D counting derivatives; scale and g
    are ints."""

    __slots__ = ()

    def lift(self, val: dict) -> LambdaPoly:
        """{lambda power: {interned monomial: int}} lifted to a LambdaPoly."""
        diff_poly, scale, g = self.space.diff_poly, self.scale, self.g
        return LambdaPoly({n: diff_poly(p, scale, g, g * n) for n, p in val.items()})

    def at_level(self, q: Fraction) -> "GradedStore":
        """A graded (g = 1) store read at the rational level q, so g = 0: the
        same ints at q = 1; else, for q = a/b and E the largest n + D, each c
        of degree e = n + D becomes c * a^e * b^(E-e) at scale * b^E."""
        if q == 1:
            return self._replace(g=0)
        stride, a, b = self.space.stride, q.numerator, q.denominator
        terms = [(ab, n, m, n + sum(x % stride for x in m), c)
                 for ab, val in self.ints.items() for n, p in val.items() for m, c in p.items()]
        E = max((e for _, _, _, e, _ in terms), default=0)
        power = [a ** e * b ** (E - e) for e in range(E + 1)]
        ints: dict = {ab: {} for ab in self.ints}
        for ab, n, m, e, c in terms:
            if a or not e:  # at q = 0 only degree 0 survives
                ints[ab].setdefault(n, {})[m] = c * power[e]
        return GradedStore(self.space, self.scale * b ** E, 0, ints)


class _LiftedEntries(Mapping):
    """A graded store's entries, {(a, b): LambdaPoly}, a read-only mapping:
    every read lifts its entry afresh, so nothing lifted is kept, and a
    lifted entry shares only immutable Coeffs and monomials with the store."""

    def __init__(self, store: GradedStore):
        self._store = store

    def __getitem__(self, ab) -> LambdaPoly:
        store, (a, b) = self._store, ab
        return store.lift(store.ints[(store.space.rank[a], store.space.rank[b])])

    def __contains__(self, ab) -> bool:
        rank = self._store.space.rank
        return len(ab) == 2 and (rank.get(ab[0]), rank.get(ab[1])) in self._store.ints

    def __iter__(self):
        vs = self._store.space.vars
        return ((vs[u], vs[v]) for u, v in self._store.ints)

    def __len__(self) -> int:
        return len(self._store.ints)


# ---------------------------------------------------------------------------
# interned monomials


class VarSpace:
    """The interned monomial format over one set of variables.

    Variables are ranked by sort_key(); a factor (rank r, derivative power n)
    is the int r*stride + n, so a monomial is a sorted int tuple in the
    canonical factor order, and odd[x] is the parity of factor x.  Codes,
    derivatives, edge monomials and edge coefficients are memoized for the
    space's lifetime."""

    def __init__(self, variables, stride: int):
        self.vars = sorted(variables, key=lambda v: v.sort_key())
        self.rank = {v: r for r, v in enumerate(self.vars)}
        self.stride = stride
        self.odd = [v.parity for v in self.vars for _ in range(stride)]
        self._codes: dict = {}
        self._derivs: dict = {}
        self._edge: dict = {}
        self._factors: dict = {}
        self._lifted: dict = {}
        self._coeffs: dict = {}

    def rank_of(self, v) -> int:
        r = self.rank.get(v)
        if r is None:
            raise MissingTableEntry(f"{v} is not a variable of the bracket table")
        return r

    def canonical(self, xs) -> tuple | None:
        """(sign, sorted int tuple) of a factor sequence, counting odd-odd
        transpositions; None when an odd factor repeats."""
        fs = list(xs)
        odd = self.odd
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

    def code(self, mono: Monomial) -> tuple | None:
        """(sign, interned monomial) of a DiffPoly monomial; None if it
        vanishes.  A derivative power of stride or more is refused."""
        hit = self._codes.get(mono, False)
        if hit is False:
            stride = self.stride
            xs = []
            for v, n in mono:
                if not 0 <= n < stride:
                    raise WAlgebraError(f"derivative power {n} of {v} is out of range")
                xs.append(self.rank_of(v) * stride + n)
            hit = self._codes[mono] = self.canonical(xs)
        return hit

    def deriv(self, m: tuple) -> list:
        """The monomials of d(m), one per factor bumped, repeats kept.  A
        bumped factor only moves past equal even ones, so no sign arises; a
        derivative power reaching stride is refused."""
        hit = self._derivs.get(m)
        if hit is None:
            stride, odd = self.stride, self.odd
            hit = []
            n = len(m)
            for idx, x in enumerate(m):
                x1 = x + 1
                if not x1 % stride:
                    raise WAlgebraError(f"derivative power {stride} is past the engine's range")
                j = idx + 1
                while j < n and m[j] < x1:  # equal even factors move left
                    j += 1
                if j < n and m[j] == x1 and odd[x]:
                    continue  # a repeated odd factor
                hit.append(m[:idx] + m[idx + 1:j] + (x1,) + m[j:])
            self._derivs[m] = hit
        return hit

    def edge(self, m: tuple) -> Monomial:
        """An interned monomial as (variable, dpow) factors, one shared factor
        tuple per int and one monomial tuple per monomial."""
        gm = self._edge.get(m)
        if gm is None:
            fs = []
            for x in m:
                f = self._factors.get(x)
                if f is None:
                    r, n = divmod(x, self.stride)
                    f = self._factors[x] = (self.vars[r], n)
                fs.append(f)
            gm = self._edge[m] = tuple(fs)
        return gm

    def diff_poly(self, p: dict, scale: int, g: int, power: int) -> DiffPoly:
        """{interned monomial: int} as a DiffPoly, each int c of monomial m
        lifted to c/scale * k^(power + g*(derivative count of m)).  Edge
        monomials with their derivative counts, and one Coeff per (c, power)
        at each scale, are memoized: equal coefficients are one object."""
        lifted, edge, stride = self._lifted, self.edge, self.stride
        coeffs = self._coeffs.setdefault(scale, {})
        out = {}
        for m, c in p.items():
            gm, D = lifted.get(m) or lifted.setdefault(m, (edge(m), sum(x % stride for x in m)))
            key = (c, power + g * D)
            cf = coeffs.get(key) or coeffs.setdefault(key, Coeff.level(key[1], Fraction(c, scale)))
            out[gm] = cf
        return DiffPoly(out)

    def graded(self, P: DiffPoly, g: int) -> tuple:
        """P as a graded value (M, {s: {interned monomial: int}}): each power
        k^p of the coefficient of a monomial with D derivatives goes to
        degree s = p - g*D as M times that power's Fraction; constants are
        kept.  lift is the inverse."""
        raw = []
        for m, c in P.terms.items():
            cm = self.code(m)
            if cm is not None:
                sign, x = cm
                D = g * sum(d for _, d in m)
                raw += [(p - D, x, sign * f) for p, f in enumerate(c.num) if f]
        M = lcm(*{f.denominator for _, _, f in raw})
        out: dict = {}
        for s, x, f in raw:
            _accum(out.setdefault(s, {}), x, f.numerator * (M // f.denominator))
        return M, out

    def lift(self, scale: int, parts: dict, g: int) -> DiffPoly:
        """The graded value (scale, parts) as a DiffPoly: the int c of
        monomial m at degree s becomes c/scale * k^(s + g*D(m))."""
        polys = [self.diff_poly(p, scale, g, s) for s, p in parts.items()]
        return sum(polys[1:], polys[0]) if polys else DiffPoly()


# ---------------------------------------------------------------------------
# the Leibniz engine
#
# Values are {lambda power: {interned monomial: int}}: the int c of monomial m
# at lambda^n in {X lambda Y} stands for c/L * k^(g*(n + D(m) - D(X) - D(Y))),
# D counting derivatives.

_STRIDE = 64


def _intern(variables: list, entries) -> GradedStore:
    """The store of a table of DiffPoly entries.  g is 1 when some
    coefficient has a positive power of k; each lambda^n part is read by
    VarSpace.graded, and a part with a degree other than g*n is off the
    grading c*k^(g*(n+D)) and refused; L is the lcm of the parts' scales."""
    g = int(any(len(c.num) > 1 for lp in entries.values()
                for p in lp.coeffs.values() for c in p.terms.values()))
    space = VarSpace(variables, _STRIDE)
    ints: dict = {}
    parts = []  # (the entry's ints, n, scale, {interned monomial: int})
    for (a, b), lp in entries.items():
        val = ints[(space.rank_of(a), space.rank_of(b))] = {}
        for n, p in lp.coeffs.items():
            M, slots = space.graded(p, g)
            for s, q in slots.items():
                if q and s != g * n:
                    raise WAlgebraError(f"the bracket ({a}, {b}) is not graded in the level:"
                                        f" a term of degree {s - n} at lambda^{n}")
            if slots.get(g * n):
                parts.append((val, n, M, slots[g * n]))
    L = lcm(*(M for _, _, M, _ in parts))
    for val, n, M, q in parts:
        val[n] = {x: c * (L // M) for x, c in q.items()}
    return GradedStore(space, L, g, ints)


class _Leibniz:
    """{mono lambda mono} and the Jacobi sums of one table, on its store's
    interned monomials and ints at scale L, graded by g.  It keeps the
    store, not the table, so a dropped table takes its engine with it."""

    def __init__(self, store: GradedStore):
        self.store = store
        self.space, self.L, self.g = store.space, store.scale, store.g
        self._vm: dict = {}
        self._mm: dict = {}
        self._products: dict = {}
        self._dpows: dict = {}
        self._lin: dict = {}
        self._parities: dict = {}
        self._symmetric: bool | None = None
        self.held: set = set()  # sorted rank triples whose Jacobi identity holds

    # -- interning ---------------------------------------------------------

    def _entry(self, u: int, v: int) -> dict:
        """{u lambda v} for ranks u, v, at scale L."""
        hit = self.store.ints.get((u, v))
        if hit is None:
            vs = self.space.vars
            raise MissingTableEntry(f"no bracket stored for ({vs[u]}, {vs[v]})")
        return hit

    def linear(self, u: int, v: int, n: int) -> tuple:
        """The bare variables (ranks, no derivative) of {u lambda v} at
        lambda^n, with the ints n!*c: n! times their values, at scale L."""
        key = (u, v, n)
        hit = self._lin.get(key)
        if hit is None:
            stride, f = self.space.stride, factorial(n)
            hit = self._lin[key] = tuple(
                (m[0] // stride, c * f) for m, c in self._entry(u, v).get(n, {}).items()
                if len(m) == 1 and not m[0] % stride)
        return hit

    def _mul(self, m1: tuple, m2: tuple) -> tuple | None:
        """(sign, m1*m2), or None when the product vanishes."""
        key = (m1, m2)
        hit = self._products.get(key, False)
        if hit is False:
            hit = self._products[key] = self.space.canonical(m1 + m2)
        return hit

    def _dpow(self, m: tuple, j: int) -> dict:
        """d^j(m) as {monomial: multiplicity}."""
        if not j:
            return {m: 1}
        key = (m, j)
        hit = self._dpows.get(key)
        if hit is None:
            hit = {}
            deriv = self.space.deriv
            for y, cy in self._dpow(m, j - 1).items():
                for dy in deriv(y):
                    hit[dy] = hit.get(dy, 0) + cy
            self._dpows[key] = hit
        return hit

    def _parity(self, m: tuple) -> int:
        """The parity of a monomial, summed once per monomial."""
        hit = self._parities.get(m)
        if hit is None:
            odd = self.space.odd
            hit = self._parities[m] = sum(odd[x] for x in m) & 1
        return hit

    # -- the Leibniz rules ----------------------------------------------------

    def _var_mono(self, u: int, m: tuple) -> dict:
        """{u lambda m} for a rank u, by the right Leibniz rule."""
        key = (u, m)
        hit = self._vm.get(key)
        if hit is None:
            hit = {}
            if len(m) == 1:
                v, l = divmod(m[0], self.space.stride)
                # sesquilinearity: {u lambda d^l v} = (lambda + d)^l {u lambda v}
                for n, p in self._entry(u, v).items():
                    for k in range(l + 1):
                        dst = hit.setdefault(n + k, {})
                        mult = comb(l, k)
                        for y, cp in p.items():
                            for dy, cy in self._dpow(y, l - k).items():
                                _accum(dst, dy, mult * cy * cp)
            elif m:
                # {u lambda h r} = {u lambda h} r + (-1)^{p(u)p(h)} h {u lambda r}
                head, rest = m[:1], m[1:]
                self._times_into(hit, self._var_mono(u, head), rest, 1, True)
                odd = self.space.odd
                sign = -1 if odd[u * self.space.stride] and odd[m[0]] else 1
                self._times_into(hit, self._var_mono(u, rest), head, sign, False)
            hit = {n: p for n, p in hit.items() if p}
            self._vm[key] = hit
        return hit

    def _times_into(self, out: dict, X: dict, y: tuple, sign: int, right: bool) -> None:
        """out += sign * X*y (right) or sign * y*X, y a monomial."""
        for n, p in X.items():
            dst = out.setdefault(n, {})
            for m, cp in p.items():
                r = self._mul(m, y) if right else self._mul(y, m)
                if r is not None:
                    _accum(dst, r[1], sign * r[0] * cp)

    def _add_times(self, out: dict, p: dict, z: tuple, w: int) -> None:
        """out += w * p*z, each monomial of p times the monomial z on the
        right through the product memo, read inline; w nonzero."""
        products, canonical = self._products, self.space.canonical
        get = out.get
        for m, c in p.items():
            key = (m, z)
            r = products.get(key, False)
            if r is False:
                r = products[key] = canonical(m + z)
            if r is not None:
                x = r[1]
                t = get(x, 0) + (w * c if r[0] > 0 else -w * c)
                if t:
                    out[x] = t
                else:
                    del out[x]

    def _arrow_into(self, out: dict, br: dict, y: tuple, sign: int) -> None:
        """out += sign * {X_{lambda+d} B}_-> y: each lambda^n of br becomes
        sum C(n,k) lambda^{n-k} (coefficient) * d^k(y)."""
        for n, p in br.items():
            for k in range(n + 1):
                dst = out.setdefault(n - k, {})
                mult = sign * comb(n, k)
                for z, cz in self._dpow(y, k).items():
                    self._add_times(dst, p, z, mult * cz)

    def _mono_mono(self, m: tuple, o: tuple) -> dict:
        """{m lambda o}, peeling the first slot by the left Leibniz rule and
        first-slot sesquilinearity."""
        key = (m, o)
        hit = self._mm.get(key)
        if hit is None:
            if len(m) == 1:
                v, k = divmod(m[0], self.space.stride)
                base = self._var_mono(v, o)
                # {d^k v lambda B} = (-lambda)^k {v lambda B}
                if not k:
                    hit = base
                elif k % 2:
                    hit = {n + k: {y: -cp for y, cp in p.items()}
                           for n, p in base.items()}
                else:
                    hit = {n + k: p for n, p in base.items()}
            else:
                # {h r lambda c} = (-1)^{p(r)p(c)} {h lambda+d c}-> r
                #                + (-1)^{p(h)(p(r)+p(c))} {r lambda+d c}-> h
                hit = {}
                if m:
                    head, rest = m[:1], m[1:]
                    pr, pc = self._parity(rest), self._parity(o)
                    self._arrow_into(hit, self._mono_mono(head, o), rest,
                                     -1 if pr and pc else 1)
                    self._arrow_into(hit, self._mono_mono(rest, o), head,
                                     -1 if self.space.odd[m[0]] and pr != pc else 1)
                    hit = {n: p for n, p in hit.items() if p}
            self._mm[key] = hit
        return hit

    # -- entry points -------------------------------------------------------------

    def graded(self, P: DiffPoly) -> tuple:
        """P as a graded value in this engine's grading."""
        return self.space.graded(P, self.g)

    def graded_bracket(self, A: tuple, B: tuple) -> tuple:
        """{A lambda B} of two graded values, as (scale, {lambda power n:
        {degree: {monomial: int}}}) with scale = L*M_A*M_B: one int sum per
        lambda power and degree s_A + s_B + g*n over the pairs of terms, so
        each lambda^n part is a graded value."""
        Ma, ta = A
        Mb, tb = B
        g = self.g
        acc: dict = {}
        for sa, pa in ta.items():
            for sb, pb in tb.items():
                s = sa + sb
                for xa, ia in pa.items():
                    for xb, ib in pb.items():
                        w = ia * ib
                        for n, p in self._mono_mono(xa, xb).items():
                            _add_scaled(acc.setdefault(n, {}).setdefault(s + g * n, {}), p, w)
        return self.L * Ma * Mb, acc

    def graded_self_bracket(self, A: tuple) -> tuple:
        """graded_bracket(A, A) as the sum over the terms c_x x of A of c_x
        {x lambda A}, on any table.  A is split by parity class B, and each
        {x lambda B} runs through x's factors by ProductBracket: its base
        {d^j v lambda B} = (-lambda)^j {v lambda B}, with {v lambda B} = sum
        over the terms c_y y of B of c_y {v lambda y} summed once per letter
        v, and its arrows multiply by d^k of interned monomials.  The int of
        lambda^n at B's degree s_y in {x lambda B} lands at degree s_x + s_y
        + g*n."""
        M, parts = A
        g, parity = self.g, self._parity
        classes: tuple = ({}, {})  # A's terms by parity: {degree: {monomial: int}}
        for s, p in parts.items():
            for x, c in p.items():
                classes[parity(x)].setdefault(s, {})[x] = c
        acc: dict = {}
        for pB, B in enumerate(classes):
            if not B:
                continue
            product = ProductBracket(self, _LetterBase(self, B), self._power, parity, pB)
            for sx, p in parts.items():
                for x, cx in p.items():
                    if not x:
                        continue  # a constant brackets to zero
                    for n, slots in product(x).items():
                        row = acc.setdefault(n, {})
                        for sy, q in slots.items():
                            _add_scaled(row.setdefault(sx + sy + g * n, {}), q, cx)
        return self.L * M * M, acc

    def _power(self, y: tuple, k: int) -> dict:
        """d^k of an interned monomial as {degree shift 0: {monomial:
        multiplicity}}: in the engine's values a derivative's k lives in the
        monomial's derivative count."""
        return {0: self._dpow(y, k)}

    def drop_memos(self) -> None:
        """Empty the bracket memos ({var lambda mono}, {mono lambda mono},
        products, derivatives); the symmetric() verdict and the held orbits
        stay."""
        for memo in (self._vm, self._mm, self._products, self._dpows):
            memo.clear()

    def skew_diffs(self, pairs=None) -> list:
        """[(a, b, diff)] for the pairs of variables (every stored pair when
        None) that violate {a lambda b} = -(-1)^{p(a)p(b)} {b_{-lambda-d} a},
        diff = lhs - rhs as {lambda power: {monomial: int}} at scale L.  A
        sweep of a store that holds all n^2 ordered pairs settles
        symmetric()."""
        vs, ints = self.space.vars, self.store.ints
        whole = pairs is None
        if whole:
            pairs = [(vs[u], vs[v]) for u, v in ints]
        rank = self.space.rank_of
        out = []
        for (a, b) in pairs:
            ra, rb = rank(a), rank(b)
            # lhs - rhs = {a lambda b} + (-1)^{p(a)p(b)} sum_n (-lambda-d)^n {b lambda a}_n
            diff = {n: dict(p) for n, p in self._entry(ra, rb).items()}
            sign = -1 if a.parity and b.parity else 1
            for n, p in self._entry(rb, ra).items():
                for j in range(n + 1):
                    dst = diff.setdefault(j, {})
                    w = (-sign if n % 2 else sign) * comb(n, j)
                    for y, c in p.items():
                        for dy, cy in self._dpow(y, n - j).items():
                            _accum(dst, dy, w * cy * c)
            diff = {n: p for n, p in diff.items() if p}
            if diff:
                out.append((a, b, diff))
        if whole and len(ints) == len(vs) ** 2:
            self._symmetric = not out and not self.parity_faults()
        return out

    def parity_faults(self, pairs=None) -> list:
        """[(a, b, terms)] for the pairs of variables (every stored pair when
        None) whose {a lambda b} holds monomials of a parity other than p(a)
        + p(b), terms those monomials' part of it as {lambda power:
        {monomial: int}} at scale L."""
        vs, parity = self.space.vars, self._parity
        rank = self.space.rank_of
        if pairs is None:
            pairs = [(vs[u], vs[v]) for u, v in self.store.ints]
        out = []
        for (a, b) in pairs:
            want = a.parity ^ b.parity
            terms = {n: q for n, p in self._entry(rank(a), rank(b)).items()
                     for q in [{m: c for m, c in p.items() if parity(m) != want}] if q}
            if terms:
                out.append((a, b, terms))
        return out

    def symmetric(self) -> bool:
        """Whether the store holds all n^2 ordered pairs, every monomial of
        {a lambda b} has the parity p(a) + p(b), and no pair violates skew
        symmetry: the table's extension to all differential polynomials is
        then skew-symmetric.  Settled once; completeness is checked first, so
        a missing entry makes it False instead of raising."""
        if self._symmetric is None:
            self._symmetric = False
            if len(self.store.ints) == len(self.space.vars) ** 2:
                self.skew_diffs()
        return self._symmetric

    def jacobi(self, a, b, c) -> dict:
        """{a lambda {b mu c}} - {{a lambda b}_{lambda+mu} c}
        - (-1)^{p(a)p(b)} {b mu {a lambda c}} for variables a, b, c, as
        {(lambda power, mu power): {monomial: int}} at scale L^2."""
        space = self.space
        ra, rb, rc = space.rank_of(a), space.rank_of(b), space.rank_of(c)
        terms = []  # (ij, w, X): diff[ij] += w * X
        for j, p in self._entry(rb, rc).items():
            for y, cy in p.items():
                for i, q in self._var_mono(ra, y).items():
                    terms.append(((i, j), cy, q))
        cc = (rc * space.stride,)
        for n, p in self._entry(ra, rb).items():
            for y, cy in p.items():
                for l, q in self._mono_mono(y, cc).items():
                    # (lambda + mu)^l expanded on top of lambda^n
                    for k in range(l + 1):
                        terms.append(((n + k, l - k), -comb(l, k) * cy, q))
        sign = 1 if a.parity and b.parity else -1
        for i, p in self._entry(ra, rc).items():
            for y, cy in p.items():
                w = sign * cy
                for j, q in self._var_mono(rb, y).items():
                    terms.append(((i, j), w, q))
        diff: dict = {}
        for ij, w, q in terms:
            dst = diff.setdefault(ij, {})
            for m, cq in q.items():
                t = dst.get(m, 0) + w * cq
                if t:
                    dst[m] = t
                else:
                    del dst[m]
        return {ij: p for ij, p in diff.items() if p}

    def two_var(self, diff: dict) -> "TwoVar":
        """A jacobi() result as the TwoVar it stands for: the int c of
        monomial m at lambda^i mu^j is c/L^2 * k^(g*(i + j + D(m)))."""
        L2, g = self.L * self.L, self.g
        return TwoVar({(i, j): self.space.diff_poly(p, L2, g, g * (i + j))
                       for (i, j), p in diff.items()})


def _minus_lambda_power(val: dict, j: int) -> dict:
    """(-lambda)^j times a value {n: {degree: {monomial: int}}}: lambda^n goes
    to lambda^(n+j), negated for odd j.  The degree stays in both gradings a
    ProductBracket meets: in the engine's, the k^j of d^j(factor) rides on
    the factor's derivative count; in a Substitution's (g = 1), d^j(image)
    sits j degrees lower and lambda^j adds the j back."""
    if not j:
        return val
    if j % 2:
        return {n + j: {e: {m: -c for m, c in p.items()} for e, p in slots.items()}
                for n, slots in val.items()}
    return {n + j: slots for n, slots in val.items()}


def _parity_class(engine: _Leibniz, parts: dict, what) -> int | None:
    """The one parity of the monomials of {degree: {monomial: int}}, None
    when there are none; WAlgebraError naming `what` when they differ."""
    parity = engine._parity
    found = {parity(x) for p in parts.values() for x in p}
    if len(found) > 1:
        raise WAlgebraError(f"{what} mixes parities")
    return found.pop() if found else None


class ProductBracket:
    """{m lambda B} for products m, tuples of factors, against one fixed right
    operand B of parity pB, by the left Leibniz rule on the first factor
    (factors and B homogeneous):

        {f r lambda B} = (-1)^{p(r)p(B)} {f lambda+d B}-> r
                       + (-1)^{p(f)(p(r)+p(B))} {r lambda+d B}-> f.

    A value is {lambda power: {degree: {interned monomial: int}}}.  The
    caller gives base(f) = {f lambda B} for one factor, power(y, k) = d^k of
    the product y as {degree: {interned monomial: int}}, and parity(y).  An
    arrow takes lambda^n of the bracket to sum_k C(n, k) lambda^(n-k) times
    its coefficient times d^k(y), the degrees of the two terms added, on the
    engine's product memo.  The value of every product and suffix met is
    memoized in the object: it lives as long as its caller keeps it, one
    call, and holds no reference back to itself."""

    __slots__ = ("_add_times", "_base", "_power", "_parity", "_pB", "_memo")

    def __init__(self, engine: _Leibniz, base, power, parity, pB: int):
        self._add_times = engine._add_times
        self._base, self._power, self._parity, self._pB = base, power, parity, pB
        self._memo: dict = {}

    def __call__(self, m: tuple) -> dict:
        hit = self._memo.get(m)
        if hit is None:
            if len(m) == 1:
                hit = self._base(m[0])
            else:
                head, rest = m[:1], m[1:]
                parity, pB = self._parity, self._pB
                pr = parity(rest)
                hit = {}
                self._arrow(hit, self(head), rest, -1 if pr and pB else 1)
                self._arrow(hit, self(rest), head, -1 if parity(head) and pr != pB else 1)
            self._memo[m] = hit
        return hit

    def _arrow(self, out: dict, br: dict, y: tuple, sign: int) -> None:
        """out += sign * {X_{lambda+d} B}_-> y for br = {X lambda B}."""
        add_times, power = self._add_times, self._power
        for n, slots in br.items():
            for k in range(n + 1):
                row = out.setdefault(n - k, {})
                mult = sign * comb(n, k)
                for s, dy in power(y, k).items():
                    for e, p in slots.items():
                        dst = row.setdefault(e + s, {})
                        for z, cz in dy.items():
                            add_times(dst, p, z, mult * cz)


class _LetterBase:
    """The base of a self-bracket's ProductBracket against B, {degree:
    {interned monomial: int}} of one parity: for an interned factor x =
    d^j(v), (-lambda)^j {v lambda B}, where {v lambda B} = sum over the
    terms c_y y of B of c_y {v lambda y}, at y's degree, is summed once per
    letter v."""

    __slots__ = ("_engine", "_B", "_letters")

    def __init__(self, engine: _Leibniz, B: dict):
        self._engine, self._B = engine, B
        self._letters: dict = {}

    def __call__(self, x: int) -> dict:
        engine = self._engine
        v, j = divmod(x, engine.space.stride)
        val = self._letters.get(v)
        if val is None:
            val = self._letters[v] = {}
            var_mono = engine._var_mono
            for sy, q in self._B.items():
                for y, cy in q.items():
                    for n, p in var_mono(v, y).items():
                        _add_scaled(val.setdefault(n, {}).setdefault(sy, {}), p, cy)
        return _minus_lambda_power(val, j)


def extend_bracket(table: BracketTable, A: DiffPoly, B: DiffPoly) -> LambdaPoly:
    """{A lambda B} for arbitrary differential polynomials over the table's
    variables.  Coefficients multiply through; constants bracket to zero."""
    if not any(A.terms) or not any(B.terms):
        return LambdaPoly()
    engine = table._leibniz()
    scale, slots = engine.graded_bracket(engine.graded(A), engine.graded(B))
    return LambdaPoly({n: engine.space.lift(scale, parts, engine.g)
                       for n, parts in slots.items()})


def nth_product(table: BracketTable, A: DiffPoly, B: DiffPoly, n: int) -> DiffPoly:
    """n-th product a_(n)b = n! * (coefficient of lambda^n in {A lambda B})."""
    return extend_bracket(table, A, B).get(n).scale(factorial(n))


# ---------------------------------------------------------------------------
# axiom checks


def check_skew(table: BracketTable, pairs=None) -> list[dict]:
    """Violations of {a lambda b} = -(-1)^{p(a)p(b)} {b_{-lambda-d} a}
    over the pairs (every stored pair when None), compared on the engine's
    ints, only a violating pair's diff lifted; then those of parity, kind
    "parity": a pair whose {a lambda b} holds monomials of a parity other
    than p(a) + p(b), with those terms lifted."""
    engine = table._leibniz()
    lift = engine.store.lift
    return ([{"kind": "skew", "pair": (a, b), "diff": lift(diff)}
             for a, b, diff in engine.skew_diffs(pairs)]
            + [{"kind": "parity", "pair": (a, b), "terms": lift(terms)}
               for a, b, terms in engine.parity_faults(pairs)])


class TwoVar:
    """Polynomial in two formal symbols with DiffPoly coefficients, used to
    assemble both sides of the Jacobi identity."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {ij: p for ij, p in (coeffs or {}).items() if p}

    def __add__(self, other: "TwoVar") -> "TwoVar":
        out = dict(self.coeffs)
        for ij, p in other.coeffs.items():
            _accum(out, ij, p)
        return TwoVar(out)

    def __sub__(self, other: "TwoVar") -> "TwoVar":
        neg = TwoVar({ij: -p for ij, p in other.coeffs.items()})
        return self + neg

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoVar) and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"L^{i} M^{j}[{self.coeffs[(i, j)]!r}]" for i, j in sorted(self.coeffs)
        )


def check_jacobi(table: BracketTable, triples) -> list[dict]:
    """Violations of {a lambda {b mu c}} = {{a lambda b}_{lambda+mu} c}
    + (-1)^{p(a)p(b)} {b mu {a lambda c}}; a violation's diff is lhs - rhs,
    keyed by (lambda power, mu power).

    On a table whose extension is skew-symmetric the identity holds at a
    triple exactly when it holds at each permutation of it: swapping a and b
    maps the diff at lambda^i mu^j to -(-1)^{p(a)p(b)} times the diff at
    lambda^j mu^i, and swapping b and c is the invertible substitution
    mu -> -lambda-mu-d.  So once the engine has computed a zero diff on a
    table that holds all n^2 ordered entries, each of the parity
    p(a) + p(b), and passes the skew check (engine.symmetric()), it keeps
    the sorted rank triple, at most C(n+2, 3) of them, and skips every later
    triple of that orbit, in this call or a later one.  A violation is never
    kept: each violating triple is computed and reported with its own diff,
    and a table that fails the precondition has every triple computed, so
    the result is the same for any list of triples in any order."""
    engine = table._leibniz()
    rank, held = engine.space.rank_of, engine.held
    out = []
    for (a, b, c) in triples:
        key = tuple(sorted((rank(a), rank(b), rank(c))))
        if key in held:
            continue
        diff = engine.jacobi(a, b, c)
        if diff:
            out.append({"kind": "jacobi", "triple": (a, b, c), "diff": engine.two_var(diff)})
        elif engine.symmetric():
            held.add(key)
    return out


# ---------------------------------------------------------------------------
# substitution (used by the reduction engine)


class Substitution:
    """The differential-algebra morphism that replaces each letter v of
    `mapping` by its image mapping[v], a DiffPoly over the table's variables,
    and d^n(v) by d^n of the image; letters absent from the mapping stay
    themselves and must be variables of the table.  It runs on the table's
    interned monomials and shares its Leibniz engine's product memo.

    A value is (M, {s: {interned monomial: int}}): the int c of monomial m at
    degree s stands for c/M * k^(s + D(m)), D counting derivatives.  So s is
    the power of k minus the derivative count: d lowers it by one, products
    add it, and the images of homogeneous letters keep one dict per degree.
    The images of d^n(letter) and of whole monomials are memoized for the
    object's lifetime, so the mapping must not change while it is in use."""

    def __init__(self, table: BracketTable, mapping):
        self._engine = table._leibniz()
        self._mapping = mapping
        self._letters: dict = {}  # (letter, n) -> value of d^n(image)
        self._monos: dict = {_EMPTY: (1, {0: {_EMPTY: 1}})}  # monomial -> value
        self._dpows: dict = {}  # (monomial, k) -> value of d^k(image), k > 0

    def _derived(self, value: tuple) -> tuple:
        """d of a value: each monomial's derivative, one degree lower."""
        deriv = self._engine.space.deriv
        M, parts = value
        out: dict = {}
        for s, p in parts.items():
            dst: dict = {}
            for x, c in p.items():
                for y in deriv(x):
                    _accum(dst, y, c)
            if dst:
                out[s - 1] = dst
        return M, out

    def _letter(self, v, n: int) -> tuple:
        key = (v, n)
        hit = self._letters.get(key)
        if hit is None:
            if n:
                hit = self._derived(self._letter(v, n - 1))
            else:
                img = self._mapping.get(v)
                hit = self._engine.space.graded(DiffPoly.variable(v) if img is None else img, 1)
            self._letters[key] = hit
        return hit

    def dpow(self, m: Monomial, k: int) -> tuple:
        """The value of d^k of a monomial's image: a letter's d^(n+k) from the
        letter memo, a longer monomial's image differentiated k times,
        memoized likewise."""
        if len(m) == 1:
            v, n = m[0]
            return self._letter(v, n + k)
        if not k:
            return self._mono(m)
        key = (m, k)
        hit = self._dpows.get(key)
        if hit is None:
            hit = self._dpows[key] = self._derived(self.dpow(m, k - 1))
        return hit

    def _mono(self, m: Monomial) -> tuple:
        """The value of a monomial's image: its prefix's times its last
        factor's, in factor order."""
        hit = self._monos.get(m)
        if hit is None:
            Ma, a = self._mono(m[:-1])
            Mb, b = self._letter(*m[-1])
            add_times = self._engine._add_times
            out: dict = {}
            for sa, pa in a.items():
                for sb, pb in b.items():
                    dst = out.setdefault(sa + sb, {})
                    for xb, cb in pb.items():
                        add_times(dst, pa, xb, cb)
            hit = self._monos[m] = (Ma * Mb, {s: p for s, p in out.items() if p})
        return hit

    def bracket_images(self, monos: list, B: tuple, letter_bracket) -> list:
        """[{image(mu) lambda B}] for monomials mu over letters of the
        mapping, B a graded value of the engine (g = 1), as graded brackets
        (scale, {n: {degree: {monomial: int}}}) at scale L*M_B*(the product
        of the scales of mu's letter images).  Each runs through mu's
        factors by one ProductBracket: {d^j image(v) lambda B} =
        (-lambda)^j letter_bracket(v), letter_bracket(v) the graded bracket
        {image(v) lambda B}, asked once per letter; the arrows multiply by
        d^k of factor images from this object's memos.  A letter's image
        must have the letter's parity and B one parity (WAlgebraError)."""
        engine = self._engine
        M_B, parts = B
        pB = _parity_class(engine, parts, "the right operand") or 0
        bases: dict = {}

        def base(f):
            v, j = f
            val = bases.get(v)
            if val is None:
                if _parity_class(engine, self._letter(v, 0)[1], v) not in (None, v.parity):
                    raise WAlgebraError(f"the image of {v} does not have its parity")
                val = bases[v] = letter_bracket(v)[1]
            return _minus_lambda_power(val, j)

        product = ProductBracket(engine, base, lambda y, k: self.dpow(y, k)[1],
                                 lambda y: sum(v.parity for v, _ in y) & 1, pB)
        L = engine.L * M_B
        return [(prod((self._letter(v, 0)[0] for v, _ in mu), start=L), product(mu))
                for mu in monos]

    def graded(self, poly: DiffPoly) -> tuple:
        """poly with every letter replaced by its image, as a graded value
        (S, {s: {interned monomial: int}}) in the grading g = 1: the int sums
        put on one scale."""
        parts = []  # (power of k, numerator, scale, monomial value)
        for m, c in poly.terms.items():
            M, val = self._mono(m)
            if val:
                parts += [(p, f.numerator, f.denominator * M, val)
                          for p, f in enumerate(c.num) if f]
        S = lcm(*{d for _, _, d, _ in parts})
        acc: dict = {}
        for p, num, d, val in parts:
            w = num * (S // d)
            for s, q in val.items():
                dst = acc.setdefault(s + p, {})
                for x, c in q.items():
                    _accum(dst, x, w * c)
        return S, acc

    def __call__(self, poly: DiffPoly) -> DiffPoly:
        """poly with every letter replaced by its image, lifted to Q[k]
        coefficients at the edge."""
        return self._engine.space.lift(*self.graded(poly), 1)
