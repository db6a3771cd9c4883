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
(variable, dpow) factors at the edge.  It is the format and nothing else: it
keeps no memo, so a space never grows.  The engines memoize derivatives
(the Leibniz engine's d^j memo, the sweep's by monomial id).

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
lcm of the parts' scales.  Every table's entries lift through VarSpace.lift
on every read, which builds each Coeff and monomial tuple afresh: nothing
lifted is kept anywhere, and a read shares nothing with the store but its
variables, so no caller can corrupt it.

The engine.  Each table builds one with its store and keeps it; it holds the
store, not the table, so it dies with the table.  The Leibniz rules only add
and multiply by integers (binomials, signs, multiplicities), so every
memoized bracket is an int value at scale L, and a Jacobi term at L^2.  The
right Leibniz rule has one routine, {var lambda mono}, and the left one
another, ProductBracket, which brackets its letters by the first.  The
bracket memos ({var lambda mono}, products, derivatives d^j of monomials,
the table's one derivative memo, and the Jacobi sweep's ProductBracket per
third letter) grow with every call and are dropped by drop_memos, which the
reduction oracle calls when reconcile returns.  The product memo is keyed
by the right factor first: a sum times z fetches z's memo once.

Products.  A product is bracketed through its factors by one routine,
ProductBracket, against one fixed right operand B of one parity: the left
Leibniz rule {f r lambda B} = (-1)^{p(r)p(B)} {f lambda+d B}-> r +
(-1)^{p(f)(p(r)+p(B))} {r lambda+d B}-> f, peeling the first factor, with a
memo of {suffix lambda B}.  Its base is sesquilinearity, {d^j v lambda B} =
(-lambda)^j {v lambda B}: it keeps {v lambda B} once per letter v, shifts
it for each d^j(v), and cuts it below a lower bound.  Its values are
{lambda power: {interned monomial: int}}, of the one degree its caller's
grading fixes.  The caller gives only the bracket {v lambda B} of one
undifferentiated letter, how a factor splits into (v, j), and d^k of a
product.  It serves graded_bracket, whose factors are interned letters, one
object per parity class of B for one call; the Jacobi sweep's middle term
{y lambda c}, one object per letter c kept until drop_memos; and
Substitution.bracket_images, whose factors are the images of generator
letters under a substitution, one object for one call.

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

The edge.  Inside the engine every value is homogeneous, (M, s, {interned
monomial: int}), an int c of a monomial with D derivatives standing for c/M
* k^(s + g*D).  Degrees are split and joined only at the edge, on edge
values (M, {s: {interned monomial: int}}): VarSpace.graded splits a
DiffPoly's coefficients into one (s = power of k - g*D), and VarSpace.lift,
the one conversion of ints to Coeffs, turns one back with one new Coeff per
monomial.  The engine's graded refuses an operand of two degrees; its
graded_bracket returns (L*M_A*M_B, s_A + s_B, {n: {monomial: int}}),
lambda^n at degree s_A + s_B + g*n, which extend_bracket sums over its
operands' degree pairs and the reduction oracle reads at k=1.
graded_bracket sums {x lambda B} over the terms x of A through x's factors,
{v lambda B} summed once per letter v, and holds on any table.  Given a
lower bound low it computes only the parts from lambda^low up (an arrow of
the left Leibniz rule only lowers the power), all that nth_product needs and
all that reconcile compares of an even self-bracket.  The linear term of an
n-th product of two linear combinations has one summation,
linear_ints: it takes both combinations cleared by clear (a common
denominator and one int per variable rank), reads the store's ints at k=1
beside their power g*n, and returns the sum as ints at L times the two
denominators, with no Fraction built.  linear_product, which the scripted
schedules call, clears, sums and lifts to one Fraction per nonzero variable;
the closure search keeps its pool cleared and lifts only the products it
keeps.  check_skew and check_jacobi accumulate lhs - rhs on ints, and only a
failing pair's or triple's diff is lifted, a Jacobi diff to a TwoVar with
k^(g*(i+j+D)) at lambda^i mu^j.  check_skew also reports each pair whose {a
lambda b} holds a monomial of parity other than p(a) + p(b), kind "parity",
with those terms lifted.

Substitution.  The differential-algebra morphism that replaces letters by
DiffPolys over a table's variables runs on the same interned monomials and
the engine's product and derivative memos, on homogeneous values in the
grading g = 1: d lowers s by one and products add it, and a letter's image
of two degrees is refused with a WAlgebraError naming the letter.  Its entry
point graded takes any Q[k] coefficients and returns an edge value; calling
it lifts that.  It memoizes d^k of the images of letters and monomials, and
dpow reads a letter's image from that memo.  Images multiply by times, on
the engine's product memo, and sum by combine, which graded calls and which
takes any Q[k] coefficients: a caller that puts a monomial in the place of a
letter multiplies and sums the images, with no second mapping and no
DiffPoly built.  bracket_images brackets the images of monomials with the
image of one letter b through their factors by a ProductBracket, whose
letter bracket is the engine's graded_bracket of two letter images.
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
        self.engine = _Leibniz(store)  # the table's Leibniz engine

    def lookup(self, u, v) -> LambdaPoly:
        try:
            return self.entries[(u, v)]
        except KeyError:
            raise MissingTableEntry(f"no bracket stored for ({u}, {v})") from None

    def clear(self, combo: dict) -> tuple:
        """A linear combination {variable: int or Fraction} cleared of its
        denominators: (d, ((rank, int), ...)), each variable's value its int
        over d, the lcm of the denominators."""
        rank_of = self.engine.space.rank_of
        d = lcm(*(v.denominator for v in combo.values()))
        return d, tuple((rank_of(x), v.numerator * (d // v.denominator)) for x, v in combo.items())

    def linear_ints(self, A: tuple, B: tuple, n: int) -> tuple:
        """The linear term of the n-th product of two cleared combinations,
        n! * sum of va*vb * linear_term({ga lambda gb} at lambda^n), as (g*n,
        scale, {rank: int}): k^(g*n) times each int over scale = L*da*db at
        k=1.  A sum that cancels stays as a 0.  No Fraction is built."""
        engine = self.engine
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
        lift, scale, g = self.space.lift, self.scale, self.g
        return LambdaPoly({n: lift(scale, {g * n: p}, g) for n, p in val.items()})

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
    every read lifts its entry afresh, Coeffs and monomial tuples included,
    so nothing lifted is kept and a lifted entry shares nothing with the
    store but its variables."""

    def __init__(self, store: GradedStore):
        self._store = store

    def _ints(self, ab) -> dict | None:
        """ab's ints when it is a stored pair of variables, else None: any
        other key, an unhashable one included, is absent."""
        rank, ints = self._store.space.rank, self._store.ints
        pair = isinstance(ab, tuple) and len(ab) == 2
        try:
            return ints.get((rank[ab[0]], rank[ab[1]])) if pair else None
        except (KeyError, TypeError):
            return None

    def __getitem__(self, ab) -> LambdaPoly:
        val = self._ints(ab)
        if val is None:
            raise KeyError(ab)
        return self._store.lift(val)

    def __contains__(self, ab) -> bool:
        return self._ints(ab) is not None

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
    canonical factor order, and odd[x] is the parity of factor x.  A space
    is the format and nothing else: it keeps no memo, and every method
    computes afresh."""

    def __init__(self, variables, stride: int):
        self.vars = sorted(variables, key=lambda v: v.sort_key())
        self.rank = {v: r for r, v in enumerate(self.vars)}
        self.stride = stride
        self.odd = [v.parity for v in self.vars for _ in range(stride)]
        self._any_odd = any(self.odd)

    def rank_of(self, v) -> int:
        r = self.rank.get(v)
        if r is None:
            raise MissingTableEntry(f"{v} is not a variable of the bracket table")
        return r

    def canonical(self, xs) -> tuple | None:
        """(sign, sorted int tuple) of a factor sequence by one sort, the sign
        the parity of the inversions among the odd factors (none in a space
        with no odd variable); None when an odd factor repeats."""
        sign = 1
        if self._any_odd:
            odd = self.odd
            odds = [x for x in xs if odd[x]]
            for i, x in enumerate(odds):
                for y in odds[i + 1:]:
                    if x > y:
                        sign = -sign
                    elif x == y:
                        return None
        return sign, tuple(sorted(xs))

    def code(self, mono: Monomial) -> tuple | None:
        """(sign, interned monomial) of a DiffPoly monomial; None if it
        vanishes.  A derivative power of stride or more is refused."""
        stride = self.stride
        xs = []
        for v, n in mono:
            if not 0 <= n < stride:
                raise WAlgebraError(f"derivative power {n} of {v} is out of range")
            xs.append(self.rank_of(v) * stride + n)
        return self.canonical(xs)

    def deriv(self, m: tuple) -> list:
        """The monomials of d(m), one per factor bumped, repeats kept.  A
        bumped factor only moves past equal even ones, so no sign arises; a
        derivative power reaching stride is refused."""
        stride, odd = self.stride, self.odd
        out = []
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
            out.append(m[:idx] + m[idx + 1:j] + (x1,) + m[j:])
        return out

    def edge(self, m: tuple) -> tuple:
        """(an interned monomial as (variable, dpow) factors, its derivative
        count), a new tuple per call."""
        vs, stride = self.vars, self.stride
        return tuple([(vs[x // stride], x % stride) for x in m]), sum(x % stride for x in m)

    def graded(self, P: DiffPoly, g: int) -> tuple:
        """P as an edge value (M, {s: {interned monomial: int}}): each power
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
        return M, {s: p for s, p in out.items() if p}

    def homogeneous(self, P: DiffPoly, g: int, what) -> tuple:
        """P graded as one homogeneous value (M, s, {interned monomial: int}),
        s = 0 when P is 0; WAlgebraError naming `what` when P mixes degrees."""
        M, parts = self.graded(P, g)
        if len(parts) > 1:
            raise WAlgebraError(f"{what} mixes degrees in the level")
        return (M, *next(iter(parts.items()), (0, {})))

    def lift(self, scale: int, parts: dict, g: int) -> DiffPoly:
        """The edge value (scale, {s: {interned monomial: int}}) as a DiffPoly
        with one Coeff per monomial, the int c of m at degree s standing for
        c/scale * k^(s + g*D(m)): the one conversion of ints to Coeffs.  Every
        Coeff and monomial tuple is built for this call, so nothing lifted
        outlives the DiffPoly."""
        edge, level = self.edge, Coeff.level
        out: dict = {}
        for s, p in parts.items():
            for m, c in p.items():
                gm, D = edge(m)
                cf = level(s + g * D, Fraction(c, scale))
                other = out.get(gm)
                out[gm] = cf if other is None else other + cf  # m at another degree
        return DiffPoly(out)


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
            for s in slots.keys() - {g * n}:  # a part off the grading
                raise WAlgebraError(f"the bracket ({a}, {b}) is not graded in the level:"
                                    f" a term of degree {s - n} at lambda^{n}")
            if slots:
                parts.append((val, n, M, slots[g * n]))
    L = lcm(*(M for _, _, M, _ in parts))
    for val, n, M, q in parts:
        val[n] = {x: c * (L // M) for x, c in q.items()}
    return GradedStore(space, L, g, ints)


class _Leibniz:
    """The brackets and Jacobi sums of one table, on its store's interned
    monomials and ints at scale L, graded by g.  It keeps the store, not the
    table, so a dropped table takes its engine with it; the Jacobi sweep's
    per-letter products refer back to the engine, so until drop_memos
    empties them that takes the cyclic collector."""

    def __init__(self, store: GradedStore):
        self.store = store
        self.space, self.L, self.g = store.space, store.scale, store.g
        self._vm: dict = {}
        self._jacobi_products: dict = {}  # rank c -> ProductBracket against c
        self._products: dict = {}  # right factor -> {left factor: _mul's value}
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
        """(sign, m1*m2), or None when the product vanishes, from the
        product memo."""
        memo = self._products.get(m2) or self._products.setdefault(m2, {})
        hit = memo.get(m1, False)
        if hit is False:
            hit = memo[m1] = self.space.canonical(m1 + m2)
        return hit

    def _dpow(self, m: tuple, j: int) -> dict:
        """d^j(m) as {monomial: multiplicity}, the one derivative memo: d(m)
        counts VarSpace.deriv's monomials, and d^j(m) is d of each monomial
        of d^(j-1)(m) from this memo, multiplicities multiplied."""
        if not j:
            return {m: 1}
        key = (m, j)
        hit = self._dpows.get(key)
        if hit is None:
            hit = {}
            if j == 1:
                for dy in self.space.deriv(m):
                    hit[dy] = hit.get(dy, 0) + 1
            else:
                dpow = self._dpow
                for y, cy in dpow(m, j - 1).items():
                    for dy, c in dpow(y, 1).items():
                        hit[dy] = hit.get(dy, 0) + cy * c
            self._dpows[key] = hit
        return hit

    def _split(self, x: int) -> tuple:
        """(rank, derivative power) of an interned factor."""
        return divmod(x, self.space.stride)

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
                v, l = self._split(m[0])
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
                for n, p in self._var_mono(u, head).items():
                    self._add_times(hit.setdefault(n, {}), p, rest, 1)
                odd, mul = self.space.odd, self._mul
                sign = -1 if odd[u * self.space.stride] and odd[m[0]] else 1
                for n, p in self._var_mono(u, rest).items():
                    dst = hit.setdefault(n, {})
                    for y, cp in p.items():
                        r = mul(head, y)
                        if r is not None:
                            _accum(dst, r[1], sign * r[0] * cp)
            hit = {n: p for n, p in hit.items() if p}
            self._vm[key] = hit
        return hit

    def _letter_bracket(self, v: int, B: dict) -> dict:
        """{v lambda B} for a rank v and B {interned monomial: int}: the sum
        over the terms c_y y of B of c_y {v lambda y}."""
        val: dict = {}
        for y, cy in B.items():
            for n, p in self._var_mono(v, y).items():
                _add_scaled(val.setdefault(n, {}), p, cy)
        return val

    def _add_times(self, out: dict, p: dict, z: tuple, w: int) -> None:
        """out += w * p*z, each monomial of p times the monomial z on the
        right through the product memo, read inline: z's memo is fetched
        once, then each monomial of p looked up in it; w nonzero."""
        memo = self._products.get(z) or self._products.setdefault(z, {})
        canonical, get = self.space.canonical, out.get
        for m, c in p.items():
            r = memo.get(m, False)
            if r is False:
                r = memo[m] = canonical(m + z)
            if r is not None:
                x = r[1]
                t = get(x, 0) + (w * c if r[0] > 0 else -w * c)
                if t:
                    out[x] = t
                else:
                    del out[x]

    # -- entry points -------------------------------------------------------------

    def graded(self, P: DiffPoly) -> tuple:
        """P as one homogeneous value (M, s, {interned monomial: int}) in this
        engine's grading; WAlgebraError naming P when it mixes degrees."""
        return self.space.homogeneous(P, self.g, P)

    def graded_bracket(self, A: tuple, B: tuple, low: int = 0) -> tuple:
        """{A lambda B} of two homogeneous values from lambda^low up, as
        (L*M_A*M_B, s_A + s_B, {lambda power n >= low: {monomial: int}}),
        lambda^n at degree s_A + s_B + g*n: the sum over the terms c_x x of A
        of c_x {x lambda B}, a constant x skipped, on any table.  B is split
        by parity class, and each {x lambda B} runs through x's factors by one
        ProductBracket per class, cut below lambda^low, which brackets a
        letter v by {v lambda B} = sum over the terms c_y y of B of c_y {v
        lambda y} and multiplies by d^k of interned monomials."""
        (Ma, sa, ta), (Mb, sb, tb) = A, B
        parity = self._parity
        classes: tuple = ({}, {})  # B's terms by parity
        for y, c in tb.items():
            classes[parity(y)][y] = c
        acc: dict = {}
        for pB, part in enumerate(classes):
            if not part:
                continue
            product = ProductBracket(self, lambda v, part=part: self._letter_bracket(v, part),
                                     self._split, self._dpow, parity, pB, low)
            for x, cx in ta.items():
                if not x:
                    continue  # a constant brackets to zero
                for n, q in product(x).items():
                    _add_scaled(acc.setdefault(n, {}), q, cx)
        return self.L * Ma * Mb, sa + sb, {n: p for n, p in acc.items() if p}

    def drop_memos(self) -> None:
        """Empty the bracket memos ({var lambda mono}, products, derivatives,
        the Jacobi sweep's per-letter products); the symmetric() verdict and
        the held orbits stay."""
        for memo in (self._vm, self._products, self._dpows, self._jacobi_products):
            memo.clear()

    def skew_diffs(self, pairs=None) -> list:
        """[(a, b, diff)] for the pairs of variables (every stored pair when
        None) that violate {a lambda b} = -(-1)^{p(a)p(b)} {b_{-lambda-d} a},
        diff = lhs - rhs as {lambda power: {monomial: int}} at scale L."""
        vs = self.space.vars
        if pairs is None:
            pairs = [(vs[u], vs[v]) for u, v in self.store.ints]
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

    def axiom_faults(self, pairs=None) -> tuple:
        """(skew_diffs(pairs), parity_faults(pairs)), each pair swept once
        for each.  A sweep of every pair of a store that holds all n^2
        ordered pairs settles symmetric()."""
        skew, parity = self.skew_diffs(pairs), self.parity_faults(pairs)
        if pairs is None and len(self.store.ints) == len(self.space.vars) ** 2:
            self._symmetric = not skew and not parity
        return skew, parity

    def symmetric(self) -> bool:
        """Whether the store holds all n^2 ordered pairs, every monomial of
        {a lambda b} has the parity p(a) + p(b), and no pair violates skew
        symmetry: the table's extension to all differential polynomials is
        then skew-symmetric.  Settled once; completeness is checked first, so
        a missing entry makes it False instead of raising."""
        if self._symmetric is None:
            self._symmetric = False
            if len(self.store.ints) == len(self.space.vars) ** 2:
                self.axiom_faults()
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
        product = self._jacobi_products.get(rc)
        if product is None:
            cc = (rc * space.stride,)
            product = self._jacobi_products[rc] = ProductBracket(
                self, lambda v: self._var_mono(v, cc), self._split, self._dpow, self._parity,
                space.odd[cc[0]])
        for n, p in self._entry(ra, rb).items():
            for y, cy in p.items():
                if not y:
                    continue  # a constant brackets to zero
                for l, q in product(y).items():
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
        return TwoVar({(i, j): self.space.lift(L2, {g * (i + j): p}, g)
                       for (i, j), p in diff.items()})


def _parity_class(engine: _Leibniz, p: dict, what) -> int | None:
    """The one parity of the monomials of {monomial: int}, None when there
    are none; WAlgebraError naming `what` when they differ."""
    parity = engine._parity
    found = {parity(x) for x in p}
    if len(found) > 1:
        raise WAlgebraError(f"{what} mixes parities")
    return found.pop() if found else None


class ProductBracket:
    """{m lambda B} for products m, tuples of factors, against one fixed right
    operand B of parity pB, by the left Leibniz rule on the first factor
    (factors and B homogeneous):

        {f r lambda B} = (-1)^{p(r)p(B)} {f lambda+d B}-> r
                       + (-1)^{p(f)(p(r)+p(B))} {r lambda+d B}-> f.

    A value is {lambda power: {interned monomial: int}}, of one degree fixed
    by the caller's grading.  The caller gives letter(v) = {v lambda B} for
    one undifferentiated letter v, split(f) = (v, j) for a factor f =
    d^j(v), power(y, k) = d^k of the product y as {interned monomial: int},
    and parity(y).  The base of the rule is sesquilinearity, {d^j v lambda
    B} = (-lambda)^j {v lambda B}, with letter(v) asked once per letter
    however many d^j(v) it meets; the shift keeps a value homogeneous in
    both gradings it meets: in the engine's, the k^j of d^j(v) rides on the
    factor's derivative count; in a Substitution's (g = 1), d^j(image) sits
    j degrees lower and lambda^j adds the j back.  An arrow takes lambda^n
    of the bracket to sum_k C(n, k) lambda^(n-k) times its coefficient times
    d^k(y), on the engine's product memo.  An arrow only lowers the lambda
    power, so with a lower bound `low` the parts below lambda^low are never
    needed: the base is cut below it and an arrow stops at it, and every
    value holds the bracket's parts from lambda^low up.  The value of every
    letter, product and suffix met is memoized in the object, which lives as
    long as its caller keeps it: one call, except the Jacobi sweep's, one per
    letter, which the engine keeps until drop_memos."""

    __slots__ = ("_add_times", "_letter", "_split", "_power", "_parity", "_pB", "_low",
                 "_letters", "_memo")

    def __init__(self, engine: _Leibniz, letter, split, power, parity, pB: int, low: int = 0):
        self._add_times = engine._add_times
        self._letter, self._split, self._power = letter, split, power
        self._parity, self._pB, self._low = parity, pB, low
        self._letters: dict = {}
        self._memo: dict = {}

    def __call__(self, m: tuple) -> dict:
        hit = self._memo.get(m)
        if hit is None:
            if len(m) == 1:
                v, j = self._split(m[0])
                val = self._letters.get(v)
                if val is None:
                    val = self._letters[v] = self._letter(v)
                # (-lambda)^j {v lambda B}, from lambda^low up
                low = self._low
                hit = {n + j: p if j % 2 == 0 else {x: -c for x, c in p.items()}
                       for n, p in val.items() if n + j >= low}
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
        """out += sign * {X_{lambda+d} B}_-> y for br = {X lambda B}, from
        lambda^low up."""
        add_times, power, low = self._add_times, self._power, self._low
        for n, p in br.items():
            for k in range(n - low + 1):
                dst = out.setdefault(n - k, {})
                mult = sign * comb(n, k)
                for z, cz in power(y, k).items():
                    add_times(dst, p, z, mult * cz)


def extend_bracket(table: BracketTable, A: DiffPoly, B: DiffPoly, low: int = 0) -> LambdaPoly:
    """{A lambda B} for arbitrary differential polynomials over the table's
    variables, from lambda^low up: graded_bracket summed over the pairs of
    degrees of A and B, lifted at the edge.  Coefficients multiply through;
    constants bracket to zero."""
    engine = table.engine
    space, g = engine.space, engine.g
    (Ma, pa), (Mb, pb) = space.graded(A, g), space.graded(B, g)
    out: dict = {}  # lambda power -> {degree: {monomial: int}}
    for sa, ta in pa.items():
        for sb, tb in pb.items():
            _, s, rows = engine.graded_bracket((Ma, sa, ta), (Mb, sb, tb), low)
            for n, p in rows.items():
                _add_scaled(out.setdefault(n, {}).setdefault(s + g * n, {}), p, 1)
    return LambdaPoly({n: space.lift(engine.L * Ma * Mb, parts, g) for n, parts in out.items()})


def nth_product(table: BracketTable, A: DiffPoly, B: DiffPoly, n: int) -> DiffPoly:
    """n-th product a_(n)b = n! * (coefficient of lambda^n in {A lambda B}),
    the bracket computed from lambda^n up."""
    return extend_bracket(table, A, B, n).get(n).scale(factorial(n))


# ---------------------------------------------------------------------------
# axiom checks


def check_skew(table: BracketTable, pairs=None) -> list[dict]:
    """Violations of {a lambda b} = -(-1)^{p(a)p(b)} {b_{-lambda-d} a}
    over the pairs (every stored pair when None), compared on the engine's
    ints, only a violating pair's diff lifted; then those of parity, kind
    "parity": a pair whose {a lambda b} holds monomials of a parity other
    than p(a) + p(b), with those terms lifted."""
    skew, parity = table.engine.axiom_faults(pairs)
    lift = table.store.lift
    return ([{"kind": "skew", "pair": (a, b), "diff": lift(diff)} for a, b, diff in skew]
            + [{"kind": "parity", "pair": (a, b), "terms": lift(terms)}
               for a, b, terms in parity])


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
    engine = table.engine
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
    interned monomials and shares its Leibniz engine's product and
    derivative memos.

    A value is homogeneous, (M, s, {interned monomial: int}): the int c of
    monomial m stands for c/M * k^(s + D(m)), D counting derivatives.  So s
    is the power of k minus the derivative count: d lowers it by one and
    products add it.  A letter's image must be of one degree: one that
    mixes degrees is refused with a WAlgebraError naming the letter.  The
    images of d^n(letter) and of whole monomials are memoized for the
    object's lifetime, so the mapping must not change while it is in use;
    a letter's image is read back as dpow(((v, 0),), 0), interned once."""

    def __init__(self, table: BracketTable, mapping):
        self._engine = table.engine
        self._mapping = mapping
        self._letters: dict = {}  # (letter, n) -> value of d^n(image)
        self._monos: dict = {_EMPTY: (1, 0, {_EMPTY: 1})}  # monomial -> value
        self._dpows: dict = {}  # (monomial, k) -> value of d^k(image), k > 0

    def _derived(self, value: tuple) -> tuple:
        """d of a value: each monomial's derivative from the engine's
        derivative memo, one degree lower."""
        dpow = self._engine._dpow
        M, s, p = value
        out: dict = {}
        for x, c in p.items():
            for y, cy in dpow(x, 1).items():
                _accum(out, y, c * cy)
        return M, s - 1, out

    def _letter(self, v, n: int) -> tuple:
        key = (v, n)
        hit = self._letters.get(key)
        if hit is None:
            if n:
                hit = self._derived(self._letter(v, n - 1))
            else:
                img = self._mapping.get(v)
                hit = self._engine.space.homogeneous(
                    DiffPoly.variable(v) if img is None else img, 1, f"the image of {v}")
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
            hit = self._monos[m] = self.times(self._mono(m[:-1]), self._letter(*m[-1]))
        return hit

    def times(self, A: tuple, B: tuple) -> tuple:
        """The product A*B of two values, each monomial of A times each of B
        on the right through the engine's product memo."""
        (Ma, sa, pa), (Mb, sb, pb) = A, B
        add_times = self._engine._add_times
        out: dict = {}
        for xb, cb in pb.items():
            add_times(out, pa, xb, cb)
        return Ma * Mb, sa + sb, out

    def bracket_images(self, monos: list, b) -> list:
        """[{image(mu) lambda image(b)}] for monomials mu over letters of the
        mapping and a letter b, as graded brackets (scale, s, {n: {monomial:
        int}}) at scale L*M_B*(the product of the scales of mu's letter
        images), M_B the scale of b's image B, s the degrees of B and of
        image(mu) added.  Each runs through mu's factors, (letter, j) pairs,
        by one ProductBracket, which brackets a letter's image with B by the
        engine's graded_bracket; the arrows multiply by d^k of factor images
        from this object's memos.  A letter's image must have the letter's
        parity and B one parity (WAlgebraError)."""
        engine = self._engine
        B = self._letter(b, 0)
        M_B, s_B, p_B = B
        pB = _parity_class(engine, p_B, "the right operand") or 0

        def letter(v):
            A = self._letter(v, 0)
            if _parity_class(engine, A[2], v) not in (None, v.parity):
                raise WAlgebraError(f"the image of {v} does not have its parity")
            return engine.graded_bracket(A, B)[2]

        product = ProductBracket(engine, letter, lambda f: f, lambda y, k: self.dpow(y, k)[2],
                                 lambda y: sum(v.parity for v, _ in y) & 1, pB)
        return [(prod((self._letter(v, 0)[0] for v, _ in mu), start=engine.L * M_B),
                 s_B + sum(self._letter(v, 0)[1] - n for v, n in mu), product(mu))
                for mu in monos]

    def graded(self, poly: DiffPoly) -> tuple:
        """poly with every letter replaced by its image, as an edge value
        (S, {s: {interned monomial: int}}) in the grading g = 1: the combine
        of poly's coefficients with its monomials' images."""
        return self.combine((c, self._mono(m)) for m, c in poly.terms.items())

    def combine(self, terms: Iterable) -> tuple:
        """The sum of c * value over pairs (Coeff c, value), as an edge value
        (S, {s: {interned monomial: int}}) in the grading g = 1: c may have
        any Q[k] coefficients, so its power p of k on a value of degree s
        lands at degree s + p, and the int sums are put on one scale."""
        parts = [(s + p, f.numerator, f.denominator * M, val)  # (degree, numerator, scale, value)
                 for c, (M, s, val) in terms if val for p, f in enumerate(c.num) if f]
        S = lcm(*{d for _, _, d, _ in parts})
        acc: dict = {}
        for s, num, d, val in parts:
            _add_scaled(acc.setdefault(s, {}), val, num * (S // d))
        return S, {s: p for s, p in acc.items() if p}

    def __call__(self, poly: DiffPoly) -> DiffPoly:
        """poly with every letter replaced by its image, lifted to Q[k]
        coefficients at the edge."""
        return self._engine.space.lift(*self.graded(poly), 1)
