"""Differential polynomials and lambda-brackets over an arbitrary variable set.

A variable is any hashable object exposing `.weight` (Fraction), `.parity`
(0 or 1) and `.sort_key()`; the package uses GenIndex (W-algebra generators)
and the affine ladder variables of the reduction engine.  A monomial is a
canonically ordered tuple of (variable, derivative-power) factors; odd
variables anticommute, so reordering tracks a sign and a repeated odd factor
kills the monomial.  Polynomials map monomials to Coeff scalars.

Lambda-polynomials collect differential polynomials by power of lambda.  A
BracketTable holds the generator-pair brackets of one algebra, read-only
down to every entry's terms and attributes; its Leibniz engine extends them
to arbitrary differential polynomials by sesquilinearity and both Leibniz
rules of a Poisson vertex algebra (the Master Formula of Barakat-De
Sole-Kac), and checks the Jacobi identity.

VarSpace.  The interned monomial format both engines run on (this one and
wbracket's chain sweep).  Variables are ranked by sort_key(); a factor (rank
r, derivative power n) is the int r*stride + n, so a monomial is a sorted
int tuple in the canonical factor order and parity is an array lookup.  The
space codes DiffPoly monomials (sign and int tuple; a derivative power of
stride or more is refused with WAlgebraError, an unknown variable raises
MissingTableEntry), differentiates int monomials, and converts them back to
(variable, dpow) factors at the edge, memoizing each; diff_poly turns a map
of interned monomials to int k-polynomials, divided by a scale, into the
DiffPoly it stands for.

The engine.  Each table builds one on first use and keeps it for its
lifetime, in a VarSpace of stride 64 over the table's variables.  The engine
holds the table's read-only entries, not the table, so it dies with the
table.  L is the lcm of the entries' coefficient denominators, and each
entry is interned lazily as int k-polynomials equal to L times its value.
The Leibniz rules only add and multiply by integers (binomials, signs,
multiplicities), so every memoized {variable lambda monomial} and
{monomial lambda monomial} is an int value at scale L, and a Jacobi term, a
product of two of them, is at scale L^2.

The edge.  extend_bracket codes its inputs' monomials, multiplies by their
Coeff coefficients as int k-polynomials (each input scaled by the lcm of its
coefficient denominators), and converts the sum once through
VarSpace.diff_poly, dividing by L and the two input scales.  check_jacobi
accumulates lhs - rhs in place at scale L^2; a triple passes exactly when
that sum is empty, and only a failing triple's diff is converted back, to a
TwoVar.  The engine keeps k-polynomials rather than one power of k per
value: it also serves tables that are not graded in the level, such as
hand-built ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from types import MappingProxyType
from typing import Iterable, Optional

from .coeffs import Coeff, ONE, paccum, padd, pmul_int
from .errors import MissingTableEntry, WAlgebraError

Factor = tuple  # (var, dpow)
Monomial = tuple  # tuple of factors, canonically ordered
_EMPTY: Monomial = ()


def normalize_factors(factors: Iterable[Factor]) -> tuple[int, Optional[Monomial]]:
    """Canonically order factors, returning (sign, monomial).

    The sign counts odd-odd transpositions; a repeated odd factor returns
    (+1, None) meaning the monomial vanishes."""
    fs = list(factors)
    sign = 1
    # insertion sort, counting transpositions of odd pairs
    for i in range(1, len(fs)):
        j = i
        while j > 0 and _factor_key(fs[j - 1]) > _factor_key(fs[j]):
            if fs[j - 1][0].parity and fs[j][0].parity:
                sign = -sign
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    for a, b in zip(fs, fs[1:]):
        if a == b and a[0].parity:
            return 1, None
    return sign, tuple(fs)


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


def monomial_weight(m: Monomial) -> Fraction:
    return sum((v.weight + k for v, k in m), Fraction(0))


def monomial_parity(m: Monomial) -> int:
    return sum(v.parity for v, _ in m) % 2


def monomial_key(m: Monomial):
    """Deterministic total order: weight, then length, then factor keys."""
    return (monomial_weight(m), len(m), tuple(_factor_key(f) for f in m))


class DiffPoly:
    """Differential polynomial: {monomial: Coeff}, zero entries dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
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

    def weight(self) -> Optional[Fraction]:
        """Common conformal weight of all monomials; None if mixed or zero."""
        w = None
        for m in self.terms:
            mw = monomial_weight(m)
            if w is None:
                w = mw
            elif w != mw:
                return None
        return w

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


def poly_normalize(raw_terms: Iterable[tuple[Iterable[Factor], Coeff]]) -> DiffPoly:
    """Build a DiffPoly from arbitrarily ordered factor lists."""
    out: dict = {}
    for factors, coeff in raw_terms:
        sign, m = normalize_factors(factors)
        if m is not None:
            c = Coeff.of(coeff)
            _accum(out, m, c if sign > 0 else -c)
    return DiffPoly(out)


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

    def __init__(self, coeffs: Optional[dict] = None):
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

    def subst_neg_lambda_partial(self) -> "LambdaPoly":
        """lambda -> -lambda - d: returns sum_n (-lambda-d)^n . coeff_n."""
        out = LambdaPoly()
        for n, p in self.coeffs.items():
            for m in range(n + 1):
                term = apply_partial(p, n - m).scale(Coeff.of((-1) ** n * comb(n, m)))
                out += LambdaPoly({m: term})
        return out

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


class _ReadOnly:
    """Refuses to rebind or delete an attribute."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{name} of a frozen table entry is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{name} of a frozen table entry is read-only")


class _FrozenDiffPoly(_ReadOnly, DiffPoly):
    __slots__ = ()


class _FrozenLambdaPoly(_ReadOnly, LambdaPoly):
    __slots__ = ()


def frozen(lp: LambdaPoly) -> LambdaPoly:
    """lp read-only: a copy whose coefficient map and every DiffPoly's terms
    are MappingProxyType views over fresh dicts, and whose attributes cannot
    be rebound; lp itself if it already is."""
    if type(lp) is _FrozenLambdaPoly:
        return lp
    coeffs = {}
    for n, p in lp.coeffs.items():
        if p:
            q = coeffs[n] = object.__new__(_FrozenDiffPoly)
            object.__setattr__(q, "terms", MappingProxyType(dict(p.terms)))
    out = object.__new__(_FrozenLambdaPoly)
    object.__setattr__(out, "coeffs", MappingProxyType(coeffs))
    return out


class BracketTable:
    """All ordered generator-pair lambda-brackets of one algebra."""

    def __init__(self, variables: list, entries: dict):
        self.variables = list(variables)
        # (u, v) -> LambdaPoly, read-only through and through: tables are
        # shared through caches, and the Leibniz engine interns entries lazily
        self.entries = MappingProxyType({uv: frozen(lp) for uv, lp in entries.items()})
        self._cache: dict = {}
        self._engine: Optional[_Leibniz] = None

    def lookup(self, u, v) -> LambdaPoly:
        try:
            return self.entries[(u, v)]
        except KeyError:
            raise MissingTableEntry(f"no bracket stored for ({u}, {v})") from None

    def _leibniz(self) -> "_Leibniz":
        """The table's Leibniz engine, built on first use."""
        if self._engine is None:
            self._engine = _Leibniz(self.variables, self.entries)
        return self._engine

    def linear_product(self, ca: dict, cb: dict, n: int) -> dict:
        """Linear term of the n-th product of two linear combinations
        {variable: scalar}: n! * sum of va*vb * linear_term({ga lambda gb}
        at lambda^n), zero sums dropped.  Each pair's term is memoized."""
        out: dict = {}
        for ga, va in ca.items():
            for gb, vb in cb.items():
                key = ("lin", ga, gb, n)
                lin = self._cache.get(key)
                if lin is None:
                    lin = {v: c * factorial(n)
                           for v, c in linear_term(self.lookup(ga, gb).get(n)).items()}
                    self._cache[key] = lin
                s = va * vb
                for v, c in lin.items():
                    cur = out.get(v)
                    out[v] = c * s if cur is None else cur + c * s
        return {v: c for v, c in out.items() if c}


# ---------------------------------------------------------------------------
# interned monomials


class VarSpace:
    """The interned monomial format over one set of variables.

    Variables are ranked by sort_key(); a factor (rank r, derivative power n)
    is the int r*stride + n, so a monomial is a sorted int tuple in the
    canonical factor order, and odd[x] is the parity of factor x.  Codes,
    derivatives and edge monomials are memoized for the space's lifetime."""

    def __init__(self, variables, stride: int):
        self.vars = sorted(variables, key=lambda v: v.sort_key())
        self.rank = {v: r for r, v in enumerate(self.vars)}
        self.stride = stride
        self.odd = [v.parity for v in self.vars for _ in range(stride)]
        self._codes: dict = {}
        self._derivs: dict = {}
        self._edge: dict = {}
        self._factors: dict = {}

    def rank_of(self, v) -> int:
        r = self.rank.get(v)
        if r is None:
            raise MissingTableEntry(f"{v} is not a variable of the bracket table")
        return r

    def canonical(self, xs) -> Optional[tuple]:
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

    def code(self, mono: Monomial) -> Optional[tuple]:
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

    def diff_poly(self, p: dict, scale: int) -> DiffPoly:
        """{interned monomial: int k-polynomial} divided by scale, as a
        DiffPoly."""
        edge = self.edge
        return DiffPoly({edge(m): Coeff(tuple([Fraction(x, scale) for x in cp]))
                         for m, cp in p.items()})


# ---------------------------------------------------------------------------
# the Leibniz engine
#
# Values are {lambda power: {interned monomial: int k-polynomial}}, meaning
# value / L.

_STRIDE = 64


def _scaled(poly: tuple, s: int) -> tuple:
    return poly if s == 1 else tuple(x * s for x in poly)


class _Leibniz:
    """{mono lambda mono} and the Jacobi sums of one table, on interned
    monomials with integer k-polynomial coefficients scaled by L.  It keeps
    the table's read-only entries, not the table, so a dropped table takes
    its engine with it."""

    def __init__(self, variables: list, entries):
        self.space = VarSpace(variables, _STRIDE)
        self.entries = entries
        L = 1
        for lp in entries.values():
            for p in lp.coeffs.values():
                for c in p.terms.values():
                    for x in c.num:
                        if L % x.denominator:
                            L = lcm(L, x.denominator)
        self.L = L
        self._interned: dict = {}
        self._vm: dict = {}
        self._mm: dict = {}
        self._products: dict = {}
        self._dpows: dict = {}

    # -- interning ---------------------------------------------------------

    def _entry(self, u: int, v: int) -> dict:
        """{u lambda v} for ranks u, v, at scale L."""
        key = (u, v)
        hit = self._interned.get(key)
        if hit is None:
            space = self.space
            a, b = space.vars[u], space.vars[v]
            lp = self.entries.get((a, b))
            if lp is None:
                raise MissingTableEntry(f"no bracket stored for ({a}, {b})")
            L = self.L
            hit = {}
            for n, p in lp.coeffs.items():
                dst: dict = {}
                for m, c in p.terms.items():
                    cm = space.code(m)
                    if cm is not None:
                        s, x = cm
                        paccum(dst, x, tuple(s * f.numerator * (L // f.denominator)
                                             for f in c.num))
                if dst:
                    hit[n] = dst
            self._interned[key] = hit
        return hit

    def _mul(self, m1: tuple, m2: tuple) -> Optional[tuple]:
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
        odd = self.space.odd
        return sum(odd[x] for x in m) & 1

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
                                paccum(dst, dy, _scaled(cp, mult * cy))
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
                    paccum(dst, r[1], _scaled(cp, sign * r[0]))

    def _arrow_into(self, out: dict, br: dict, y: tuple, sign: int) -> None:
        """out += sign * {X_{lambda+d} B}_-> y: each lambda^n of br becomes
        sum C(n,k) lambda^{n-k} (coefficient) * d^k(y)."""
        for n, p in br.items():
            for k in range(n + 1):
                dst = out.setdefault(n - k, {})
                mult = sign * comb(n, k)
                dy = self._dpow(y, k)
                for m, cp in p.items():
                    for z, cz in dy.items():
                        r = self._mul(m, z)
                        if r is not None:
                            paccum(dst, r[1], _scaled(cp, mult * cz * r[0]))

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
                    hit = {n + k: {y: tuple(-x for x in cp) for y, cp in p.items()}
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

    def _terms(self, P: DiffPoly) -> tuple:
        """P's non-constant terms as (M, [(interned monomial, int
        k-polynomial)]), a term's coefficient being its int polynomial / M."""
        terms = []
        code = self.space.code
        for m, c in P.terms.items():
            if m:
                cm = code(m)
                if cm is not None:
                    terms.append((cm, c.num))
        M = 1
        for _, num in terms:
            for f in num:
                if M % f.denominator:
                    M = lcm(M, f.denominator)
        return M, [(x, tuple(s * f.numerator * (M // f.denominator) for f in num))
                   for (s, x), num in terms]

    # -- entry points -------------------------------------------------------------

    def bracket(self, A: DiffPoly, B: DiffPoly) -> LambdaPoly:
        """{A lambda B}: one int sum over the pairs of terms, divided by L
        and the two input scales at the edge."""
        if not any(A.terms) or not any(B.terms):
            return LambdaPoly()
        Ma, ta = self._terms(A)
        Mb, tb = self._terms(B)
        acc: dict = {}
        for ma, na in ta:
            for mb, nb in tb:
                w = pmul_int(na, nb)
                for n, p in self._mono_mono(ma, mb).items():
                    dst = acc.setdefault(n, {})
                    for m, cp in p.items():
                        paccum(dst, m, pmul_int(cp, w))
        scale = self.L * Ma * Mb
        return LambdaPoly({n: self.space.diff_poly(p, scale) for n, p in acc.items()})

    def jacobi(self, a, b, c) -> dict:
        """{a lambda {b mu c}} - {{a lambda b}_{lambda+mu} c}
        - (-1)^{p(a)p(b)} {b mu {a lambda c}} for variables a, b, c, as
        {(lambda power, mu power): {monomial: int k-polynomial}} at scale L^2."""
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
                        terms.append(((n + k, l - k), _scaled(cy, -comb(l, k)), q))
        sign = 1 if a.parity and b.parity else -1
        for i, p in self._entry(ra, rc).items():
            for y, cy in p.items():
                w = _scaled(cy, sign)
                for j, q in self._var_mono(rb, y).items():
                    terms.append(((i, j), w, q))
        diff: dict = {}
        for ij, w, q in terms:
            dst = diff.setdefault(ij, {})
            for m, cq in q.items():
                t = pmul_int(w, cq)
                cur = dst.get(m)
                if cur is None:
                    dst[m] = t
                else:
                    t = padd(cur, t)
                    if t:
                        dst[m] = t
                    else:
                        del dst[m]
        return {ij: p for ij, p in diff.items() if p}

    def two_var(self, diff: dict) -> "TwoVar":
        """A jacobi() result as the TwoVar it stands for."""
        L2 = self.L * self.L
        return TwoVar({ij: self.space.diff_poly(p, L2) for ij, p in diff.items()})


def extend_bracket(table: BracketTable, A: DiffPoly, B: DiffPoly) -> LambdaPoly:
    """{A lambda B} for arbitrary differential polynomials over the table's
    variables.  Coefficients multiply through; constants bracket to zero."""
    return table._leibniz().bracket(A, B)


def nth_product(table: BracketTable, A: DiffPoly, B: DiffPoly, n: int) -> DiffPoly:
    """n-th product a_(n)b = n! * (coefficient of lambda^n in {A lambda B})."""
    return extend_bracket(table, A, B).get(n).scale(factorial(n))


# ---------------------------------------------------------------------------
# axiom checks


def check_skew(table: BracketTable, pairs=None) -> list[dict]:
    """Violations of {a lambda b} = -(-1)^{p(a)p(b)} {b_{-lambda-d} a}."""
    out = []
    if pairs is None:
        pairs = list(table.entries.keys())
    for (a, b) in pairs:
        lhs = table.lookup(a, b)
        rhs = table.lookup(b, a).subst_neg_lambda_partial().scale(
            -((-1) ** (a.parity * b.parity))
        )
        if lhs != rhs:
            out.append({"kind": "skew", "pair": (a, b), "diff": lhs - rhs})
    return out


class TwoVar:
    """Polynomial in two formal symbols with DiffPoly coefficients, used to
    assemble both sides of the Jacobi identity."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict] = None):
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
    keyed by (lambda power, mu power)."""
    engine = table._leibniz()
    out = []
    for (a, b, c) in triples:
        diff = engine.jacobi(a, b, c)
        if diff:
            out.append({"kind": "jacobi", "triple": (a, b, c), "diff": engine.two_var(diff)})
    return out


# ---------------------------------------------------------------------------
# substitution (used by the reduction engine and report replay)


def substitute(poly: DiffPoly, mapping: dict) -> DiffPoly:
    """Replace variables by differential polynomials (a differential-algebra
    morphism: derivative powers push onto the image).  Variables absent from
    the mapping stay themselves; images may be DiffPoly or plain scalars."""
    out: dict = {}
    for m, c in poly.terms.items():
        acc = DiffPoly.constant(c)
        for v, k in m:
            img = mapping.get(v)
            if img is None:
                fac = DiffPoly({((v, k),): ONE})
            elif isinstance(img, DiffPoly):
                fac = apply_partial(img, k)
            else:  # scalar image: derivative kills it
                fac = DiffPoly.constant(img) if k == 0 else DiffPoly()
            if not fac:
                break
            acc = acc * fac
        else:
            for mm, cc in acc.terms.items():
                _accum(out, mm, cc)
    return DiffPoly(out)
