"""Differential polynomials and lambda-brackets over an arbitrary variable set.

A variable is any hashable object exposing `.weight` (Fraction), `.parity`
(0 or 1) and `.sort_key()`; the package uses GenIndex (W-algebra generators)
and the affine ladder variables of the reduction engine.  A monomial is a
canonically ordered tuple of (variable, derivative-power) factors; odd
variables anticommute, so reordering tracks a sign and a repeated odd factor
kills the monomial.  Polynomials map monomials to Coeff scalars.

Lambda-polynomials collect differential polynomials by power of lambda; the
bracket extension implements the sesquilinearity and both Leibniz rules of a
Poisson vertex algebra, so a table of generator-pair brackets extends to
arbitrary differential polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Optional

from .coeffs import Coeff, ONE
from .errors import MissingTableEntry

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
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
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
                if sign < 0:
                    c = -c
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return DiffPoly(out)

    def d(self) -> "DiffPoly":
        """Total derivative (the translation operator of the algebra)."""
        out: dict = {}
        for m, c in self.terms.items():
            for idx in range(len(m)):
                v, k = m[idx]
                bumped = m[:idx] + ((v, k + 1),) + m[idx + 1:]
                sign, mono = normalize_factors(bumped)
                if mono is None:
                    continue
                cc = c if sign > 0 else -c
                s = out.get(mono)
                s = cc if s is None else s + cc
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return DiffPoly(out)

    def parity(self) -> Optional[int]:
        p = None
        for m in self.terms:
            q = monomial_parity(m)
            if p is None:
                p = q
            elif p != q:
                return None
        return 0 if p is None else p

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

    def map_coeffs(self, fn) -> "DiffPoly":
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if v:
                out[m] = v
        return DiffPoly(out)

    def at_level(self, k) -> "DiffPoly":
        """Every coefficient evaluated at the rational level k."""
        return self.map_coeffs(lambda c: Coeff.of(c.eval(k)))

    def at_level_one(self) -> "DiffPoly":
        return self.at_level(1)

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
    out = DiffPoly()
    for factors, coeff in raw_terms:
        sign, m = normalize_factors(factors)
        if m is None:
            continue
        c = Coeff.of(coeff)
        if sign < 0:
            c = -c
        out = out + DiffPoly({m: c} if c else {})
    return out


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

    @staticmethod
    def of_poly(p: DiffPoly) -> "LambdaPoly":
        return LambdaPoly({0: p})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        out = dict(self.coeffs)
        for n, p in other.coeffs.items():
            q = out.get(n)
            q = p if q is None else q + p
            if q:
                out[n] = q
            else:
                out.pop(n, None)
        return LambdaPoly(out)

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "LambdaPoly":
        return self.scale(-1)

    def scale(self, c) -> "LambdaPoly":
        c = Coeff.of(c)
        if not c:
            return LambdaPoly()
        return LambdaPoly({n: p.scale(c) for n, p in self.coeffs.items()})

    def lmul_poly(self, p: DiffPoly) -> "LambdaPoly":
        """Multiply every coefficient by p from the left."""
        return LambdaPoly({n: p * q for n, q in self.coeffs.items()})

    def rmul_poly(self, p: DiffPoly) -> "LambdaPoly":
        return LambdaPoly({n: q * p for n, q in self.coeffs.items()})

    def get(self, n: int) -> DiffPoly:
        return self.coeffs.get(n, DiffPoly())

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def shift_plus_partial(self, l: int) -> "LambdaPoly":
        """Apply (lambda + d)^l, the operators acting on the coefficients."""
        if l == 0:
            return self
        out = LambdaPoly()
        for n, p in self.coeffs.items():
            for k in range(l + 1):
                out += LambdaPoly({n + k: apply_partial(p, l - k).scale(comb(l, k))})
        return out

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


class BracketTable:
    """All ordered generator-pair lambda-brackets of one algebra."""

    def __init__(self, variables: list, entries: dict):
        self.variables = list(variables)
        self.entries = entries  # (u, v) -> LambdaPoly
        self._cache: dict = {}

    def lookup(self, u, v) -> LambdaPoly:
        try:
            return self.entries[(u, v)]
        except KeyError:
            raise MissingTableEntry(f"no bracket stored for ({u}, {v})") from None

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


def _bracket_var_mono(table: BracketTable, u, mono: Monomial) -> LambdaPoly:
    """{u lambda mono} by the right Leibniz rule; u is a bare variable."""
    key = ("vm", u, mono)
    hit = table._cache.get(key)
    if hit is not None:
        return hit
    if not mono:
        res = LambdaPoly()
    elif len(mono) == 1:
        v, l = mono[0]
        res = table.lookup(u, v).shift_plus_partial(l)
    else:
        head, rest = mono[0], mono[1:]
        left = _bracket_var_mono(table, u, (head,)).rmul_poly(DiffPoly({rest: ONE}))
        right = _bracket_var_mono(table, u, rest).lmul_poly(DiffPoly({(head,): ONE}))
        if u.parity and head[0].parity:
            right = right.scale(-1)
        res = left + right
    table._cache[key] = res
    return res


def _arrow_apply(br: LambdaPoly, other: Monomial) -> LambdaPoly:
    """{X_{lambda+d} B}_-> Y: expand each lambda^n as sum C(n,k) lambda^{n-k}
    (coefficient) * d^k(Y)."""
    Y = DiffPoly({other: ONE})
    out = LambdaPoly()
    for n, p in br.coeffs.items():
        for k in range(n + 1):
            out += LambdaPoly({n - k: (p * apply_partial(Y, k)).scale(comb(n, k))})
    return out


def _bracket_mono_mono(table: BracketTable, mono: Monomial, other: Monomial) -> LambdaPoly:
    """{mono lambda other} peeling the first slot by the left Leibniz rule and
    first-slot sesquilinearity."""
    key = ("mm", mono, other)
    hit = table._cache.get(key)
    if hit is not None:
        return hit
    if not mono:
        res = LambdaPoly()
    elif len(mono) == 1:
        v, k = mono[0]
        base = _bracket_var_mono(table, v, other)
        if k:
            # {d^k v lambda B} = (-lambda)^k {v lambda B}
            res = LambdaPoly(
                {n + k: p.scale((-1) ** k) for n, p in base.coeffs.items()}
            )
        else:
            res = base
    else:
        # {ab l c} = (-1)^{p(b)p(c)} {a l+d c}->b
        #          + (-1)^{p(a)p(b)+p(a)p(c)} {b l+d c}->a
        head, rest = mono[0], mono[1:]
        ph = head[0].parity
        pr = monomial_parity(rest)
        pc = monomial_parity(other)
        t1 = _arrow_apply(_bracket_mono_mono(table, (head,), other), rest)
        if pr and pc:
            t1 = t1.scale(-1)
        t2 = _arrow_apply(_bracket_mono_mono(table, rest, other), (head,))
        if ph and (pr + pc) % 2:
            t2 = t2.scale(-1)
        res = t1 + t2
    table._cache[key] = res
    return res


def extend_bracket(table: BracketTable, A: DiffPoly, B: DiffPoly) -> LambdaPoly:
    """{A lambda B} for arbitrary differential polynomials over the table's
    variables.  Coefficients multiply through; constants bracket to zero."""
    out = LambdaPoly()
    for ma, ca in A.terms.items():
        if not ma:
            continue
        for mb, cb in B.terms.items():
            if not mb:
                continue
            out += _bracket_mono_mono(table, ma, mb).scale(ca * cb)
    return out


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
            q = out.get(ij)
            q = p if q is None else q + p
            if q:
                out[ij] = q
            else:
                out.pop(ij, None)
        return TwoVar(out)

    def __sub__(self, other: "TwoVar") -> "TwoVar":
        neg = TwoVar({ij: -p for ij, p in other.coeffs.items()})
        return self + neg

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoVar) and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)


def _outer_in_lambda(table: BracketTable, a, inner: LambdaPoly) -> TwoVar:
    """{a lambda inner} where inner is a polynomial in mu: lambda -> slot 0."""
    out = TwoVar()
    A = DiffPoly.variable(a)
    for j, p in inner.coeffs.items():
        br = extend_bracket(table, A, p)
        for i, q in br.coeffs.items():
            out += TwoVar({(i, j): q})
    return out


def _composed_bracket(table: BracketTable, ab: LambdaPoly, c) -> TwoVar:
    """{{a lambda b}_{lambda+mu} c}: bracket each lambda^n coefficient into c,
    then expand the (lambda+mu)-powers binomially on top of lambda^n."""
    out = TwoVar()
    C = DiffPoly.variable(c)
    for n, p in ab.coeffs.items():
        br = extend_bracket(table, p, C)
        for m, q in br.coeffs.items():
            for k in range(m + 1):
                out += TwoVar({(n + k, m - k): q.scale(comb(m, k))})
    return out


def check_jacobi(table: BracketTable, triples) -> list[dict]:
    """Violations of {a lambda {b mu c}} = {{a lambda b}_{lambda+mu} c}
    + (-1)^{p(a)p(b)} {b mu {a lambda c}}."""
    out = []
    for (a, b, c) in triples:
        lhs = _outer_in_lambda(table, a, table.lookup(b, c))
        t1 = _composed_bracket(table, table.lookup(a, b), c)
        inner_ac = table.lookup(a, c)
        t2 = TwoVar()
        B = DiffPoly.variable(b)
        for i, p in inner_ac.coeffs.items():
            br = extend_bracket(table, B, p)
            for j, q in br.coeffs.items():
                t2 += TwoVar({(i, j): q})
        if a.parity and b.parity:
            t2 = TwoVar({ij: -p for ij, p in t2.coeffs.items()})
        rhs = t1 + t2
        if lhs != rhs:
            out.append({"kind": "jacobi", "triple": (a, b, c), "diff": lhs - rhs})
    return out


# ---------------------------------------------------------------------------
# substitution (used by the reduction engine and report replay)


def substitute(poly: DiffPoly, mapping: dict) -> DiffPoly:
    """Replace variables by differential polynomials (a differential-algebra
    morphism: derivative powers push onto the image).  Variables absent from
    the mapping stay themselves; images may be DiffPoly or plain scalars."""
    out = DiffPoly()
    for m, c in poly.terms.items():
        acc = DiffPoly.constant(c)
        dead = False
        for v, k in m:
            img = mapping.get(v)
            if img is None:
                fac = DiffPoly({((v, k),): ONE})
            elif isinstance(img, DiffPoly):
                fac = apply_partial(img, k)
            else:  # scalar image: derivative kills it
                fac = DiffPoly.constant(img) if k == 0 else DiffPoly()
            if not fac:
                dead = True
                break
            acc = acc * fac
        if not dead:
            out = out + acc
    return out
