"""Exact scalar arithmetic for bracket coefficients.

Every structure constant produced by the workbench lives in the field Q(k)
of rational functions in the level parameter k.  Almost all values that
actually appear are polynomials in k of tiny degree (bracket tables) or
plain rationals (structure constants at a fixed level), so Coeff keeps a
normalized numerator/denominator pair of Q-polynomials and fast-paths the
constant and polynomial cases.

Polynomials are tuples of Fraction, index = power of k, with no trailing
zeros; the empty tuple is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "Coeff"]

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# tuple-of-Fraction polynomial helpers


def ptrim(c: tuple) -> tuple:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def padd(a: tuple, b: tuple) -> tuple:
    if len(a) == 1 == len(b):
        s = a[0] + b[0]
        return (s,) if s else ()
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return ptrim(tuple(out))


def pneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def pscale(a: tuple, s: Fraction) -> tuple:
    if not s:
        return ()
    return tuple(x * s for x in a)


def pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return ptrim(tuple(out))


def pmul_int(a: tuple, b: tuple) -> tuple:
    """pmul for polynomials with int coefficients, which stay ints; a
    product of nonzero ones is nonzero, so nothing is trimmed."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        x = a[0]
        return tuple([x * y for y in b])
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def paccum(dst: dict, key, term: tuple) -> None:
    """dst[key] += term for k-polynomials, dropping a sum that cancels."""
    cur = dst.get(key)
    if cur is None:
        dst[key] = term
    else:
        s = padd(cur, term)
        if s:
            dst[key] = s
        else:
            del dst[key]


def pdivmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Exact polynomial long division; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_F0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv = 1 / b[-1]
    while len(r) >= len(b):
        lead = r[-1]
        if lead:
            c = lead * inv
            q[len(r) - len(b)] = c
            for i, y in enumerate(b):
                r[len(r) - len(b) + i] -= c * y
        r.pop()
    return ptrim(tuple(q)), ptrim(tuple(r))


def pgcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd via Euclid; gcd((), b) = monic b."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    if not a:
        return ()
    return pscale(a, 1 / a[-1])


def peval(a: tuple, x: Fraction) -> Fraction:
    """The exact value of the k-polynomial a at x.

    Sparse: zero coefficients are skipped and each other term is c*x**i,
    just c when i = 0 or x = 1, so a single power of k (every bracket table
    coefficient is one) costs one multiplication at most.  The result is a
    Fraction when a's coefficients are."""
    one = x == 1
    acc = None
    for i, c in enumerate(a):
        if c:
            t = c if one or not i else c * x ** i
            acc = t if acc is None else acc + t
    return _F0 if acc is None else acc


def _as_poly(v) -> tuple:
    if isinstance(v, Fraction):
        return (v,) if v else ()
    if isinstance(v, int):
        return (Fraction(v),) if v else ()
    raise TypeError(f"cannot coerce {type(v).__name__} to a k-polynomial")


_DEN1 = (_F1,)


class Coeff:
    """A rational function num/den in the level parameter k, normalized so the
    denominator is monic and coprime to the numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: tuple = _DEN1, _normalized: bool = False):
        if not _normalized:
            if not den:
                raise ZeroDivisionError("zero denominator")
            if not num:
                den = _DEN1
            else:
                if len(den) > 1 or den != _DEN1:
                    g = pgcd(num, den)
                    if len(g) > 1:
                        num = pdivmod(num, g)[0]
                        den = pdivmod(den, g)[0]
                    lead = den[-1]
                    if lead != _F1:
                        num = pscale(num, 1 / lead)
                        den = pscale(den, 1 / lead)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(v: Scalar) -> "Coeff":
        if isinstance(v, Coeff):
            return v
        p = _as_poly(v if isinstance(v, Fraction) else Fraction(v))
        return Coeff(p, _DEN1, _normalized=True)

    @staticmethod
    def level(power: int = 1, scale: Scalar = 1) -> "Coeff":
        """scale * k**power."""
        s = scale if isinstance(scale, Fraction) else Fraction(scale)
        if not s:
            return _C0
        return Coeff((_F0,) * power + (s,), _DEN1, _normalized=True)

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_polynomial(self) -> bool:
        return self.den == _DEN1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Coeff":
        if not isinstance(other, Coeff):
            other = Coeff.of(other)
        if self.den == _DEN1 and other.den == _DEN1:
            return Coeff(padd(self.num, other.num), _DEN1, _normalized=True)
        n = padd(pmul(self.num, other.den), pmul(other.num, self.den))
        return Coeff(n, pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        return Coeff(pneg(self.num), self.den, _normalized=True)

    def __sub__(self, other) -> "Coeff":
        if not isinstance(other, Coeff):
            other = Coeff.of(other)
        return self + (-other)

    def __rsub__(self, other) -> "Coeff":
        return Coeff.of(other) + (-self)

    def __mul__(self, other) -> "Coeff":
        if not isinstance(other, Coeff):
            other = Coeff.of(other)
        if not self.num or not other.num:
            return _C0
        if self.den == _DEN1 and other.den == _DEN1:
            return Coeff(pmul(self.num, other.num), _DEN1, _normalized=True)
        return Coeff(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Coeff":
        if not isinstance(other, Coeff):
            other = Coeff.of(other)
        if not other.num:
            raise ZeroDivisionError("division by zero coefficient")
        if not self.num:
            return _C0
        return Coeff(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other) -> "Coeff":
        return Coeff.of(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Coeff.of(other)
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation / display ----------------------------------------------

    def eval(self, k: Scalar) -> Fraction:
        """Value at a rational level k; the denominator must not vanish there."""
        kk = k if isinstance(k, Fraction) else Fraction(k)
        if self.den == _DEN1:
            return peval(self.num, kk)
        d = peval(self.den, kk)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at k={kk}")
        return peval(self.num, kk) / d

    def at_one(self) -> Fraction:
        return self.eval(_F1)

    def __repr__(self) -> str:
        return f"Coeff({self})"

    def __str__(self) -> str:
        if self.den == _DEN1:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


def poly_str(p: tuple, sym: str = "k") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            term = str(c)
        else:
            ks = sym if i == 1 else f"{sym}^{i}"
            if c == 1:
                term = ks
            elif c == -1:
                term = f"-{ks}"
            else:
                term = f"{c}*{ks}"
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


_C0 = Coeff((), _DEN1, _normalized=True)
_C1 = Coeff((_F1,), _DEN1, _normalized=True)

ZERO = _C0
ONE = _C1
