"""Exact scalar arithmetic for bracket coefficients.

Every structure constant produced by the workbench lives in the ring Q[k]
of polynomials in the level parameter k.  The level is a grading (k of
degree 1, lambda and d of degree -1), so the values the engines produce are
single powers c*k^m, with m fixed by where the value sits.  The engines
solve and sweep over Q or Z and attach k^m at their edges (see wbracket and
pvacore); weakgen and dsreduction decide on the engines' values at k=1 and
build a Coeff only where they record a result.  Coeff stays a polynomial
because a DiffPoly handed to extend_bracket may carry any coefficients in
Q[k].

Polynomials are tuples of Fraction, index = power of k, with no trailing
zeros; the empty tuple is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction

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


class Coeff:
    """A polynomial in the level parameter k, immutable: one object backs
    many table terms, so rebinding or deleting num raises AttributeError."""

    __slots__ = ("num",)

    def __init__(self, num: tuple):
        # trailing zeros trimmed; ptrim returns num itself when there are none
        object.__setattr__(self, "num", ptrim(num))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{name} of a Coeff is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Coeff, (self.num,)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(v: int | Fraction | Coeff) -> "Coeff":
        if isinstance(v, Coeff):
            return v
        return Coeff(_as_poly(v if isinstance(v, Fraction) else Fraction(v)))

    @staticmethod
    def level(power: int = 1, scale: int | Fraction | Coeff = 1) -> "Coeff":
        """scale * k**power, for a power of at least 0."""
        if power < 0:
            raise ValueError(f"negative power {power} of the level")
        s = scale if isinstance(scale, Fraction) else Fraction(scale)
        if not s:
            return _C0
        return Coeff((_F0,) * power + (s,))

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Coeff":
        if not isinstance(other, Coeff):
            other = Coeff.of(other)
        return Coeff(padd(self.num, other.num))

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        return Coeff(tuple(-x for x in self.num))

    def __sub__(self, other) -> "Coeff":
        if not isinstance(other, Coeff):
            other = Coeff.of(other)
        return self + (-other)

    def __rsub__(self, other) -> "Coeff":
        return Coeff.of(other) + (-self)

    def __mul__(self, other) -> "Coeff":
        if not isinstance(other, Coeff):
            other = Coeff.of(other)
        return Coeff(pmul(self.num, other.num))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Coeff.of(other)
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.num == other.num

    def __hash__(self):
        # a constant hashes as the Fraction it equals, zero as 0
        num = self.num
        if len(num) > 1:
            return hash(num)
        return hash(num[0]) if num else 0

    # -- evaluation / display ----------------------------------------------

    def eval(self, k: int | Fraction | Coeff) -> Fraction:
        """Value at a rational level k."""
        return peval(self.num, k if isinstance(k, Fraction) else Fraction(k))

    def at_one(self) -> Fraction:
        return self.eval(_F1)

    def __repr__(self) -> str:
        return f"Coeff({self})"

    def __str__(self) -> str:
        return poly_str(self.num)


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


_C0 = Coeff(())
ONE = Coeff((_F1,))
