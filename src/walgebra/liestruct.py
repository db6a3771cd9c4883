"""Finite-dimensional scaffolding: sl(N) / sl(N1|N2) with a block nilpotent.

Everything here is exact linear algebra over Q on sparse block matrices:

* the partition data and the induced block decomposition,
* the sl2-triple (e, x, f) attached to the block nilpotent f,
* the supertrace form scaled so (e|f) = 1,
* the centralizer of f with its canonical basis, the dual basis pinned by
  ad-e-invariance and biorthonormality, and the two ladder families obtained
  by walking each sl2-string up from the centralizer and down from its dual,
* the projection onto the centralizer along the other ad-f string spaces.

Matrices hold Fractions; the ladder walks of dual_bases and the structure
constants of StructureKernel, one pass per left matrix against a family
indexed once, run on ints over one denominator per matrix.

Indices follow the block conventions used throughout the package: blocks are
1-based, and entry (r, c) of block (bi, bj) means row r of block bi, column c
of block bj, both 1-based.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .errors import NormalizationImpossible, SingularPairing, SuperEqualParts, WAlgebraError
from .linalg import System

F = Fraction
_F0 = F(0)

# The largest total matrix size N = N1 + N2 a PartitionSpec accepts, well
# above (6,4,3), N = 13, the largest shape the tests and the benchmark build.
# Far above it the construction runs out of memory; the bound makes that an
# input error.
MAX_MATRIX_SIZE = 64


class Weight(Fraction):
    """A Fraction that computes its hash once, at construction.

    Fraction.__hash__ is pure Python and runs on every call, and the
    engines' dict keys are monomial tuples whose factors are GenIndex or
    AffVar tuples holding a weight: without the cache every dict operation on
    a monomial rehashes each factor's weight.  The hash, equality, str and
    repr are a Fraction's, so a Weight and the Fraction it equals are the
    same dict key; arithmetic returns plain Fractions.  Two Weights compare
    (== and <, which sort keys use) on their numerators and denominators
    directly, without Fraction's checks of the other operand against the
    numbers ABCs."""

    __slots__ = ("_hash",)

    def __new__(cls, *args, **kwargs):
        # copy, deepcopy and pickle call the class as (numerator, denominator)
        self = super().__new__(cls, *args, **kwargs)
        self._hash = Fraction.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is Weight:
            return self._numerator == other._numerator and self._denominator == other._denominator
        return Fraction.__eq__(self, other)

    def __lt__(self, other):
        if type(other) is Weight:
            return self._numerator * other._denominator < other._numerator * self._denominator
        return Fraction.__lt__(self, other)

    def __repr__(self):
        return f"Fraction({self.numerator}, {self.denominator})"


class GenIndex(namedtuple("GenIndex", "t i j parity", defaults=(0,))):
    """Index of a centralizer basis element: weight t (a Fraction), block pair
    (i, j) of ints, and the parity tag, 0 by default.

    The parity tag is determined by the block pair within a fixed algebra,
    but it is part of the tuple and so of equality and hashing: an index
    built with the wrong tag is a different key.  Always build these through
    AlgebraCtx.gen so the tag is set consistently.  AlgebraCtx.gen stores t
    as a Weight, which hashes like the Fraction it equals but computes that
    hash once: a GenIndex built from a plain Fraction is the same key, and
    the monomials over GenIndex and AffVar factors hash without rehashing a
    Fraction.
    """

    __slots__ = ()

    @property
    def weight(self) -> Fraction:
        return self.t

    def sort_key(self):
        return (self.t, self.i, self.j)

    def __str__(self) -> str:
        return f"q[{self.t}]({self.i},{self.j})"


class PartitionSpec(namedtuple("PartitionSpec", "kind parts1 parts2", defaults=((),))):
    """Which algebra: 'sl' with one partition, or 'sl_super' with two.

    kind is a str and the partitions tuples of ints; the spec is validated
    when it is built and is immutable and hashable."""

    __slots__ = ()

    def __new__(cls, kind: str, parts1: tuple[int, ...], parts2: tuple[int, ...] = ()):
        self = super().__new__(cls, kind, parts1, parts2)
        if self.kind not in ("sl", "sl_super"):
            raise WAlgebraError(f"unknown algebra kind {self.kind!r}")
        for parts in (self.parts1, self.parts2):
            if any(not isinstance(m, int) or isinstance(m, bool) or m < 1 for m in parts):
                raise WAlgebraError(f"partition parts must be positive integers: {parts}")
            if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
                raise WAlgebraError(f"partition must be non-increasing: {parts}")
        size = sum(self.sizes)
        if size > MAX_MATRIX_SIZE:
            raise WAlgebraError(f"matrix size {size} is above the bound N <= {MAX_MATRIX_SIZE}")
        if not self.parts1:
            raise WAlgebraError("empty partition")
        if self.kind == "sl" and self.parts2:
            raise WAlgebraError("plain sl takes a single partition")
        if self.kind == "sl_super":
            if not self.parts2:
                raise WAlgebraError("sl_super needs a second partition")
            if sum(self.parts1) == sum(self.parts2):
                raise SuperEqualParts(
                    f"sl({sum(self.parts1)}|{sum(self.parts2)}) with equal parts is excluded"
                )
        return self

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.parts1 + self.parts2

    @property
    def d1(self) -> int:
        """Blocks in the first group (= all of them for plain sl)."""
        return len(self.parts1)

    def describe(self) -> str:
        if self.kind == "sl":
            return f"sl({sum(self.parts1)}) f-type {list(self.parts1)}"
        return (
            f"sl({sum(self.parts1)}|{sum(self.parts2)}) "
            f"f-type {list(self.parts1)}|{list(self.parts2)}"
        )


class BlockShape:
    """Row/column bookkeeping for the block decomposition."""

    def __init__(self, sizes: tuple[int, ...], d1: int):
        self.sizes = sizes
        self.d1 = d1
        self.d = len(sizes)
        self.N = sum(sizes)
        self.offset = [0]
        for m in sizes:
            self.offset.append(self.offset[-1] + m)
        self.block_of = []
        for b, m in enumerate(sizes):
            self.block_of.extend([b + 1] * m)
        # supertrace sign per global index: +1 in the first group, -1 after
        self.eps = [1 if self.block_of[r] <= d1 else -1 for r in range(self.N)]

    def group(self, block: int) -> int:
        """0 for the first block group, 1 for the second (super only)."""
        return 0 if block <= self.d1 else 1

    def pair_parity(self, bi: int, bj: int) -> int:
        return (self.group(bi) + self.group(bj)) % 2

    def glob(self, block: int, r: int) -> int:
        """Global 0-based index of 1-based row r of 1-based block."""
        return self.offset[block - 1] + (r - 1)


class SuperMatrix:
    """Sparse exact matrix bound to a block shape.

    entries maps global (row, col) 0-based pairs to nonzero Fractions."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: BlockShape, entries: dict | None = None):
        self.shape = shape
        self.entries = entries or {}

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SuperMatrix) and self.entries == other.entries

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        out = dict(self.entries)
        for k, v in other.entries.items():
            w = out.get(k, _F0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return SuperMatrix(self.shape, out)

    def scale(self, s) -> "SuperMatrix":
        s = F(s)
        if not s:
            return SuperMatrix(self.shape)
        return SuperMatrix(self.shape, {k: v * s for k, v in self.entries.items()})

    def mul(self, other: "SuperMatrix") -> "SuperMatrix":
        """Plain matrix product (no signs; signs belong to the bracket)."""
        by_row: dict[int, list] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict = {}
        for (r, c), v in self.entries.items():
            for c2, w in by_row.get(c, ()):
                k = (r, c2)
                s = out.get(k, _F0) + v * w
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return SuperMatrix(self.shape, out)

    def parity(self) -> int | None:
        """0 or 1 if all entries sit in blocks of one parity, else None."""
        p = None
        sh = self.shape
        for (r, c) in self.entries:
            q = (0 if sh.eps[r] == sh.eps[c] else 1)
            if p is None:
                p = q
            elif p != q:
                return None
        return 0 if p is None else p

    def comm(self, other: "SuperMatrix") -> "SuperMatrix":
        """Supercommutator [a, b] = ab - (-1)^{p(a)p(b)} ba of two matrices
        of one parity each; WAlgebraError on a mixed-parity argument."""
        pa, pb = _parity(self), _parity(other)
        ab = self.mul(other)
        ba = other.mul(self)
        return ab + ba.scale(-1 if not (pa and pb) else 1)

    def supertrace(self) -> Fraction:
        tot = _F0
        for (r, c), v in self.entries.items():
            if r == c:
                tot += v * self.shape.eps[r]
        return tot

    def __repr__(self) -> str:
        items = sorted(self.entries.items())
        body = ", ".join(f"({r},{c}):{v}" for (r, c), v in items)
        return f"SuperMatrix({body})"


def _parity(m: SuperMatrix) -> int:
    """m.parity(), a mixed-parity matrix refused with WAlgebraError."""
    p = m.parity()
    if p is None:
        raise WAlgebraError("supercommutator of a mixed-parity matrix")
    return p


class CentralizerData:
    """The centralizer basis with its dual and ladder families.

    gens          -- the GenIndex of every basis element, in generator order
    basisF[g]     -- q_g, the ad-f-kernel basis element for GenIndex g
    basisE[g]     -- q*_g, its dual in the ad-e-kernel, (q*_g | q_g) = 1
    dualFamily[g][n]  -- (ad f)^n q*_g, defined for 0 <= n <= 2 delta(g)
    adFPowers[g][n]   -- the matching downward family through q_g obtained by
                         scaled ad-e powers, biorthonormal to dualFamily
    delta[g]      -- half-length of the sl2-string through q_g (= t - 1)
    col[g]        -- the rank of g in gens
    dual_at       -- pairing_index over the duals q*_g in generator order:
                     pairings(dual_at, z) maps the rank of g to (q*_g | z)

    dual_bases fills in basisE, dualFamily, adFPowers and dual_at.
    """

    def __init__(self, gens: list[GenIndex], basisF: dict[GenIndex, SuperMatrix],
                 delta: dict[GenIndex, Fraction]):
        self.gens = gens
        self.basisF = basisF
        self.delta = delta
        self.basisE: dict[GenIndex, SuperMatrix] = {}
        self.dualFamily: dict[GenIndex, list[SuperMatrix]] = {}
        self.adFPowers: dict[GenIndex, list[SuperMatrix]] = {}
        self.col = {g: i for i, g in enumerate(gens)}
        self.dual_at: dict[tuple, list] = {}


class AlgebraCtx:
    """A fixed algebra + nilpotent: block shape, sl2-triple, scaled form."""

    def __init__(self, spec: PartitionSpec):
        self.spec = spec
        self.shape = BlockShape(spec.sizes, spec.d1)
        sh = self.shape
        self.f = self._build_f()
        self.x = self._build_x()
        self.e = self._build_e()
        s = self.e.mul(self.f).supertrace()
        if not s:
            raise NormalizationImpossible(
                f"str(ef) = 0 for {spec.describe()}; the form cannot give (e|f)=1"
            )
        self.form_scale = 1 / s
        self._xdiag = [self.x.entries.get((r, r), _F0) for r in range(sh.N)]
        self._cdata: CentralizerData | None = None
        self._weights: dict = {}

    # -- construction helpers ------------------------------------------------

    def unit(self, bi: int, bj: int, r: int, c: int, v=1) -> SuperMatrix:
        """v * e^{(bi,bj)}_{r,c} (1-based blocks and in-block positions)."""
        sh = self.shape
        return SuperMatrix(sh, {(sh.glob(bi, r), sh.glob(bj, c)): F(v)})

    def _build_f(self) -> SuperMatrix:
        m = SuperMatrix(self.shape)
        for b, size in enumerate(self.shape.sizes, start=1):
            for i in range(1, size):
                m += self.unit(b, b, i + 1, i)
        return m

    def _build_x(self) -> SuperMatrix:
        m = SuperMatrix(self.shape)
        for b, size in enumerate(self.shape.sizes, start=1):
            for i in range(1, size + 1):
                val = F(size - 1, 2) - (i - 1)
                if val:
                    m += self.unit(b, b, i, i, val)
        return m

    def _build_e(self) -> SuperMatrix:
        m = SuperMatrix(self.shape)
        for b, size in enumerate(self.shape.sizes, start=1):
            for i in range(1, size):
                m += self.unit(b, b, i, i + 1, i * (size - i))
        return m

    # -- structure maps ------------------------------------------------------

    def pair(self, a: SuperMatrix, b: SuperMatrix) -> Fraction:
        """The invariant form (a|b) = str(ab) / str(ef), read off as the trace
        pairing sum a[r,c] b[c,r] eps[r]; no product matrix is formed."""
        be = b.entries
        eps = self.shape.eps
        tot = _F0
        for (r, c), v in a.entries.items():
            w = be.get((c, r))
            if w is not None:
                tot += v * w * eps[r]
        return tot * self.form_scale

    def gen(self, t, i: int, j: int) -> GenIndex:
        """Build a GenIndex with the parity tag this algebra assigns."""
        w = self._weights.get(t)
        if w is None:
            w = self._weights[t] = Weight(t)
        return GenIndex(w, i, j, self.shape.pair_parity(i, j))

    def centralizer(self) -> CentralizerData:
        if self._cdata is None:
            cd = centralizer_basis(self)
            dual_bases(self, cd)
            self._cdata = cd
        return self._cdata


def build_algebra(spec: PartitionSpec) -> AlgebraCtx:
    """Validate the partition data and assemble the algebra context."""
    return AlgebraCtx(spec)


# ---------------------------------------------------------------------------
# centralizer basis


def centralizer_basis(ctx: AlgebraCtx) -> CentralizerData:
    """The canonical basis of the ad-f kernel inside sl, indexed by GenIndex.

    Off-diagonal block (j, l): weights t with 1 <= t - |m_j - m_l|/2 <=
    min(m_j, m_l); the element is the t-shifted 'staircase' sum of units.
    Diagonal block (j, j): weights 2..m_j, plus the weight-1 supertraceless
    combination against block 1 for j >= 2."""
    sh = ctx.shape
    sizes = sh.sizes
    gens: list[GenIndex] = []
    basisF: dict[GenIndex, SuperMatrix] = {}
    delta: dict[GenIndex, Fraction] = {}

    def put(g: GenIndex, m: SuperMatrix):
        gens.append(g)
        basisF[g] = m
        delta[g] = g.t - 1

    for bj in range(1, sh.d + 1):
        mj = sizes[bj - 1]
        for bl in range(1, sh.d + 1):
            ml = sizes[bl - 1]
            if bj == bl:
                if bj >= 2:
                    m1 = sizes[0]
                    sign = -1 if sh.pair_parity(bj, 1) == 0 else 1
                    mat = SuperMatrix(sh)
                    for i in range(1, m1 + 1):
                        mat += ctx.unit(1, 1, i, i, mj)
                    for i in range(1, mj + 1):
                        mat += ctx.unit(bj, bj, i, i, sign * m1)
                    put(ctx.gen(1, bj, bj), mat)
                for t in range(2, mj + 1):
                    mat = SuperMatrix(sh)
                    for i in range(1, mj - t + 2):
                        mat += ctx.unit(bj, bj, t + i - 1, i)
                    put(ctx.gen(t, bj, bj), mat)
            else:
                half_gap = F(abs(mj - ml), 2)
                for step in range(1, min(mj, ml) + 1):
                    t = half_gap + step
                    tp = int(t + F(mj - ml, 2))
                    count = int(F(mj + ml, 2) + 1 - t)
                    mat = SuperMatrix(sh)
                    for i in range(1, count + 1):
                        mat += ctx.unit(bj, bl, tp + i - 1, i)
                    put(ctx.gen(t, bj, bl), mat)

    gens.sort(key=lambda g: g.sort_key())
    return CentralizerData(gens=gens, basisF=basisF, delta=delta)


# ---------------------------------------------------------------------------
# dual basis and the two ladder families


def _unit_pool(ctx: AlgebraCtx, bi: int, bj: int, grade2: int) -> list[tuple]:
    """All unit positions in block (bi, bj) with ad-x grade grade2/2, on
    twice-grades: row r of a block of size m has x-eigenvalue (m+1)/2 - r."""
    sh = ctx.shape
    mi, mj = sh.sizes[bi - 1], sh.sizes[bj - 1]
    return [(sh.glob(bi, r), sh.glob(bj, c))
            for r in range(1, mi + 1) for c in range(1, mj + 1)
            if (mi - 2 * r) - (mj - 2 * c) == grade2]


def _clear(m: SuperMatrix) -> tuple[dict, int]:
    """(d*m as {position: int}, d), d the lcm of m's denominators."""
    d = lcm(*(v.denominator for v in m.entries.values()))
    return {pos: v.numerator * (d // v.denominator) for pos, v in m.entries.items()}, d


def _by_row(a: dict) -> dict[int, list]:
    """{row: [(column, value)]} of a matrix's entries dict."""
    rows: dict[int, list] = {}
    for (r, c), v in a.items():
        rows.setdefault(r, []).append((c, v))
    return rows


def _mul(a: dict, b_rows: dict) -> dict:
    """SuperMatrix.mul on int entries dicts, b given by rows."""
    out: dict = {}
    for (r, c), v in a.items():
        for c2, w in b_rows.get(c, ()):
            k = (r, c2)
            s = out.get(k, 0) + v * w
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _ad(x: dict, x_rows: dict, y: dict) -> dict:
    """[x, y] = xy - yx for an even x on int entries dicts, in the order
    SuperMatrix.comm gives them."""
    out = _mul(x, _by_row(y))
    for k, v in _mul(y, x_rows).items():
        s = out.get(k, 0) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def dual_bases(ctx: AlgebraCtx, cdata: CentralizerData) -> CentralizerData:
    """Fill in q*_g and both ladder families.

    q*_g is the unique ad-e-invariant element of the transposed block pair at
    grade delta(g) with (q*_g | q_g) = 1.  The upward family through q*_g is
    (ad f)^n; the downward family through q_g is the rescaled (ad e)^n that
    makes the two families biorthonormal.

    The commutators run on ints: e, f, q_g and q*_g are cleared to ints over
    one denominator each (1 for e and f), once.  A stored entry is the one
    Fraction built from its int, the (ad e)^n scale applied there."""
    sh = ctx.shape
    eps = sh.eps
    e, de = _clear(ctx.e)
    f, df = _clear(ctx.f)
    e_rows, f_rows = _by_row(e), _by_row(f)
    norm_rhs = 1 / ctx.form_scale  # (Q|q) = 1, times 1/form_scale
    for g in cdata.gens:
        q = cdata.basisF[g]
        dlt = cdata.delta[g]
        two_delta = int(2 * dlt)
        pool = _unit_pool(ctx, g.j, g.i, two_delta)
        if not pool:
            raise SingularPairing(f"no candidate slots for the dual of {g}")
        qi, dq = _clear(q)
        # unknowns: coefficients over pool; equations: [e, Q] = 0 plus (Q|q)=1,
        # the latter times dq/form_scale
        system = System()
        for jcol, (r, c) in enumerate(pool):
            for pos, v in _ad(e, e_rows, {(r, c): 1}).items():
                system.add(pos, jcol, v)
            pairing = qi.get((c, r))
            if pairing:
                system.add("norm", jcol, pairing * eps[r])
        system.add("norm", None, -dq * norm_rhs)
        sol = system.solve()
        if sol is None:
            raise SingularPairing(f"dual system inconsistent for {g}")
        qs = SuperMatrix(sh, {pool[jcol]: v for jcol, v in sol.items() if v})
        qsi, ds = _clear(qs)
        paired = sum(v * qi.get((c, r), 0) * eps[r] for (r, c), v in qsi.items())
        if _ad(e, e_rows, qsi) or paired != ds * dq * norm_rhs:
            raise SingularPairing(f"dual candidate failed its defining relations for {g}")
        cdata.basisE[g] = qs

        ups = [qs]
        cur, d = qsi, ds
        for _ in range(two_delta):
            cur, d = _ad(f, f_rows, cur), d * df
            ups.append(SuperMatrix(sh, {pos: F(v, d) for pos, v in cur.items()}))
        cdata.dualFamily[g] = ups

        # q_g[n] = (-1)^n / (n!^2 * C(2 delta, n)) (ad e)^n q_g
        downs = [q]
        cur = qi
        for n in range(1, two_delta + 1):
            cur = _ad(e, e_rows, cur)
            denom = (-1) ** n * dq * de ** n * factorial(n) ** 2 * comb(two_delta, n)
            downs.append(SuperMatrix(sh, {pos: F(v, denom) for pos, v in cur.items()}))
        cdata.adFPowers[g] = downs
    cdata.dual_at = pairing_index(ctx, [cdata.basisE[g] for g in cdata.gens])
    return cdata


def pairing_index(ctx: AlgebraCtx, duals: list[SuperMatrix]) -> dict[tuple, list]:
    """Position (r, c) -> [(i, w)]: entry (r, c) of z contributes z[r, c] * w
    to (duals[i] | z), for every i with duals[i][c, r] != 0."""
    eps, scale = ctx.shape.eps, ctx.form_scale
    index: dict[tuple, list] = {}
    for i, d in enumerate(duals):
        for (r, c), v in d.entries.items():
            index.setdefault((c, r), []).append((i, v * eps[r] * scale))
    return index


def pairings(index: dict[tuple, list], z: SuperMatrix) -> dict[int, Fraction]:
    """{i: (duals[i] | z)} for the duals the index was built from, in index
    order, zeros dropped: one pass over z's entries, no pairing formed per
    dual."""
    coords: dict[int, Fraction] = {}
    for pos, w in z.entries.items():
        for i, v in index.get(pos, ()):
            coords[i] = coords.get(i, _F0) + v * w
    return {i: v for i, v in sorted(coords.items()) if v}


class StructureKernel:
    """The coordinates of [x, y] against one pairing index and (x|y),
    exactly tuple(pairings(index, x.comm(y)).items()) and ctx.pair(x, y), on
    ints, for one left matrix x against a family of matrices y in one pass.
    family indexes the members once; constants(x, family) walks x's entries
    once, each meeting the members' entries in its column's row (xy) and its
    row's column (yx), each product landing straight on the index's reads:
    no [x, y] is formed, a member that meets nothing is never touched, and
    no block structure is assumed.  kernel(x, y) is the pass over the
    one-member family [y], as Fractions.  A mixed-parity matrix on either
    side raises the WAlgebraError of SuperMatrix.comm."""

    def __init__(self, ctx: AlgebraCtx, index: dict[tuple, list]):
        self._eps, fs = ctx.shape.eps, ctx.form_scale
        # index weights and the form scale over one denominator
        self._den = den = lcm(fs.denominator, *(w.denominator for ws in index.values()
                                                for _, w in ws))
        # the index by row and column: {r: {c: [(i, int weight)]}} and {c: {r: ...}}
        self._by_row, self._by_col = {}, {}
        for (r, c), ws in index.items():
            reads = [(i, w.numerator * (den // w.denominator)) for i, w in ws]
            self._by_row.setdefault(r, {})[c] = self._by_col.setdefault(c, {})[r] = reads
        self._fs = fs.numerator * (den // fs.denominator)

    def family(self, members) -> tuple:
        """(key, matrix) members on ints over one denominator each, indexed
        by row, by column (signed as they enter [x, y], for an even and for
        an odd x) and by transposed position (for the pairing)."""
        eps = self._eps
        rows, even, odd, pos, dens = {}, {}, {}, {}, {}
        for key, y in members:
            p = _parity(y)
            at, dens[key] = _clear(y)
            for (r, c), w in at.items():
                rows.setdefault(r, []).append((c, key, w))
                even.setdefault(c, []).append((r, key, -w))
                odd.setdefault(c, []).append((r, key, w if p else -w))
                pos.setdefault((c, r), []).append((key, w * eps[c]))
        return rows, (even, odd), pos, dens

    def constants(self, x: SuperMatrix, family: tuple) -> dict:
        """{key: (P, c, D)} for the members with a nonzero constant: P the
        (index position, int) pairs of the nonzero coordinates in order and
        c the pairing's int, both over D, the reduced common denominator."""
        rows, cols, pos, dens = family
        cols = cols[_parity(x)]
        by_row, by_col = self._by_row, self._by_col
        at, dx = _clear(x)
        coords: dict = {}  # key -> {index position: int}
        pair: dict = {}
        for (r, c), v in at.items():
            # (xy)[r, c2] gets x[r, c] y[c, c2], and (yx)[r2, c] gets y[r2, r] x[r, c]
            for lands, ys in ((by_row.get(r), rows.get(c)), (by_col.get(c), cols.get(r))):
                if lands and ys:
                    for at2, k, w in ys:
                        reads = lands.get(at2)
                        if reads:
                            acc = coords.get(k)
                            if acc is None:
                                acc = coords[k] = {}
                            t = v * w
                            for i, wi in reads:
                                acc[i] = acc.get(i, 0) + t * wi
            for k, w in pos.get((r, c), ()):
                pair[k] = pair.get(k, 0) + v * w
        out, fs, den = {}, self._fs, self._den
        for k in coords.keys() | pair.keys():
            P = sorted((i, v) for i, v in coords.get(k, {}).items() if v)
            c = pair.get(k, 0) * fs
            if P or c:
                D = dx * dens[k] * den
                g = gcd(D, c, *(v for _, v in P))
                out[k] = tuple((i, v // g) for i, v in P), c // g, D // g
        return out

    def __call__(self, x: SuperMatrix, y: SuperMatrix) -> tuple:
        hit = self.constants(x, self.family([(0, y)])).get(0)
        if hit is None:
            return (), _F0
        P, c, D = hit
        return tuple((i, F(v, D)) for i, v in P), F(c, D)


def sharp_coords(cdata: CentralizerData, z: SuperMatrix) -> dict[GenIndex, Fraction]:
    """Coordinates of the centralizer component of z: g -> (q*_g | z), in
    generator order, zeros dropped."""
    gens = cdata.gens
    return {gens[r]: v for r, v in pairings(cdata.dual_at, z).items()}
