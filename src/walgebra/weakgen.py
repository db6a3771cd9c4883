"""Weak generating sets and mechanical recovery of the full generator family.

The algebra carries one strong generator per centralizer basis element.  A
much smaller subset already *weakly* generates: iterated n-th products of the
subset reproduce every strong generator inside the linear terms of derived
elements.  This module

  * builds the two standard small subsets for a given block shape -- the
    "big" flavor made of top-weight off-diagonal elements and the "small"
    flavor made of bottom-weight ones plus one weight-3 diagonal element;
  * replays, branch by branch, the product schedule that certifies each
    subset, recording a pass/fail verdict per claimed identity
    (scripted_verify);
  * runs a generic breadth-first closure search from arbitrary seed
    elements (closure_search);
  * classifies recovery coefficients c*k^m by their dependence on the level
    k (coefficient_genericity).

Bookkeeping convention: after each product only the *linear* part of the
result is kept.  A generator counts as recovered once some derived element
carries it in its linear term with a coefficient that does not vanish at
level k = 1; from then on the pure generator itself is available as an input
to later products.  The level is a grading, so a linear term is k^m times its
values at k = 1, m fixed by the product (BracketTable.linear_product).  All
linear-algebra decisions (separating diagonal combinations, and the
pass/fail checks) are made exactly, over rationals, on those k = 1 values;
a Coeff c*k^m is built only where a result is recorded.

The closure search decides on ints.  Its pool elements carry their k = 1
values cleared once (BracketTable.clear), and a product is the ints of
BracketTable.linear_ints, the summation linear_product wraps; it is lifted
to Fractions only when its support holds an unrecovered generator, the
case in which it joins the pool.  A candidate (n, product weight) whose
weight slice has nothing left to recover is counted in products_tried but
not formed: by the conformal grading the product's linear part lies in
that slice.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import ONE, Coeff
from .errors import ScheduleInapplicable, UnknownGenerator, WAlgebraError
from .linalg import System
from .liestruct import AlgebraCtx, CentralizerData, GenIndex
from .pvacore import BracketTable

F = Fraction
_F0 = F(0)
_F1 = F(1)

BIG = "big"
SMALL = "small"
FLAVORS = (BIG, SMALL)


# ---------------------------------------------------------------------------
# genericity of recovery coefficients


class GenericityReport(namedtuple("GenericityReport", "kind roots", defaults=((),))):
    """How a recovery coefficient c*k^m depends on the level k.

    kind is "identicallyZero" or "nonzeroAtOne"; roots lists the levels where
    it vanishes, (0,) when m > 0.  The report schema keeps the kind
    "vanishingSet" (nonzero, zero at k=1), which no single power has."""

    __slots__ = ()


def coefficient_genericity(c: Coeff) -> GenericityReport:
    """Classify a recovery coefficient c*k^m: identically zero, or nonzero at
    k=1 with the root k=0 when m > 0.  ValueError for a coefficient with more
    than one term, which the grading rules out."""
    c = Coeff.of(c)
    if not c:
        return GenericityReport("identicallyZero")
    if any(c.num[:-1]):
        raise ValueError(f"recovery coefficient {c} is not a single power of the level")
    return GenericityReport("nonzeroAtOne", (_F0,) if len(c.num) > 1 else ())


# ---------------------------------------------------------------------------
# the weak generating sets


def _max_block(ctx: AlgebraCtx) -> int:
    """1-based index of the reference block: the leading block of whichever
    parity group starts larger (ties -> the first group)."""
    sizes = ctx.spec.sizes
    d1 = ctx.spec.d1
    if d1 and d1 < len(sizes) and sizes[d1] > sizes[0]:
        return d1 + 1
    return 1


def weak_set(ctx: AlgebraCtx, flavor: str) -> list:
    """The weak generating set of the given flavor for this block shape.

    big:   per adjacent block pair (i,i+1), both off-diagonal elements of
           weight (m_i+m_{i+1})/2; when the first two blocks have equal size
           the (2,1)-side element of the first pair is lowered to weight
           m_1 - 1.
    small: one weight-3 diagonal element on the reference block (omitted when
           that block has size <= 2), plus per adjacent pair both bottom
           off-diagonal elements of weight |m_i-m_{i+1}|/2 + 1; when the
           first two blocks have equal size the (2,1)-side element of the
           first pair is raised to weight 2.

    ScheduleInapplicable when the set names a generator this shape lacks:
    the small set's raised element on a leading pair of size-1 blocks.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown weak-set flavor {flavor!r}")
    sizes = ctx.spec.sizes
    d = len(sizes)
    out: list = []
    if flavor == SMALL:
        l = _max_block(ctx)
        if sizes[l - 1] >= 3:
            out.append(ctx.gen(3, l, l))
    for i in range(1, d):
        a, b = sizes[i - 1], sizes[i]
        if flavor == BIG:
            w = F(a + b, 2)
            pair = [ctx.gen(w, i, i + 1), ctx.gen(w, i + 1, i)]
            if i == 1 and a == b:
                pair[1] = ctx.gen(a - 1, 2, 1)
        else:
            w = F(abs(a - b), 2) + 1
            pair = [ctx.gen(w, i, i + 1), ctx.gen(w, i + 1, i)]
            if i == 1 and a == b:
                pair[1] = ctx.gen(2, 2, 1)
        pair.sort(key=lambda g: g.sort_key())
        out.extend(pair)
    # weight-0 indices can only arise from the equal-size replacement on a
    # degenerate shape; drop them rather than emit a nonexistent generator
    out = [g for g in out if g.t >= 1]
    have = ctx.centralizer().delta
    for g in out:
        if g not in have:
            raise ScheduleInapplicable(f"the {flavor} weak set names {g}, which this shape lacks")
    return out


# ---------------------------------------------------------------------------
# derivation records


class IdentityCheck:
    """One step of the schedule together with its claimed outcome."""

    def __init__(self, label: str, expression: str, n: int, expected: str, passed: bool,
                 note: str = "", linear: dict | None = None):
        self.label = label
        self.expression = expression
        self.n = n
        self.expected = expected
        self.passed = passed
        self.note = note
        self.linear = {} if linear is None else linear  # GenIndex -> Coeff


class Recovery(namedtuple("Recovery", "gen expression coeff genericity")):
    """How a generator was recovered: its GenIndex, the expression, the Coeff
    it came with and that coefficient's GenericityReport."""

    __slots__ = ()


class DerivationReport:
    """A scripted schedule's run: its identities, what it recovered and what
    it missed."""

    def __init__(self, flavor: str, branch: str, weak_set: list, identities: list,
                 recovered: dict, missing: list):
        self.flavor = flavor
        self.branch = branch
        self.weak_set = weak_set
        self.identities = identities
        self.recovered = recovered  # GenIndex -> Recovery, in recovery order
        self.missing = missing

    @property
    def ok(self) -> bool:
        return not self.missing

    @property
    def all_identities_passed(self) -> bool:
        return all(c.passed for c in self.identities)

    def summary(self) -> str:
        head = f"scripted {self.flavor} [{self.branch}]: "
        head += "PASS" if self.ok else "FAIL"
        head += (
            f" ({len(self.recovered)} recovered, {len(self.missing)} missing,"
            f" {sum(1 for c in self.identities if not c.passed)} failed identities)"
        )
        return head


class _Vec(namedtuple("_Vec", "label lt1 weight power")):
    """A derived homogeneous element of the given weight, tracked through its
    linear term: k^power times its values lt1 (GenIndex -> Fraction) at k=1."""

    __slots__ = ()


class _Run:
    """Shared machinery for replaying a product schedule."""

    def __init__(self, ctx: AlgebraCtx, cdata: CentralizerData, table: BracketTable, flavor: str):
        self.ctx = ctx
        self.cdata = cdata
        self.table = table
        self.flavor = flavor
        self.sizes = ctx.spec.sizes
        self.d = len(self.sizes)
        self.identities: list = []
        self.recovered: dict = {}
        self.pool: dict = {}  # weight -> list of _Vec
        self._nv = 0

    # -- element plumbing --------------------------------------------------

    def g(self, t, i, j):
        """The generator index (t; i,j) if this shape has it, else None."""
        gi = self.ctx.gen(t, i, j)
        return gi if gi in self.cdata.delta else None

    def bank(self, gi: GenIndex, expression: str, coeff: Coeff):
        if gi not in self.recovered:
            self.recovered[gi] = Recovery(gi, expression, coeff, coefficient_genericity(coeff))

    def seed(self, gi: GenIndex):
        self.bank(gi, f"seed {gi}", ONE)

    def have(self, gi) -> bool:
        return gi is not None and gi in self.recovered

    def pure(self, gi) -> dict:
        return {gi: _F1}

    # -- checked steps ------------------------------------------------------

    def _record(self, label, expr, n, expected, passed, note, m=0, lt1=()):
        """Record one identity; its linear term is k^m times the values lt1."""
        linear = {gi: Coeff.level(m, lt1[gi]) for gi in lt1}
        self.identities.append(IdentityCheck(label, expr, n, expected, bool(passed), note, linear))
        return bool(passed)

    def single(self, label, aname, ca, bname, cb, n, target) -> bool:
        """Product claimed proportional to one generator; bank it on success."""
        expr = f"({aname})_({n})({bname})"
        if target is None:
            return self._record(label, expr, n, "target generator absent", False,
                                "target index does not exist for this shape")
        m, lt1 = self.table.linear_product(ca, cb, n)
        stray = [gi for gi in lt1 if gi != target]
        ok = target in lt1 and not stray
        note = ""
        if stray:
            note = "extra linear support: " + ", ".join(str(s) for s in stray)
        elif target not in lt1:
            note = "target coefficient vanishes at k=1"
        if ok:
            self.bank(target, expr, Coeff.level(m, lt1[target]))
        return self._record(label, expr, n, f"~ {target}", ok, note, m, lt1)

    def combo(self, label, aname, ca, bname, cb, n, weight, ratio=None, ratio_blocks=None,
              magnitude_only=False, collect_only=False):
        """Product claimed to land in one weight slice; pooled for separation.

        ratio, when given, asserts the coefficient of the second block's
        weight-2 diagonal element over the first block's (or pure
        proportionality when only one of the two exists).  collect_only marks
        products gathered merely as slice-separation material: a vanishing
        linear term is then recorded but not counted as a failure."""
        expr = f"({aname})_({n})({bname})"
        m, lt1 = self.table.linear_product(ca, cb, n)
        weight = F(weight)
        note = ""
        ok = bool(lt1)
        if not ok:
            note = "linear term vanishes at k=1"
        elif any(gi.weight != weight for gi in lt1):
            ok = False
            note = "linear support off the expected weight slice"
            self._record(label, expr, n, f"element of the weight-{weight} slice",
                         False, note, m, lt1)
            return None
        if ok and ratio is not None and ratio_blocks is not None:
            bj, bl = ratio_blocks
            gj, gl = self.g(2, bj, bj), self.g(2, bl, bl)
            if gj is not None and gl is not None:
                cj, cl = lt1.get(gj), lt1.get(gl)
                if not cj or not cl:
                    ok, note = False, "expected both weight-2 diagonal coefficients nonzero"
                else:
                    got = cl / cj
                    if magnitude_only:
                        if got not in (ratio, -ratio):
                            ok, note = False, f"coefficient ratio {got}, expected +-({ratio})"
                        else:
                            note = f"coefficient ratio {got}"
                    elif got != ratio:
                        ok, note = False, f"coefficient ratio {got}, expected {ratio}"
                    else:
                        note = f"coefficient ratio {got}"
            elif gj is not None or gl is not None:
                present = gj if gj is not None else gl
                if len(lt1) != 1 or present not in lt1:
                    ok, note = False, f"expected pure multiple of {present}"
                else:
                    note = f"pure multiple of {present} (partner block too small)"
        vec = None
        if lt1 and ok:
            self._nv += 1
            vec = _Vec(f"V{self._nv}", lt1, weight, m)
            self.pool.setdefault(weight, []).append(vec)
            expr = f"{vec.label} := {expr}"
        expected = (f"separation material for the weight-{weight} slice"
                    if collect_only else f"combination in the weight-{weight} slice")
        self._record(label, expr, n, expected, ok or collect_only, note, m, lt1)
        return vec

    def solve_slice(self, weight):
        """Separate every still-missing generator of one weight slice that is
        an exact rational combination (at k=1) of the pooled vectors there,
        allowing already-recovered generators to be subtracted freely.  Each
        multiplier x of a vector k^p * (its k=1 values) is lifted to
        x*k^(P-p), P the largest p, so the combination is k^P times the
        target at every level: its coefficient is exactly k^P, since the
        x times the vectors' k=1 values of the target sum to 1."""
        weight = F(weight)
        vecs = self.pool.get(weight, [])
        if not vecs:
            return
        slice_gens = [gi for gi in self.cdata.gens if gi.weight == weight]
        for target in [gi for gi in slice_gens if gi not in self.recovered]:
            missing = [gi for gi in slice_gens if gi not in self.recovered]
            system = System()
            for gi in missing:
                for i, v in enumerate(vecs):
                    if gi in v.lt1:
                        system.add(gi, i, v.lt1[gi])
            system.add(target, None, -_F1)
            sol = system.solve()
            if sol is None:
                continue
            top = max((vecs[i].power for i in sol), default=0)
            parts = [f"({Coeff.level(top - vecs[i].power, x)})*{vecs[i].label}"
                     for i, x in sorted(sol.items())]
            self.bank(target, " + ".join(parts) if parts else "0", Coeff.level(top))

    def claim_slice(self, label, weight):
        """Record the claim that the diagonal part of a weight slice is now
        separated (off-diagonal rungs are claimed individually instead)."""
        weight = F(weight)
        missing = [gi for gi in self.cdata.gens
                   if gi.weight == weight and gi.i == gi.j and gi not in self.recovered]
        note = "" if not missing else "unresolved: " + ", ".join(str(g) for g in missing)
        self._record(label, f"linear algebra over the pooled weight-{weight} vectors", -1,
                     f"diagonal weight-{weight} generators all separated", not missing, note)

    def finish(self, branch: str) -> DerivationReport:
        ws = weak_set(self.ctx, self.flavor)
        order = {gi: k for k, gi in enumerate(self.cdata.gens)}
        missing = [gi for gi in self.cdata.gens if gi not in self.recovered]
        missing.sort(key=lambda gi: order[gi])
        return DerivationReport(self.flavor, branch, ws, self.identities, self.recovered, missing)


def _pair_ratio_big(run: _Run, j: int):
    """Expected weight-2 diagonal coefficient ratio (second block over first)
    for the leading adjacent pair of the top-weight schedule; the sign flips
    when the pair couples the two parity groups."""
    a, b = run.sizes[j - 1], run.sizes[j]
    sign = -1 if run.ctx.shape.pair_parity(j, j + 1) else 1
    if a == b:
        return F(-sign)
    return F(sign * a * (a + 1), b * (b + 1))


def _pair_ratio_small(run: _Run, j: int):
    a, b = run.sizes[j - 1], run.sizes[j]
    sign = -1 if run.ctx.shape.pair_parity(j, j + 1) else 1
    if a == b:
        return F(-sign)
    return F(-sign * a * (a - 1), b * (b + 1))


def _anchor(run: _Run, *blocks):
    """First recovered weight-2 diagonal element among the given blocks."""
    for b in blocks:
        gi = run.g(2, b, b)
        if run.have(gi):
            return gi
    return None


# ---------------------------------------------------------------------------
# the top-weight ("big") schedule


def _big_pair(run: _Run, j: int):
    """Weight-2 material from adjacent pair (j, j+1), plus the one-rung
    lowering of its off-diagonal ladder, then incremental separation."""
    a, b = run.sizes[j - 1], run.sizes[j]
    if a == b == 1:
        return  # no weight-2 content for this pair
    w = F(a + b, 2)
    first = j == 1
    ratio = _pair_ratio_big(run, j) if first else None
    if a != b:
        A, B = run.g(w, j, j + 1), run.g(w, j + 1, j)
        c1 = run.combo(f"pair({j},{j+1}) top product", str(A), run.pure(A), str(B), run.pure(B),
                       a + b - 3, 2, ratio=ratio, ratio_blocks=(j, j + 1))
        if min(a, b) >= 2 and c1 is not None:
            lowA = run.g(w - 1, j, j + 1)
            lowB = run.g(w - 1, j + 1, j)
            okA = run.single(f"pair({j},{j+1}) lower (1,2)-side", c1.label, c1.lt1, str(A),
                             run.pure(A), 2, lowA)
            okB = run.single(f"pair({j},{j+1}) lower (2,1)-side", c1.label, c1.lt1, str(B),
                             run.pure(B), 2, lowB)
            if okA and okB:
                run.combo(f"pair({j},{j+1}) lowered product", str(lowA), run.pure(lowA),
                          str(lowB), run.pure(lowB), a + b - 5, 2)
    else:
        m = a
        A = run.g(w, j, j + 1)
        Bp = run.g(m - 1, j + 1, j)
        if not first:
            # later equal pair: both top elements are seeds; pre-lower the
            # (2,1)-side to mirror the leading-pair recipe
            anch = _anchor(run, j, j + 1)
            topB = run.g(w, j + 1, j)
            if anch is None:
                return
            if not run.have(Bp):
                run.single(f"pair({j},{j+1}) pre-lower (2,1)-side", str(anch), run.pure(anch),
                           str(topB), run.pure(topB), 2, Bp)
            if not run.have(Bp):
                return
        c1 = run.combo(f"pair({j},{j+1}) mixed product", str(A), run.pure(A), str(Bp),
                       run.pure(Bp), 2 * m - 4, 2, ratio=ratio, ratio_blocks=(j, j + 1))
        if c1 is None:
            return
        lowA = run.g(w - 1, j, j + 1)
        run.single(f"pair({j},{j+1}) lower (1,2)-side", c1.label, c1.lt1, str(A), run.pure(A),
                   2, lowA)
        if m >= 3:
            if run.have(lowA):
                run.combo(f"pair({j},{j+1}) lowered product", str(lowA), run.pure(lowA),
                          str(Bp), run.pure(Bp), 2 * m - 5, 2)
        else:
            # size-2 blocks: raise the lowered side back to the top, then use
            # the first product of the two top elements as the second vector
            topB = run.g(m, j + 1, j)
            if not run.have(topB):
                run.single(f"pair({j},{j+1}) raise (2,1)-side", c1.label, c1.lt1, str(Bp),
                           run.pure(Bp), 0, topB)
            if run.have(topB):
                run.combo(f"pair({j},{j+1}) top product", str(A), run.pure(A), str(topB),
                          run.pure(topB), 2 * m - 3, 2)
    run.solve_slice(2)
    # equal leading pair with m >= 3: the top (2,1)-side element is absent
    # from the weak set; recover it by raising once the anchor is separated
    if first and a == b and a >= 3:
        anch = _anchor(run, j, j + 1)
        topB = run.g(w, j + 1, j)
        Bp = run.g(a - 1, j + 1, j)
        if anch is not None and not run.have(topB):
            run.single(f"pair({j},{j+1}) raise (2,1)-side", str(anch), run.pure(anch),
                       str(Bp), run.pure(Bp), 0, topB)


def _ladder_fill(run: _Run, r: int, c: int):
    """Complete the off-diagonal ladder of block pair (r,c) from its banked
    rungs: lower with second products against a weight-2 diagonal anchor,
    raise with zeroth products."""
    mr, mc = run.sizes[r - 1], run.sizes[c - 1]
    lo = F(abs(mr - mc), 2) + 1
    hi = F(mr + mc, 2)
    if lo > hi:
        return
    anch = _anchor(run, r, c)
    if anch is None:
        return
    t = hi
    while t > lo:
        cur, below = run.g(t, r, c), run.g(t - 1, r, c)
        if run.have(cur) and not run.have(below):
            run.single(f"ladder({r},{c}) lower to weight {t-1}", str(anch), run.pure(anch),
                       str(cur), run.pure(cur), 2, below)
        t -= 1
    t = lo
    while t < hi:
        cur, above = run.g(t, r, c), run.g(t + 1, r, c)
        if run.have(cur) and not run.have(above):
            run.single(f"ladder({r},{c}) raise to weight {t+1}", str(anch), run.pure(anch),
                       str(cur), run.pure(cur), 0, above)
        t += 1


def _lowest(run: _Run, r: int, c: int):
    """Lowest banked rung of the (r,c) off-diagonal ladder."""
    mr, mc = run.sizes[r - 1], run.sizes[c - 1]
    t = F(abs(mr - mc), 2) + 1
    hi = F(mr + mc, 2)
    while t <= hi:
        gi = run.g(t, r, c)
        if run.have(gi):
            return gi
        t += 1
    return None


def _distant_blocks(run: _Run):
    """Recover non-adjacent off-diagonal families by composing banked rungs
    of shorter hops with a zeroth product, then filling each ladder."""
    d = run.d
    for gap in range(2, d):
        for r in range(1, d + 1):
            for c in range(1, d + 1):
                if abs(r - c) != gap:
                    continue
                mid = c + 1 if r > c else c - 1
                left = _lowest(run, mid, c)
                right = _lowest(run, r, mid)
                if left is None or right is None:
                    continue
                land = left.weight + right.weight - 1
                target = run.g(land, r, c)
                run.single(f"hop({r},{c}) via block {mid}", str(left), run.pure(left),
                           str(right), run.pure(right), 0, target)
                _ladder_fill(run, r, c)


def _big_towers(run: _Run):
    """Diagonal slices of weight 1 and >= 3 from adjacent-pair products."""
    tmax = max(run.sizes)
    for t in [1] + list(range(3, tmax + 1)):
        wt = F(t)
        if all(run.have(gi) for gi in run.cdata.gens if gi.weight == wt):
            continue
        for j in range(1, run.d):
            a, b = run.sizes[j - 1], run.sizes[j]
            w = F(a + b, 2)
            if a != b:
                tops = (run.g(w, j, j + 1), run.g(w, j + 1, j))
                lows = (run.g(w - 1, j, j + 1), run.g(w - 1, j + 1, j))
                fams = [(tops, a + b - t - 1), (lows, a + b - t - 3)]
            else:
                m = a
                A = run.g(w, j, j + 1)
                Bp = run.g(m - 1, j + 1, j)
                topB = run.g(w, j + 1, j)
                lowA = run.g(w - 1, j, j + 1)
                fams = [((A, Bp), 2 * m - t - 2), ((lowA, Bp), 2 * m - t - 3),
                        ((A, topB), 2 * m - t - 1)]
            for (xa, xb), n in fams:
                if xa is None or xb is None or n < 0:
                    continue
                if not (run.have(xa) and run.have(xb)):
                    continue
                run.combo(f"tower weight {t} from pair ({j},{j+1})", str(xa), run.pure(xa),
                          str(xb), run.pure(xb), n, wt, collect_only=True)
        run.solve_slice(wt)
        run.claim_slice(f"tower weight {t} separation", wt)


def _run_big(run: _Run) -> DerivationReport:
    if run.d < 2:
        raise ScheduleInapplicable("the top-weight schedule needs at least two blocks")
    for gi in weak_set(run.ctx, BIG):
        run.seed(gi)
    branch = "equal leading pair" if run.sizes[0] == run.sizes[1] else "descending leading pair"
    if run.ctx.spec.kind != "sl" and run.ctx.spec.d1 == 1:
        branch += ", parity boundary at the leading pair"
    for j in range(1, run.d):
        _big_pair(run, j)
    run.claim_slice("weight-2 separation", 2)
    for j in range(1, run.d):
        _ladder_fill(run, j, j + 1)
        _ladder_fill(run, j + 1, j)
    _distant_blocks(run)
    _big_towers(run)
    return run.finish(branch)


# ---------------------------------------------------------------------------
# the bottom-weight ("small") schedule


def _small_pair(run: _Run, j: int):
    """Bottom elements and the weight-1/weight-2 combinations of adjacent
    pair (j, j+1), with incremental separation of the weight-2 slice."""
    a, b = run.sizes[j - 1], run.sizes[j]
    gap = abs(a - b)
    tb = F(gap, 2) + 1
    first = j == 1
    odd = bool(run.ctx.shape.pair_parity(j, j + 1))
    u = run.g(tb, j, j + 1)
    if a == b:
        vtop = run.g(2, j + 1, j)
        vbot = run.g(1, j + 1, j)
        made_combo = False
        if first:
            # the (2,1)-side bottom was replaced by a weight-2 element in the
            # weak set; recover the bottom by lowering
            anch = _anchor(run, j)
            if anch is None:
                # size-2 leading block: lower with the weight-2 combination
                c0 = run.combo(f"pair({j},{j+1}) weight-2 combination", str(u), run.pure(u),
                               str(vtop), run.pure(vtop), 0, 2,
                               ratio=_pair_ratio_small(run, j), ratio_blocks=(j, j + 1),
                               magnitude_only=odd)
                made_combo = c0 is not None
                if c0 is not None:
                    run.single(f"pair({j},{j+1}) recover bottom (2,1)-side", c0.label, c0.lt1,
                               str(vtop), run.pure(vtop), 2, vbot)
            else:
                run.single(f"pair({j},{j+1}) recover bottom (2,1)-side", str(anch),
                           run.pure(anch), str(vtop), run.pure(vtop), 2, vbot)
        else:
            # later equal pair: raise the in-set bottom to weight 2 first
            anch = _anchor(run, j, j + 1)
            if anch is not None and not run.have(vtop):
                run.single(f"pair({j},{j+1}) raise (2,1)-side", str(anch), run.pure(anch),
                           str(vbot), run.pure(vbot), 0, vtop)
        if not made_combo and run.have(vtop):
            run.combo(f"pair({j},{j+1}) weight-2 combination", str(u), run.pure(u),
                      str(vtop), run.pure(vtop), 0, 2,
                      ratio=_pair_ratio_small(run, j) if first else None,
                      ratio_blocks=(j, j + 1), magnitude_only=odd)
        v = vbot
    else:
        v = run.g(tb, j + 1, j)
        ratio = None
        if first and a > b:
            ratio = _pair_ratio_small(run, j)
        run.combo(f"pair({j},{j+1}) weight-2 combination", str(u), run.pure(u), str(v),
                  run.pure(v), gap - 1, 2, ratio=ratio, ratio_blocks=(j, j + 1),
                  magnitude_only=odd)
    if run.have(u) and run.have(v):
        run.combo(f"pair({j},{j+1}) weight-1 combination", str(u), run.pure(u), str(v),
                  run.pure(v), gap, 1)
    run.solve_slice(2)
    # a size-2 leading block leaves the weight-2 slice underdetermined:
    # mirror the top-weight schedule's second vector (raise the (1,2)-side
    # bottom with the weight-2 combination, then take the first product)
    if first and a == b == 2:
        if any(gi.weight == F(2) and not run.have(gi) for gi in run.cdata.gens):
            vecs = run.pool.get(F(2), [])
            c0 = vecs[0] if vecs else None
            utop = run.g(2, j, j + 1)
            vtop = run.g(2, j + 1, j)
            if c0 is not None and not run.have(utop):
                run.single(f"pair({j},{j+1}) raise (1,2)-side", c0.label, c0.lt1, str(u),
                           run.pure(u), 0, utop)
            if run.have(utop) and run.have(vtop):
                run.combo(f"pair({j},{j+1}) auxiliary top product", str(vtop), run.pure(vtop),
                          str(utop), run.pure(utop), 1, 2)
                run.solve_slice(2)


def _small_weight3(run: _Run):
    """Weight-3 diagonal slice: one vector per adjacent pair touching a block
    of size >= 3, separated against the already-banked reference block."""
    if all(run.have(gi) for gi in run.cdata.gens if gi.weight == F(3)):
        return
    for j in range(1, run.d):
        a, b = run.sizes[j - 1], run.sizes[j]
        if a < 3 and b < 3:
            continue
        gap = abs(a - b)
        tb = F(gap, 2) + 1
        u = run.g(tb, j, j + 1)
        if gap >= 2:
            v = run.g(tb, j + 1, j)
            if run.have(u) and run.have(v):
                run.combo(f"pair({j},{j+1}) weight-3 combination", str(u), run.pure(u),
                          str(v), run.pure(v), gap - 2, 3, collect_only=True)
        else:
            # raise the (1,2)-side bottom one rung, then take a zeroth
            # product against the (2,1)-side weight-2 rung
            anch = _anchor(run, j, j + 1)
            up = run.g(tb + 1, j, j + 1)
            if anch is not None and run.have(u) and not run.have(up):
                run.single(f"pair({j},{j+1}) raise (1,2)-side", str(anch), run.pure(anch),
                           str(u), run.pure(u), 0, up)
            w2 = run.g(2, j + 1, j) if a == b else run.g(tb, j + 1, j)
            if run.have(up) and run.have(w2):
                run.combo(f"pair({j},{j+1}) weight-3 combination", str(up), run.pure(up),
                          str(w2), run.pure(w2), 0, 3, collect_only=True)
    run.solve_slice(3)
    run.claim_slice("weight-3 separation", 3)


def _small_towers(run: _Run):
    """Diagonal towers above weight 3: first products against the weight-3
    diagonal of the same block, slice by slice."""
    tmax = max(run.sizes)
    for t in range(4, tmax + 1):
        wt = F(t)
        for j in range(1, run.d + 1):
            if run.sizes[j - 1] < t:
                continue
            g3 = run.g(3, j, j)
            below = run.g(t - 1, j, j)
            if run.have(g3) and run.have(below):
                run.combo(f"tower weight {t} on block {j}", str(g3), run.pure(g3),
                          str(below), run.pure(below), 1, wt, collect_only=True)
        run.solve_slice(wt)
        run.claim_slice(f"tower weight {t} separation", wt)


def _run_small(run: _Run) -> DerivationReport:
    sizes = run.sizes
    l = _max_block(run.ctx)
    ws = weak_set(run.ctx, SMALL)
    if not ws:
        raise ScheduleInapplicable(
            "the bottom-weight set is empty for this shape (single block of size <= 2)")
    for gi in ws:
        run.seed(gi)
    branch = []
    if sizes[l - 1] >= 3:
        branch.append(f"weight-3 element on block {l}")
    else:
        branch.append("no weight-3 element (reference block of size 2)")
    if run.d >= 2 and sizes[0] == sizes[1]:
        branch.append("equal leading pair")
    if run.ctx.spec.kind != "sl" and run.ctx.spec.d1 == 1:
        branch.append("parity boundary at the leading pair")
    P = run.g(3, l, l)
    if run.have(P):
        run.single("reference-block weight-2 anchor", str(P), run.pure(P), str(P),
                   run.pure(P), 3, run.g(2, l, l))
    for j in range(1, run.d):
        _small_pair(run, j)
    run.claim_slice("weight-2 separation", 2)
    run.solve_slice(1)
    if run.d >= 2:
        run.claim_slice("weight-1 separation", 1)
    _small_weight3(run)
    for j in range(1, run.d):
        _ladder_fill(run, j, j + 1)
        _ladder_fill(run, j + 1, j)
    _distant_blocks(run)
    _small_towers(run)
    return run.finish(", ".join(branch))


def scripted_verify(ctx: AlgebraCtx, cdata: CentralizerData, table: BracketTable,
                    flavor: str) -> DerivationReport:
    """Replay the product schedule certifying the weak set of the given
    flavor, recording one pass/fail entry per claimed identity and the
    recovery provenance of every strong generator."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown weak-set flavor {flavor!r}")
    run = _Run(ctx, cdata, table, flavor)
    if flavor == BIG:
        return _run_big(run)
    return _run_small(run)


# ---------------------------------------------------------------------------
# generic closure search


class ClosureCaps(namedtuple("ClosureCaps", "max_weight max_n max_elements")):
    """The closure search's bounds: the largest element weight (a Fraction),
    the largest n of a product and the most pool elements."""

    __slots__ = ()


def default_caps(ctx: AlgebraCtx) -> ClosureCaps:
    """Weights up to two above the tallest block; products up to twice that;
    pool bounded by a small multiple of the generator count."""
    top = max(ctx.spec.sizes) + 2
    ngen = sum(min(a, b) for a in ctx.spec.sizes for b in ctx.spec.sizes)
    return ClosureCaps(F(top), 2 * top, 4 * ngen + 16)


# ClosureStep and ClosureReport are dataclasses because the benchmark's gate
# tests build tampered copies of them with dataclasses.replace
@dataclass
class ClosureStep:
    element: str
    expression: str
    n: int
    news: list   # generators first revealed by this element
    linear: dict  # GenIndex -> Fraction at k=1
    kept: bool


@dataclass
class ClosureReport:
    seeds: list      # list of {GenIndex: Fraction}
    caps: ClosureCaps
    recovered: dict  # GenIndex -> Recovery
    missing: list
    dag: list        # list of ClosureStep
    products_tried: int = 0

    @property
    def complete(self) -> bool:
        return not self.missing

    def summary(self) -> str:
        word = "COMPLETE" if self.complete else "INCOMPLETE"
        return (f"closure: {word} ({len(self.recovered)} recovered, "
                f"{len(self.missing)} missing, {len(self.dag)} kept elements, "
                f"{self.products_tried} products tried)")


class _Node(namedtuple("_Node", "label cleared twice")):
    """A pool element: its label, BracketTable.clear of its k=1 values, and
    twice its weight, an int (weights are half-integers)."""

    __slots__ = ()


def _twice(w) -> int:
    """Twice a weight, rounded down, on ints (exact on half-integers)."""
    return 2 * w.numerator // w.denominator


def closure_search(ctx: AlgebraCtx, cdata: CentralizerData, table: BracketTable,
                   seeds, caps: ClosureCaps = None) -> ClosureReport:
    """Breadth-first weak-generation search.

    Starting from the seed elements (generator indices, or mappings from
    generator index to rational coefficient for combination seeds), walk all
    n-th products of pool elements for 0 <= n < weight(A)+weight(B) within
    the caps.  Any product whose linear term carries a not-yet-recovered
    generator with coefficient nonzero at level 1 marks that generator
    recovered, and the product's linear part joins the pool (one new
    representative per revelation, which bounds the pool by |seeds| plus the
    generator count).  The candidates are enumerated per weight sum: the
    (n, product weight) pairs of a sum are listed once per search, n
    ascending, and products_tried counts every candidate walked.

    The pool runs on ints: each element carries its k=1 values cleared once
    (BracketTable.clear), when its seed is admitted or its product kept, and
    a product is BracketTable.linear_ints of two of them; it is lifted to
    Fractions only when its int support holds an unrecovered generator.  A
    candidate whose weight slice has no unrecovered generator left is not
    formed: by the conformal grading the linear part of A_(n)B lies in
    weight w_A + w_B - n - 1, so it could reveal nothing.

    A seed coefficient must be an int or a Fraction (else WAlgebraError: a
    float or a string would run inexactly, True as 1); its zero coefficients
    are dropped, and a seed left empty is skipped.  Deterministic; stops at
    a fixpoint or at the caps."""
    if caps is None:
        caps = default_caps(ctx)
    clear, linear_ints, lift = table.clear, table.linear_ints, table.lift_linear
    rank = table.store.space.rank
    recovered: dict = {}
    dag: list = []
    nodes: list = []
    seed_coords: list = []
    top2 = _twice(caps.max_weight)
    targets = {t2 for t2 in (_twice(gi.weight) for gi in cdata.gens) if 2 <= t2 <= top2}
    todo = set(range(len(table.variables)))  # ranks not yet recovered
    left: dict = {}  # twice a weight -> its variables not yet recovered
    for v in table.variables:
        t2 = _twice(v.weight)
        left[t2] = left.get(t2, 0) + 1
    gens_order = {gi: k for k, gi in enumerate(cdata.gens)}
    walks: dict = {}

    def walk(t2):
        """(n, twice the product's weight) for the products of two elements
        whose weights sum to t2/2: n < t2/2 within max_n, n ascending."""
        hit = walks.get(t2)
        if hit is None:
            ns = range(min(caps.max_n + 1, (t2 + 1) // 2))
            hit = walks[t2] = [(n, t2 - 2 * n - 2) for n in ns if t2 - 2 * n - 2 in targets]
        return hit

    def reveal(m, lt1, expr):
        news = [gi for gi in lt1 if gi not in recovered]
        for gi in news:
            ck = Coeff.level(m, lt1[gi])
            recovered[gi] = Recovery(gi, expr, ck, coefficient_genericity(ck))
            todo.discard(rank[gi])
            left[_twice(gi.weight)] -= 1
        return news

    for k, s in enumerate(seeds):
        coords = {s: _F1} if isinstance(s, GenIndex) else dict(s)
        for gi, c in coords.items():
            if gi not in cdata.delta:
                raise UnknownGenerator(f"closure seed mentions {gi}, which this shape lacks")
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise WAlgebraError(f"closure seed coefficient {c!r} of {gi} is a"
                                    f" {type(c).__name__}; give an int or a Fraction")
        coords = {gi: F(c) for gi, c in coords.items() if c}
        if not coords:
            continue
        wt = next(iter(coords)).weight
        if any(gi.weight != wt for gi in coords):
            raise UnknownGenerator("closure seeds must be weight-homogeneous")
        label = f"S{k}"
        coords = {gi: coords[gi] for gi in sorted(coords, key=lambda g: gens_order[g])}
        cleared = clear(coords)
        news = reveal(0, coords, label)
        seed_coords.append(dict(coords))
        nodes.append(_Node(label, cleared, _twice(wt)))
        dag.append(ClosureStep(label, "seed", -1, news, dict(coords), True))

    tried = 0
    fresh_from = 0
    counter = 0
    while fresh_from < len(nodes) and len(recovered) < len(cdata.gens):
        lo = fresh_from
        fresh_from = len(nodes)
        for i in range(fresh_from):
            for k in range(fresh_from):
                if max(i, k) < lo or len(nodes) >= caps.max_elements:
                    continue
                A, B = nodes[i], nodes[k]
                for n, rw2 in walk(A.twice + B.twice):
                    tried += 1
                    if not left.get(rw2):
                        continue  # a full slice: nothing to reveal there
                    m, scale, ints = linear_ints(A.cleared, B.cleared, n)
                    if any(v and r in todo for r, v in ints.items()):
                        lt1 = lift(scale, ints)
                        expr = f"({A.label})_({n})({B.label})"
                        news = reveal(m, lt1, expr)
                        counter += 1
                        label = f"E{counter}"
                        nodes.append(_Node(label, clear(lt1), rw2))
                        dag.append(ClosureStep(label, expr, n, news, lt1, True))

    missing = [gi for gi in cdata.gens if gi not in recovered]
    return ClosureReport(seed_coords, caps, recovered, missing, dag, tried)


# ---------------------------------------------------------------------------
# extra seed presets for rectangular shapes


def reduced_rectangular_seeds(ctx: AlgebraCtx, flavor: str) -> list:
    """For d equal blocks of size m: a d-element seed family (one fewer than
    the weak sets above), mixing each non-leading adjacent element with a hop
    back to the first block.  Combination seeds for closure_search."""
    sizes = ctx.spec.sizes
    d = len(sizes)
    m = sizes[0]
    if d < 2 or any(s != m for s in sizes):
        raise ScheduleInapplicable("reduced seed preset requires equal block sizes")
    if flavor not in FLAVORS:
        raise ValueError(f"unknown weak-set flavor {flavor!r}")
    out: list = []
    if flavor == BIG:
        out.append({ctx.gen(m - 1, 2, 1): _F1})
        out.append({ctx.gen(m, 1, 2): _F1})
        for i in range(2, d):
            out.append({ctx.gen(m, i, i + 1): _F1, ctx.gen(m, i + 1, 1): _F1})
    else:
        out.append({ctx.gen(2, 2, 1): _F1})
        out.append({ctx.gen(1, 1, 2): _F1})
        for i in range(2, d):
            out.append({ctx.gen(1, i, i + 1): _F1, ctx.gen(1, i + 1, 1): _F1})
    return out
