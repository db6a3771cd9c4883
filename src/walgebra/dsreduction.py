"""First-principles construction of the W-algebra inside the affine algebra.

This is the independent oracle for the closed-form brackets: realize each
generator as a differential polynomial in the negatively-graded half of the
affine algebra by solving the defining constraints directly, compute brackets
there, and reconcile the two presentations.

Variable namespace: one variable per ladder position q_g[n] of the
centralizer strings (these span the traceless matrices).  The variable for
(g, n) has conformal weight t_g - n; positions of weight > 0 make up the
subalgebra the generators live in, positions of grade > 0 supply the
constraints.

The projection rho replaces every letter of weight <= 0 by the constant
(f | q_g[n]) and fixes the rest.  It is applied inside the affine table:
each entry is rho([u, v]) + k lambda (u|v).  The ladder families are
biorthonormal and span sl, so the coordinate of [u, v] on the letter w is
the pairing (q*_w | [u, v]) with w's dual rung q*_w; a letter of weight t
has grade 1 - t, so f pairs only with letters of weight 0, and the part of
rho([u, v]) over letters of weight <= 0 sums to (f | [u, v]).  Hence

    rho([u, v]) = sum over w in p_vars of (q*_w | [u, v]) w + (f | [u, v]),

read off without a linear solve.  The Leibniz rules only multiply
entries by factors of the two arguments (and their derivatives), and rho is
a differential-algebra morphism, so bracketing in that table equals
bracketing in the full affine algebra and projecting afterwards whenever rho
fixes every letter of the arguments.  reduced_bracket therefore takes only
arguments over the positive-weight letters (p_vars); the constraint brackets
{nv lambda W} qualify too, since a single first-slot letter is never
multiplied into the result.

Solving.  The level is a grading: give k degree 1, lambda and d degree -1
and every letter degree 0.  The affine table is then homogeneous of degree
0, the Leibniz rules preserve degree, and so is every realization W_a and
every closed-form table entry.  The unknown coefficient of a monomial m with
D derivatives is therefore x*k^D, and a linear system for these unknowns is
graded: M(k) = diag(k^r) M(1) diag(k^-c), with the same for its right-hand
side.  Its pivots, free columns and particular solution over Q(k) are those
of M(1), so solve_all and reconcile assemble every system at k=1, solve it
over Q, and lift each solved x to x*k^D.  The systems are built straight
from the affine engine's graded values (pvacore): a row is keyed by tag,
lambda power and interned monomial, and an int c at scale S enters it as c
at S, each row kept on ints at one scale (linalg.System).  linalg solves
them fraction-free, and a solved x is the one Fraction built per column
(once every unknown leads, a further row is checked by its residual).
solve_all eliminates once per weight: the columns are every unknown of that
weight, each generator's letter among them, the rows its constraint
brackets {nv lambda m}, read from the engine's {var lambda mono} memo, and a
pin per bare variable, and each generator has a right-hand side of its own
whose pin of its letter reads 1.  That pin makes the letter's column a pivot
no other column leans on, so every other pivot and the zeroed-free solution
are those of the generator's system alone.  Within a stage, the brackets
{mu lambda W_b} of the correction monomials do not depend on the stage
generator a, so each lower b's list is computed once, on its first pair that
is not deferred, and through mu's factors (Substitution.bracket_images with
the letter b): {W_c lambda W_b} once per pair of lower generators in the
stage, (-lambda)^j of it for d^j W_c, and the left Leibniz rule for
products, so mu(W) is never expanded to be bracketed.  The realizations'
constraints and the corrected brackets are then re-verified exactly on
graded ints, which determine a value over Q(k), compared at the product of
the two scales.

The slice.  De Sole-Kac-Valeri ("Structure of classical (finite and
affine) W-algebras", JEMS 2016) prove that pi, the differential-algebra
morphism that keeps the string tops q_g[0] (the letters of g^f) and sends
every other letter to zero, is injective on the W-algebra.  A stage's
residual X(x) = {W_a lambda W_b} - T_ab(W), with the unknown corrections x
in W, is linear in x and lies in the W-algebra for every x, which is closed
under products, d and the bracket; so pi(X(x)) = 0 has exactly the
solutions of X(x) = 0, and two consistent systems with one solution set
have one reduced row echelon form and one zeroed-free solution.  A stage's
rows are therefore only those over q_g[0]: its brackets run on an engine of
kept letters over the affine store (pvacore._Leibniz), which computes pi{A
lambda B} for full A and B, and which reconcile builds once and empties
after each stage; its target rows drop every other monomial.  solve_all's
constraints stay full, since they define the W-algebra, on which alone pi
is injective; the stage's Substitution, the applied corrections and the
final verification stay full too, so a wrong restriction could only make
reconcile refuse, never pass.

Skew symmetry.  reconcile first checks both tables, the closed-form and the
affine one, for {a lambda b} = S{b lambda a}, S taking lambda^n P to
-(-1)^{p(a)p(b)} (-lambda-d)^n P, and for parity: every monomial of {a
lambda b} has the parity p(a) + p(b).  The Leibniz rules keep skew symmetry,
and substitution commutes with d.  So a stage's (b, a) equation is S of its
(a, b) equation; S is invertible and free of k, so at k=1 the (b, a) rows
add nothing to the row space, and the unique reduced row echelon form, its
pivots and the zeroed-free solution are those of the (a, b) rows alone.  S
keeps letters, so both orientations are deferred together; and the final
verification over unordered pairs, (b, a) following from (a, b), is the full
one.  Parity keeps every realization homogeneous, which the factor-wise
brackets read their signs from.  The final verification brackets every
pair, {W_a lambda W_a} included, by the engine's graded_bracket, the sum
over the terms x of the left operand of {x lambda B} through x's factors,
which holds on any table and costs per term on the left.  For a != b,
X^{ba} = S X^{ab} with X^{ab} = {W_a lambda W_b} - T_ab(W), so a pair is
checked in the orientation that puts the realization of fewer terms on the
left, against the closed-form entry of that orientation.  For an even a,
X(lambda) = -X(-lambda-d) on the self-bracket fixes X_0 = -1/2 sum_{n>=1}
(-1)^n d^n X_n, and each even power from the odd ones above it, so X = 0
exactly when its parts from lambda^1 up vanish: only those are computed and
compared, the target's lambda^0 part dropped too.  An odd a leaves X_0 free,
so its self-bracket is compared in full; a self-bracket is cut only when
every term of W_a is even.  A failing pair is lifted in full, in the stages'
orientation.

Substitution.  reconcile evaluates generator-side polynomials (table
targets, corrections) at the realizations through pvacore.Substitution, on
the affine table's interned monomials and its Leibniz engine's product memo,
and reads from it the images d^k of factors and products that the
factor-wise brackets multiply by.  Every image is homogeneous, of degree s =
(power of k) - (derivative count): a realization has degree 0, a correction
monomial with D derivatives and coefficient 1 degree -D, and a target's
lambda^n part degree n.  A letter's image of two degrees is refused, and
none arises.  The systems read every value at k=1, where all degrees
coincide, so their rows ignore the degree; the final verification compares
ints and degree, exact over Q(k), and only the applied corrections and a
failure lift values to k^(s + D).  One Substitution serves one mapping: a
stage of the weight ladder that has correction monomials, and the final
verification.  It holds the realizations W_a in its letter memo and the
images of d^n(letter), of whole monomials and of their derivatives for that
lifetime, so a stage changes W only after its last image is read.  A target
monomial holds at most one stage factor d^j(l), and as its last factor:
every other letter weighs less, so it sorts first.  A correction monomial mu
enters in its place as image(rest) * d^j(mu(W)), multiplied and summed on
ints by the Substitution's times and combine.  A stage's system and bracket
memos are freed when the stage returns.  The affine engine's bracket memos
are dropped when reconcile returns; its skew verdict and Jacobi orbits
stay.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .coeffs import Coeff, ONE
from .errors import NoSolution, WAlgebraError
from .liestruct import AlgebraCtx, GenIndex, StructureKernel, SuperMatrix, pairing_index
from .linalg import System
from .pvacore import (_STRIDE, BracketTable, DiffPoly, GradedStore, LambdaPoly, Substitution,
                      VarSpace, _Leibniz, check_skew, extend_bracket)


class AffVar(namedtuple("AffVar", "g n")):
    """Ladder position q_g[n] (g a GenIndex, n an int) viewed as an affine
    variable."""

    __slots__ = ()

    @property
    def weight(self) -> Fraction:
        return self.g.t - self.n

    @property
    def parity(self) -> int:
        return self.g.parity

    def sort_key(self):
        return (*self.g.sort_key(), self.n)

    def __str__(self) -> str:
        return f"{self.g}[{self.n}]" if self.n else str(self.g)


class ReductionCtx:
    """Affine-side workspace: ladder variables, their matrices, and the
    rho-projected affine bracket table, symbolic in the level.  Refuses
    (NoSolution) a ladder whose variables cannot span sl."""

    def __init__(self, ctx: AlgebraCtx):
        self.ctx = ctx
        self.cdata = ctx.centralizer()
        cd = self.cdata
        self.variables: list[AffVar] = []
        self.matrix: dict[AffVar, SuperMatrix] = {}
        for g in cd.gens:
            fam = cd.adFPowers[g]
            for n, mat in enumerate(fam):
                v = AffVar(g, n)
                self.variables.append(v)
                self.matrix[v] = mat
        self.variables.sort(key=lambda v: v.sort_key())
        self.p_vars = [v for v in self.variables if v.weight > 0]
        self.n_vars = [v for v in self.variables if v.weight < 1]
        self._p_set = frozenset(self.p_vars)
        # biorthonormal families with N^2 - 1 members span sl, so pairing
        # with the dual rungs gives exact coordinates
        if len(self.variables) != ctx.shape.N ** 2 - 1:
            raise NoSolution(f"{len(self.variables)} ladder variables cannot span "
                             f"sl of dimension {ctx.shape.N ** 2 - 1}")
        self._affine: BracketTable | None = None
        self._unknowns: dict = {}

    # -- affine structure ------------------------------------------------------

    def affine_table(self) -> BracketTable:
        """{u lambda v} = rho([u, v]) + k*lambda*(u|v) over the ladder basis,
        rho([u, v]) read off as the pairings of [u, v] with the dual rungs of
        p_vars plus the constant (f | [u, v]): one StructureKernel over the
        dual rungs with f as one more row gives all three, in one pass per
        variable u against the family of all N^2 - 1 variable matrices.  The
        store holds them as ints at the lcm of their denominators, f's
        pairing and (u|v) at the empty monomial, graded g = 1, with no
        Fraction or DiffPoly entry built."""
        if self._affine is not None:
            return self._affine
        ctx, p_vars, cd = self.ctx, self.p_vars, self.cdata
        kernel = StructureKernel(ctx, pairing_index(
            ctx, [cd.dualFamily[v.g][v.n] for v in p_vars] + [ctx.f]))
        space = VarSpace(self.variables, _STRIDE)
        ranks = [space.rank[v] for v in self.variables]
        monos = [(space.rank[v] * _STRIDE,) for v in p_vars] + [()]  # the last for f
        family = kernel.family(zip(ranks, map(self.matrix.get, self.variables)))
        rows = [kernel.constants(self.matrix[u], family) for u in self.variables]
        L = lcm(*(D for row in rows for _, _, D in row.values()))
        ints = {}
        for ru, row in zip(ranks, rows):
            for rv in ranks:
                P, c, D = row.get(rv, ((), 0, 1))
                val = ints[(ru, rv)] = {}
                if P:
                    val[0] = {monos[i]: x * (L // D) for i, x in P}
                if c:
                    val[1] = {(): c * (L // D)}
        self._affine = BracketTable.of_store(GradedStore(space, L, 1, ints))
        return self._affine

    def unknowns(self, t: Fraction) -> list:
        """The weight-t monomials over p_vars with their (sign, interned
        monomial) in the affine engine, enumerated once per weight."""
        if t not in self._unknowns:
            code = self.affine_table().engine.space.code
            self._unknowns[t] = [(m, code(m)) for m in weight_monomials(
                self.p_vars, lambda v: v.weight, t)]
        return self._unknowns[t]


def _letters_of(poly: DiffPoly):
    for m in poly.terms:
        for v, _ in m:
            yield v


def reduced_bracket(rctx: ReductionCtx, A: DiffPoly, B: DiffPoly) -> LambdaPoly:
    """rho of the affine bracket of two generator-side elements.  Every
    letter of A and B must be of positive weight (in p_vars), where rho is
    the identity; WAlgebraError otherwise."""
    for P in (A, B):
        for v in _letters_of(P):
            if v not in rctx._p_set:
                raise WAlgebraError(f"{v} is not a positive-weight letter")
    return extend_bracket(rctx.affine_table(), A, B)


# ---------------------------------------------------------------------------
# monomial enumeration


def weight_monomials(letters: list, weight_of, target: Fraction) -> list[tuple]:
    """All canonical monomials (tuples of (letter, dpower) in normalized
    order, no repeated odd factor) over the given letters with total weight
    (letter weight + dpower summed) equal to target, each once, in
    lexicographic order of their factor sequences.  Letters of non-positive
    weight are rejected (enumeration would not terminate)."""
    letters = sorted(letters, key=lambda v: v.sort_key())
    weights = [Fraction(weight_of(v)) for v in letters]
    if any(w <= 0 for w in weights):
        raise ValueError("letters must carry positive weight")
    target = Fraction(target)
    D = lcm(target.denominator, *(w.denominator for w in weights))
    return [tuple((letters[i], d) for i, d in seq) for seq in _weight_search(
        [int(w * D) for w in weights], [v.parity for v in letters], D, int(target * D))]


def _weight_search(weights: list, odd: list, D: int, remaining: int, seq: tuple = ()):
    """The factor sequences ((letter index, dpower), ...) extending seq by
    total weight remaining, on ints over the common denominator D (a dpower
    adds D), in lexicographic order: factors non-decreasing in (index,
    dpower) and an odd factor never twice, so each monomial is one leaf of
    the search."""
    if not remaining:
        yield seq
        return
    i, d = seq[-1] if seq else (0, 0)
    for j in range(i, len(weights)):
        e = d if j == i else 0
        if odd[j] and seq and seq[-1] == (j, e):
            e += 1  # an odd factor does not repeat
        cost = weights[j] + e * D
        while cost <= remaining:
            yield from _weight_search(weights, odd, D, remaining - cost, seq + ((j, e),))
            e += 1
            cost += D


def _add_rows(system: System, tag, col: int | None, bracket: tuple, sign: int = 1) -> None:
    """sign * the k=1 value of a graded bracket (scale, s, {lambda power:
    {monomial: int}}) into the rows keyed (tag, lambda power, monomial): an
    int c enters as sign * c at the bracket's scale, no Fraction built; s is
    not read, all degrees agree at k=1."""
    scale, _, slots = bracket
    add = system.add
    for n, p in slots.items():
        for m, c in p.items():
            add((tag, n, m), col, sign * c, 0, scale)


def _add_target(system: System, key: tuple, col: int | None, value: tuple, off) -> None:
    """Minus the k=1 value of an edge value (S, {s: {monomial: int}}) at one
    lambda power into the rows keyed (*key, monomial), for the monomials with
    no factor off the slice (off(m) = 0)."""
    S, parts = value
    for p in parts.values():
        for m, c in p.items():
            if not off(m):
                system.add((*key, m), col, -c, 0, S)


def _agrees(got: tuple, want: dict) -> bool:
    """Whether a graded bracket (scale, s, {n: {monomial: int}}) of the
    affine engine (g = 1, so lambda^n sits at degree s + n) equals want, {n:
    edge value (scale, {degree: {monomial: int}})}: each lambda power n
    compared on ints and degree at the product of the two scales."""
    S, s, slots = got
    for n in slots.keys() | want.keys():
        Sw, parts = want.get(n, (1, {}))
        if ({(s + n, m): c * Sw for m, c in slots.get(n, {}).items()}
                != {(e, m): c * S for e, p in parts.items() for m, c in p.items()}):
            return False
    return True


def _lifted(mono: tuple, x: Fraction) -> Coeff:
    """The solved k=1 value x of the unknown of mono, times k^(derivative
    count of mono)."""
    return Coeff.level(sum(d for _, d in mono), x)


# ---------------------------------------------------------------------------
# generator construction


def _weight_system(rctx: ReductionCtx, stage: list) -> System:
    """solve_all's system for one weight: each constraint row {nv lambda m}
    read from the engine's {var lambda mono} memo at scale L, times m's sign,
    and the pins."""
    engine = rctx.affine_table().engine
    rank, var_mono, L = engine.space.rank, engine._var_mono, engine.L
    unknowns = rctx.unknowns(stage[0].t)
    system = System()
    for nv in rctx.n_vars:
        u = rank[nv]
        for col, (_, (sign, x)) in enumerate(unknowns):
            _add_rows(system, nv, col, (L, 0, var_mono(u, x)), sign)
    side = {((AffVar(a, 0), 0),): j for j, a in enumerate(stage)}
    for col, (m, _) in enumerate(unknowns):
        if len(m) == 1 and m[0][1] == 0:
            system.add(("pin", m), col, 1)
            if m in side:
                system.add(("pin", m), None, -1, side[m])
    return system


def solve_all(rctx: ReductionCtx) -> dict:
    """Realize every generator as {a: W_a}, W_a = a + (weight-homogeneous
    correction over the positive-weight variables) annihilated by every
    constraint bracket, every free coefficient pinned to zero.  One
    elimination per weight t: its columns are all the weight-t unknowns, its
    rows the constraint brackets and a pin of each bare variable, and each
    generator a of weight t has a right-hand side of its own, whose pin of a
    reads 1 and every other 0.  The pin makes a's column a pivot that no
    other column depends on, so the other pivots and the zeroed-free
    solution are those of a's system alone.  The realizations' constraints
    are then re-verified one by one, in generator order, and the first
    failure raises NoSolution."""
    engine = rctx.affine_table().engine
    gens = rctx.cdata.gens
    solved: dict = {}
    for t in dict.fromkeys(g.t for g in gens):
        stage = [g for g in gens if g.t == t]
        solved.update(zip(stage, _weight_system(rctx, stage).solve_each(len(stage))))
    nv_vals = [engine.graded(DiffPoly.variable(nv)) for nv in rctx.n_vars]
    out: dict = {}
    for a in gens:
        sol = solved[a]
        if sol is None:
            raise NoSolution(f"constraint system inconsistent for {a}")
        unknowns = rctx.unknowns(a.t)
        own = ((AffVar(a, 0), 0),)
        W = out[a] = DiffPoly({own: ONE, **{unknowns[col][0]: _lifted(unknowns[col][0], x)
                                            for col, x in sol.items() if unknowns[col][0] != own}})
        # defining constraints re-verified on the solution
        W_val = engine.graded(W)
        for nv_val in nv_vals:
            if not _agrees(engine.graded_bracket(nv_val, W_val), {}):
                raise NoSolution(f"constraint violated after solve for {a}")
    return out


# ---------------------------------------------------------------------------
# reconciliation against the closed-form table


class ReconcileReport:
    """The verdict of reconcile: the corrections found, the corrected
    generators, the failure (None when ok) and the deferred equations."""

    def __init__(self, ok: bool, corrections: dict, corrected: dict,
                 failure: dict | None = None, deferred: list | None = None):
        self.ok = ok
        self.corrections = corrections  # GenIndex -> DiffPoly over generator letters
        self.corrected = corrected  # GenIndex -> DiffPoly
        self.failure = failure
        self.deferred = [] if deferred is None else deferred


def reconcile(rctx: ReductionCtx, table: BracketTable) -> ReconcileReport:
    """Adjust the pinned generators by lower-weight corrections until their
    reduced brackets reproduce the closed-form table exactly.

    Both tables are first checked for skew symmetry and parity (failure
    stage "skew").  Then, up the weight ladder, the corrections enter each
    usable equation {a lambda b}, a of the stage and b lower, linearly; one
    whose target has letters of weight not yet corrected is deferred with its
    (b, a) twin (the final verification covers both).  Free correction
    coefficients are zeroed.  The affine engine's bracket memos are dropped
    before the call returns."""
    engine = rctx.affine_table().engine
    try:
        return _reconcile(rctx, table)
    finally:
        engine.drop_memos()


def _reconcile(rctx: ReductionCtx, table: BracketTable) -> ReconcileReport:
    gens_all = rctx.cdata.gens
    affine = rctx.affine_table()
    for name, tab in (("closed-form", table), ("affine", affine)):
        vs = tab.variables
        bad = check_skew(tab, [(u, v) for i, u in enumerate(vs) for v in vs[:i + 1]])
        if bad:
            failure = {"stage": "skew", "table": name, "kind": bad[0]["kind"],
                       "pair": bad[0]["pair"]}
            return ReconcileReport(False, {g: DiffPoly() for g in gens_all}, {}, failure=failure)
    W = solve_all(rctx)
    sliced = _Leibniz(affine.store, {AffVar(g, 0) for g in gens_all})  # the engine of pi
    corrections: dict = {g: DiffPoly() for g in gens_all}
    deferred: list = []
    for w in sorted({g.t for g in gens_all}):
        stage = [g for g in gens_all if g.t == w]
        lower = [g for g in gens_all if g.t < w]
        # correction space: weight-w monomials over strictly lower letters
        lowmonos = weight_monomials(lower, lambda g: g.t, w)
        if not lowmonos:
            continue
        sub = Substitution(affine, W)
        found = _stage_corrections(rctx, table, sub, sliced, stage, lower, lowmonos, deferred)
        sliced.drop_memos()
        if found is None:
            return ReconcileReport(
                False, corrections, W,
                failure={"stage": w, "reason": "correction system inconsistent"},
                deferred=deferred,
            )
        corrections.update(found)
        # every image is read before W, the mapping of sub, changes
        W.update({g: W[g] + sub(c) for g, c in found.items() if c})

    # full verification on graded ints, each unordered pair once: a distinct
    # pair with the realization of fewer terms on the left, an even
    # self-bracket from lambda^1 up; a failure is reported in the stages'
    # orientation (the later generator first)
    sub = Substitution(affine, W)
    engine = affine.engine
    for i, a in enumerate(gens_all):
        A = _image(sub, a)
        for b in gens_all[:i + 1]:
            B = _image(sub, b)
            x, y, X, Y = (b, a, B, A) if len(B[2]) < len(A[2]) else (a, b, A, B)
            low = 1 if a == b and not any(map(engine._parity, A[2])) else 0
            want = {n: sub.graded(p) for n, p in table.lookup(x, y).coeffs.items() if n >= low}
            if not _agrees(engine.graded_bracket(X, Y, low), want):
                want = LambdaPoly({n: sub(p) for n, p in table.lookup(a, b).coeffs.items()})
                return ReconcileReport(False, corrections, W, deferred=deferred, failure={
                    "pair": (a, b), "got": reduced_bracket(rctx, W[a], W[b]), "want": want})
    return ReconcileReport(True, corrections, W, deferred=deferred)


def _image(sub: Substitution, g) -> tuple:
    """The value of W_g, the image of the letter g, from sub's letter memo."""
    return sub.dpow(((g, 0),), 0)


def _replaced(sub: Substitution, part: DiffPoly, mu: tuple) -> tuple:
    """sub's image of part, each monomial of which ends in one factor
    d^j(l), with l's image replaced by the monomial mu's: the sum of c *
    image(rest) * d^j(image(mu)) over its terms c * rest * d^j(l), as an
    edge value on sub's product memo, no DiffPoly built."""
    dpow = sub.dpow
    return sub.combine((c, sub.times(dpow(m[:-1], 0), dpow(mu, m[-1][1])))
                       for m, c in part.terms.items())


def _stage_corrections(rctx: ReductionCtx, table: BracketTable, sub: Substitution,
                       sliced: _Leibniz, stage: list, lower: list, lowmonos: list,
                       deferred: list) -> dict | None:
    """The solved correction {g: DiffPoly over lowmonos} of each stage
    generator, or None when the stage's system is inconsistent; deferred
    pairs are appended to deferred.  sub maps each generator to its current
    realization; the rows are pi of each equation, its brackets computed on
    sliced, the engine of pi, and its target's monomials off the slice
    dropped.  The system and bracket memos die when this returns."""
    w, rank, off = stage[0].t, rctx.cdata.col, sliced.off
    first_col = {g: si * len(lowmonos) for si, g in enumerate(stage)}
    # {mu lambda W_b} for every correction monomial mu, the same for every a
    # of the stage: bracketed through mu's factors on the first pair (a, b)
    # not deferred
    mono_brackets: dict = {}
    # one row per pair (a, b), lambda power and monomial, reading
    # bracket(W + x) - target(W + x), linear in x; (b, a) adds no row.  The
    # pair is tagged by its ranks, which hash without Weights
    system = System()
    for a in stage:
        for b in lower:
            target = table.lookup(a, b)
            if any(l.t > w for poly in target.coeffs.values() for l in _letters_of(poly)):
                deferred += [(a, b), (b, a)]
                continue
            tag = (rank[a], rank[b])
            _add_rows(system, tag, None, sliced.graded_bracket(_image(sub, a), _image(sub, b)))
            brs = mono_brackets.get(b)
            if brs is None:
                brs = mono_brackets[b] = sub.bracket_images(lowmonos, b, sliced)
            for mi, br in enumerate(brs):
                _add_rows(system, tag, first_col[a] + mi, br)
            for slot, poly in target.coeffs.items():
                _add_target(system, (tag, slot), None, sub.graded(poly), off)
                # a target monomial holds at most one stage letter (two would
                # outweigh the bracket), and holds it last as d^j(l): every
                # other letter weighs less, so it sorts first.  target(W + x)
                # is therefore linear in x: put each correction monomial in
                # that letter's place
                split: dict = {}  # stage letter -> the part of poly that ends in it
                for m, c in poly.terms.items():
                    if m and m[-1][0].t == w:
                        split.setdefault(m[-1][0], DiffPoly()).terms[m] = c
                for l, part in split.items():
                    for mi, mu in enumerate(lowmonos):
                        _add_target(system, (tag, slot), first_col[l] + mi,
                                    _replaced(sub, part, mu), off)
    sol = system.solve()
    return None if sol is None else {g: DiffPoly({
        mu: _lifted(mu, sol[col + mi]) for mi, mu in enumerate(lowmonos) if col + mi in sol})
        for g, col in first_col.items()}
