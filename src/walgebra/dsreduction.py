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
lambda power and interned monomial, and an int c at scale S enters it as
Fraction(c, S).  linalg solves them fraction-free: each row is cleared to
primitive ints once, eliminated on ints, and a solved x is the one Fraction
built per column.  solve_all eliminates once per weight: the columns are
every unknown of that weight, each generator's letter among them, the rows
its constraint brackets and a pin per bare variable, and each generator has
a right-hand side of its own whose pin of its letter reads 1.  That pin
makes the letter's column a pivot no other column leans on, so every other
pivot and the zeroed-free solution are those of the generator's system
alone.  Within a stage, the brackets {mu lambda W_b} of the correction
monomials do not depend on the stage generator a, so each lower b's list is
computed once, on its first pair that is not deferred, and through mu's
factors (Substitution.bracket_images): {W_c lambda W_b} once per pair of
lower generators in the stage, (-lambda)^j of it for d^j W_c, and the
left Leibniz rule for products, so mu(W) is never expanded to be
bracketed.  The realizations' constraints and the corrected brackets are
then re-verified exactly on graded ints, which determine a value over Q(k),
compared at the product of the two scales.

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
brackets read their signs from.  The final verification's self-brackets
{W_a lambda W_a} go through the engine's graded_self_bracket, the sum over
the terms x of W_a of {x lambda W_a} through x's factors, which holds on any
table; its cross pairs go through graded_bracket, the direct path that
checks the factor-wise one.

Substitution.  reconcile evaluates generator-side polynomials (table
targets, corrections) at the realizations through pvacore.Substitution, on
the affine table's interned monomials and its Leibniz engine's product memo,
and reads from it the images d^k of factors and products that the
factor-wise brackets multiply by.  Each term carries its degree s = (power
of k) - (derivative count), so an input such as a correction monomial with
derivatives and coefficient 1 (of degree -D) is carried exactly; the systems
read its graded values at k=1, and only the applied corrections and the
final verification lift them to k^(s + D).  One Substitution serves one
mapping: a stage of the weight ladder, with one more per override of a stage
letter by a correction monomial's image, and the final verification; the
images of d^n(letter), of whole monomials and of their derivatives are
memoized for that lifetime.  The affine engine's bracket memos are dropped
when reconcile returns; its skew verdict and Jacobi orbits stay.
"""

from __future__ import annotations

from collections import ChainMap, namedtuple
from fractions import Fraction
from math import lcm

from .coeffs import Coeff, ONE
from .errors import NoSolution, WAlgebraError
from .liestruct import AlgebraCtx, GenIndex, StructureKernel, SuperMatrix, pairing_index
from .linalg import System
from .pvacore import (
    BracketTable,
    DiffPoly,
    LambdaPoly,
    Substitution,
    check_skew,
    extend_bracket,
)

_F1 = Fraction(1)


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


class GeneratorSolution:
    """Pinned realizations W_a of every generator."""

    def __init__(self, solutions: dict):
        self.solutions = solutions  # GenIndex -> DiffPoly


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
        dual rungs with f as one more row gives all three."""
        if self._affine is not None:
            return self._affine
        ctx, p_vars, cd = self.ctx, self.p_vars, self.cdata
        kernel = StructureKernel(ctx, pairing_index(
            ctx, [cd.dualFamily[v.g][v.n] for v in p_vars] + [ctx.f]))
        f_row = len(p_vars)  # the index of f
        entries = {}
        for u in self.variables:
            mu = self.matrix[u]
            for v in self.variables:
                coords, pairing = kernel(mu, self.matrix[v])
                coeffs: dict[int, DiffPoly] = {}
                if coords:
                    coeffs[0] = DiffPoly({((p_vars[i], 0),) if i < f_row else (): Coeff.of(c)
                                          for i, c in coords})
                if pairing:
                    coeffs[1] = DiffPoly.constant(Coeff.level(1, pairing))
                entries[(u, v)] = LambdaPoly(coeffs)
        self._affine = BracketTable(self.variables, entries)
        return self._affine

    def unknowns(self, t: Fraction) -> list:
        """The weight-t monomials over p_vars with their graded values in the
        affine engine, enumerated once per weight."""
        if t not in self._unknowns:
            graded = self.affine_table()._leibniz().graded
            self._unknowns[t] = [(m, graded(DiffPoly({m: ONE})))
                                 for m in weight_monomials(self.p_vars, lambda v: v.weight, t)]
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


def _add_rows(system: System, tag, col: int | None, scale: int, slots: dict,
              sign: int = 1) -> None:
    """sign * the k=1 value of the engine's ints {lambda power: {degree:
    {interned monomial: int}}} at `scale` into the rows keyed (tag, lambda
    power, monomial): an int c adds Fraction(c, scale)."""
    for n, parts in slots.items():
        for p in parts.values():
            for m, c in p.items():
                system.add((tag, n, m), col, Fraction(sign * c, scale))


def _agrees(got: tuple, want: dict) -> bool:
    """Whether a graded bracket (scale, {n: {degree: {monomial: int}}})
    equals want, {n: graded value (scale, {degree: {monomial: int}})}: each
    lambda power n compared on ints at the product of the two scales."""
    S, slots = got
    for n in slots.keys() | want.keys():
        Sw, parts = want.get(n, (1, {}))
        if ({(s, m): c * Sw for s, p in slots.get(n, {}).items() for m, c in p.items()}
                != {(s, m): c * S for s, p in parts.items() for m, c in p.items()}):
            return False
    return True


def _lifted(mono: tuple, x: Fraction) -> Coeff:
    """The solved k=1 value x of the unknown of mono, times k^(derivative
    count of mono)."""
    return Coeff.level(sum(d for _, d in mono), x)


# ---------------------------------------------------------------------------
# generator construction


def solve_all(rctx: ReductionCtx) -> GeneratorSolution:
    """Realize every generator: W_a = a + (weight-homogeneous correction over
    the positive-weight variables) annihilated by every constraint bracket,
    every free coefficient pinned to zero.  One elimination per weight t: its
    columns are all the weight-t unknowns, its rows the constraint brackets
    and a pin of each bare variable, and each generator a of weight t has a
    right-hand side of its own, whose pin of a reads 1 and every other 0.
    The pin makes a's column a pivot that no other column depends on, so the
    other pivots and the zeroed-free solution are those of a's system alone.
    The realizations' constraints are then re-verified one by one, in
    generator order, and the first failure raises NoSolution."""
    engine = rctx.affine_table()._leibniz()
    gens = rctx.cdata.gens
    nv_vals = [(nv, engine.graded(DiffPoly.variable(nv))) for nv in rctx.n_vars]
    solved: dict = {}
    for t in dict.fromkeys(g.t for g in gens):
        stage = [g for g in gens if g.t == t]
        unknowns = rctx.unknowns(t)
        system = System()
        for nv, nv_val in nv_vals:
            for col, (_, val) in enumerate(unknowns):
                _add_rows(system, nv, col, *engine.graded_bracket(nv_val, val))
        side = {((AffVar(a, 0), 0),): j for j, a in enumerate(stage)}
        for col, (m, _) in enumerate(unknowns):
            if len(m) == 1 and m[0][1] == 0:
                system.add(("pin", m), col, _F1)
                if m in side:
                    system.add(("pin", m), None, -_F1, side[m])
        for a, sol in zip(stage, system.solve_each(len(stage))):
            solved[a] = (unknowns, sol)
    out: dict = {}
    for a in gens:
        unknowns, sol = solved[a]
        if sol is None:
            raise NoSolution(f"constraint system inconsistent for {a}")
        own = ((AffVar(a, 0), 0),)
        W = out[a] = DiffPoly({own: ONE, **{unknowns[col][0]: _lifted(unknowns[col][0], x)
                                            for col, x in sol.items() if unknowns[col][0] != own}})
        # defining constraints re-verified on the solution
        W_val = engine.graded(W)
        for _, nv_val in nv_vals:
            if not _agrees(engine.graded_bracket(nv_val, W_val), {}):
                raise NoSolution(f"constraint violated after solve for {a}")
    return GeneratorSolution(out)


# ---------------------------------------------------------------------------
# reconciliation against the closed-form table


class ReconcileReport:
    """The verdict of reconcile: the corrections found, the corrected
    generators, the failure (None when ok) and the deferred equations."""

    def __init__(self, ok: bool, corrections: dict, corrected: GeneratorSolution,
                 failure: dict | None = None, deferred: list | None = None):
        self.ok = ok
        self.corrections = corrections  # GenIndex -> DiffPoly over generator letters
        self.corrected = corrected
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
    engine = rctx.affine_table()._leibniz()
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
            return ReconcileReport(False, {g: DiffPoly() for g in gens_all},
                                   GeneratorSolution({}), failure=failure)
    engine = affine._leibniz()
    base = solve_all(rctx)
    W: dict = dict(base.solutions)
    corrections: dict = {g: DiffPoly() for g in gens_all}
    deferred: list = []
    weights = sorted({g.t for g in gens_all})
    for w in weights:
        stage = [g for g in gens_all if g.t == w]
        lower = [g for g in gens_all if g.t < w]
        # correction space: weight-w monomials over strictly lower letters;
        # x[si * len(lowmonos) + mi] is the coefficient of lowmonos[mi] in
        # the correction of stage[si]
        lowmonos = weight_monomials(lower, lambda g: g.t, w)
        if not lowmonos:
            continue
        # W is fixed until the stage's solve: one substitution for the stage,
        # and one per (stage letter, correction monomial) override
        stage_W = dict(W)
        sub = Substitution(affine, stage_W)
        overrides: dict = {}
        images: dict = {}  # mi -> the image of lowmonos[mi], lifted for an override
        vals = {g: engine.graded(W[g]) for g in stage + lower}
        first_col = {g: si * len(lowmonos) for si, g in enumerate(stage)}
        # {mu lambda W_b} for every correction monomial mu, the same for
        # every a of the stage: bracketed through mu's factors on the first
        # pair (a, b) not deferred
        mono_brackets: dict = {}
        # one row per pair (a, b), lambda power and monomial, reading
        # bracket(W + x) - target(W + x), linear in x; (b, a) adds no row
        system = System()

        for a in stage:
            for b in lower:
                target = table.lookup(a, b)
                if any(l.t > w for poly in target.coeffs.values()
                       for l in _letters_of(poly)):
                    deferred += [(a, b), (b, a)]
                    continue
                _add_rows(system, (a, b), None, *engine.graded_bracket(vals[a], vals[b]))
                brs = mono_brackets.get(b)
                if brs is None:
                    brs = mono_brackets[b] = sub.bracket_images(
                        lowmonos, vals[b], lambda c, b=b: engine.graded_bracket(vals[c], vals[b]))
                for mi, br in enumerate(brs):
                    _add_rows(system, (a, b), first_col[a] + mi, *br)
                for slot, poly in target.coeffs.items():
                    S, parts = sub.graded(poly)
                    _add_rows(system, (a, b), None, S, {slot: parts}, -1)
                    # a target monomial holds at most one stage letter (two
                    # would outweigh the bracket), so target(W + x) is
                    # linear in x: substitute each correction monomial for it
                    through: dict = {}
                    for m, c in poly.terms.items():
                        l = next((l for l, _ in m if l.t == w), None)
                        if l is not None:
                            through.setdefault(l, {})[m] = c
                    for l, terms in through.items():
                        part = DiffPoly(terms)
                        for mi, mu in enumerate(lowmonos):
                            over = overrides.get((l, mi))
                            if over is None:
                                mu_W = images.get(mi)
                                if mu_W is None:
                                    mu_W = images[mi] = sub(DiffPoly({mu: ONE}))
                                over = overrides[(l, mi)] = Substitution(
                                    affine, ChainMap({l: mu_W}, stage_W))
                            S, parts = over.graded(part)
                            _add_rows(system, (a, b), first_col[l] + mi, S,
                                      {slot: parts}, -1)

        sol = system.solve()
        if sol is None:
            return ReconcileReport(
                False, corrections, GeneratorSolution(W),
                failure={"stage": w, "reason": "correction system inconsistent"},
                deferred=deferred,
            )
        for g in stage:
            col = first_col[g]
            corrections[g] = DiffPoly({mu: _lifted(mu, sol[col + mi])
                                       for mi, mu in enumerate(lowmonos) if col + mi in sol})
            if corrections[g]:
                W[g] = W[g] + sub(corrections[g])

    corrected = GeneratorSolution(W)
    # full verification on graded ints, each unordered pair once, in the
    # stages' orientation (the later generator first): a cross pair by
    # graded_bracket, a self-bracket through its terms' factors
    sub = Substitution(affine, W)
    vals = {g: engine.graded(W[g]) for g in gens_all}
    for i, a in enumerate(gens_all):
        for b in gens_all[:i + 1]:
            target = table.lookup(a, b)
            want = {n: sub.graded(p) for n, p in target.coeffs.items()}
            got = (engine.graded_self_bracket(vals[a]) if b == a
                   else engine.graded_bracket(vals[a], vals[b]))
            if not _agrees(got, want):
                want = LambdaPoly({n: sub(p) for n, p in target.coeffs.items()})
                return ReconcileReport(False, corrections, corrected, deferred=deferred, failure={
                    "pair": (a, b), "got": reduced_bracket(rctx, W[a], W[b]), "want": want})
    return ReconcileReport(True, corrections, corrected, deferred=deferred)
