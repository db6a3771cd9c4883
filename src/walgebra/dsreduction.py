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
of M(1), so solve_generator and reconcile assemble every system at k=1,
solve it over Q, and lift each solved x to x*k^D.  The constraints of each
realization and every bracket of the corrected realizations are then
re-verified exactly, symbolic in k.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .coeffs import Coeff, ONE
from .errors import NoSolution, WAlgebraError
from .liestruct import AlgebraCtx, GenIndex, SuperMatrix, pairing_index, pairings
from .linalg import System
from .pvacore import (
    BracketTable,
    DiffPoly,
    LambdaPoly,
    apply_partial,
    extend_bracket,
    normalize_factors,
    substitute,
)

# A differential polynomial over the ladder-position variables.
VpPoly = DiffPoly

_F1 = Fraction(1)


class AffVar(NamedTuple):
    """Ladder position q_g[n] viewed as an affine variable."""

    g: GenIndex
    n: int

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


@dataclass
class GeneratorSolution:
    """Pinned realizations W_a of every generator."""

    solutions: dict  # GenIndex -> VpPoly


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
        self._p_index = pairing_index(
            ctx, [cd.dualFamily[v.g][v.n] for v in self.p_vars])
        self._affine: Optional[BracketTable] = None

    # -- affine structure ------------------------------------------------------

    def affine_table(self) -> BracketTable:
        """{u lambda v} = rho([u, v]) + k*lambda*(u|v) over the ladder basis,
        rho([u, v]) read off as the pairings of [u, v] with the dual rungs of
        p_vars plus the constant (f | [u, v])."""
        if self._affine is not None:
            return self._affine
        ctx, p_vars = self.ctx, self.p_vars
        entries = {}
        for u in self.variables:
            mu = self.matrix[u]
            for v in self.variables:
                mv = self.matrix[v]
                br = mu.comm(mv)
                coeffs: dict[int, DiffPoly] = {}
                if br:
                    terms = {((p_vars[i], 0),): Coeff.of(c)
                             for i, c in pairings(self._p_index, br).items()}
                    constant = ctx.pair(ctx.f, br)
                    if constant:
                        terms[()] = Coeff.of(constant)
                    coeffs[0] = DiffPoly(terms)
                pairing = ctx.pair(mu, mv)
                if pairing:
                    coeffs[1] = DiffPoly.constant(Coeff.level(1, pairing))
                entries[(u, v)] = LambdaPoly(coeffs)
        self._affine = BracketTable(self.variables, entries)
        return self._affine


def _letters_of(poly: DiffPoly):
    for m in poly.terms:
        for v, _ in m:
            yield v


def reduced_bracket(rctx: ReductionCtx, A: VpPoly, B: VpPoly) -> LambdaPoly:
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
    (letter weight + dpower summed) equal to target, each once, in order of
    first appearance in the search.  Letters of non-positive weight are
    rejected (enumeration would not terminate)."""
    letters = sorted(letters, key=lambda v: v.sort_key())
    for v in letters:
        if weight_of(v) <= 0:
            raise ValueError("letters must carry positive weight")
    out: list[tuple] = []

    def rec(idx: int, remaining: Fraction, current: list):
        if not remaining:
            if current:
                out.append(tuple(current))
            return
        for i in range(idx, len(letters)):
            v = letters[i]
            w = weight_of(v)
            d = 0
            while w + d <= remaining:
                current.append((v, d))
                rec(i, remaining - w - d, current)
                current.pop()
                d += 1

    rec(0, target, [])
    # the search reaches a monomial once per ordering of its factors;
    # normalize_factors returns None for one that vanishes
    found = dict.fromkeys(normalize_factors(m)[1] for m in out)
    found.pop(None, None)
    return list(found)


def _add_poly(system: System, tag, col: Optional[int], poly: DiffPoly,
              sign: int = 1) -> None:
    """sign * every coefficient of poly at k=1 into the row keyed (tag,
    monomial)."""
    for m, c in poly.terms.items():
        x = c.at_one()
        system.add((tag, m), col, x if sign > 0 else -x)


def _lifted(mono: tuple, x: Fraction) -> Coeff:
    """The solved k=1 value x of the unknown of mono, times k^(derivative
    count of mono)."""
    return Coeff.level(sum(d for _, d in mono), x)


def _add_lambda(system: System, tag, col: Optional[int], lp: LambdaPoly) -> None:
    """Every coefficient of lp into the row keyed ((tag, lambda power),
    monomial)."""
    for slot, poly in lp.coeffs.items():
        _add_poly(system, (tag, slot), col, poly)


# ---------------------------------------------------------------------------
# generator construction


def solve_generator(rctx: ReductionCtx, a: GenIndex) -> VpPoly:
    """Realize one generator: W_a = a + (weight-homogeneous correction over
    the positive-weight variables) annihilated by every constraint bracket,
    every free coefficient pinned to zero."""
    avar = AffVar(a, 0)
    monos = [
        m
        for m in weight_monomials(rctx.p_vars, lambda v: v.weight, a.t)
        if m != ((avar, 0),)
    ]

    table = rctx.affine_table()
    system = System()
    base = DiffPoly.variable(avar)
    for nv in rctx.n_vars:
        nv_poly = DiffPoly.variable(nv)
        _add_lambda(system, nv, None, extend_bracket(table, nv_poly, base))
        for col, m in enumerate(monos):
            _add_lambda(system, nv, col, extend_bracket(table, nv_poly, DiffPoly({m: ONE})))
    # pin every other bare variable of this weight to zero
    for col, m in enumerate(monos):
        if len(m) == 1 and m[0][1] == 0:
            system.add(("pin", m), col, _F1)

    sol = system.solve()
    if sol is None:
        raise NoSolution(f"constraint system inconsistent for {a}")
    W = DiffPoly({((avar, 0),): ONE, **{monos[col]: _lifted(monos[col], x)
                                        for col, x in sol.items()}})
    # defining constraints re-verified on the solution
    for nv in rctx.n_vars:
        if extend_bracket(table, DiffPoly.variable(nv), W):
            raise NoSolution(f"constraint violated after solve for {a}")
    return W


def solve_all(rctx: ReductionCtx) -> GeneratorSolution:
    return GeneratorSolution({g: solve_generator(rctx, g) for g in rctx.cdata.gens})


# ---------------------------------------------------------------------------
# re-expression in the generators


def _mono_order_key(mono: tuple):
    letters = len(mono)
    depth = sum(v.n + d for v, d in mono)
    lex = tuple((v.sort_key(), d) for v, d in mono)
    return (letters, depth, lex)


def reexpress(gens: GeneratorSolution, P: VpPoly) -> tuple[DiffPoly, VpPoly]:
    """Write P as a differential polynomial in the generators.

    Returns (Q, residual): P = Q(W) + residual, residual zero exactly when P
    lies in the subalgebra the W_a generate.  Elimination peels the minimal
    monomial (fewest letters, then shallowest, then lexicographic); a minimal
    monomial using any non-generator letter is unremovable and goes to the
    residual."""
    Q = DiffPoly()
    residual = DiffPoly()
    P = DiffPoly(dict(P.terms))
    guard = 0
    while P:
        guard += 1
        if guard > 100000:
            raise NoSolution("re-expression failed to terminate")
        mono = min(P.terms, key=_mono_order_key)
        c = P.terms[mono]
        if mono and all(v.n == 0 for v, _ in mono):
            gen_mono = tuple((v.g, d) for v, d in mono)
            image = DiffPoly.constant(c)
            for v, d in mono:
                image = image * apply_partial(gens.solutions[v.g], d)
            P = P - image
            Q = Q + DiffPoly({gen_mono: c})
        else:
            P = P - DiffPoly({mono: c})
            residual = residual + DiffPoly({mono: c})
    return Q, residual


# ---------------------------------------------------------------------------
# reconciliation against the closed-form table


@dataclass
class ReconcileReport:
    ok: bool
    corrections: dict  # GenIndex -> DiffPoly over generator letters
    corrected: GeneratorSolution
    failure: Optional[dict] = None
    deferred: list = field(default_factory=list)


def reconcile(rctx: ReductionCtx, table: BracketTable) -> ReconcileReport:
    """Adjust the pinned generators by lower-weight corrections until their
    reduced brackets reproduce the closed-form table exactly.

    Works up the weight ladder.  At each weight the corrections enter every
    usable equation linearly; equations whose target references letters of
    weight not yet corrected are deferred (the final verification still
    covers them).  Free correction coefficients are zeroed."""
    gens_all = rctx.cdata.gens
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
        mono_eval = [substitute(DiffPoly({mu: ONE}), W) for mu in lowmonos]
        first_col = {g: si * len(lowmonos) for si, g in enumerate(stage)}
        # one row per pair (u, v), lambda power and monomial, reading
        # bracket(W + x) - target(W + x), which is linear in x
        system = System()

        for a in stage:
            for b in lower:
                for u, v in ((a, b), (b, a)):
                    target = table.lookup(u, v)
                    if any(l.t > w for poly in target.coeffs.values()
                           for l in _letters_of(poly)):
                        deferred.append((u, v))
                        continue
                    _add_lambda(system, (u, v), None, reduced_bracket(rctx, W[u], W[v]))
                    for mi, mu_W in enumerate(mono_eval):
                        contrib = (reduced_bracket(rctx, mu_W, W[v]) if u == a
                                   else reduced_bracket(rctx, W[u], mu_W))
                        _add_lambda(system, (u, v), first_col[a] + mi, contrib)
                    for slot, poly in target.coeffs.items():
                        _add_poly(system, ((u, v), slot), None, substitute(poly, W), -1)
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
                            for mi, mu_W in enumerate(mono_eval):
                                _add_poly(system, ((u, v), slot), first_col[l] + mi,
                                          substitute(part, ChainMap({l: mu_W}, W)), -1)

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
                W[g] = W[g] + substitute(corrections[g], W)

    corrected = GeneratorSolution(W)
    # full verification: every ordered pair, every slot
    for a in gens_all:
        for b in gens_all:
            got = reduced_bracket(rctx, W[a], W[b])
            want_src = table.lookup(a, b)
            want = LambdaPoly(
                {n: substitute(p, W) for n, p in want_src.coeffs.items()}
            )
            if got != want:
                return ReconcileReport(
                    False, corrections, corrected,
                    failure={"pair": (a, b), "got": got, "want": want},
                    deferred=deferred,
                )
    return ReconcileReport(True, corrections, corrected, deferred=deferred)
