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
each entry is rho([u, v]) + k lambda (u|v).  The Leibniz rules only multiply
entries by factors of the two arguments (and their derivatives), and rho is
a differential-algebra morphism, so bracketing in that table equals
bracketing in the full affine algebra and projecting afterwards whenever rho
fixes every letter of the arguments.  reduced_bracket therefore takes only
arguments over the positive-weight letters (p_vars); the constraint brackets
{nv lambda W} qualify too, since a single first-slot letter is never
multiplied into the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .coeffs import Coeff, ONE, ZERO
from .errors import NoSolution, WAlgebraError
from .liestruct import AlgebraCtx, GenIndex, SuperMatrix
from .linalg import solve
from .pvacore import (
    BracketTable,
    DiffPoly,
    LambdaPoly,
    apply_partial,
    extend_bracket,
    substitute,
)

F = Fraction

# A differential polynomial over the ladder-position variables.
VpPoly = DiffPoly


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
    """Pinned realizations W_a of every generator, with the record of which
    free coefficients the pinning zeroed."""

    solutions: dict  # GenIndex -> VpPoly
    pinned: dict  # GenIndex -> list of zeroed monomials


class ReductionCtx:
    """Affine-side workspace: ladder variables, their matrices, expansion of
    arbitrary traceless matrices over them, and the rho-projected affine
    bracket table, symbolic in the level."""

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
        self._buckets = self._build_buckets()
        self._affine: Optional[BracketTable] = None

    # -- matrix expansion over the ladder basis ------------------------------

    def _slice_key(self, r: int, c: int):
        sh = self.ctx.shape
        bi, bj = sh.block_of[r], sh.block_of[c]
        pair = "D" if bi == bj else (bi, bj)
        return (pair, self.ctx._xdiag[r] - self.ctx._xdiag[c])

    def _build_buckets(self) -> dict:
        buckets: dict = {}
        for v in self.variables:
            mat = self.matrix[v]
            keys = {self._slice_key(r, c) for (r, c) in mat.entries}
            if len(keys) != 1:
                raise AssertionError(f"ladder element {v} straddles slices")
            buckets.setdefault(keys.pop(), []).append(v)
        return buckets

    def expand(self, z: SuperMatrix) -> dict[AffVar, Fraction]:
        """Coordinates of a traceless matrix over the ladder variables."""
        pieces: dict = {}
        for (r, c), val in z.entries.items():
            pieces.setdefault(self._slice_key(r, c), {})[(r, c)] = val
        out: dict[AffVar, Fraction] = {}
        for key, entries in pieces.items():
            vars_here = self._buckets.get(key)
            if not vars_here:
                raise NoSolution(f"matrix component outside the ladder span: {key}")
            positions: dict[tuple, int] = {}
            rows: list[dict] = []
            rhs: list[Fraction] = []
            for jcol, v in enumerate(vars_here):
                for pos, val in self.matrix[v].entries.items():
                    if pos not in positions:
                        positions[pos] = len(rows)
                        rows.append({})
                        rhs.append(F(0))
                    rows[positions[pos]][jcol] = val
            for pos, val in entries.items():
                if pos not in positions:
                    raise NoSolution(f"matrix position {pos} outside the ladder span")
                rhs[positions[pos]] = val
            sol = solve(rows, rhs, F(1))
            if sol is None:
                raise NoSolution("matrix expansion inconsistent")
            for jcol, val in sol.items():
                if val:
                    out[vars_here[jcol]] = val
        return out

    # -- affine structure ------------------------------------------------------

    def affine_table(self) -> BracketTable:
        """{u lambda v} = rho([u, v]) + k*lambda*(u|v) over the ladder basis:
        the commutator's expansion with every letter of weight <= 0 replaced
        by its constant (f|q)."""
        if self._affine is not None:
            return self._affine
        ctx = self.ctx
        rho = {v: Coeff.of(ctx.pair(ctx.f, self.matrix[v]))
               for v in self.variables if v.weight <= 0}
        entries = {}
        for u in self.variables:
            mu = self.matrix[u]
            for v in self.variables:
                mv = self.matrix[v]
                br = mu.comm(mv)
                coeffs: dict[int, DiffPoly] = {}
                if br:
                    coeffs[0] = substitute(DiffPoly(
                        {((w, 0),): Coeff.of(c) for w, c in self.expand(br).items()}), rho)
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
    """All normalized monomials (tuples of (letter, dpower)) over the given
    letters with total weight (letter weight + dpower summed) equal to target.
    Letters of non-positive weight are rejected (enumeration would not
    terminate)."""
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
                entry = (v, d)
                # a repeated odd factor squares to zero
                if not (v.parity and current and current[-1] == entry):
                    current.append(entry)
                    rec(i, remaining - w - d, current)
                    current.pop()
                d += 1

    rec(0, target, [])
    # normalized order inside each monomial: ascending (sort_key, dpower)
    return [tuple(sorted(m, key=lambda e: (e[0].sort_key(), e[1]))) for m in out]


def _monomial_poly(mono: tuple) -> DiffPoly:
    """The monomial as a DiffPoly (products applied left to right)."""
    acc = DiffPoly.constant(ONE)
    for v, d in mono:
        acc = acc * DiffPoly({((v, d),): ONE})
    return acc


class _Equations:
    """A sparse linear system assembled term by term: one row per key, rows
    in order of first use, rhs holding minus the constant terms."""

    def __init__(self):
        self.rows: list[dict] = []
        self.rhs: list = []
        self._index: dict = {}

    def add(self, key, col: Optional[int], c) -> None:
        """c * x[col], or the constant c if col is None, into key's row."""
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.rows)
            self.rows.append({})
            self.rhs.append(ZERO)
        if col is None:
            self.rhs[i] = self.rhs[i] - c
            return
        row = self.rows[i]
        cur = row.get(col)
        s = c if cur is None else cur + c
        if s:
            row[col] = s
        else:
            row.pop(col, None)

    def add_lambda(self, tag, col: Optional[int], lp: LambdaPoly) -> None:
        """Every coefficient of lp into the row keyed (tag, lambda power,
        monomial)."""
        for slot, poly in lp.coeffs.items():
            for m, c in poly.terms.items():
                self.add((tag, slot, m), col, c)

    def solve(self) -> Optional[dict]:
        return solve(self.rows, self.rhs, ONE)


# ---------------------------------------------------------------------------
# generator construction


def solve_generator(rctx: ReductionCtx, a: GenIndex) -> tuple[VpPoly, list]:
    """Realize one generator: W_a = a + (weight-homogeneous correction over
    the positive-weight variables) annihilated by every constraint bracket.

    Returns (W_a, zeroed) where zeroed lists the free monomials the
    deterministic pinning set to zero."""
    target_weight = a.t
    avar = AffVar(a, 0)
    monos = [
        m
        for m in weight_monomials(rctx.p_vars, lambda v: v.weight, target_weight)
        if m != ((avar, 0),)
    ]
    mono_polys = [_monomial_poly(m) for m in monos]

    table = rctx.affine_table()
    eqs = _Equations()
    base = DiffPoly.variable(avar)
    for nv in rctx.n_vars:
        nv_poly = DiffPoly.variable(nv)
        eqs.add_lambda(nv, None, extend_bracket(table, nv_poly, base))
        for col, mp in enumerate(mono_polys):
            eqs.add_lambda(nv, col, extend_bracket(table, nv_poly, mp))
    # pin every other bare variable of this weight to zero
    for col, m in enumerate(monos):
        if len(m) == 1 and m[0][1] == 0:
            eqs.add(("pin", m), col, ONE)

    sol = eqs.solve()
    if sol is None:
        raise NoSolution(f"constraint system inconsistent for {a}")
    W = DiffPoly.variable(avar)
    for col, c in sol.items():
        if c:
            W = W + mono_polys[col].scale(c)
    zeroed = [monos[i] for i in range(len(monos)) if i not in sol]
    # defining constraints re-verified on the solution
    for nv in rctx.n_vars:
        if extend_bracket(table, DiffPoly.variable(nv), W):
            raise NoSolution(f"constraint violated after solve for {a}")
    return W, zeroed


def solve_all(rctx: ReductionCtx) -> GeneratorSolution:
    solutions, pinned = {}, {}
    for g in rctx.cdata.gens:
        W, zeroed = solve_generator(rctx, g)
        solutions[g] = W
        pinned[g] = zeroed
    return GeneratorSolution(solutions, pinned)


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
        # correction space: weight-w monomials over strictly lower letters
        basis: list[tuple] = []  # (gen, monomial over GenIndex letters)
        mono_eval: dict = {}
        if lower:
            lowmonos = weight_monomials(lower, lambda g: g.t, w)
            for mu in lowmonos:
                mono_eval[mu] = substitute(_monomial_poly(mu), W)
            for g in stage:
                for mu in lowmonos:
                    basis.append((g, mu))
        if not basis:
            continue
        col_of = {gm: i for i, gm in enumerate(basis)}
        # one equation per pair (u, v): its rows are keyed by (slot, monomial)
        eqs = _Equations()

        for a in stage:
            for b in lower:
                for u, v in ((a, b), (b, a)):
                    target = table.lookup(u, v)
                    skip = False
                    for poly in target.coeffs.values():
                        if any(l.t > w for l in _letters_of(poly)):
                            skip = True
                    if skip:
                        deferred.append((u, v))
                        continue
                    # base difference: bracket of uncorrected stage gens
                    lhs = reduced_bracket(rctx, W[u], W[v])
                    # target substituted: lower letters exact, stage letters
                    # split into base + linear correction terms
                    gamma: dict = {}
                    base_rhs = LambdaPoly()
                    for slot, poly in target.coeffs.items():
                        base_rhs = base_rhs + LambdaPoly(
                            {slot: substitute(poly, W)}
                        )
                        for m, c in poly.terms.items():
                            for pos, (l, d) in enumerate(m):
                                if l.t == w:
                                    for mu in (
                                        mu for (g2, mu) in basis if g2 == l
                                    ):
                                        img = dict(W)
                                        img[l] = mono_eval[mu]
                                        rest = substitute(
                                            DiffPoly({m: c}), img
                                        )
                                        # only the single stage letter varies;
                                        # subtract nothing: base uses W[l]
                                        col = col_of[(l, mu)]
                                        cur = gamma.get(col, LambdaPoly())
                                        gamma[col] = cur + LambdaPoly({slot: rest})
                                    break
                    # corrections on the bracket side
                    for g2, mu in basis:
                        col = col_of[(g2, mu)]
                        contrib = None
                        if g2 == u:
                            contrib = reduced_bracket(rctx, mono_eval[mu], W[v])
                        elif g2 == v:
                            contrib = reduced_bracket(rctx, W[u], mono_eval[mu])
                        if contrib is not None and contrib:
                            cur = gamma.get(col, LambdaPoly())
                            gamma[col] = cur - contrib
                    # lhs - base_rhs - sum of x[col] * gamma[col] must vanish
                    eqs.add_lambda((u, v), None, lhs - base_rhs)
                    for col, lam in gamma.items():
                        eqs.add_lambda((u, v), col, -lam)

        sol = eqs.solve()
        if sol is None:
            return ReconcileReport(
                False, corrections, GeneratorSolution(W, base.pinned),
                failure={"stage": w, "reason": "correction system inconsistent"},
                deferred=deferred,
            )
        for (g, mu), col in col_of.items():
            c = sol.get(col)
            if c:
                corrections[g] = corrections[g] + DiffPoly({mu: c})
        for g in stage:
            if corrections[g]:
                W[g] = W[g] + substitute(corrections[g], W)

    corrected = GeneratorSolution(W, base.pinned)
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
