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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .coeffs import Coeff, ONE, ZERO
from .errors import NoSolution
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
    ktilde: Union[str, Fraction]


class ReductionCtx:
    """Affine-side workspace: ladder variables, their matrices, expansion of
    arbitrary traceless matrices over them, and the affine bracket table."""

    def __init__(self, ctx: AlgebraCtx, ktilde: Union[str, Fraction] = "symbolic"):
        self.ctx = ctx
        self.cdata = ctx.centralizer()
        self.ktilde = ktilde
        self.kc = Coeff.level(1) if ktilde == "symbolic" else Coeff.of(F(ktilde))
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
        self._buckets = self._build_buckets()
        self._rho_const = {
            v: ctx.pair(ctx.f, self.matrix[v])
            for v in self.variables
            if v.weight <= 0
        }
        self._rho_map = {v: Coeff.of(c) for v, c in self._rho_const.items()}
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
        """{u lambda v} = [u, v] + k*lambda*(u|v) over the ladder basis."""
        if self._affine is not None:
            return self._affine
        entries = {}
        for u in self.variables:
            mu = self.matrix[u]
            for v in self.variables:
                mv = self.matrix[v]
                br = mu.comm(mv)
                coeffs: dict[int, DiffPoly] = {}
                if br:
                    poly = DiffPoly(
                        {((w, 0),): Coeff.of(c) for w, c in self.expand(br).items()}
                    )
                    if poly:
                        coeffs[0] = poly
                pairing = self.ctx.pair(mu, mv)
                if pairing:
                    const = self.kc * Coeff.of(pairing)
                    if const:
                        coeffs[1] = DiffPoly.constant(const)
                entries[(u, v)] = LambdaPoly(coeffs)
        self._affine = BracketTable(self.variables, entries)
        return self._affine


def rho_apply(rctx: ReductionCtx, X):
    """Project onto the generator-side subalgebra: variables of weight <= 0
    become the scalar (f | q_g[n]); the rest stay.  Accepts a DiffPoly or a
    LambdaPoly and maps coefficient-wise."""
    mapping = rctx._rho_map
    if isinstance(X, LambdaPoly):
        return LambdaPoly(
            {n: substitute(p, mapping) for n, p in X.coeffs.items()}
        )
    return substitute(X, mapping)


def affine_bracket(rctx: ReductionCtx, A: DiffPoly, B: DiffPoly) -> LambdaPoly:
    """Bracket of two differential polynomials over the ladder variables."""
    return extend_bracket(rctx.affine_table(), A, B)


def reduced_bracket(rctx: ReductionCtx, A: VpPoly, B: VpPoly) -> LambdaPoly:
    """Bracket of two generator-side elements, projected back."""
    return rho_apply(rctx, affine_bracket(rctx, A, B))


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
    col_of = {m: i for i, m in enumerate(monos)}
    mono_polys = [_monomial_poly(m) for m in monos]

    rows: list[dict] = []
    rhs: list[Coeff] = []
    eq_index: dict = {}

    def add_coeff(eq_key, col, value):
        if not value:
            return
        if eq_key not in eq_index:
            eq_index[eq_key] = len(rows)
            rows.append({})
            rhs.append(ZERO)
        row = rows[eq_index[eq_key]]
        cur = row.get(col)
        w = value if cur is None else cur + value
        if w:
            row[col] = w
        else:
            row.pop(col, None)

    base = DiffPoly.variable(avar)
    for nv in rctx.n_vars:
        nv_poly = DiffPoly.variable(nv)
        br0 = rho_apply(rctx, affine_bracket(rctx, nv_poly, base))
        for slot, poly in br0.coeffs.items():
            for m, c in poly.terms.items():
                key = (nv, slot, m)
                if key not in eq_index:
                    eq_index[key] = len(rows)
                    rows.append({})
                    rhs.append(ZERO)
                rhs[eq_index[key]] = rhs[eq_index[key]] - c
        for col, mp in enumerate(mono_polys):
            br = rho_apply(rctx, affine_bracket(rctx, nv_poly, mp))
            for slot, poly in br.coeffs.items():
                for m, c in poly.terms.items():
                    add_coeff((nv, slot, m), col, c)
    # pin every other bare variable of this weight to zero
    for m in monos:
        if len(m) == 1 and m[0][1] == 0:
            rows.append({col_of[m]: ONE})
            rhs.append(ZERO)

    sol = solve(rows, rhs, ONE)
    if sol is None:
        raise NoSolution(f"constraint system inconsistent for {a}")
    W = DiffPoly.variable(avar)
    for col, c in sol.items():
        if c:
            W = W + mono_polys[col].scale(c)
    zeroed = [monos[i] for i in range(len(monos)) if i not in sol]
    # defining constraints re-verified by direct substitution
    for nv in rctx.n_vars:
        if rho_apply(rctx, affine_bracket(rctx, DiffPoly.variable(nv), W)):
            raise NoSolution(f"constraint violated after solve for {a}")
    return W, zeroed


def solve_all(rctx: ReductionCtx) -> GeneratorSolution:
    solutions, pinned = {}, {}
    for g in rctx.cdata.gens:
        W, zeroed = solve_generator(rctx, g)
        solutions[g] = W
        pinned[g] = zeroed
    return GeneratorSolution(solutions, pinned, rctx.ktilde)


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


def _letters_of(poly: DiffPoly):
    for m in poly.terms:
        for v, _ in m:
            yield v


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

        rows: list[dict] = []
        rhs: list = []

        def add_equation(diff_base: LambdaPoly, gamma_coeffs: dict):
            """diff_base + sum gamma * gamma_coeffs[col] must vanish."""
            eq_keys: dict = {}

            def key_of(slot, m):
                k = (slot, m)
                if k not in eq_keys:
                    eq_keys[k] = len(rows)
                    rows.append({})
                    rhs.append(ZERO)
                return eq_keys[k]

            for slot, poly in diff_base.coeffs.items():
                for m, c in poly.terms.items():
                    idx = key_of(slot, m)
                    rhs[idx] = rhs[idx] - c
            for col, lam in gamma_coeffs.items():
                for slot, poly in lam.coeffs.items():
                    for m, c in poly.terms.items():
                        idx = key_of(slot, m)
                        row = rows[idx]
                        cur = row.get(col)
                        v = c if cur is None else cur + c
                        if v:
                            row[col] = v
                        else:
                            row.pop(col, None)

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
                    add_equation(lhs - base_rhs, {c: -lam for c, lam in gamma.items()})

        sol = solve(rows, rhs, ONE)
        if sol is None:
            return ReconcileReport(
                False, corrections, GeneratorSolution(W, base.pinned, rctx.ktilde),
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

    corrected = GeneratorSolution(W, base.pinned, rctx.ktilde)
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
