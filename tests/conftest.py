"""Shared builders for the test suite.

Contexts and bracket tables are cached per process: bracket_table already
memoizes the symbolic table per (kind, partitions) and each fixed-level
evaluation of it, and ctx_of adds the same for algebra contexts, so every
test file can ask for what it needs without re-deriving it.  There is one
sign rule for both kinds, so a table is named by its shape alone.
"""

from fractions import Fraction
from functools import lru_cache

from walgebra.coeffs import ONE
from walgebra.errors import NoSolution
from walgebra.liestruct import PartitionSpec, build_algebra
from walgebra.pvacore import DiffPoly, apply_partial
from walgebra.wbracket import bracket_table

F = Fraction


@lru_cache(maxsize=None)
def ctx_of(kind, parts1, parts2=()):
    return build_algebra(PartitionSpec(kind, parts1, parts2))


def table_of(kind, parts1, parts2=(), ktilde="symbolic"):
    return bracket_table(ctx_of(kind, parts1, parts2), ktilde=ktilde)


def gen(ctx, t, i, j):
    return ctx.gen(F(t), i, j)


def substitute(poly, mapping):
    """Reference for pvacore.Substitution on DiffPoly arithmetic: replace
    letters by differential polynomials (a differential-algebra morphism:
    derivative powers push onto the image).  Variables absent from the
    mapping stay themselves; images may be DiffPoly or plain scalars."""
    out = DiffPoly()
    for m, c in poly.terms.items():
        acc = DiffPoly.constant(c)
        for v, k in m:
            img = mapping.get(v)
            if img is None:
                fac = DiffPoly({((v, k),): ONE})
            elif isinstance(img, DiffPoly):
                fac = apply_partial(img, k)
            else:  # scalar image: derivative kills it
                fac = DiffPoly.constant(img) if k == 0 else DiffPoly()
            acc = acc * fac
        out = out + acc
    return out


def _mono_order_key(mono: tuple):
    letters = len(mono)
    depth = sum(v.n + d for v, d in mono)
    lex = tuple((v.sort_key(), d) for v, d in mono)
    return (letters, depth, lex)


def reexpress(gens, P):
    """Write P, a DiffPoly over the reduction oracle's ladder variables, as a
    differential polynomial in the generators realized by gens (a
    dsreduction.GeneratorSolution).

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


def corrupted_table():
    """The symbolic (2,1) table with q[2](1,1) added to the lambda^0 term of
    {q[3/2](1,2) lambda q[3/2](2,1)} and subtracted from the reverse bracket:
    skew symmetry still holds, the Jacobi identity does not."""
    from walgebra.pvacore import BracketTable, DiffPoly, LambdaPoly

    ctx = ctx_of("sl", (2, 1))
    a, b, w = gen(ctx, "3/2", 1, 2), gen(ctx, "3/2", 2, 1), gen(ctx, 2, 1, 1)
    extra = LambdaPoly({0: DiffPoly.variable(w)})
    entries = dict(table_of("sl", (2, 1)).entries)
    entries[(a, b)] = entries[(a, b)] + extra
    entries[(b, a)] = entries[(b, a)] - extra
    return BracketTable(ctx.centralizer().gens, entries)
