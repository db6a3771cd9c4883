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
