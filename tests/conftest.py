"""Shared builders for the test suite.

Contexts and bracket tables are cached per process: bracket_table already
memoizes the symbolic table per (kind, partitions, signs) and each
fixed-level evaluation of it, and ctx_of adds the same for algebra contexts,
so every test file can ask for what it needs without re-deriving it.
"""

from fractions import Fraction
from functools import lru_cache

from walgebra.liestruct import PartitionSpec, build_algebra
from walgebra.wbracket import bracket_table

F = Fraction


@lru_cache(maxsize=None)
def ctx_of(kind, parts1, parts2=()):
    return build_algebra(PartitionSpec(kind, parts1, parts2))


def table_of(kind, parts1, parts2=(), ktilde="symbolic"):
    return bracket_table(ctx_of(kind, parts1, parts2), ktilde=ktilde)


def gen(ctx, t, i, j):
    return ctx.gen(F(t), i, j)
