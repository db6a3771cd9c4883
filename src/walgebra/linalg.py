"""Exact sparse linear algebra over Q, fraction-free.

Rows are dicts {column index: value} holding only nonzero entries; the
values handed in are ints or Fractions.  Column indices are ints;
elimination always walks columns in increasing order, and pivot rows are
chosen first-come, so every result is deterministic.

The elimination runs on ints.  A row is cleared to primitive ints (coprime,
no denominators) once, when it enters; eliminating a column by a pivot row P
with leading int p is row = p*row - v*P divided by the content gcd, and
back-substitution into the earlier rows is the same step.  So every reduced
row is a positive multiple of its row in the reduced row echelon form over
Q: primitive, leading int positive, zero in every other pivot column.  A
solution divides each right-hand side by its row's leading int, the one
Fraction built per solved column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional


def _over_content(row: dict) -> dict:
    """An int row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _primitive(row: dict) -> dict:
    """row, a dict of ints or Fractions, scaled to coprime ints."""
    d = lcm(*(v.denominator for v in row.values()))
    return _over_content({c: v.numerator * (d // v.denominator) for c, v in row.items()})


def _eliminate(row: dict, v: int, P: dict, p: int) -> dict:
    """(p*row - v*P) / content, p the leading int of P and v the entry of
    row in that column, both taken over gcd(p, v) first."""
    g = gcd(p, v)
    if g != 1:
        p, v = p // g, v // g
    out = {c: p * x for c, x in row.items()} if p != 1 else dict(row)
    for c, y in P.items():
        s = out.get(c, 0) - v * y
        if s:
            out[c] = s
        else:
            del out[c]
    return _over_content(out)


def rref(rows: Iterable[dict]) -> tuple[list[dict], dict[int, int]]:
    """Reduced row echelon form, up to a positive factor per row.

    Returns (reduced_rows, pivots) where pivots maps column -> index of the
    row (in reduced_rows) whose leading entry sits in that column.  Reduced
    rows are primitive ints with a positive leading entry and are fully
    reduced against each other: row i of the echelon form over Q is
    reduced_rows[i] divided by its leading int."""
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    for row in rows:
        if not row:
            continue
        row = _primitive(row)
        # eliminate against existing pivots; a reduced row is zero in every
        # other pivot column, so each step clears its column and no other
        for col in sorted(c for c in row if c in pivots):
            P = reduced[pivots[col]]
            row = _eliminate(row, row[col], P, P[col])
        if not row:
            continue
        lead = min(row)
        p = row[lead]
        if p < 0:
            row = {c: -x for c, x in row.items()}
            p = -p
        # back-substitute into earlier rows
        for i, r in enumerate(reduced):
            v = r.get(lead)
            if v is not None:
                reduced[i] = _eliminate(r, v, row, p)
        pivots[lead] = len(reduced)
        reduced.append(row)
    return reduced, pivots


def solve(rows: list[dict], rhs: list) -> Optional[dict]:
    """Solve the sparse system rows[i] . x = rhs[i] (a falsy rhs entry is 0).

    Returns the particular solution {col: Fraction} with every free variable
    set to zero, or None if the system is inconsistent.  The right-hand side
    is one more column past every unknown; it leads a reduced row exactly
    when that row reads 0 = 1."""
    b_col = 1 + max((c for row in rows for c in row), default=-1)
    augmented = []
    for row, b in zip(rows, rhs):
        if b:
            row = dict(row)
            row[b_col] = b
        augmented.append(row)
    reduced, pivots = rref(augmented)
    if b_col in pivots:
        return None
    out = {}
    for col, ridx in pivots.items():
        r = reduced[ridx]
        b = r.get(b_col)
        if b is not None:
            out[col] = Fraction(b, r[col])
    return out


class System:
    """A sparse linear system assembled term by term: one row per key, rows
    in order of first use, rhs holding minus the constant terms."""

    def __init__(self):
        self.rows: dict = {}
        self.rhs: dict = {}

    def __contains__(self, key) -> bool:
        return key in self.rows

    def add(self, key, col: Optional[int], c) -> None:
        """c * x[col], or the constant c if col is None, into key's row."""
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = {}
        if col is None:
            b = self.rhs.get(key)
            self.rhs[key] = -c if b is None else b - c
            return
        cur = row.get(col)
        s = c if cur is None else cur + c
        if s:
            row[col] = s
        else:
            row.pop(col, None)

    def solve(self) -> Optional[dict]:
        return solve(list(self.rows.values()), [self.rhs.get(k) for k in self.rows])
