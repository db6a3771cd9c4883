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

Once every unknown column leads, the pivot rows are final: each further row
is checked by its residual, one pass over its entries, instead of being
eliminated.  A rank-deficient system is eliminated row by row to the end.

A System assembles its rows as ints, one scale per row shared by its
right-hand sides, so no Fraction is built per entry.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm


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


def _reduce(rows: Iterable[dict], stop: int) -> tuple[list[dict], dict[int, int], list]:
    """The reduced row echelon form of the columns before stop, up to a
    positive factor per row: no column at or past stop leads, and a row
    that reduces to one leading there is set aside as a witness, zero on
    every earlier column, and is not eliminated into the others.  Returns
    (reduced_rows, pivots, witnesses), pivots mapping column -> index of the
    row in reduced_rows whose leading int sits in that column.  Once every
    unknown column (one before stop) that occurs leads, the pivot rows are
    final, and a further row is checked by its residual over L = lcm of the
    leading ints p_c: L*row - sum_c row[c]*(L/p_c)*P_c, P_c the pivot row of
    column c, is zero on the unknowns, and where it is not zero past stop,
    made primitive, it is the witness that elimination would set aside."""
    rows = list(rows)
    unknowns = sum(c < stop for c in set().union(*rows))
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    witnesses: list[dict] = []
    past = None  # pivot column -> its row's entries past stop, times L/p_c
    for row in rows:
        if not row:
            continue
        if len(pivots) == unknowns:
            if past is None:
                L = lcm(*(reduced[i][c] for c, i in pivots.items()))
                past = {c: [(j, y * (L // reduced[i][c])) for j, y in reduced[i].items()
                            if j >= stop] for c, i in pivots.items()}
            res: dict = {}
            for c, v in row.items():
                if c >= stop:
                    res[c] = res.get(c, 0) + L * v
                else:
                    for j, y in past[c]:
                        res[j] = res.get(j, 0) - v * y
            res = {j: x for j, x in res.items() if x}
            if res:
                witnesses.append(_primitive(res))
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
        if lead >= stop:
            witnesses.append(row)
            continue
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
    return reduced, pivots, witnesses


def solve_each(rows: list[dict], rhs: list[dict], count: int) -> list[dict | None]:
    """Solve rows[i] . x = rhs[i].get(j, 0) for each right-hand side j <
    count by one elimination: [solution or None per j].

    The right-hand sides are columns past every unknown, and none of them
    leads: a row that reduces to zero on every unknown is a witness, and
    side j is inconsistent exactly when some witness is nonzero in its
    column (the witnesses span every combination of rows that vanishes on
    the unknowns).  The pivot rows are those of the unknowns alone, so a
    consistent side's zeroed-free solution is its column divided by each
    pivot row's leading int, the one Fraction built per solved column, the
    same as solving that side alone.  A row past full rank is checked by its
    residual (_reduce), nonzero in exactly the sides it makes inconsistent."""
    b_col = 1 + max((c for row in rows for c in row), default=-1)
    augmented = []
    for row, b in zip(rows, rhs):
        if b:
            row = dict(row)
            for j, v in b.items():
                if v:
                    row[b_col + j] = v
        augmented.append(row)
    reduced, pivots, witnesses = _reduce(augmented, b_col)
    inconsistent = {c for w in witnesses for c in w}
    out: list[dict | None] = []
    for col in range(b_col, b_col + count):
        if col in inconsistent:
            out.append(None)
            continue
        sol = {}
        for c, ridx in pivots.items():
            r = reduced[ridx]
            b = r.get(col)
            if b is not None:
                sol[c] = Fraction(b, r[c])
        out.append(sol)
    return out


class System:
    """A sparse linear system assembled term by term: one row per key, rows
    in order of first use, each right-hand side holding minus the constant
    terms of its equations.  A row and its right-hand sides are ints at the
    scale scales[key], an int c standing for c/scale: the scale of the
    row's first term, rescaled once, to the lcm, by a term whose scale does
    not divide it."""

    def __init__(self):
        self.rows: dict = {}  # key -> {column: int}
        self.rhs: dict = {}  # key -> {right-hand side: int}
        self.scales: dict = {}

    def add(self, key, col: int | None, c, side: int = 0, scale: int = 1) -> None:
        """c/scale * x[col], or the constant c/scale of right-hand side
        `side` if col is None, into key's row; a Fraction c is its numerator
        at scale times its denominator."""
        if type(c) is not int:
            c, scale = c.numerator, scale * c.denominator
        row = self.rows.setdefault(key, {})
        R = self.scales.setdefault(key, scale)
        if R % scale:
            f = scale // gcd(R, scale)
            for d in (row, self.rhs.get(key, {})):
                for j in d:
                    d[j] *= f
            R = self.scales[key] = R * f
        if R != scale:
            c *= R // scale
        if col is None:
            row, col, c = self.rhs.setdefault(key, {}), side, -c
        s = row.get(col, 0) + c
        if s:
            row[col] = s
        else:
            row.pop(col, None)

    def solve(self) -> dict | None:
        """The solution for right-hand side 0."""
        return self.solve_each(1)[0]

    def solve_each(self, count: int) -> list[dict | None]:
        """solve_each over right-hand sides 0 .. count-1."""
        return solve_each(list(self.rows.values()), [self.rhs.get(k) for k in self.rows], count)
