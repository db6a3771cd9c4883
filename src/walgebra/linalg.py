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


def rref(rows: Iterable[dict]) -> tuple[list[dict], dict[int, int]]:
    """Reduced row echelon form, up to a positive factor per row.

    Returns (reduced_rows, pivots) where pivots maps column -> index of the
    row (in reduced_rows) whose leading entry sits in that column.  Reduced
    rows are primitive ints with a positive leading entry and are fully
    reduced against each other: row i of the echelon form over Q is
    reduced_rows[i] divided by its leading int."""
    reduced, pivots, _ = _reduce(rows, None)
    return reduced, pivots


def _reduce(rows: Iterable[dict], stop: int | None) -> tuple[list[dict], dict[int, int], list]:
    """rref, except that no column at or past stop (when given) leads: a row
    that reduces to one leading there is set aside as a witness, zero on
    every earlier column, and is not eliminated into the others.  Returns
    (reduced_rows, pivots, witnesses)."""
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    witnesses: list[dict] = []
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
        if stop is not None and lead >= stop:
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


def solve(rows: list[dict], rhs: list) -> dict | None:
    """Solve the sparse system rows[i] . x = rhs[i] (a falsy rhs entry is 0).

    Returns the particular solution {col: Fraction} with every free variable
    set to zero, or None if the system is inconsistent."""
    return solve_each(rows, [{0: b} if b else {} for b in rhs], 1)[0]


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
    same as solving that side alone."""
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
    terms of its equations."""

    def __init__(self):
        self.rows: dict = {}
        self.rhs: dict = {}  # key -> {right-hand side: value}

    def __contains__(self, key) -> bool:
        return key in self.rows

    def add(self, key, col: int | None, c, side: int = 0) -> None:
        """c * x[col], or the constant c of right-hand side `side` if col is
        None, into key's row."""
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = {}
        if col is None:
            b = self.rhs.setdefault(key, {})
            b[side] = b.get(side, 0) - c
            return
        cur = row.get(col)
        s = c if cur is None else cur + c
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
