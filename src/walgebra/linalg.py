"""Exact sparse linear algebra over Q or Q(k).

Rows are dicts {column index: value} holding only nonzero entries; values may
be Fraction or Coeff (anything with field arithmetic and falsy zero).  Column
indices are ints; elimination always walks columns in increasing order, and
pivot rows are chosen first-come, so every result is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Optional


def row_axpy(target: dict, factor, source: dict) -> None:
    """target += factor * source, dropping entries that cancel to zero."""
    if not factor:
        return
    for c, v in source.items():
        w = target.get(c)
        if w is None:
            target[c] = factor * v
        else:
            w = w + factor * v
            if w:
                target[c] = w
            else:
                del target[c]


def rref(rows: Iterable[dict]) -> tuple[list[dict], dict[int, int]]:
    """Reduced row echelon form.

    Returns (reduced_rows, pivots) where pivots maps column -> index of the
    row (in reduced_rows) whose leading entry sits in that column.  Reduced
    rows have leading entry 1 and are fully reduced against each other.
    """
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    for row in rows:
        row = dict(row)
        # eliminate against existing pivots
        for col in sorted(c for c in row if c in pivots):
            v = row.get(col)
            if v:
                row_axpy(row, -v, reduced[pivots[col]])
        if not row:
            continue
        lead = min(row)
        inv = 1 / row[lead]
        row = {c: v * inv for c, v in row.items()}
        # back-substitute into earlier rows
        for r in reduced:
            v = r.get(lead)
            if v is not None:
                row_axpy(r, -v, row)
                r.pop(lead, None)
        pivots[lead] = len(reduced)
        reduced.append(row)
    return reduced, pivots


def kernel_basis(columns: list[dict], nrows_hint: int = 0) -> list[dict]:
    """Kernel of the linear map sending basis vector j to the sparse column
    vector columns[j].  Returns a list of coefficient dicts {j: value}, one
    per free column, each normalized so its free coordinate is 1."""
    # equations: one per output coordinate r: sum_j columns[j][r] * x_j = 0
    eq_rows: dict[int, dict] = {}
    for j, col in enumerate(columns):
        for r, v in col.items():
            eq_rows.setdefault(r, {})[j] = v
    reduced, pivots = rref(eq_rows.values())
    n = len(columns)
    pivot_cols = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_cols:
            continue
        vec = {j: _one_like(columns, j)}
        for col, ridx in pivots.items():
            v = reduced[ridx].get(j)
            if v:
                vec[col] = -v
        basis.append(vec)
    return basis


def _one_like(columns, j):
    from fractions import Fraction

    for col in columns:
        for v in col.values():
            return v / v
    return Fraction(1)


def solve(rows: list[dict], rhs: list, one) -> Optional[dict]:
    """Solve the sparse system rows[i] . x = rhs[i].

    Returns a particular solution {col: value} with every free variable set
    to zero, or None if the system is inconsistent.  `one` is the field unit
    (Fraction(1) or Coeff.one()) used to normalize."""
    RHS = -1  # sentinel column, never eligible as a pivot
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[RHS] = b
        aug.append(r)
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    for row in aug:
        row = dict(row)
        for col in sorted(c for c in row if c in pivots):
            v = row.get(col)
            if v:
                row_axpy(row, -v, reduced[pivots[col]])
        real = [c for c in row if c != RHS]
        if not real:
            if RHS in row:
                return None  # 0 = nonzero
            continue
        lead = min(real)
        inv = one / row[lead]
        row = {c: v * inv for c, v in row.items()}
        for r in reduced:
            v = r.get(lead)
            if v is not None:
                row_axpy(r, -v, row)
                r.pop(lead, None)
        pivots[lead] = len(reduced)
        reduced.append(row)
    sol: dict = {}
    for col, ridx in pivots.items():
        b = reduced[ridx].get(RHS)
        if b:
            sol[col] = b
    return sol
