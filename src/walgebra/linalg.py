"""Exact sparse linear algebra over Q.

Rows are dicts {column index: Fraction} holding only nonzero entries.  Column
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


def kernel_basis(columns: list[dict]) -> list[dict]:
    """Kernel of the linear map sending basis vector j to the sparse column
    vector columns[j].  Returns a list of coefficient dicts {j: value}, one
    per free column, each normalized so its free coordinate is 1."""
    # equations: one per output coordinate r: sum_j columns[j][r] * x_j = 0
    system = System()
    for j, col in enumerate(columns):
        for r, v in col.items():
            system.add(r, j, v)
    reduced, pivots = rref(system.rows.values())
    basis = []
    for j in range(len(columns)):
        if j in pivots:
            continue
        vec = {j: 1}
        for col, ridx in pivots.items():
            v = reduced[ridx].get(j)
            if v:
                vec[col] = -v
        basis.append(vec)
    return basis


def solve(rows: list[dict], rhs: list) -> Optional[dict]:
    """Solve the sparse system rows[i] . x = rhs[i] (a falsy rhs entry is 0).

    Returns the particular solution {col: value} with every free variable
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
    return {col: reduced[ridx][b_col]
            for col, ridx in pivots.items() if b_col in reduced[ridx]}


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
