"""Sparse exact elimination over Q.

The reference here is a dense rank computation written out in the test, so
the pivot columns and the consistency of a system are decided without
linalg's own elimination."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import kernel_basis
from walgebra.linalg import System, solve

F = Fraction

# zero often enough that rank drops
SMALL = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


def _dense_rank(matrix: list[list]) -> int:
    rows = [list(r) for r in matrix if any(r)]
    rank = 0
    ncols = max((len(r) for r in rows), default=0)
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _sparse(dense_row: list) -> dict:
    return {j: v for j, v in enumerate(dense_row) if v}


@st.composite
def systems(draw):
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(1, 5))
    dense = [[draw(SMALL) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        # a right-hand side in the column span: always consistent
        x = [draw(SMALL) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(r, x)), F(0)) for r in dense]
    else:
        rhs = [draw(SMALL) for _ in range(nrows)]
    order = draw(st.permutations(range(nrows)))
    return dense, rhs, order


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_agrees_with_dense_ranks(system):
    dense, rhs, order = system
    ncols = len(dense[0]) if dense else 0
    rows = [_sparse(r) for r in dense]
    sol = solve(rows, rhs)
    consistent = _dense_rank(dense) == _dense_rank([r + [b] for r, b in zip(dense, rhs)])
    assert (sol is not None) == consistent
    if sol is None:
        return
    for r, b in zip(dense, rhs):
        assert sum((r[j] * v for j, v in sol.items()), F(0)) == b
    # column j is a pivot when it raises the rank of the columns before it
    pivots = {j for j in range(ncols)
              if _dense_rank([r[:j + 1] for r in dense]) > _dense_rank([r[:j] for r in dense])}
    assert set(sol) <= pivots
    assert all(sol.values())
    # the particular solution does not depend on the order of the rows
    assert solve([rows[i] for i in order], [rhs[i] for i in order]) == sol


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_basis_spans_the_kernel(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(0, 4))
    dense = [[data.draw(SMALL) for _ in range(m)] for _ in range(n)]  # dense[j] = column j
    basis = kernel_basis([_sparse(c) for c in dense])
    rank = _dense_rank(dense)
    assert len(basis) == n - rank
    for vec in basis:
        for r in range(m):
            assert sum((dense[j][r] * v for j, v in vec.items()), F(0)) == 0
    # independent: each vector owns a free coordinate set to 1
    assert _dense_rank([[vec.get(j, 0) for j in range(n)] for vec in basis]) == len(basis)


def test_system_keeps_rows_in_first_use_order():
    system = System()
    system.add("b", 1, F(2))
    system.add("a", 0, F(1))
    system.add("b", None, F(3))  # 2 x1 + 3 = 0
    system.add("a", 1, F(1))
    system.add("a", 1, F(-1))  # cancels: x0 = 0
    assert list(system.rows) == ["b", "a"]
    assert "a" in system and "c" not in system
    assert system.rows["a"] == {0: F(1)}
    assert system.solve() == {1: F(-3, 2)}
    system.add("c", None, F(1))  # 1 = 0
    assert system.solve() is None
