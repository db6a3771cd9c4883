"""Sparse exact elimination over Q.

The references here are a dense rank computation written out in the test,
so the pivot columns and the consistency of a system are decided without
linalg's own elimination, and the reduced row echelon form on Fraction
arithmetic (conftest.fraction_rref) for the fraction-free one."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from conftest import fraction_rref, kernel_basis, reduce_reference, solve_each_reference
from walgebra import linalg
from walgebra.linalg import System

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


def _solve(rows: list, rhs: list):
    """solve_each on the one right-hand side rhs (a falsy entry is 0)."""
    return linalg.solve_each(rows, [{0: b} if b else {} for b in rhs], 1)[0]


def _stop(rows: list) -> int:
    """A column past every column of rows."""
    return 1 + max((c for row in rows for c in row), default=-1)


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
    sol = _solve(rows, rhs)
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
    assert _solve([rows[i] for i in order], [rhs[i] for i in order]) == sol


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
    assert "a" in system.rows and "c" not in system.rows
    assert system.rows["a"] == {0: F(1)}
    assert system.solve() == {1: F(-3, 2)}
    system.add("c", None, F(1))  # 1 = 0
    assert system.solve() is None


def _reference_solve(rows: list, rhs: list):
    """_solve on fraction_rref: the augmented column's entries of the reduced
    rows, None when it leads one."""
    b_col = 1 + max((c for row in rows for c in row), default=-1)
    reduced, pivots = fraction_rref([{**row, b_col: b} if b else row
                                     for row, b in zip(rows, rhs)])
    if b_col in pivots:
        return None
    return {col: reduced[r][b_col] for col, r in pivots.items() if b_col in reduced[r]}


@st.composite
def scaled_systems(draw):
    """Rows as the reduction oracle feeds them: ints over scales S up to
    10^6, several scales in one row, every entry Fraction(c, S); some rows
    combine earlier ones, and a right-hand side either in the column span or
    drawn freely."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(1, 6))
    scales = draw(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=3))
    entry = st.one_of(st.just(0), st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                                             st.sampled_from(scales)))
    rows: list = []
    for _ in range(nrows):
        if len(rows) > 1 and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(entry), draw(entry)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(r, x)), F(0)) for r in rows]
    else:
        rhs = [draw(entry) for _ in range(nrows)]
    return [_sparse(r) for r in rows], rhs


@settings(max_examples=150, deadline=None)
@given(scaled_systems())
def test_fraction_free_elimination_matches_the_fraction_reference(system):
    rows, rhs = system
    reduced, pivots, witnesses = linalg._reduce(rows, _stop(rows))
    want, want_pivots = fraction_rref(rows)
    assert pivots == want_pivots and witnesses == []
    for r, w in zip(reduced, want):
        lead = r[min(r)]
        assert all(type(v) is int for v in r.values())
        assert lead > 0 and gcd(*r.values()) == 1
        assert {c: F(v, lead) for c, v in r.items()} == w
    sol = _solve(rows, rhs)
    assert sol == _reference_solve(rows, rhs)
    assert sol is None or all(type(v) is Fraction for v in sol.values())


def test_system_solve_builds_one_fraction_per_solved_column(monkeypatch):
    # rows over mixed scales up to 10^6 with a consistent right-hand side:
    # the elimination runs on ints and divides once per returned column
    rnd = random.Random(7)
    scales = [1, 90, 720720, 999983]
    x = {j: F(rnd.randint(-9, 9), rnd.choice(scales)) for j in range(24)}
    system = System()
    for i in range(40):
        cols = rnd.sample(range(24), 6)
        row = {j: F(rnd.randint(-10 ** 6, 10 ** 6), rnd.choice(scales)) for j in cols}
        for j, v in row.items():
            system.add(i, j, v)
        system.add(i, None, -sum(v * x[j] for j, v in row.items()))
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counting_fraction)
    sol = system.solve()
    monkeypatch.setattr(linalg, "Fraction", Fraction)
    assert sol and 0 < len(made) <= len(sol)
    for i, row in system.rows.items():
        assert sum(v * sol.get(j, 0) for j, v in row.items()) == system.rhs[i][0]


def _fraction_rows(terms) -> tuple[dict, dict]:
    """The rows and right-hand sides of (key, col, c, side, scale) terms
    accumulated on Fractions, sums that cancel dropped."""
    rows: dict = {}
    rhs: dict = {}
    for key, col, c, side, scale in terms:
        row = rows.setdefault(key, {})
        v = F(c) / scale
        if col is None:
            row, col, v = rhs.setdefault(key, {}), side, -v
        if row.get(col, 0) + v:
            row[col] = row.get(col, 0) + v
        else:
            row.pop(col, None)
    return rows, rhs


def _int_system(terms) -> System:
    system = System()
    for key, col, c, side, scale in terms:
        system.add(key, col, c, side, scale)
    return system


def _assert_same_system(system: System, terms, count: int) -> None:
    """system's rows and right-hand sides over their scales are the
    Fraction ones of terms, and each side solves as on the Fraction rows."""
    rows, rhs = _fraction_rows(terms)
    assert list(system.rows) == list(rows)
    for key, row in system.rows.items():
        S = system.scales[key]
        assert all(type(v) is int for v in row.values())
        assert {c: F(v, S) for c, v in row.items()} == rows[key]
        assert {j: F(v, S) for j, v in system.rhs.get(key, {}).items()} == rhs.get(key, {})
    want = linalg.solve_each(list(rows.values()), [rhs.get(k) for k in rows], count)
    assert system.solve_each(count) == want
    assert system.solve() == want[0]


def test_int_terms_at_mixed_scales_solve_like_fractions():
    # row "a" starts at scale 4; a term at 6 does not divide it and rescales
    # the row to 12, then one at 9 to 36, with right-hand side entries added
    # before and after each rescale; three sides, one inconsistent
    terms = [("a", 0, 3, 0, 4), ("a", None, 1, 0, 4), ("a", 1, 5, 0, 6),
             ("a", None, -7, 1, 6), ("b", 1, 2, 0, 3), ("a", 2, 1, 0, 9),
             ("a", None, 2, 2, 2), ("b", None, 1, 2, 3), ("c", 0, 1, 0, 1),
             ("c", 1, 5, 0, 2), ("c", None, 1, 1, 2), ("d", 0, 3, 0, 4),
             ("d", 1, 5, 0, 6), ("d", None, 1, 0, 4), ("d", None, -7, 1, 6),
             ("d", 2, 1, 0, 9), ("d", None, 5, 2, 12)]
    system = _int_system(terms)
    assert system.scales == {"a": 36, "b": 3, "c": 2, "d": 36}
    _assert_same_system(system, terms, 3)
    # rows a and d differ only on side 2
    assert [sol is None for sol in system.solve_each(3)] == [False, False, True]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.one_of(st.none(), st.integers(0, 4)),
                          st.integers(-6, 6), st.integers(0, 2),
                          st.sampled_from([1, 2, 3, 4, 6, 9, 10, 12])), max_size=30))
def test_int_systems_match_the_fraction_system(terms):
    _assert_same_system(_int_system(terms), terms, 3)


def test_fraction_terms_give_the_old_rows():
    # a Fraction's denominator joins the scale: the rows over their scales
    # are the Fraction rows, and an int row stays at scale 1
    terms = [(0, 0, F(1, 2), 0, 1), (0, 1, F(-2, 3), 0, 1), (0, None, F(5, 6), 0, 1),
             (1, 0, F(3), 0, 1), (1, 1, F(1, 4), 0, 1), (0, 0, F(1, 2), 0, 1),
             (2, 1, F(2), 0, 1), (2, None, F(-4), 0, 1)]
    system = _int_system(terms)
    assert system.scales == {0: 6, 1: 4, 2: 1}
    assert system.rows[2] == {1: F(2)} and system.rhs[2] == {0: 4}
    _assert_same_system(system, terms, 1)


# entries of the residual tests: mostly small ints, zero often, some Fractions
ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -4, 6, F(1, 2), F(-5, 3)])


@st.composite
def overdetermined(draw):
    """(rows, rhs, count) with more rows than unknowns as often as not: rows
    over a few of the columns 0..5 (the others never occur), some of them
    zero, some combinations of earlier rows, so the rank falls short of the
    columns at times and full column rank is reached early at others; each
    of up to three right-hand sides either the same combination of the
    earlier sides, so consistent, or drawn freely."""
    cols = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    count = draw(st.integers(1, 3))
    rows: list = []
    rhs: list = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["free", "free", "combo", "zero"]))
        if kind == "combo" and len(rows) > 1:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(ENTRY), draw(ENTRY)
            row = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0) for c in cols}
            side = {s: a * rhs[i].get(s, 0) + b * rhs[j].get(s, 0) for s in range(count)}
            if draw(st.booleans()):
                side[draw(st.integers(0, count - 1))] = draw(ENTRY)
        elif kind == "zero":
            row, side = {}, {s: draw(ENTRY) for s in range(count)}
        else:
            row = {c: draw(ENTRY) for c in cols}
            side = {s: draw(ENTRY) for s in range(count)}
        rows.append({c: v for c, v in row.items() if v})
        rhs.append({s: v for s, v in side.items() if v})
    return rows, rhs, count


def _assert_reduces_like_the_reference(rows, rhs, count):
    """solve_each, and _reduce on the rows with their sides as columns
    6 + side, against the elimination of every row to the end."""
    assert linalg.solve_each(rows, rhs, count) == solve_each_reference(rows, rhs, count)
    augmented = [{**row, **{6 + s: v for s, v in b.items()}} for row, b in zip(rows, rhs)]
    assert linalg._reduce(augmented, 6) == reduce_reference(augmented, 6)
    assert linalg._reduce(rows, _stop(rows)) == reduce_reference(rows, _stop(rows))
    stop = _stop(augmented)
    assert linalg._reduce(augmented, stop) == reduce_reference(augmented, stop)


@settings(max_examples=300, deadline=None)
@given(overdetermined())
def test_residual_check_matches_elimination_to_the_end(system):
    _assert_reduces_like_the_reference(*system)


def test_a_surplus_row_inconsistent_in_one_side_only():
    # 2 x0 and 3 x1 lead (L = 6), and 6 x0 + 6 x1 is past full rank: side 0
    # has x = (3/2, 1/3) and the surplus row agrees; side 1 has x = (5/2,
    # 2/3), where 6 x0 + 6 x1 is 19, and the surplus row asks for 18
    rows = [{0: 2}, {1: 3}, {0: 6, 1: 6}]
    rhs = [{0: 3, 1: 5}, {0: 1, 1: 2}, {0: 11, 1: 18}]
    _assert_reduces_like_the_reference(rows, rhs, 2)
    assert linalg.solve_each(rows, rhs, 2) == [{0: F(3, 2), 1: F(1, 3)}, None]


def test_a_surplus_row_zero_on_the_unknowns():
    # after full rank, a row with no unknown but a constant in side 1 only,
    # and one with nothing at all
    rows = [{0: F(1, 2)}, {}, {}]
    rhs = [{0: 1, 1: 1}, {1: 5}, {}]
    _assert_reduces_like_the_reference(rows, rhs, 3)
    assert linalg.solve_each(rows, rhs, 3) == [{0: 2}, None, {}]
