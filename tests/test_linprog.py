import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from affinelogic import linprog
from affinelogic.linalg import gauss_solve, int_row
from affinelogic.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinprogError,
    _check_farkas,
    _check_optimal,
    solve_standard,
)


def test_hand_lp_unique_optimum():
    # min x + y  s.t.  x + 2y = 4, 3x + 2y = 6, x,y >= 0  ->  (1, 3/2)
    res = solve_standard([[F(1), F(2)], [F(3), F(2)]], [F(4), F(6)], [F(1), F(1)])
    assert res.status == OPTIMAL
    assert res.x == (F(1), F(3, 2))
    assert res.value == F(5, 2)


def test_hand_lp_vertex_choice():
    # min -x  s.t.  x + y = 1  ->  all mass on x
    res = solve_standard([[F(1), F(1)]], [F(1)], [F(-1), F(0)])
    assert res.status == OPTIMAL
    assert res.x == (F(1), F(0))
    assert res.value == -1


def test_unbounded():
    # min -x  s.t.  x - y = 0: x = y -> -x unbounded below
    res = solve_standard([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])
    assert res.status == UNBOUNDED


def test_infeasible_farkas():
    # x + y = 1 and x + y = 2 cannot both hold
    rows = [[F(1), F(1)], [F(1), F(1)]]
    b = [F(1), F(2)]
    res = solve_standard(rows, b, [F(0), F(0)])
    assert res.status == INFEASIBLE
    y = res.farkas
    for j in range(2):
        assert sum(yi * rows[i][j] for i, yi in enumerate(y)) <= 0
    assert sum(yi * b[i] for i, yi in enumerate(y)) > 0


def test_negative_rhs_handled():
    # -x = -2 with x >= 0 means x = 2
    res = solve_standard([[F(-1)]], [F(-2)], [F(1)])
    assert res.status == OPTIMAL
    assert res.x == (F(2),)


def test_redundant_rows_dropped():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    res = solve_standard(rows, [F(1), F(2)], [F(1), F(2)])
    assert res.status == OPTIMAL
    assert res.value == 1


def test_degenerate_no_cycle():
    # classic degeneracy: duplicate tight constraints at the optimum
    rows = [
        [F(1), F(0), F(1), F(0), F(0)],
        [F(0), F(1), F(0), F(1), F(0)],
        [F(1), F(1), F(0), F(0), F(1)],
    ]
    b = [F(1), F(1), F(1)]
    cost = [F(-1), F(-1), F(0), F(0), F(0)]
    res = solve_standard(rows, b, cost)
    assert res.status == OPTIMAL
    assert res.value == -1


def _brute_force(rows, b, cost):
    """Enumerate basic solutions; exact but exponential."""
    m, n = len(rows), len(cost)
    feasible = False
    best = None
    for size in range(min(m, n) + 1):
        for cols in itertools.combinations(range(n), size):
            sol = gauss_solve([[row[j] for j in cols] for row in rows], b)
            if not sol.consistent or sol.free_count > 0:
                continue
            if any(v < 0 for v in sol.x):
                continue
            x = [F(0)] * n
            for j, v in zip(cols, sol.x):
                x[j] = v
            feasible = True
            val = sum(c * xi for c, xi in zip(cost, x))
            if best is None or val < best:
                best = val
    return feasible, best


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_simplex_against_basic_solution_enumeration(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    n = rng.randint(m, 5)
    rows = [[F(rng.randint(-2, 3)) for _ in range(n)] for _ in range(m)]
    b = [F(rng.randint(-2, 3)) for _ in range(m)]
    cost = [F(rng.randint(-3, 3)) for _ in range(n)]
    res = solve_standard(rows, b, cost)
    feasible, best = _brute_force(rows, b, cost)

    if res.status == INFEASIBLE:
        assert not feasible
        y = res.farkas
        for j in range(n):
            assert sum(yi * rows[i][j] for i, yi in enumerate(y)) <= 0
        assert sum(yi * b[i] for i, yi in enumerate(y)) > 0
    elif res.status == OPTIMAL:
        assert feasible
        # optimum is attained at a basic solution, so values must agree
        assert best is not None and res.value == best
        assert all(v >= 0 for v in res.x)
        for row, bi in zip(rows, b):
            assert sum(a * x for a, x in zip(row, res.x)) == bi
    else:
        assert res.status == UNBOUNDED
        assert feasible


def test_row_length_mismatch():
    with pytest.raises(ValueError):
        solve_standard([[F(1)]], [F(1)], [F(1), F(2)])


# ---------------------------------------------------------------------------
# Reference: the textbook Fraction tableau the integer-row kernel replaced.
# Same phases and the same Bland rule, one Fraction per entry.


class _FractionTableau:
    def __init__(self, a, b, ncols):
        self.a = a
        self.b = b
        self.m = len(a)
        self.ncols = ncols
        self.basis = []
        self.obj = []
        self.obj_value = F(0)

    def set_objective(self, cost):
        self.obj = list(cost)
        self.obj_value = F(0)
        for r, bv in enumerate(self.basis):
            f = cost[bv]
            if f != 0:
                self.obj = [o - f * v for o, v in zip(self.obj, self.a[r])]
                self.obj_value -= f * self.b[r]

    def pivot(self, row, col):
        inv = 1 / self.a[row][col]
        self.a[row] = [v * inv for v in self.a[row]]
        self.b[row] *= inv
        prow, pb = self.a[row], self.b[row]
        for r in range(self.m):
            if r != row:
                f = self.a[r][col]
                if f != 0:
                    self.a[r] = [v - f * w for v, w in zip(self.a[r], prow)]
                    self.b[r] -= f * pb
        f = self.obj[col]
        if f != 0:
            self.obj = [v - f * w for v, w in zip(self.obj, prow)]
            self.obj_value -= f * pb
        self.basis[row] = col

    def run(self, allowed):
        while True:
            enter = next((j for j in range(allowed) if self.obj[j] < 0), None)
            if enter is None:
                return OPTIMAL
            best_row, best_ratio = -1, None
            for r in range(self.m):
                coef = self.a[r][enter]
                if coef > 0:
                    ratio = self.b[r] / coef
                    if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and self.basis[r] < self.basis[best_row]
                    ):
                        best_ratio, best_row = ratio, r
            if best_row < 0:
                return UNBOUNDED
            self.pivot(best_row, enter)


def _reference_solve(a_rows, b, cost):
    m, n = len(a_rows), len(cost)
    signs = [1] * m
    a, rhs = [], []
    for i in range(m):
        row, bi = [F(v) for v in a_rows[i]], F(b[i])
        if bi < 0:
            row, bi, signs[i] = [-v for v in row], -bi, -1
        a.append(row + [F(int(k == i)) for k in range(m)])
        rhs.append(bi)
    t = _FractionTableau(a, rhs, n + m)
    t.basis = [n + i for i in range(m)]
    t.set_objective([F(0)] * n + [F(1)] * m)
    assert t.run(n + m) == OPTIMAL
    if -t.obj_value > 0:
        farkas = tuple(signs[i] * (1 - t.obj[n + i]) for i in range(m))
        return INFEASIBLE, None, None, farkas
    keep = []
    for r in range(t.m):
        if t.basis[r] >= n:
            col = next((j for j in range(n) if t.a[r][j] != 0), None)
            if col is None:
                continue
            t.pivot(r, col)
        keep.append(r)
    t.a = [t.a[r] for r in keep]
    t.b = [t.b[r] for r in keep]
    t.basis = [t.basis[r] for r in keep]
    t.m = len(keep)
    t.set_objective([F(c) for c in cost] + [F(0)] * m)
    if t.run(n) == UNBOUNDED:
        return UNBOUNDED, None, None, None
    x = [F(0)] * n
    for r, bv in enumerate(t.basis):
        if bv < n:
            x[bv] = t.b[r]
    return OPTIMAL, tuple(x), sum((c * v for c, v in zip(cost, x)), start=F(0)), None


_entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.integers(1, 12)),
)


@st.composite
def _lp_instances(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    rows = [[draw(_entries) for _ in range(n)] for _ in range(m)]
    b = [draw(_entries) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # redundant row: a scaled copy of row 0, right-hand side included
        k = draw(st.integers(1, m - 1))
        s = draw(_entries.filter(bool))
        rows[k] = [s * v for v in rows[0]]
        b[k] = s * b[0]
    if n > 1 and draw(st.booleans()):
        # degenerate ties: a repeated column and a zero right-hand side
        j = draw(st.integers(1, n - 1))
        for row in rows:
            row[j] = row[0]
        b[draw(st.integers(0, m - 1))] = F(0)
    cost = [draw(_entries) for _ in range(n)]
    if draw(st.booleans()):
        # a free ray: a zero column with negative cost is unbounded once feasible
        for row in rows:
            row.append(F(0))
        cost.append(F(-1))
    return rows, b, cost


@settings(max_examples=400, deadline=None)
@given(_lp_instances())
def test_simplex_matches_fraction_tableau(lp):
    rows, b, cost = lp
    res = solve_standard(rows, b, cost)
    assert (res.status, res.x, res.value, res.farkas) == _reference_solve(rows, b, cost)


def _recording_pivots(monkeypatch):
    """Patch the tableau's kernel to log (pivot entry, denominator it returns)."""
    log = []
    kernel = linprog.pivot

    def pivot(rows, D, r, col):
        entry = rows[r][col]
        D = kernel(rows, D, r, col)
        log.append((entry, D))
        return D

    monkeypatch.setattr(linprog, "pivot", pivot)
    return log


def test_negative_drive_out_pivot(monkeypatch):
    # Phase 1 ends with an artificial basic at level 0 whose row's first
    # nonzero is negative; driving it out pivots on -2, then phase 2 pivots
    # once more over the kept denominator.
    log = _recording_pivots(monkeypatch)
    rows, b, cost = [[F(2), F(2), F(1)], [F(0), F(-1), F(1)]], [F(2), F(2)], [F(1), F(-1), F(0)]
    res = solve_standard(rows, b, cost)
    assert (res.status, res.x, res.value, res.farkas) == _reference_solve(rows, b, cost)
    assert (res.x, res.value) == ((F(0), F(0), F(2)), F(0))
    assert log == [(2, 2), (1, 1), (-2, 2), (3, 3)]


def test_redundant_row_is_dropped(monkeypatch):
    # row 1 is row 0 times 2, written over another denominator (6 and 3)
    log = _recording_pivots(monkeypatch)
    dropped = []
    drop_rows = linprog._Tableau.drop_rows
    monkeypatch.setattr(linprog._Tableau, "drop_rows",
                        lambda t, keep: dropped.append(keep) or drop_rows(t, keep))
    rows, b, cost = [[F(1, 2), F(1, 3)], [F(1), F(2, 3)]], [F(1), F(2)], [F(1), F(2)]
    res = solve_standard(rows, b, cost)
    assert (res.status, res.x, res.value, res.farkas) == _reference_solve(rows, b, cost)
    assert (res.x, res.value) == ((F(2), F(0)), F(2))
    assert dropped == [[0]] and log == [(3, 3)]


def test_farkas_over_rows_of_different_denominators():
    # x + y = 1 and x/2 + y/2 = 1 over denominators 1 and 2 (L = 2)
    rows, b, cost = [[F(1), F(1)], [F(1, 2), F(1, 2)]], [F(1), F(1)], [F(0), F(0)]
    res = solve_standard(rows, b, cost)
    assert (res.status, res.x, res.value, res.farkas) == _reference_solve(rows, b, cost)
    assert res.farkas == (F(-1, 2), F(1))


def test_certificate_checks_reject_wrong_outcomes():
    # x + y = 1 and x + y = 2: y = (-1, 1) certifies infeasibility
    inputs, dens = [], []
    for row in ([F(1), F(1), F(1)], [F(1, 2), F(1, 2), F(1)]):
        ints, den = int_row(row)
        inputs.append(ints)
        dens.append(den)
    _check_farkas(inputs, dens, (F(-1), F(2)), 2)
    with pytest.raises(LinprogError):
        _check_farkas(inputs, dens, (F(1), F(-2)), 2)
    with pytest.raises(LinprogError):
        _check_farkas(inputs, dens, (F(-1), F(1)), 2)  # y.b = 0 is no proof

    inputs, _ = int_row([F(1), F(2), F(4)])  # x + 2y = 4
    cost, cost_den = int_row([F(1, 2), F(1, 2)])
    _check_optimal([inputs], cost, cost_den, (F(0), F(2)), F(1))
    with pytest.raises(LinprogError):
        _check_optimal([inputs], cost, cost_den, (F(1), F(2)), F(3, 2))  # infeasible point
    with pytest.raises(LinprogError):
        _check_optimal([inputs], cost, cost_den, (F(6), F(-1)), F(5, 2))  # negative coordinate
    with pytest.raises(LinprogError):
        _check_optimal([inputs], cost, cost_den, (F(0), F(2)), F(2))  # wrong value
