import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from affinelogic import linalg
from affinelogic.linalg import LinalgError, LinearSolution, gauss_solve, matrix_rank
from affinelogic.model import FiniteStructure, RelationInterp
from affinelogic.syntax import Apply, Var
from affinelogic.typespace import FormulaFamily, factor_through_hull, type_hull


def test_gauss_solve_unique():
    sol = gauss_solve([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
    assert sol.consistent and sol.free_count == 0
    assert sol.x == (F(2), F(1))


def test_gauss_solve_underdetermined():
    sol = gauss_solve([[F(1), F(1)]], [F(3)])
    assert sol.consistent and sol.free_count == 1
    x, y = sol.x
    assert x + y == 3


def test_gauss_solve_inconsistent_combination_is_a_proof():
    rows = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    rhs = [F(1), F(3), F(0)]
    sol = gauss_solve(rows, rhs)
    assert not sol.consistent
    c = sol.combination
    # the multipliers annihilate the matrix but not the right-hand side
    for j in range(2):
        assert sum(ci * rows[i][j] for i, ci in enumerate(c)) == 0
    assert sum(ci * rhs[i] for i, ci in enumerate(c)) != 0


def test_matrix_rank():
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(0), F(0)]]) == 0
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2


def _affinely_independent(points, consistent):
    """No point is an affine combination of the others: one column [p | 1]
    per point, and no free column.  A last row 0 = 1 makes the system
    inconsistent without changing its rank."""
    rows = [[p[c] for p in points] for c in range(len(points[0]))]
    rows.append([F(1)] * len(points))
    rhs = [F(0)] * len(rows)
    if not consistent:
        rows.append([F(0)] * len(points))
        rhs.append(F(1))
    sol = gauss_solve(rows, rhs)
    assert sol.consistent == consistent
    return sol.free_count == 0


@pytest.mark.parametrize("consistent", [True, False])
def test_gauss_solve_free_count_decides_affine_independence(consistent):
    def independent(points):
        return _affinely_independent(points, consistent)

    assert independent([[F(7)]])
    assert independent([[F(0)], [F(1)]])
    # collinear triple in the plane
    assert not independent([[F(0), F(0)], [F(1), F(1)], [F(2), F(2)]])
    assert independent([[F(0), F(0)], [F(1), F(0)], [F(0), F(1)]])
    # more points than dim + 1 can never be affinely independent
    assert not independent([[F(0)], [F(1)], [F(2)]])


# ---------------------------------------------------------------------------
# affine factoring through a type hull


def _hull_over(points):
    """The hull of a discrete structure whose element i has the family
    vector points[i]: one unary relation R<c> per coordinate, family R<c>(x)."""
    m, k = len(points), len(points[0])
    M = FiniteStructure(
        tuple(f"e{i}" for i in range(m)),
        tuple(tuple(F(int(i != j)) for j in range(m)) for i in range(m)),
        relations={f"R{c}": RelationInterp(1, F(1), {(i,): F(p[c]) for i, p in enumerate(points)})
                   for c in range(k)},
    )
    family = FormulaFamily(("x",), tuple(Apply(f"R{c}", (Var("x"),)) for c in range(k)))
    return type_hull(M, 1, family)


def _table(values):
    return {(i,): F(v) for i, v in enumerate(values)}


def test_factor_through_hull_recovers_plane():
    pts = [[F(0), F(0)], [F(1), F(0)], [F(0), F(1)], [F(1, 2), F(3, 4)]]
    vals = [F(1) + 2 * p[0] - F(1, 2) * p[1] for p in pts]
    res = factor_through_hull(_hull_over(pts), _table(vals))
    assert res.ok
    assert res.offset == 1
    assert res.coeffs == (F(2), F(-1, 2))


def test_factor_through_hull_conflict_names_the_pair():
    pts = [[F(1, 2), F(1)], [F(1, 2), F(1)]]
    res = factor_through_hull(_hull_over(pts), _table([0, 1]))
    assert not res.ok
    assert (res.conflict.key_a, res.conflict.key_b) == ((0,), (1,))
    # two clashing vertices: the first clashing tuple in product order, and
    # the first realization of its vertex
    pts = [[F(0)], [F(1)], [F(0)], [F(1)], [F(0)]]
    res = factor_through_hull(_hull_over(pts), _table([0, 5, 0, 6, 1]))
    assert (res.conflict.key_a, res.conflict.key_b) == ((1,), (3,))


def test_factor_through_hull_residue_certifies_nonaffineness():
    pts = [[F(0)], [F(1, 2)], [F(1)]]
    vals = [F(0), F(0), F(1)]  # not affine in one variable
    res = factor_through_hull(_hull_over(pts), _table(vals))
    assert not res.ok and res.residue is not None
    assert res.residue.keys == ((0,), (1,), (2,))
    comb = res.residue.combination
    rows = [[F(1)] + p for p in pts]
    for j in range(2):
        assert sum(c * rows[i][j] for i, c in enumerate(comb)) == 0
    assert sum(c * vals[i] for i, c in enumerate(comb)) != 0


@pytest.mark.parametrize("consistent", [True, False])
def test_factor_through_hull_rejects_a_solution_without_its_certificate(monkeypatch, consistent):
    hull = _hull_over([[F(0)], [F(1)]])
    monkeypatch.setattr(linalg, "gauss_solve", lambda rows, rhs: LinearSolution(consistent))
    with pytest.raises(LinalgError):
        factor_through_hull(hull, _table([0, 1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gauss_solve_random_roundtrip(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
    sol = gauss_solve(rows, rhs)
    if sol.consistent:
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, sol.x)) == b
    else:
        c = sol.combination
        for j in range(n):
            assert sum(ci * rows[i][j] for i, ci in enumerate(c)) == 0
        assert sum(ci * rhs[i] for i, ci in enumerate(c)) != 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_factor_through_hull_random_planted(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    c0 = F(rng.randint(-2, 2), rng.randint(1, 3))
    coeffs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    pts = [[F(rng.randint(0, 4), 4) for _ in range(n)] for _ in range(rng.randint(1, 6))]
    vals = [c0 + sum(c * x for c, x in zip(coeffs, p)) for p in pts]
    res = factor_through_hull(_hull_over(pts), _table(vals))
    assert res.ok
    for p, v in zip(pts, vals):
        assert res.offset + sum(c * x for c, x in zip(res.coeffs, p)) == v


def _reference_gauss_solve(rows, rhs):
    """The Fraction Gauss-Jordan elimination the integer-row kernel replaced,
    reporting n - rank as the free count whether or not the system is
    consistent."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[F(v) for v in rows[i]] + [F(rhs[i])] + [F(int(k == i)) for k in range(m)]
         for i in range(m)]
    pivots = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n] != 0:
            return False, None, n - len(pivots), tuple(a[r][n + 1:])
    x = [F(0)] * n
    for r, c in pivots:
        x[c] = a[r][n]
    return True, tuple(x), n - len(pivots), None


_entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.integers(1, 12)),
)


@st.composite
def _systems(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    rows = [[draw(_entries) for _ in range(n)] for _ in range(m)]
    rhs = [draw(_entries) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # a combination of two rows; a perturbed right-hand side makes it inconsistent
        k = draw(st.integers(1, m - 1))
        s, t = draw(_entries), draw(_entries)
        rows[k] = [s * u + t * v for u, v in zip(rows[0], rows[k - 1])]
        rhs[k] = s * rhs[0] + t * rhs[k - 1] + draw(_entries)
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(_systems())
def test_gauss_solve_matches_fraction_elimination(system):
    rows, rhs = system
    sol = gauss_solve(rows, rhs)
    expected = _reference_gauss_solve(rows, rhs)
    assert (sol.consistent, sol.x, sol.free_count, sol.combination) == expected
    homogeneous = _reference_gauss_solve(rows, [F(0)] * len(rows))
    assert matrix_rank(rows) == len(rows[0]) - homogeneous[2]


# ---------------------------------------------------------------------------
# the fraction-free pivot: one common denominator, |det| of the basis


def test_pivot_denominator_is_the_basis_determinant():
    # [B | I] with B = [[2, 1], [1, 3]], det 5: the rows end as 5 * B^-1 [B | I]
    rows = [[2, 1, 1, 0], [1, 3, 0, 1]]
    D = linalg.pivot(rows, 1, 0, 0)
    assert (rows, D) == ([[2, 1, 1, 0], [0, 5, -1, 2]], 2)
    D = linalg.pivot(rows, D, 1, 1)
    assert (rows, D) == ([[5, 0, 3, -1], [0, 5, -1, 2]], 5)


def test_negative_pivot_negates_and_keeps_the_denominator_positive():
    # B = [[-2, 1], [1, 3]], det -7: the pivot row is negated, D stays > 0
    rows = [[-2, 1, 1, 0], [1, 3, 0, 1]]
    D = linalg.pivot(rows, 1, 0, 0)
    assert (rows, D) == ([[2, -1, -1, 0], [0, 7, 1, 2]], 2)
    D = linalg.pivot(rows, D, 1, 1)
    assert (rows, D) == ([[7, 0, -3, 1], [0, 7, 1, 2]], 7)
    # 7 * B^-1 = [[-3, 1], [1, 2]]: the identity block holds it exactly
    B = [[F(-2), F(1)], [F(1), F(3)]]
    for i in range(2):
        for j in range(2):
            assert sum(F(rows[i][2 + k], D) * B[k][j] for k in range(2)) == (i == j)


def _det(matrix):
    """Leibniz expansion: the sum over permutations of signed products."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=4)
))
def test_row_reduce_denominator_is_the_pivot_minor(rows):
    # D is |det| of the pivoted input rows and columns; every entry an int
    original = [list(r) for r in rows]
    pivots, D, order = linalg._row_reduce(rows, len(rows[0]))
    cols = [c for _, c in pivots]
    minor = [[original[order[k]][c] for c in cols] for k in range(len(pivots))]
    assert D == abs(_det(minor)) > 0
    assert sorted(order) == list(range(len(rows)))
    for r, c in pivots:
        assert rows[r][c] == D and all(rows[i][c] == 0 for i in range(len(rows)) if i != r)
    assert all(not any(row) for row in rows[len(pivots):])
