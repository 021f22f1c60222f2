"""Simplex over exact rationals.

Standard form: minimize c.x subject to A x = b, x >= 0.  Two phases, full
tableau, Bland's rule throughout (smallest eligible index enters, ties in the
ratio test go to the row whose basic variable has the smallest index), so the
method terminates without cycling.  No floating point anywhere.

The API takes and returns `Fraction`s.  Inside, each tableau row is a list
of Python ints over one positive denominator, pivoted by the elimination
kernel of `linalg`: every entry equals the rational the textbook tableau
would hold, so the pivot path and the results are exactly those of a
`Fraction` tableau, without a `Fraction` built per entry.

Infeasible problems come back with a Farkas certificate y: y.A <= 0
componentwise and y.b > 0, stated for the caller's row orientation.  Every
outcome that carries a certificate is checked against the input in int
arithmetic before it is returned (Farkas: y.A <= 0 and y.b > 0; optimal:
A x = b, x >= 0 and value = c.x); a failed check raises LinprogError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import InternalError
from .linalg import int_row, pivot, reduce_row

ZERO = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LinprogError(InternalError):
    """The simplex produced an outcome that fails its own certificate check."""


@dataclass
class SimplexResult:
    status: str
    x: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None


class _Tableau:
    """Constraint rows, then the reduced-cost row, as `linalg` int rows.

    Column `ncols` holds the right-hand side; in the reduced-cost row it
    holds minus the objective value of the current basis.
    """

    def __init__(self, rows: list[list[int]], dens: list[int], ncols: int):
        self.rows = rows + [[0] * (ncols + 1)]
        self.dens = dens + [1]
        self.m = len(rows)
        self.ncols = ncols
        self.basis: list[int] = []

    def set_objective(self, cost: list[int], den: int) -> None:
        """Recompute the reduced-cost row of cost / den for the current basis."""
        obj = cost + [0]
        for r, bv in enumerate(self.basis):
            # a basic column is 1 in its row, so that row's entry is its denominator
            obj, den = reduce_row(obj, den, self.rows[r], self.dens[r], bv)
        self.rows[self.m] = obj
        self.dens[self.m] = den

    def pivot(self, row: int, col: int) -> None:
        pivot(self.rows, self.dens, row, col)
        self.basis[row] = col

    def drop_rows(self, keep: list[int]) -> None:
        keep = keep + [self.m]
        self.rows = [self.rows[r] for r in keep]
        self.dens = [self.dens[r] for r in keep]
        self.basis = [self.basis[r] for r in keep[:-1]]
        self.m = len(self.basis)

    def run(self, allowed: int) -> str:
        """Bland simplex over columns [0, allowed)."""
        rows, m, rhs = self.rows, self.m, self.ncols
        basis = self.basis
        while True:
            obj = rows[m]
            enter = next((j for j in range(allowed) if obj[j] < 0), None)
            if enter is None:
                return OPTIMAL
            # A row's denominator cancels from its ratio rhs/coef, so ratios
            # compare by cross-multiplying numerators.
            best_row = -1
            best_rhs = best_coef = 0
            for r in range(m):
                coef = rows[r][enter]
                if coef > 0:
                    b = rows[r][rhs]
                    if best_row < 0 or b * best_coef < best_rhs * coef or (
                        b * best_coef == best_rhs * coef and basis[r] < basis[best_row]
                    ):
                        best_row, best_rhs, best_coef = r, b, coef
            if best_row < 0:
                return UNBOUNDED
            self.pivot(best_row, enter)


def _check_farkas(
    a: list[list[int]], dens: list[int], farkas: tuple[Fraction, ...], n: int
) -> None:
    """y.A <= 0 and y.b > 0, where row i of [A | b] is a[i] / dens[i]."""
    y, _ = int_row(farkas)
    scale = lcm(*dens)
    sums = [0] * (n + 1)
    for yi, d, row in zip(y, dens, a):
        if yi:
            w = yi * (scale // d)
            sums = [s + w * v for s, v in zip(sums, row)]
    if any(s > 0 for s in sums[:n]) or sums[n] <= 0:
        raise LinprogError("Farkas certificate fails y.A <= 0 < y.b")


def _check_optimal(
    a: list[list[int]],
    cost: list[int],
    cost_den: int,
    x: tuple[Fraction, ...],
    value: Fraction,
) -> None:
    """A x = b, x >= 0 and value = c.x, where c = cost / cost_den.

    Each row of a is [A_i | b_i] times a positive integer; x is scaled to
    integers over one common denominator.
    """
    n = len(x)
    xs, xscale = int_row(x)
    if any(v < 0 for v in xs):
        raise LinprogError("optimal point has a negative coordinate")
    for row in a:
        if sum(map(mul, row, xs)) != row[n] * xscale:
            raise LinprogError("optimal point violates an equality constraint")
    if sum(map(mul, cost, xs)) * value.denominator != (
        value.numerator * cost_den * xscale
    ):
        raise LinprogError("optimal value differs from c.x")


def solve_standard(
    a_rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    cost: Sequence[Fraction],
) -> SimplexResult:
    """Minimize cost.x subject to a_rows x = b, x >= 0."""
    m = len(a_rows)
    n = len(cost)
    costs, cost_den = int_row(cost)
    inputs: list[list[int]] = []   # row i: [A_i | b_i] times dens[i]
    rows: list[list[int]] = []
    dens: list[int] = []
    signs = [1] * m
    for i in range(m):
        if len(a_rows[i]) != n:
            raise ValueError("row length does not match cost length")
        row, den = int_row([*a_rows[i], b[i]])
        inputs.append(row)
        if row[n] < 0:
            row = [-v for v in row]
            signs[i] = -1
        rows.append(row[:n] + [den if k == i else 0 for k in range(m)] + row[n:])
        dens.append(den)

    t = _Tableau(rows, dens, n + m)
    t.basis = [n + i for i in range(m)]
    t.set_objective([0] * n + [1] * m, 1)
    if t.run(n + m) != OPTIMAL:
        raise LinprogError("phase 1 is bounded below by 0 but came back unbounded")
    obj, den = t.rows[t.m], t.dens[t.m]
    if obj[n + m] < 0:
        # y_i = 1 - reduced cost of the i-th artificial column.
        farkas = tuple(Fraction(signs[i] * (den - obj[n + i]), den) for i in range(m))
        _check_farkas(inputs, dens, farkas, n)
        return SimplexResult(INFEASIBLE, farkas=farkas)

    # Drive basic artificials out; drop rows that are redundant.
    keep: list[int] = []
    for r in range(t.m):
        if t.basis[r] >= n:
            col = next((j for j in range(n) if t.rows[r][j]), None)
            if col is None:
                continue  # redundant equation
            t.pivot(r, col)
        keep.append(r)
    if len(keep) != t.m:
        t.drop_rows(keep)

    t.set_objective(costs + [0] * m, cost_den)
    if t.run(n) == UNBOUNDED:  # artificial columns may never re-enter
        return SimplexResult(UNBOUNDED)
    x = [ZERO] * n
    for r, bv in enumerate(t.basis):
        if bv < n:
            x[bv] = Fraction(t.rows[r][n + m], t.dens[r])
    value = Fraction(-t.rows[t.m][n + m], t.dens[t.m])
    _check_optimal(inputs, costs, cost_den, tuple(x), value)
    return SimplexResult(OPTIMAL, x=tuple(x), value=value)
