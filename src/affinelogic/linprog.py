"""Simplex over exact rationals.

Standard form: minimize c.x subject to A x = b, x >= 0.  Two phases, full
tableau, Bland's rule throughout (smallest eligible index enters, ties in the
ratio test go to the row whose basic variable has the smallest index), so the
method terminates without cycling.  No floating point anywhere.

`solve_int` takes int rows, each over its own positive denominator, and
every LP of the library is stated that way.  `solve_standard`, `Fraction`
in and out, is the entry point for outside callers: it scales each row to
ints and calls `solve_int`.  The tableau is int rows over one
denominator, pivoted by the fraction-free kernel of `linalg`.  Phase 1
starts from each row times its own denominator, artificial columns of 1
and artificial costs L / den_i (L the lcm of the denominators): positive
column and objective scalings of the textbook `Fraction` tableau, which
keep every reduced-cost sign and every ratio order, so the pivots and
results are the textbook ones.

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
from .linalg import int_row, pivot

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
    """Constraint rows, then the reduced-cost row, as int rows over the
    common denominator D of `linalg.pivot`.

    Column `ncols` holds the right-hand side; in the reduced-cost row it
    holds minus the objective value of the current basis.
    """

    def __init__(self, rows: list[list[int]], ncols: int):
        self.rows = rows + [[0] * (ncols + 1)]
        self.D = 1
        self.m = len(rows)
        self.ncols = ncols
        self.basis: list[int] = []

    def set_objective(self, cost: list[int]) -> None:
        """The reduced-cost row of the int costs for the current basis: D*c
        minus c_B times the rows, over D times the costs' denominator."""
        obj = [self.D * c for c in cost] + [0]
        for row, bv in zip(self.rows, self.basis):
            f = cost[bv]
            if f:
                obj = [o - f * v for o, v in zip(obj, row)]
        self.rows[self.m] = obj

    def pivot(self, row: int, col: int) -> None:
        self.D = pivot(self.rows, self.D, row, col)
        self.basis[row] = col

    def drop_rows(self, keep: list[int]) -> None:
        self.rows = [self.rows[r] for r in keep + [self.m]]
        self.basis = [self.basis[r] for r in keep]
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
            # The common denominator cancels from a ratio rhs/coef, so
            # ratios compare by cross-multiplying numerators.
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
    scaled = [int_row([*a_rows[i], b[i]]) for i in range(len(a_rows))]
    return solve_int([r for r, _ in scaled], [d for _, d in scaled], *int_row(cost))


def solve_int(
    inputs: Sequence[list[int]], dens: Sequence[int], costs: list[int], cost_den: int
) -> SimplexResult:
    """Minimize (costs / cost_den).x subject to A x = b, x >= 0, where row i
    of [A | b] is inputs[i] / dens[i] > 0; the inputs are not modified."""
    m = len(inputs)
    n = len(costs)
    rows: list[list[int]] = []
    signs = [1] * m
    for i, row in enumerate(inputs):
        if len(row) != n + 1:
            raise ValueError("row length does not match cost length")
        if row[n] < 0:
            row = [-v for v in row]
            signs[i] = -1
        rows.append(row[:n] + [int(k == i) for k in range(m)] + row[n:])

    t = _Tableau(rows, n + m)
    t.basis = [n + i for i in range(m)]
    scale = lcm(*dens)
    t.set_objective([0] * n + [scale // d for d in dens])
    if t.run(n + m) != OPTIMAL:
        raise LinprogError("phase 1 is bounded below by 0 but came back unbounded")
    obj, den = t.rows[t.m], scale * t.D
    if obj[n + m] < 0:
        # y_i = 1 - the textbook reduced cost of artificial i, which is
        # dens[i] * obj[n + i] / (scale * D) here.
        farkas = tuple(Fraction(signs[i] * (den - dens[i] * obj[n + i]), den) for i in range(m))
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

    t.set_objective(costs + [0] * m)
    if t.run(n) == UNBOUNDED:  # artificial columns may never re-enter
        return SimplexResult(UNBOUNDED)
    x = [ZERO] * n
    for r, bv in enumerate(t.basis):
        if bv < n:
            x[bv] = Fraction(t.rows[r][n + m], t.D)
    value = Fraction(-t.rows[t.m][n + m], t.D * cost_den)
    _check_optimal(inputs, costs, cost_den, tuple(x), value)
    return SimplexResult(OPTIMAL, x=tuple(x), value=value)
