"""Exact linear algebra: solving and rank, and the result types of affine
factoring (`typespace.factor_through_hull` solves it over a type hull).

Rational matrices are eliminated by one fraction-free kernel over Python
ints (integer-preserving Gauss-Jordan: Bareiss 1968, Edmonds).  All rows
are int numerators over one positive denominator D, and every division is
exact, so no gcd and no Fraction is needed inside the loops.  `linprog`
pivots its simplex tableau with the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Hashable, Sequence

from .errors import InternalError

ZERO = Fraction(0)


class LinalgError(InternalError):
    """A solve returned an outcome without the part its status promises."""


def int_row(values: Sequence) -> tuple[list[int], int]:
    """Exact rationals as int numerators over their least common denominator."""
    pairs = [
        v.as_integer_ratio() if type(v) is Fraction or type(v) is int
        else Fraction(v).as_integer_ratio()
        for v in values
    ]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def fractions_over(nums: Sequence[int], den: int) -> list[Fraction]:
    """The inverse of int_row: nums[i] / den as Fractions, one Fraction built
    per distinct numerator (tables repeat few values over many cells)."""
    memo = {n: Fraction(n, den) for n in set(nums)}
    return [memo[n] for n in nums]


def pivot(rows: list[list[int]], D: int, r: int, col: int) -> int:
    """Gauss-Jordan pivot on entry (r, col) of the rows over D, in place.

    Returns the new denominator |rows[r][col]|.  The pivot row is kept,
    negated if its pivot is negative (which negates every row, so the
    denominator stays positive); every other row becomes (p*v - f*w) // D.
    The division is exact: from int rows over D = 1, the entries stay
    minors of the starting rows and D = |det| of the pivoted minor.
    """
    prow = rows[r]
    p = prow[col]
    if p < 0:
        prow = rows[r] = [-w for w in prow]
        p = -p
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if f:
            rows[i] = [(p * v - f * w) // D for v, w in zip(row, prow)]
        elif p != D:
            rows[i] = [p * v // D for v in row]
    return p


def _row_reduce(rows: list[list[int]], ncols: int) -> tuple[list[tuple[int, int]], int, list[int]]:
    """Reduced row echelon form over the first ncols columns, in place.

    The pivot of each column is the first nonzero entry at or below the
    current row.  Returns the (row, column) pivots, whose count is the
    rank, the denominator D, and the order: rows[k] was input row order[k].
    """
    m = len(rows)
    order = list(range(m))
    pivots: list[tuple[int, int]] = []
    D = 1
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        piv = next((r for r in range(row, m) if rows[r][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        order[row], order[piv] = order[piv], order[row]
        D = pivot(rows, D, row, col)
        pivots.append((row, col))
    return pivots, D, order


@dataclass
class LinearSolution:
    """Outcome of gauss_solve.

    free_count is n - rank(A), consistent or not: the dimension of the
    solution set when there is one, and 0 exactly when the columns of A are
    linearly independent.  If consistent, x is one exact solution (free
    variables set to 0).  If inconsistent, combination holds row
    multipliers y with y^T A = 0 but y^T b != 0.
    """

    consistent: bool
    x: tuple[Fraction, ...] | None = None
    free_count: int = 0
    combination: tuple[Fraction, ...] | None = None


def gauss_solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> LinearSolution:
    m = len(rows)
    n = len(rows[0]) if m else 0
    # Row i: [A_i | b_i | e_i] times its denominator; the e_i block tracks
    # the combination of input rows applied.
    a: list[list[int]] = []
    for i in range(m):
        row, den = int_row([*rows[i], rhs[i]])
        row.extend(den if k == i else 0 for k in range(m))
        a.append(row)
    pivots, D, order = _row_reduce(a, n)
    for r in range(len(pivots), m):
        if a[r][n]:
            comb = a[r][n + 1:]
            own = comb[order[r]]  # scaled to the textbook multiplier 1 of its own input row
            return LinearSolution(False, free_count=n - len(pivots),
                                  combination=tuple(Fraction(v, own) for v in comb))
    x = [ZERO] * n
    for r, c in pivots:
        x[c] = Fraction(a[r][n], D)
    return LinearSolution(True, x=tuple(x), free_count=n - len(pivots))


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """The number of pivots, that is columns minus free variables."""
    if not rows:
        return 0
    return len(_row_reduce([int_row(r)[0] for r in rows], len(rows[0]))[0])


@dataclass
class FactorConflict:
    """Two keys share identical coordinates but carry different values."""

    key_a: Hashable
    key_b: Hashable


@dataclass
class FactorResidue:
    """An inconsistent linear system: multipliers over the distinct-point
    equations combining to 0 = nonzero."""

    keys: tuple[Hashable, ...]
    combination: tuple[Fraction, ...]


@dataclass
class FactorResult:
    """Affine factoring outcome: value(key) = offset + coeffs . point(key)."""

    ok: bool
    offset: Fraction | None = None
    coeffs: tuple[Fraction, ...] | None = None
    conflict: FactorConflict | None = None
    residue: FactorResidue | None = None
