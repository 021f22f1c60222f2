"""Exact linear algebra: solving, rank, affine factoring.

Rational matrices are eliminated by one kernel over Python ints.  Each row
is a list of int numerators over one positive int denominator, kept
primitive (the gcd of the denominator and the numerators is 1), so every
entry is an exact rational while no Fraction is built inside the loops.
`linprog` pivots its simplex tableau with the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Sequence

from .errors import InternalError

ZERO = Fraction(0)
ONE = Fraction(1)


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


def reduce_row(
    row: list[int], den: int, prow: list[int], p: int, col: int
) -> tuple[list[int], int]:
    """Clear column col of the rational row row/den with the pivot row prow/p.

    prow[col] == p > 0, so the pivot row's rational entry at col is 1.  The
    result is p*row - row[col]*prow over den*p, reduced to be primitive.
    """
    f = row[col]
    if not f:
        return row, den
    new = [p * v - f * w for v, w in zip(row, prow)]
    den *= p
    g = gcd(den, *new)
    if g > 1:
        new = [v // g for v in new]
        den //= g
    return new, den


def pivot(rows: list[list[int]], dens: list[int], r: int, col: int) -> None:
    """Gauss-Jordan pivot in place: entry (r, col) becomes 1, the rest of col 0."""
    prow = rows[r]
    p = prow[col]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    g = gcd(*prow)
    if g > 1:
        prow = [v // g for v in prow]
        p //= g
    rows[r] = prow
    dens[r] = p
    for i, row in enumerate(rows):
        if i != r and row[col]:
            rows[i], dens[i] = reduce_row(row, dens[i], prow, p, col)


def _row_reduce(rows: list[list[int]], dens: list[int], ncols: int) -> list[tuple[int, int]]:
    """Reduced row echelon form over the first ncols columns, in place.

    The pivot of each column is the first nonzero entry at or below the
    current row.  Returns the (row, column) pivots; their count is the rank.
    """
    m = len(rows)
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        piv = next((r for r in range(row, m) if rows[r][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        dens[row], dens[piv] = dens[piv], dens[row]
        pivot(rows, dens, row, col)
        pivots.append((row, col))
    return pivots


@dataclass
class LinearSolution:
    """Outcome of gauss_solve.

    If consistent, x is one exact solution (free variables set to 0) and
    free_count is the dimension of the solution set.  If inconsistent,
    combination holds row multipliers y with y^T A = 0 but y^T b != 0.
    """

    consistent: bool
    x: tuple[Fraction, ...] | None = None
    free_count: int = 0
    combination: tuple[Fraction, ...] | None = None


def gauss_solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> LinearSolution:
    m = len(rows)
    n = len(rows[0]) if m else 0
    # Augment with the identity to track the row combination applied.
    a: list[list[int]] = []
    dens: list[int] = []
    for i in range(m):
        row, den = int_row([*rows[i], rhs[i]])
        row.extend(den if k == i else 0 for k in range(m))
        a.append(row)
        dens.append(den)
    pivots = _row_reduce(a, dens, n)
    for r in range(len(pivots), m):
        if a[r][n]:
            den = dens[r]
            return LinearSolution(
                False, combination=tuple(Fraction(v, den) for v in a[r][n + 1:])
            )
    x = [ZERO] * n
    for r, c in pivots:
        x[c] = Fraction(a[r][n], dens[r])
    return LinearSolution(True, x=tuple(x), free_count=n - len(pivots))


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """The number of pivots, that is columns minus free variables."""
    if not rows:
        return 0
    scaled = [int_row(r) for r in rows]
    return len(_row_reduce([r for r, _ in scaled], [d for _, d in scaled], len(rows[0])))


def affinely_independent(points: Sequence[Sequence[Fraction]]) -> bool:
    """True when no point is an affine combination of the others."""
    if not points:
        return True
    cols = [list(p) + [ONE] for p in points]
    return matrix_rank(cols) == len(points)


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


def affine_factor(
    keys: Sequence[Hashable],
    points: Sequence[Sequence[Fraction]],
    values: Sequence[Fraction],
) -> FactorResult:
    """Find c0, c with values[k] = c0 + c . points[k] for every key.

    Failure comes with a certificate: either a pair of keys whose points agree
    while the values differ, or row multipliers exhibiting an inconsistent
    system over distinct points.
    """
    seen: dict[tuple[Fraction, ...], int] = {}
    reps: list[int] = []
    for i, p in enumerate(points):
        key = tuple(p)
        j = seen.get(key)
        if j is None:
            seen[key] = i
            reps.append(i)
        elif values[i] != values[j]:
            return FactorResult(False, conflict=FactorConflict(keys[j], keys[i]))
    rows = [[ONE] + list(points[i]) for i in reps]
    rhs = [values[i] for i in reps]
    sol = gauss_solve(rows, rhs)
    if not sol.consistent:
        if sol.combination is None:
            raise LinalgError("inconsistent system without a row combination")
        return FactorResult(
            False,
            residue=FactorResidue(tuple(keys[i] for i in reps), sol.combination),
        )
    if sol.x is None:
        raise LinalgError("consistent system without a solution")
    return FactorResult(True, offset=sol.x[0], coeffs=tuple(sol.x[1:]))
