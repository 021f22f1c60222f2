"""Distance predicates, zero-set recovery, domination, and definability checks.

A predicate table is definable over a formula family exactly when it factors
affinely through the family's evaluation vectors; a tuple set is definable
when its distance predicate does.  The finite setting makes every check an
exact computation: linear solves, closed forms, exhaustive minima.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import AffineLogicError, InternalError
from .model import FiniteStructure, automorphisms, eval_table, neighbour_pairs
from .typespace import FormulaFamily, TypeVector, factor_table_through_family, family_tables

ZERO = Fraction(0)
ONE = Fraction(1)


class DefinabilityError(AffineLogicError, ValueError):
    pass


class _Internal(InternalError, DefinabilityError):
    """A re-check of this module's own result failed."""


@dataclass
class PredicateTable:
    """A total [0,1]-free real-valued table over n-tuples of a structure."""

    arity: int
    values: dict[tuple[int, ...], Fraction]


@dataclass
class FunctionTable:
    """A total map M^n -> M^m given entry-wise, with a declared constant."""

    arity_in: int
    arity_out: int
    lam: Fraction
    table: dict[tuple[int, ...], tuple[int, ...]]


def validate_predicate(M: FiniteStructure, P: PredicateTable) -> None:
    expected = set(itertools.product(range(M.size), repeat=P.arity))
    if set(P.values) != expected:
        raise DefinabilityError(
            f"predicate table must cover all {len(expected)} tuples of arity {P.arity}"
        )


def validate_function_table(M: FiniteStructure, f: FunctionTable) -> None:
    expected = set(itertools.product(range(M.size), repeat=f.arity_in))
    if set(f.table) != expected:
        raise DefinabilityError("function table must cover every input tuple")
    for args, out in f.table.items():
        if len(out) != f.arity_out:
            raise DefinabilityError(f"output arity mismatch at {args}")
        if any(not 0 <= x < M.size for x in out):
            raise DefinabilityError(f"output out of range at {args}")
    # All pairs: M is not validated here, and reducing to neighbour pairs
    # for tuple-valued outputs needs the triangle inequality of its metric.
    # Tuple distances are int sums over the metric's common denominator.
    d, _ = M.int_metric
    lam_num, lam_den = f.lam.as_integer_ratio()
    for a in expected:
        fa = f.table[a]
        for b in expected:
            out = sum(d[x][y] for x, y in zip(fa, f.table[b]))
            if out * lam_den > lam_num * sum(d[x][y] for x, y in zip(a, b)):
                raise DefinabilityError(
                    f"function table violates its declared constant at {a}, {b}"
                )


def predicate_from_formula(
    M: FiniteStructure, phi, variables: Sequence[str]
) -> PredicateTable:
    """Tabulate a formula as a predicate over the given variable order."""
    variables = tuple(variables)
    return PredicateTable(len(variables), eval_table(M, phi, variables))


def _tuples(M: FiniteStructure, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(M.size), repeat=n))


def _normalize_set(D, n: int | None = None) -> tuple[frozenset[tuple[int, ...]], int]:
    tuples = frozenset(tuple(a) for a in D)
    if tuples:
        arities = {len(a) for a in tuples}
        if len(arities) != 1:
            raise DefinabilityError("set members must share one arity")
        found = arities.pop()
        if n is not None and n != found:
            raise DefinabilityError("declared arity does not match the set")
        return tuples, found
    if n is None:
        raise DefinabilityError("empty set needs an explicit arity")
    return tuples, n


# ---------------------------------------------------------------------------
# distance predicates


def _sums(rows: Sequence[Sequence[int]], a: tuple[int, ...]) -> Sequence[int]:
    """[sum_i rows[a[i]][y[i]] for y in product(range(m), repeat=len(a))].

    With rows the int metric this is the distance from a to every tuple y,
    in the order of `_tuples`; with its transpose, from every y to a.
    """
    if not a:
        return [0]
    out = rows[a[0]]
    for x in a[1:]:
        row = rows[x]
        out = [s + r for s in out for r in row]
    return out


def _set_distances(d: Sequence[Sequence[int]], tuples) -> list[int]:
    """Int numerators, over the denominator of the int metric d, of the
    distance from each tuple (in the order of `_tuples`) to the nonempty
    set `tuples`: an int min over the members."""
    cols = [list(col) for col in zip(*d)]
    best = None
    for b in tuples:
        dist = _sums(cols, b)
        best = dist if best is None else list(map(min, best, dist))
    return best


def distance_predicate(
    M: FiniteStructure, D, n: int | None = None
) -> PredicateTable:
    """Distance-to-D table in the sum metric on tuples.

    Each cell is an int min of int sums over the metric's common
    denominator (see `FiniteStructure.int_metric`); a Fraction is built
    only per distinct returned value.  For empty D the result is the
    constant sup of the tuple metric (n times the diameter), the value of
    an infimum over nothing in this calculus.
    """
    tuples, n = _normalize_set(D, n)
    if not tuples:
        top = Fraction(n) * M.diameter()
        return PredicateTable(n, {a: top for a in _tuples(M, n)})
    d, den = M.int_metric
    nums = _set_distances(d, tuples)
    return PredicateTable(n, dict(zip(_tuples(M, n), linalg.fractions_over(nums, den))))


@dataclass
class AxiomCheck:
    ok: bool
    witness: tuple | None = None


@dataclass
class DistanceAxiomReport:
    """Per-axiom results: nonnegativity, nonexpansiveness, approachability.

    Approachability asks, for every point a, whether a distribution over
    tuples can have zero mean P while staying within P(a) of a in the mean;
    failures carry (a, (r0, r1)), the Farkas pair of the per-point condition
    pair normalised to r0 + r1 = 1.
    """

    nonnegative: AxiomCheck
    nonexpansive: AxiomCheck
    approachable: AxiomCheck

    @property
    def ok(self) -> bool:
        return self.nonnegative.ok and self.nonexpansive.ok and self.approachable.ok

    @property
    def failing(self) -> list[str]:
        """Names of the failing axioms, in the order above."""
        return [f.name for f in fields(self) if not getattr(self, f.name).ok]

    def __bool__(self) -> bool:
        return self.ok


def check_distance_axioms(M: FiniteStructure, P: PredicateTable) -> DistanceAxiomReport:
    """Nonnegativity, nonexpansiveness and approachability of P, exactly.

    M is assumed to be a valid structure (see `validate_structure`).
    P and the metric are scaled once to int numerators over one common
    denominator L, and every comparison below is on those ints.
    Nonexpansiveness is checked on neighbour pairs only, which is exact in
    the sum metric (see `neighbour_pairs`); its witness (a, b) has
    P(a) - P(b) > d(a, b).  Approachability at a is decided in closed form
    by `_approach_refutation`, with no LP.
    """
    validate_predicate(M, P)
    tuples = _tuples(M, P.arity)
    d, D = M.int_metric
    nums, den = linalg.int_row([P.values[a] for a in tuples])
    L = math.lcm(den, D)
    p = [v * (L // den) for v in nums]
    d = [[v * (L // D) for v in row] for row in d]

    nonneg = AxiomCheck(True)
    for a, v in zip(tuples, p):
        if v < 0:
            nonneg = AxiomCheck(False, (a,))
            break

    nonexp = AxiomCheck(True)
    pv = dict(zip(tuples, p))
    for a, b, x, y in neighbour_pairs(M.size, P.arity):
        diff = pv[a] - pv[b]
        if abs(diff) > d[x][y]:
            nonexp = AxiomCheck(False, (a, b) if diff > 0 else (b, a))
            break

    approach = AxiomCheck(True)
    for a, pa in zip(tuples, p):
        farkas = _approach_refutation(a, pa, p, _sums(d, a))
        if farkas is not None:
            approach = AxiomCheck(False, (a, farkas))
            break

    return DistanceAxiomReport(nonneg, nonexp, approach)


def _approach_refutation(
    a: tuple[int, ...], pa: int, p: Sequence[int], dist: Sequence[int],
) -> tuple[Fraction, Fraction] | None:
    """Farkas pair (1 - s, s) refuting approachability at a, or None.

    P(a) = pa / L, P(y) = p[y] / L and d(a, y) = dist[y] / L, over one
    common denominator L, with y indexing the tuples in a fixed order.

    With f(y) = -P(y) and g(y) = P(a) - d(a, y), some distribution has
    mean f >= 0 and mean g >= 0 unless, by Ville's alternative, some
    s in [0, 1] has (1 - s) f(y) + s g(y) < 0 for every y.  Writing
    h = g - f, each y asks s * h(y) < -f(y): an open half-line for s when
    h(y) != 0, and f(y) < 0 when h(y) = 0.  Those s form the interval
    (lo, hi) cut from [0, 1]; it is nonempty iff lo < hi.  L cancels in
    -f / h, so lo and hi are kept as int (numerator, denominator > 0)
    pairs and compared cross-multiplied.  The midpoint s = sn / sd is
    re-checked exactly, as (sd - sn) * f + sn * g < 0 in ints for every y,
    before it is returned as Fractions.
    """
    ln, ld, hn, hd = 0, 1, 1, 1
    for py, dy in zip(p, dist):
        h = pa - dy + py  # (g - f) * L; the bound -f / h is py / h
        if h > 0:
            if py * hd < hn * h:
                hn, hd = py, h
        elif h < 0:
            if py * ld < ln * h:  # py / h > ln / ld, with h < 0
                ln, ld = -py, -h
        elif py <= 0:
            return None
        if ln * hd >= hn * ld:
            return None
    sn, sd = ln * hd + hn * ld, 2 * ld * hd
    if any((sn - sd) * py + sn * (pa - dy) >= 0 for py, dy in zip(p, dist)):
        raise _Internal(f"approachability refutation at {a} does not refute")
    return Fraction(sd - sn, sd), Fraction(sn, sd)


def zeroset_recover(M: FiniteStructure, P: PredicateTable) -> frozenset[tuple[int, ...]]:
    """Zero set of a predicate satisfying the distance axioms.

    Refuses when the axioms fail.  When they hold, the zero set is nonempty
    and its distance predicate reproduces P exactly.
    """
    report = check_distance_axioms(M, P)
    if not report.ok:
        raise DefinabilityError(
            "distance axioms fail, refusing to recover: " + ", ".join(report.failing)
        )
    zero = frozenset(a for a, v in P.values.items() if v == 0)
    back = distance_predicate(M, zero, P.arity)
    if back.values != P.values:
        raise _Internal("recovered set does not reproduce the predicate")
    return zero


# ---------------------------------------------------------------------------
# domination


@dataclass
class DominationResult:
    """Least lam with Q <= lam * P + eps, or a zero-set witness against it."""

    dominates: bool
    lam: Fraction | None = None
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.dominates


def lambda_domination(
    M: FiniteStructure, P: PredicateTable, Q: PredicateTable, eps: Fraction
) -> DominationResult:
    """Smallest lam >= 0 with Q <= lam * P + eps, when one exists.

    Domination at every eps > 0 is exactly zero-set containment: if some a
    has P(a) = 0 < Q(a), no lam works once eps < Q(a), and that witness is
    returned instead.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise DefinabilityError("eps must be nonnegative")
    if P.arity != Q.arity:
        raise DefinabilityError("P and Q must share an arity")
    validate_predicate(M, P)
    validate_predicate(M, Q)
    for a in sorted(P.values):
        if P.values[a] == 0 and Q.values[a] > 0:
            return DominationResult(False, witness=a)
    lam = ZERO
    for a, pv in P.values.items():
        if pv > 0:
            need = (Q.values[a] - eps) / pv
            if need > lam:
                lam = need
    for a in P.values:
        if Q.values[a] > lam * P.values[a] + eps:
            raise _Internal(f"domination bound {lam} fails at {a}")
    return DominationResult(True, lam=lam)


# ---------------------------------------------------------------------------
# definability checks


@dataclass
class AffineWitness:
    """Q(a) = offset + coeffs . (family values at a), for every tuple a."""

    offset: Fraction
    coeffs: tuple[Fraction, ...]
    family: FormulaFamily


@dataclass
class DefinabilityReport:
    """A verdict with its witness or certificate; on a set, its distance table too."""

    definable: bool
    witness: AffineWitness | None = None
    conflict: linalg.FactorConflict | None = None
    residue: linalg.FactorResidue | None = None
    distance: PredicateTable | None = None

    def __bool__(self) -> bool:
        return self.definable


def is_definable_predicate(
    M: FiniteStructure, P: PredicateTable, family: FormulaFamily
) -> DefinabilityReport:
    """Does P factor affinely through the family's evaluation vectors?

    Failure certificates: either two tuples with identical family vectors
    but different P values, or multipliers showing the linear system has no
    solution over the distinct vectors.
    """
    validate_predicate(M, P)
    if P.arity != family.arity:
        raise DefinabilityError("predicate arity must match the family")
    res = factor_table_through_family(M, P.values, family)
    if res.ok:
        if res.offset is None or res.coeffs is None:
            raise _Internal("affine factorisation reported no coefficients")
        return DefinabilityReport(
            True, witness=AffineWitness(res.offset, res.coeffs, family)
        )
    return DefinabilityReport(False, conflict=res.conflict, residue=res.residue)


def is_definable_set(
    M: FiniteStructure, D, family: FormulaFamily, n: int | None = None
) -> DefinabilityReport:
    """A set is definable over F exactly when its distance table is."""
    dist = distance_predicate(M, D, n)
    return replace(is_definable_predicate(M, dist, family), distance=dist)


# ---------------------------------------------------------------------------
# projections over a set


@dataclass
class ProjectionReport:
    """inf over D of P, with the penalty-form identity checked exactly.

    table[x] = min over b in D of P(x, b); identity_holds records that
    min over all z of (P(x, z) + lam * dist(z, D)) gives the same table.
    """

    table: PredicateTable
    identity_holds: bool
    lam: Fraction


def inf_over_definable(
    M: FiniteStructure, D, P: PredicateTable, lam: Fraction, n: int | None = None
) -> ProjectionReport:
    """Project P by an exact minimum over D in its trailing coordinates.

    P must be lam-Lipschitz in the trailing block (validated on neighbour
    pairs of the block, which is exact, see `neighbour_pairs`); that is what
    makes the penalty form with lam * distance-to-D agree with
    the direct minimum.  The scan, the minimum and the identity compare
    int numerators: P over its common denominator, the metric over its own
    (see `FiniteStructure.int_metric`), cross-multiplied with lam.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise DefinabilityError("lam must be nonnegative")
    tuples_D, n = _normalize_set(D, n)
    if not tuples_D:
        raise DefinabilityError("D must be nonempty")
    validate_predicate(M, P)
    m = P.arity - n
    if m < 0:
        raise DefinabilityError("P arity must be at least the set arity")
    xs = _tuples(M, m)
    ys = _tuples(M, n)
    d, D = M.int_metric
    nums, den = linalg.int_row(list(P.values.values()))
    pv = dict(zip(P.values, nums))
    # |P(x, y1) - P(x, y2)| > lam * d(u, v), times den * lam.denominator * D
    lhs, rhs = lam.denominator * D, lam.numerator * den
    pairs = list(neighbour_pairs(M.size, n))
    for x in xs:
        for y1, y2, u, v in pairs:
            if lhs * abs(pv[x + y1] - pv[x + y2]) > rhs * d[u][v]:
                raise DefinabilityError(
                    f"P is not {lam}-Lipschitz in the trailing block at {x}, {y1}, {y2}"
                )
    # P(x, z) + lam * dist(z, D), times the same positive factor
    penalty = [rhs * v for v in _set_distances(d, tuples_D)]
    qn = {x: min([pv[x + b] for b in tuples_D]) for x in xs}
    identity = all(
        min([lhs * pv[x + z] + pen for z, pen in zip(ys, penalty)]) == lhs * qn[x]
        for x in xs
    )
    q = {x: Fraction(v, den) for x, v in qn.items()}
    return ProjectionReport(PredicateTable(m, q), identity, lam)


# ---------------------------------------------------------------------------
# function graphs


def function_graph(M: FiniteStructure, f: FunctionTable) -> frozenset[tuple[int, ...]]:
    """The set of (input, output) tuples of f, as (n+m)-tuples."""
    return frozenset(a + out for a, out in f.table.items())


def compose_with_function(
    M: FiniteStructure, P: PredicateTable, f: FunctionTable
) -> PredicateTable:
    """The table (x, y) -> P(f(x), y); arity f.arity_in + (P.arity - f.arity_out)."""
    rest = P.arity - f.arity_out
    if rest < 0:
        raise DefinabilityError("P arity must cover the function output")
    values: dict[tuple[int, ...], Fraction] = {}
    for x in _tuples(M, f.arity_in):
        fx = f.table[x]
        for y in _tuples(M, rest):
            values[x + y] = P.values[fx + y]
    return PredicateTable(f.arity_in + rest, values)


@dataclass
class GraphIdentityReport:
    forward_holds: bool   # dist((x,y), graph) == min_u [d(x,u) + d(f(u), y)]
    backward_holds: bool  # d(f(x), y) == min_v [dist((x,v), graph) + d(v, y)]

    @property
    def ok(self) -> bool:
        return self.forward_holds and self.backward_holds

    def __bool__(self) -> bool:
        return self.ok


def check_graph_identities(M: FiniteStructure, f: FunctionTable) -> GraphIdentityReport:
    """Exact table check of the two distance-to-graph identities.

    Every distance is an int numerator over the common denominator of the
    int metric (see `FiniteStructure.int_metric`), as in `distance_predicate`.
    """
    graph, _ = _normalize_set(function_graph(M, f), f.arity_in + f.arity_out)
    d, _ = M.int_metric
    xs = _tuples(M, f.arity_in)
    ys = _tuples(M, f.arity_out)
    ny = len(ys)
    dist = _set_distances(d, graph)  # (xs[i], ys[k]) at i * ny + k
    from_x = [_sums(d, x) for x in xs]            # d(x, u) for every u
    from_fx = [_sums(d, f.table[x]) for x in xs]  # d(f(x), y) for every y
    from_y = [_sums(d, y) for y in ys]            # d(v, y) for every y
    forward = all(
        dist[i * ny + k] == min(du + fu[k] for du, fu in zip(from_x[i], from_fx))
        for i in range(len(xs))
        for k in range(ny)
    )
    backward = all(
        from_fx[i][k] == min(dist[i * ny + v] + from_y[v][k] for v in range(ny))
        for i in range(len(xs))
        for k in range(ny)
    )
    return GraphIdentityReport(forward, backward)


# ---------------------------------------------------------------------------
# invariant types and automorphism invariance


def invariant_type(M: FiniteStructure, f: FunctionTable, family: FormulaFamily) -> TypeVector:
    """A 1-type fixed by pushing forward along a unary map.

    Canonical choice: iterate f from the lowest-index element until the
    orbit cycles, then take the uniform distribution on that terminal cycle.
    The cycle is f-invariant, so the distribution equals its own pushforward.
    """
    if f.arity_in != 1 or f.arity_out != 1:
        raise DefinabilityError("invariant_type needs a unary map on elements")
    if family.arity != 1:
        raise DefinabilityError("invariant_type works with 1-variable families")
    validate_function_table(M, f)
    seen: dict[int, int] = {}
    x = 0
    path: list[int] = []
    while x not in seen:
        seen[x] = len(path)
        path.append(x)
        x = f.table[(x,)][0]
    cycle = path[seen[x]:]
    w = Fraction(1, len(cycle))
    witness = {(c,): w for c in cycle}
    tables = family_tables(M, family)
    values = tuple(
        sum((w * tbl[(c,)] for c in cycle), start=ZERO) for tbl in tables
    )
    return TypeVector(family, values, witness=witness, structure=M)


def pushforward(
    f: FunctionTable, witness: Mapping[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    """Image distribution of a witness under a unary map."""
    out: dict[tuple[int, ...], Fraction] = {}
    for (a,), w in witness.items():
        b = f.table[(a,)]
        out[b] = out.get(b, ZERO) + w
    return out


@dataclass
class InvarianceReport:
    invariant: bool
    witness: tuple | None = None  # (permutation, tuple) on failure

    def __bool__(self) -> bool:
        return self.invariant


def automorphism_invariant(M: FiniteStructure, P: PredicateTable) -> InvarianceReport:
    """Is P constant along the automorphism group's action on tuples?"""
    validate_predicate(M, P)
    for g in automorphisms(M):
        for a, v in P.values.items():
            moved = tuple(g[x] for x in a)
            if P.values[moved] != v:
                return InvarianceReport(False, (g, a))
    return InvarianceReport(True)
