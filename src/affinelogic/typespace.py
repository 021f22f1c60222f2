"""Convex geometry of evaluation types over a finite formula family.

The type of a tuple (relative to a family F of formulas) is its vector of
F-values.  Realized types over a finite structure span a polytope; this
module computes that hull, classifies extreme points with exact
certificates, cuts exposed faces with affine functionals, decides facial
condition sets, decides affine satisfiability (type-existence versus a
violated nonnegative combination), mixes and decomposes boundary measures,
and measures optimal-transport distance between witnessed types.

Everything here is relative to the chosen family F; no claim is made about
the full type space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import AffineLogicError, InternalError
from .linprog import INFEASIBLE, OPTIMAL, SimplexResult, solve_int, solve_standard
from .model import FiniteStructure, eval_table
from .syntax import Condition, Formula, free_vars

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_CAP = 4096


class TypespaceError(AffineLogicError, ValueError):
    pass


class _Internal(InternalError, TypespaceError):
    """A re-check of this module's own result failed."""


class NotAffineError(TypespaceError):
    """A table or condition fails to factor affinely through the family."""

    def __init__(self, message: str, certificate):
        super().__init__(message)
        self.certificate = certificate


def _lp_status(res: SimplexResult, *expected: str) -> str:
    """The LP's status, checked to be one this caller's LP can reach."""
    if res.status not in expected:
        raise _Internal(
            f"LP came back {res.status}, expected {' or '.join(expected)}"
        )
    return res.status


@dataclass
class FormulaFamily:
    """An ordered tuple of formulas over a fixed ordered variable tuple."""

    variables: tuple[str, ...]
    formulas: tuple[Formula, ...]

    def __post_init__(self):
        self.variables = tuple(self.variables)
        self.formulas = tuple(self.formulas)
        if len(set(self.variables)) != len(self.variables):
            raise TypespaceError("family variables must be distinct")
        for phi in self.formulas:
            extra = free_vars(phi) - set(self.variables)
            if extra:
                raise TypespaceError(
                    f"family formula has free variables outside the tuple: {sorted(extra)}"
                )

    @property
    def arity(self) -> int:
        return len(self.variables)

    def __len__(self) -> int:
        return len(self.formulas)


@dataclass
class TypeVector:
    """F-values of a (possibly ideal) tuple, with an optional witness.

    A witness is a rational probability distribution over tuples of the
    structure; realized types carry a point mass.
    """

    family: FormulaFamily
    values: tuple[Fraction, ...]
    witness: dict[tuple[int, ...], Fraction] | None = None
    structure: FiniteStructure | None = None


def _check_tuple(M: FiniteStructure, a: Sequence[int], n: int) -> tuple[int, ...]:
    a = tuple(a)
    if len(a) != n:
        raise TypespaceError(f"expected a {n}-tuple, got {len(a)} coordinates")
    for x in a:
        if not 0 <= x < M.size:
            raise TypespaceError(f"element index {x} out of range")
    return a


def family_tables(
    M: FiniteStructure, family: FormulaFamily
) -> list[dict[tuple[int, ...], Fraction]]:
    """Evaluation table of each family formula over all assignment tuples."""
    return [eval_table(M, phi, family.variables) for phi in family.formulas]


def realized_type(M: FiniteStructure, a: Sequence[int], family: FormulaFamily) -> TypeVector:
    """The type of the tuple a: evaluate every family formula at a."""
    a = _check_tuple(M, a, family.arity)
    from .model import eval_formula

    asg = dict(zip(family.variables, a))
    values = tuple(eval_formula(M, phi, asg) for phi in family.formulas)
    return TypeVector(family, values, witness={a: ONE}, structure=M)


def mixture_type(types: Sequence[TypeVector], gamma: Sequence[Fraction]) -> TypeVector:
    """Convex combination of types; witnesses mix when they are comparable."""
    if not types or len(types) != len(gamma):
        raise TypespaceError("need matching nonempty types and weights")
    gs = [Fraction(g) for g in gamma]
    if any(g < 0 for g in gs) or sum(gs) != 1:
        raise TypespaceError("mixture weights must be nonnegative and sum to 1")
    family = types[0].family
    for t in types[1:]:
        if t.family != family:
            raise TypespaceError("mixture requires a common family")
    k = len(family)
    values = tuple(
        sum((g * t.values[j] for g, t in zip(gs, types)), start=ZERO) for j in range(k)
    )
    witness = None
    structure = types[0].structure
    if structure is not None and all(
        t.witness is not None and t.structure == structure for t in types
    ):
        witness = {}
        for g, t in zip(gs, types):
            if g == 0:
                continue
            for a, w in t.witness.items():
                witness[a] = witness.get(a, ZERO) + g * w
    else:
        structure = None
    return TypeVector(family, values, witness=witness, structure=structure)


# ---------------------------------------------------------------------------
# hulls


@dataclass
class TypeHull:
    """Deduplicated realized type vectors of all tuples, with realizations."""

    structure: FiniteStructure
    family: FormulaFamily
    vertices: tuple[TypeVector, ...]
    realizations: tuple[tuple[tuple[int, ...], ...], ...]
    first_order: bool
    _extreme: "ExtremeReport | None" = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_values(self) -> list[tuple[Fraction, ...]]:
        return [v.values for v in self.vertices]


def type_hull(
    M: FiniteStructure, n: int, family: FormulaFamily, cap: int = DEFAULT_CAP
) -> TypeHull:
    """Hull data of all realized n-types relative to the family."""
    if n != family.arity:
        raise TypespaceError("n must match the family's variable count")
    if M.size ** n > cap:
        raise TypespaceError(f"tuple space size {M.size ** n} exceeds cap {cap}")
    tables = family_tables(M, family)
    seen: dict[tuple[Fraction, ...], int] = {}
    vertices: list[TypeVector] = []
    realizations: list[list[tuple[int, ...]]] = []
    for a in itertools.product(range(M.size), repeat=n):
        values = tuple(tbl[a] for tbl in tables)
        at = seen.get(values)
        if at is None:
            seen[values] = len(vertices)
            vertices.append(TypeVector(family, values, witness={a: ONE}, structure=M))
            realizations.append([a])
        else:
            realizations[at].append(a)
    return TypeHull(
        structure=M,
        family=family,
        vertices=tuple(vertices),
        realizations=tuple(tuple(r) for r in realizations),
        first_order=M.is_first_order(),
    )


# ---------------------------------------------------------------------------
# affine factoring through a family


def factor_table_through_family(
    M: FiniteStructure,
    table: Mapping[tuple[int, ...], Fraction],
    family: FormulaFamily,
) -> linalg.FactorResult:
    """Express a tuple-indexed table as c0 + c . (family values), exactly."""
    tables = family_tables(M, family)
    keys = sorted(table)
    points = [tuple(tbl[a] for tbl in tables) for a in keys]
    values = [table[a] for a in keys]
    return linalg.affine_factor(keys, points, values)


def _affine_in_family(
    hull: TypeHull, table: Mapping[tuple[int, ...], Fraction], message: str
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Offset and coefficients of a table factored through the hull's family.

    A table that does not factor raises NotAffineError(message) with the
    failure certificate.
    """
    factored = factor_table_through_family(hull.structure, table, hull.family)
    if not factored.ok:
        raise NotAffineError(message, factored.conflict or factored.residue)
    if factored.offset is None or factored.coeffs is None:
        raise _Internal("affine factoring succeeded without coefficients")
    return factored.offset, factored.coeffs


# ---------------------------------------------------------------------------
# extreme points


@dataclass
class ExtremeVertex:
    index: int
    # Separating affine functional: offset + coeffs.p is > 0 at this vertex
    # and <= 0 at every other vertex.
    offset: Fraction
    coeffs: tuple[Fraction, ...]


@dataclass
class NonExtremeVertex:
    index: int
    # Convex weights over other vertex indices reproducing this vertex.
    weights: dict[int, Fraction]


@dataclass
class ExtremeReport:
    extreme: tuple[ExtremeVertex, ...]
    non_extreme: tuple[NonExtremeVertex, ...]

    @property
    def extreme_indices(self) -> tuple[int, ...]:
        return tuple(e.index for e in self.extreme)


def extreme_points(hull: TypeHull) -> ExtremeReport:
    """Classify every hull vertex, with a certificate either way.

    A vertex is extreme exactly when it is not a convex combination of the
    other vertices; the feasibility LP returns the combination, and its
    Farkas certificate is the separating affine functional.
    """
    if hull._extreme is not None:
        return hull._extreme
    values = hull.vertex_values()
    k = len(values)
    # Each coordinate as int numerators over its lcm, once per hull.  The
    # LP of vertex i has one row per coordinate (the other vertices' entries,
    # then vertex i's as the right-hand side, over that same lcm) and the
    # convexity row.
    columns = [linalg.int_row(col) for col in zip(*values)]
    dens = [den for _, den in columns] + [1]
    convexity = [1] * k
    no_cost = [0] * (k - 1)
    extreme: list[ExtremeVertex] = []
    non_extreme: list[NonExtremeVertex] = []
    for i in range(k):
        other_idx = [j for j in range(k) if j != i]
        inputs = [nums[:i] + nums[i + 1:] + [nums[i]] for nums, _ in columns]
        inputs.append(convexity)
        res = solve_int(inputs, dens, no_cost, 1)
        if _lp_status(res, OPTIMAL, INFEASIBLE) == OPTIMAL:
            weights = {
                other_idx[j]: w for j, w in enumerate(res.x) if w != 0
            }
            non_extreme.append(NonExtremeVertex(i, weights))
        else:
            y = res.farkas
            coeffs = tuple(y[:-1])
            offset = y[-1]
            extreme.append(ExtremeVertex(i, offset, coeffs))
    report = ExtremeReport(tuple(extreme), tuple(non_extreme))
    hull._extreme = report
    return report


# ---------------------------------------------------------------------------
# exposed faces


@dataclass
class ExposedFace:
    """Optimizing vertex set of an affine functional over the hull."""

    entire_space: bool
    vertex_indices: tuple[int, ...]
    offset: Fraction
    coeffs: tuple[Fraction, ...]
    optimum: Fraction


def _score(fn: tuple[Fraction, tuple[Fraction, ...]], p: Sequence[Fraction]) -> Fraction:
    """The affine functional offset + coeffs . p at the point p."""
    c0, cs = fn
    return c0 + sum((c * x for c, x in zip(cs, p)), start=ZERO)


def exposed_face(
    hull: TypeHull,
    table: Mapping[tuple[int, ...], Fraction],
    maximize: bool = False,
) -> ExposedFace:
    """Face of the hull cut out by a predicate table that factors through F.

    The table must be an affine function of the family values (otherwise a
    NotAffineError carries the failure certificate).  Returns the vertices
    attaining the minimum (or maximum), or flags the whole hull when the
    induced functional is constant on it.  The table must cover every
    tuple of the family's arity.
    """
    n = hull.family.arity
    if set(table) != set(itertools.product(range(hull.structure.size), repeat=n)):
        raise TypespaceError(
            f"predicate table must cover all {hull.structure.size ** n} tuples of arity {n}"
        )
    c0, cs = _affine_in_family(
        hull, table, "predicate does not factor affinely through the family"
    )
    scores = [_score((c0, cs), v.values) for v in hull.vertices]
    best = max(scores) if maximize else min(scores)
    if all(s == best for s in scores):
        return ExposedFace(True, tuple(range(len(scores))), c0, cs, best)
    idx = tuple(i for i, s in enumerate(scores) if s == best)
    return ExposedFace(False, idx, c0, cs, best)


# ---------------------------------------------------------------------------
# facial condition sets


@dataclass
class FaceViolation:
    """A strict convex combination lands in the cut while an endpoint leaves it."""

    inside: tuple[Fraction, ...]      # the combination, a point of the cut
    endpoint: tuple[Fraction, ...]    # hull point outside the cut
    partner: tuple[Fraction, ...]     # second endpoint
    gamma: Fraction                   # inside = gamma*endpoint + (1-gamma)*partner
    functional_index: int             # which condition the endpoint violates


@dataclass
class FaceReport:
    is_face: bool
    cut_vertex_indices: tuple[int, ...]
    violation: FaceViolation | None = None

    def __bool__(self) -> bool:
        return self.is_face


def _gap_table(
    M: FiniteStructure, cond: Condition, variables: Sequence[str]
) -> dict[tuple[int, ...], Fraction]:
    """rhs - lhs of the condition at every assignment of `variables`, keyed
    in itertools.product order (see `eval_table`)."""
    lhs = eval_table(M, cond.lhs, variables)
    rhs = eval_table(M, cond.rhs, variables)
    return {a: rhs[a] - lhs[a] for a in lhs}


def condition_functionals(
    hull: TypeHull, conditions: Sequence[Condition]
) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """Each condition lhs <= rhs becomes the functional (rhs - lhs) >= 0,
    expressed affinely in family coordinates."""
    out = []
    for cond in conditions:
        fv = cond.free_vars() - set(hull.family.variables)
        if fv:
            raise TypespaceError(
                f"condition uses variables outside the family tuple: {sorted(fv)}"
            )
        out.append(_affine_in_family(
            hull, _gap_table(hull.structure, cond, hull.family.variables),
            "condition is not affine in the family coordinates",
        ))
    return out


def is_face(hull: TypeHull, conditions: Sequence[Condition]) -> FaceReport:
    """Decide whether the condition set cuts a face of the hull.

    The cut is the set of hull points satisfying every condition.  It is a
    face exactly when no strict convex combination of two hull points lands
    in the cut while an endpoint stays outside; a violating pair (with the
    mixing weight 1/2) is returned otherwise.  The empty condition set cuts
    the whole hull.
    """
    functionals = condition_functionals(hull, conditions)
    return face_check_functionals(hull, functionals)


def face_check_functionals(
    hull: TypeHull, functionals: Sequence[tuple[Fraction, tuple[Fraction, ...]]]
) -> FaceReport:
    values = hull.vertex_values()
    nv = len(values)
    cut_vertices = tuple(
        i for i, v in enumerate(values)
        if all(_score(fn, v) >= 0 for fn in functionals)
    )
    if not functionals:
        return FaceReport(True, cut_vertices)

    # Variables: alpha (first endpoint), beta (second).  Constraints keep the
    # midpoint inside the cut; minimizing one functional at the alpha
    # endpoint probes for a violation.  Midpoints suffice for closed convex
    # cuts of a polytope.
    vertex_scores = [[_score(fn, v) for v in values] for fn in functionals]
    nf = len(functionals)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    width = 2 * nv + nf
    row = [ONE] * nv + [ZERO] * nv + [ZERO] * nf
    rows.append(row)
    rhs.append(ONE)
    row = [ZERO] * nv + [ONE] * nv + [ZERO] * nf
    rows.append(row)
    rhs.append(ONE)
    for j in range(nf):
        row = vertex_scores[j] + vertex_scores[j] + [ZERO] * nf
        row[2 * nv + j] = -ONE
        rows.append(row)
        rhs.append(ZERO)

    for k in range(nf):
        cost = vertex_scores[k] + [ZERO] * nv + [ZERO] * nf
        res = solve_standard(rows, rhs, cost)
        if _lp_status(res, OPTIMAL, INFEASIBLE) == INFEASIBLE:
            # no hull pair has its midpoint in the cut: vacuously facial
            return FaceReport(True, cut_vertices)
        if res.value < 0:
            x = mixture_type(hull.vertices, res.x[:nv]).values
            y = mixture_type(hull.vertices, res.x[nv:2 * nv]).values
            mid = tuple((a + b) / 2 for a, b in zip(x, y))
            return FaceReport(
                False,
                cut_vertices,
                FaceViolation(mid, x, y, Fraction(1, 2), k),
            )
    return FaceReport(True, cut_vertices)


# ---------------------------------------------------------------------------
# affine satisfiability


@dataclass
class SatisfiabilityResult:
    """One branch of the finite-scale dichotomy.

    Either a rational distribution over tuples under which every condition
    holds in the mean, or nonnegative combination coefficients whose combined
    condition fails strictly at every tuple.
    """

    satisfiable: bool
    witness: dict[tuple[int, ...], Fraction] | None = None
    farkas: tuple[Fraction, ...] | None = None
    margin: Fraction | None = None  # with farkas: max over tuples, strictly < 0

    def __bool__(self) -> bool:
        return self.satisfiable


def affine_satisfiable_tables(
    tuples: Sequence[tuple[int, ...]],
    gaps: Sequence[Mapping[tuple[int, ...], Fraction]],
) -> SatisfiabilityResult:
    """Core dichotomy on tables; gaps[i][a] is rhs_i(a) - lhs_i(a)."""
    tuples = list(tuples)
    if not tuples:
        raise TypespaceError("need at least one tuple")
    na = len(tuples)
    nc = len(gaps)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    rows.append([ONE] * na + [ZERO] * nc)
    rhs.append(ONE)
    for i, g in enumerate(gaps):
        row = [g[a] for a in tuples] + [ZERO] * nc
        row[na + i] = -ONE
        rows.append(row)
        rhs.append(ZERO)
    res = solve_standard(rows, rhs, [ZERO] * (na + nc))
    if _lp_status(res, OPTIMAL, INFEASIBLE) == OPTIMAL:
        witness = {a: w for a, w in zip(tuples, res.x[:na]) if w != 0}
        return SatisfiabilityResult(True, witness=witness)
    y = res.farkas
    coeffs = tuple(y[1 + i] for i in range(nc))
    margin = max(
        sum((coeffs[i] * gaps[i][a] for i in range(nc)), start=ZERO) for a in tuples
    )
    return SatisfiabilityResult(False, farkas=coeffs, margin=margin)


def affine_satisfiable(
    M: FiniteStructure,
    conditions: Sequence[Condition],
    variables: Sequence[str] | None = None,
    cap: int = DEFAULT_CAP,
) -> SatisfiabilityResult:
    """Decide the condition set over M at finite scale.

    Exactly one branch comes back: a distribution over assignment tuples
    whose mean satisfies every condition (a type realized in a powermean of
    M), or nonnegative coefficients exhibiting a member of the affine
    closure that fails strictly everywhere.
    """
    if variables is None:
        names: set[str] = set()
        for cond in conditions:
            names |= cond.free_vars()
        variables = tuple(sorted(names))
    else:
        variables = tuple(variables)
    n = len(variables)
    if M.size ** n > cap:
        raise TypespaceError(f"tuple space size {M.size ** n} exceeds cap {cap}")
    tuples = list(itertools.product(range(M.size), repeat=n))
    if not conditions:
        return SatisfiabilityResult(True, witness={tuples[0]: ONE})
    gaps = [_gap_table(M, cond, variables) for cond in conditions]
    return affine_satisfiable_tables(tuples, gaps)


# ---------------------------------------------------------------------------
# boundary measures


@dataclass(frozen=True)
class BoundaryMeasure:
    """Rational probability weights over extreme vertex indices of a hull."""

    weights: dict[int, Fraction]

    def __post_init__(self):
        ws = {i: Fraction(w) for i, w in self.weights.items() if Fraction(w) != 0}
        object.__setattr__(self, "weights", ws)
        if any(w < 0 for w in ws.values()):
            raise TypespaceError("boundary weights must be nonnegative")
        if sum(ws.values(), start=ZERO) != 1:
            raise TypespaceError("boundary weights must sum to 1")


def barycenter(hull: TypeHull, measure: BoundaryMeasure) -> TypeVector:
    """Mix the extreme vertices by the measure, componentwise."""
    report = extreme_points(hull)
    extreme_set = set(report.extreme_indices)
    bad = [i for i in measure.weights if i not in extreme_set]
    if bad:
        raise TypespaceError(f"weights placed on non-extreme vertices: {bad}")
    items = sorted(measure.weights.items())
    types = [hull.vertices[i] for i, _ in items]
    gamma = [w for _, w in items]
    return mixture_type(types, gamma)


class DecompositionError(TypespaceError):
    """keisler_decompose cannot certify a boundary measure for the point."""

    exit_code = 1
    label = "no decomposition"


class NonUniqueDecompositionError(DecompositionError):
    """The extreme vertices are affinely dependent, so the family does not
    separate them and a decomposition, if any, is not unique."""

    exit_code = 2
    label = "error"


def keisler_decompose(hull: TypeHull, p: TypeVector) -> BoundaryMeasure:
    """Unique boundary measure with barycenter p, in first-order mode.

    Requires a hull built from a structure whose metric and relations take
    values in {0, 1}, and extreme vertices that are affinely independent over
    the family (otherwise the family does not separate and no unique
    decomposition exists; that is reported, not guessed).
    """
    if not hull.first_order:
        raise DecompositionError(
            "decomposition requires a first-order structure "
            "(metric and relation values all 0 or 1)"
        )
    if p.family != hull.family:
        raise DecompositionError("point and hull use different families")
    report = extreme_points(hull)
    idx = list(report.extreme_indices)
    vectors = [hull.vertices[i].values for i in idx]
    if not linalg.affinely_independent(vectors):
        raise NonUniqueDecompositionError(
            "extreme vertices are affinely dependent: the family does not "
            "separate, decomposition is not unique"
        )
    dim = len(hull.family)
    rows = [[v[c] for v in vectors] for c in range(dim)]
    rows.append([ONE] * len(vectors))
    rhs = list(p.values) + [ONE]
    sol = linalg.gauss_solve(rows, rhs)
    if not sol.consistent:
        raise DecompositionError("point lies outside the affine hull of the extremes")
    if sol.x is None:
        raise _Internal("consistent system without a solution")
    if any(w < 0 for w in sol.x):
        raise DecompositionError("point lies outside the hull of the extremes")
    return BoundaryMeasure({i: w for i, w in zip(idx, sol.x) if w != 0})


# ---------------------------------------------------------------------------
# transport distance


def type_distance(p: TypeVector, q: TypeVector) -> Fraction:
    """Exact optimal-transport cost between the witness distributions.

    Couplings of the two witnesses are priced by the sum metric on tuples;
    the simplex finds the exact rational minimum.  This is witness-relative:
    an upper bound for any coarser notion of distance between the types.
    """
    if p.witness is None or q.witness is None:
        raise TypespaceError("type_distance needs witnesses on both types")
    if p.structure is None or q.structure is None or p.structure != q.structure:
        raise TypespaceError("witnesses must live over the same structure")
    M = p.structure
    left = sorted(p.witness.items())
    right = sorted(q.witness.items())
    if left == right:
        return ZERO
    la = [a for a, _ in left]
    ra = [b for b, _ in right]
    nl, nr = len(la), len(ra)
    cost = [M.tuple_distance(a, b) for a in la for b in ra]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(nl):
        row = [ZERO] * (nl * nr)
        for j in range(nr):
            row[i * nr + j] = ONE
        rows.append(row)
        rhs.append(left[i][1])
    for j in range(nr):
        row = [ZERO] * (nl * nr)
        for i in range(nl):
            row[i * nr + j] = ONE
        rows.append(row)
        rhs.append(right[j][1])
    res = solve_standard(rows, rhs, cost)
    _lp_status(res, OPTIMAL)
    return res.value
