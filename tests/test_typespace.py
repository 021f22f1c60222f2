import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from affinelogic.linalg import (
    FactorConflict,
    FactorResidue,
    FactorResult,
    LinalgError,
    gauss_solve,
    int_row,
    matrix_rank,
)
from affinelogic.linprog import INFEASIBLE, OPTIMAL, solve_int, solve_standard
from affinelogic.model import FiniteStructure, RelationInterp, StructureError, eval_table, row_major
from affinelogic.pra import build_algebra
from affinelogic.sampling import random_formula, random_hull_structure, random_structure
from affinelogic.suites import oracle_extreme
from affinelogic.syntax import (
    Apply,
    Condition,
    One,
    Scale,
    Sum,
    Var,
    parse_condition,
    parse_condition_line,
    parse_formula,
)
from affinelogic.typespace import (
    BoundaryMeasure,
    DecompositionError,
    ExposedFace,
    ExtremeReport,
    ExtremeVertex,
    FaceReport,
    FaceViolation,
    FormulaFamily,
    NonExtremeVertex,
    NonUniqueDecompositionError,
    NotAffineError,
    SatisfiabilityResult,
    TypeHull,
    TypeVector,
    TypespaceError,
    _Internal,
    _affine_in_family,
    _lp_status,
    affine_satisfiable,
    barycenter,
    exposed_face,
    extreme_points,
    factor_through_hull,
    is_face,
    keisler_decompose,
    mixture_type,
    realized_type,
    type_distance,
    type_hull,
)

ZERO = F(0)
ONE = F(1)


def fo_structure(patterns, d=ONE):
    """Discrete structure with one unary 0/1 relation per coordinate."""
    m = len(patterns)
    k = len(patterns[0])
    metric = tuple(
        tuple(ZERO if i == j else d for j in range(m)) for i in range(m)
    )
    relations = {
        f"R{c}": RelationInterp(1, ONE, {(i,): F(patterns[i][c]) for i in range(m)})
        for c in range(k)
    }
    return FiniteStructure(
        elements=tuple(f"e{i}" for i in range(m)),
        metric=metric,
        constants={},
        functions={},
        relations=relations,
    )


@pytest.fixture
def algebra_hull():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    family = FormulaFamily(("x",), (parse_formula("mu(x)", M.signature()),))
    return type_hull(M, 1, family)


def test_family_validation():
    M = build_algebra([ONE]).to_structure()
    sig = M.signature()
    with pytest.raises(TypespaceError):
        FormulaFamily(("x", "x"), ())
    with pytest.raises(TypespaceError):
        FormulaFamily(("x",), (parse_formula("mu(y)", sig),))


def test_hull_deduplicates_and_tracks_realizations(algebra_hull):
    hull = algebra_hull
    # mu takes the values 0, 1/2, 1/2, 1 over the four algebra elements
    assert sorted(v.values[0] for v in hull.vertices) == [0, F(1, 2), 1]
    half = next(i for i, v in enumerate(hull.vertices) if v.values[0] == F(1, 2))
    assert len(hull.realizations[half]) == 2
    assert not hull.first_order


def test_hull_cap():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    family = FormulaFamily(
        ("x", "y"), (parse_formula("d(x, y)", M.signature()),)
    )
    with pytest.raises(TypespaceError):
        type_hull(M, 2, family, cap=15)
    with pytest.raises(TypespaceError):
        type_hull(M, 1, family)  # arity mismatch


def test_realized_and_mixture_types(algebra_hull):
    hull = algebra_hull
    M, family = hull.structure, hull.family
    bottom = realized_type(M, (0,), family)
    top = realized_type(M, (3,), family)
    assert bottom.values == (ZERO,)
    assert top.values == (ONE,)
    mix = mixture_type([bottom, top], [F(1, 4), F(3, 4)])
    assert mix.values == (F(3, 4),)
    assert mix.witness == {(0,): F(1, 4), (3,): F(3, 4)}
    with pytest.raises(TypespaceError):
        mixture_type([bottom, top], [F(1, 2), F(1, 4)])
    with pytest.raises(TypespaceError):
        mixture_type([bottom, top], [F(3, 2), F(-1, 2)])


def test_extreme_points_with_certificates(algebra_hull):
    hull = algebra_hull
    report = extreme_points(hull)
    by_value = {hull.vertices[i].values[0]: i for i in range(len(hull))}
    assert set(report.extreme_indices) == {by_value[ZERO], by_value[ONE]}
    # separating functionals: positive at their vertex, nonpositive elsewhere
    for ev in report.extreme:
        for i, v in enumerate(hull.vertices):
            score = ev.offset + sum(c * x for c, x in zip(ev.coeffs, v.values))
            if i == ev.index:
                assert score > 0
            else:
                assert score <= 0
    # the middle vertex decomposes as an even mixture of the endpoints
    (ne,) = report.non_extreme
    assert ne.index == by_value[F(1, 2)]
    assert ne.weights == {by_value[ZERO]: F(1, 2), by_value[ONE]: F(1, 2)}


# The classification as it was before each hull's coordinates were scaled
# to int columns once: Fraction rows per vertex through solve_standard.
# Body verbatim; only the name carries a _ref_ prefix.


def _ref_extreme_points(hull: TypeHull) -> ExtremeReport:
    if hull._extreme is not None:
        return hull._extreme
    values = hull.vertex_values()
    dim = len(hull.family)
    extreme: list[ExtremeVertex] = []
    non_extreme: list[NonExtremeVertex] = []
    for i, v in enumerate(values):
        others = [u for j, u in enumerate(values) if j != i]
        other_idx = [j for j in range(len(values)) if j != i]
        rows = [[u[c] for u in others] for c in range(dim)]
        rows.append([ONE] * len(others))
        rhs = list(v) + [ONE]
        res = solve_standard(rows, rhs, [ZERO] * len(others))
        if _lp_status(res, OPTIMAL, INFEASIBLE) == OPTIMAL:
            weights = {
                other_idx[j]: w for j, w in enumerate(res.x) if w != 0
            }
            non_extreme.append(NonExtremeVertex(i, weights))
        else:
            y = res.farkas
            coeffs = tuple(y[:dim])
            offset = y[dim]
            extreme.append(ExtremeVertex(i, offset, coeffs))
    report = ExtremeReport(tuple(extreme), tuple(non_extreme))
    hull._extreme = report
    return report


_COORD = st.builds(F, st.integers(-3, 6), st.integers(1, 6))


@st.composite
def _vertex_lists(draw):
    """1-6 drawn points in 1-4 coordinates, then up to 4 more that repeat a
    point, lie on the line through two points or in the plane through
    three, at shuffled positions."""
    dim = draw(st.integers(1, 4))
    points = draw(st.lists(st.tuples(*[_COORD] * dim), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        a, b, c = (draw(st.sampled_from(points)) for _ in range(3))
        s, t = (draw(st.sampled_from([F(-1), F(1, 3), F(1, 2), F(2)])) for _ in range(2))
        kind = draw(st.sampled_from(["repeat", "collinear", "coplanar"]))
        if kind == "repeat":
            p = a
        elif kind == "collinear":
            p = tuple(x + s * (y - x) for x, y in zip(a, b))
        else:
            p = tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c))
        points.insert(draw(st.integers(0, len(points))), p)
    return points


def _hull_of(points):
    family = FormulaFamily(("x",), tuple(Apply(f"R{c}", (Var("x"),)) for c in range(len(points[0]))))
    return TypeHull(None, family, tuple(TypeVector(family, p) for p in points), (), False)


@settings(max_examples=300, deadline=None)
@given(_vertex_lists())
def test_extreme_points_match_fraction_rows(points):
    assert extreme_points(_hull_of(points)) == _ref_extreme_points(_hull_of(points))


def _ref_oracle_extreme(points, i):
    """The c06 oracle as it was before it reduced int rows, kept verbatim
    (renamed): one gauss_solve per candidate combination."""
    v = points[i]
    others = [p for j, p in enumerate(points) if j != i]
    if not others:
        return True
    dim = len(v)
    for r in range(dim):
        col = [p[r] for p in others]
        if v[r] > max(col) or v[r] < min(col):
            return True
    for size in range(1, min(len(others), dim + 1) + 1):
        for combo in itertools.combinations(others, size):
            rows = [[p[r] for p in combo] for r in range(dim)]
            rows.append([ONE] * size)
            rhs = [v[r] for r in range(dim)] + [ONE]
            sol = gauss_solve(rows, rhs)
            # free variables mean the combo is affinely dependent; its
            # subsets were already tried, so skipping keeps completeness
            if sol.consistent and sol.free_count == 0 and all(w >= 0 for w in sol.x):
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(_vertex_lists())
def test_extreme_oracle_matches_gauss_solve_reference(points):
    got = [oracle_extreme(points, i) for i in range(len(points))]
    assert got == [_ref_oracle_extreme(points, i) for i in range(len(points))]


def test_exposed_face_of_mu(algebra_hull):
    hull = algebra_hull
    M = hull.structure
    table = eval_table(M, parse_formula("mu(x)", M.signature()), ("x",))
    face = exposed_face(hull, table, maximize=True)
    assert not face.entire_space
    assert face.optimum == 1
    assert [hull.vertices[i].values[0] for i in face.vertex_indices] == [ONE]
    floor = exposed_face(hull, table)
    assert floor.optimum == 0


def test_exposed_face_constant_functional_flags_entire_space(algebra_hull):
    hull = algebra_hull
    table = {(i,): F(1, 3) for i in range(hull.structure.size)}
    face = exposed_face(hull, table)
    assert face.entire_space
    assert face.vertex_indices == tuple(range(len(hull)))


def test_exposed_face_rejects_non_affine_table(algebra_hull):
    hull = algebra_hull
    M = hull.structure
    mu = M.relations["mu"].table
    square = {(i,): mu[(i,)] ** 2 for i in range(M.size)}
    with pytest.raises(NotAffineError):
        exposed_face(hull, square)
    # same family values, different table values: a conflict certificate
    conflict = dict(square)
    conflict[(1,)] = ZERO
    conflict[(2,)] = ONE  # mu is 1/2 at both atoms
    with pytest.raises(NotAffineError):
        exposed_face(hull, conflict)


def test_is_face_accepts_exposed_cut(algebra_hull):
    hull = algebra_hull
    sig = hull.structure.signature()
    rep = is_face(hull, [parse_condition("mu(x) <= 0 * 1", sig)])
    assert rep.is_face
    assert [hull.vertices[i].values[0] for i in rep.cut_vertex_indices] == [ZERO]


def test_is_face_empty_condition_set_is_whole_hull(algebra_hull):
    rep = is_face(algebra_hull, [])
    assert rep.is_face
    assert rep.cut_vertex_indices == tuple(range(len(algebra_hull)))


def test_is_face_rejects_interior_slice(algebra_hull):
    hull = algebra_hull
    sig = hull.structure.signature()
    conds = parse_condition_line("mu(x) = 1/2 * 1", sig)
    rep = is_face(hull, conds)
    assert not rep.is_face
    v = rep.violation
    assert v is not None
    assert v.inside == (F(1, 2),)
    assert v.gamma == F(1, 2)
    # the violating endpoint really leaves the cut
    c0, cs = _ref_condition_functionals(hull, conds)[v.functional_index]
    assert c0 + sum(c * x for c, x in zip(cs, v.endpoint)) < 0
    mid = tuple(
        v.gamma * e + (1 - v.gamma) * p for e, p in zip(v.endpoint, v.partner)
    )
    assert mid == v.inside


def test_condition_with_stray_variable_rejected(algebra_hull):
    sig = algebra_hull.structure.signature()
    with pytest.raises(TypespaceError):
        is_face(algebra_hull, [parse_condition("mu(y) <= 1", sig)])


def test_affine_satisfiable_frozen_split():
    M = build_algebra([ONE]).to_structure()
    sig = M.signature()
    conds = parse_condition_line("mu(x) = 1/2 * 1", sig)
    res = affine_satisfiable(M, conds)
    assert res.satisfiable
    assert res.witness == {(0,): F(1, 2), (1,): F(1, 2)}


def test_affine_satisfiable_refutation_certificate():
    M = build_algebra([ONE]).to_structure()
    sig = M.signature()
    conds = [
        parse_condition("1 <= mu(x)", sig),
        parse_condition("mu(x) <= 0 * 1", sig),
    ]
    res = affine_satisfiable(M, conds)
    assert not res.satisfiable
    assert res.margin is not None and res.margin < 0
    assert all(r >= 0 for r in res.farkas)
    # re-check the certificate: the combined gap is negative at every element
    gaps = []
    for cond in conds:
        lhs = eval_table(M, cond.lhs, ("x",))
        rhs = eval_table(M, cond.rhs, ("x",))
        gaps.append({a: rhs[a] - lhs[a] for a in lhs})
    for a in gaps[0]:
        assert sum(r * g[a] for r, g in zip(res.farkas, gaps)) <= res.margin


def test_affine_satisfiable_empty_conditions():
    M = build_algebra([ONE]).to_structure()
    res = affine_satisfiable(M, [], variables=("x",))
    assert res.satisfiable


def test_boundary_measure_validation():
    with pytest.raises(TypespaceError):
        BoundaryMeasure({0: F(1, 2)})
    with pytest.raises(TypespaceError):
        BoundaryMeasure({0: F(3, 2), 1: F(-1, 2)})
    m = BoundaryMeasure({0: ONE, 1: ZERO})
    assert m.weights == {0: ONE}


def test_barycenter_and_keisler_roundtrip():
    M = fo_structure([(0, 0), (1, 0), (0, 1)])
    sig = M.signature()
    family = FormulaFamily(
        ("x",), tuple(parse_formula(f"R{c}(x)", sig) for c in range(2))
    )
    hull = type_hull(M, 1, family)
    assert hull.first_order
    assert len(hull) == 3
    report = extreme_points(hull)
    assert set(report.extreme_indices) == {0, 1, 2}

    measure = BoundaryMeasure({0: F(1, 2), 1: F(1, 4), 2: F(1, 4)})
    p = barycenter(hull, measure)
    assert p.values == (F(1, 4), F(1, 4))
    back = keisler_decompose(hull, p)
    assert back.weights == measure.weights


def test_barycenter_rejects_weight_on_non_extreme():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    family = FormulaFamily(("x",), (parse_formula("mu(x)", M.signature()),))
    hull = type_hull(M, 1, family)
    half = next(i for i, v in enumerate(hull.vertices) if v.values[0] == F(1, 2))
    with pytest.raises(TypespaceError):
        barycenter(hull, BoundaryMeasure({half: ONE}))


def test_keisler_requires_first_order(algebra_hull):
    p = algebra_hull.vertices[0]
    with pytest.raises(DecompositionError):
        keisler_decompose(algebra_hull, p)


def test_keisler_rejects_dependent_extremes():
    M = fo_structure([(0, 0), (1, 0), (0, 1), (1, 1)])
    sig = M.signature()
    family = FormulaFamily(
        ("x",), tuple(parse_formula(f"R{c}(x)", sig) for c in range(2))
    )
    hull = type_hull(M, 1, family)
    with pytest.raises(DecompositionError, match="dependent"):
        keisler_decompose(hull, hull.vertices[0])


def test_keisler_rejects_points_outside():
    M = fo_structure([(0, 0), (1, 0), (0, 1)])
    sig = M.signature()
    family = FormulaFamily(
        ("x",), tuple(parse_formula(f"R{c}(x)", sig) for c in range(2))
    )
    hull = type_hull(M, 1, family)
    from affinelogic.typespace import TypeVector

    outside = TypeVector(family, (F(2), ZERO))
    with pytest.raises(DecompositionError, match="outside the hull"):
        keisler_decompose(hull, outside)

    # two extremes spanning a line inside a 2-dimensional family
    N = fo_structure([(0, 0), (1, 0)])
    hull2 = type_hull(N, 1, FormulaFamily(
        ("x",), tuple(parse_formula(f"R{c}(x)", N.signature()) for c in range(2))
    ))
    off_line = TypeVector(hull2.family, (ZERO, ONE))
    with pytest.raises(DecompositionError, match="affine hull"):
        keisler_decompose(hull2, off_line)


def test_type_distance_frozen():
    M = fo_structure([(0,), (1,)])
    family = FormulaFamily(("x",), (parse_formula("R0(x)", M.signature()),))
    p = realized_type(M, (0,), family)
    q = realized_type(M, (1,), family)
    assert type_distance(p, p) == 0
    assert type_distance(p, q) == 1
    mix = mixture_type([p, q], [F(1, 2), F(1, 2)])
    assert type_distance(p, mix) == F(1, 2)
    assert type_distance(mix, q) == F(1, 2)


def test_type_distance_requires_witnesses():
    M = fo_structure([(0,), (1,)])
    family = FormulaFamily(("x",), (parse_formula("R0(x)", M.signature()),))
    from affinelogic.typespace import TypeVector

    bare = TypeVector(family, (F(1, 2),))
    p = realized_type(M, (0,), family)
    with pytest.raises(TypespaceError):
        type_distance(p, bare)


def test_type_distance_refuses_a_bad_witness():
    M = fo_structure([(0,), (1,)])
    family = FormulaFamily(("x",), (parse_formula("R0(x)", M.signature()),))
    q = realized_type(M, (1,), family)
    weights = "witness weights must be nonnegative and sum to 1"
    for witness, message in (
        ({(0,): F(1, 2)}, weights),
        ({(0,): F(3, 2), (1,): F(-1, 2)}, weights),
        ({(0, 1): ONE}, "expected a 1-tuple, got 2 coordinates"),
        ({(2,): ONE}, "element index 2 out of range"),
        ({(1.0,): ONE}, "element index 1.0 is not an int"),
    ):
        p = TypeVector(family, (ZERO,), witness, M)
        for left, right in ((p, q), (q, p)):
            with pytest.raises(TypespaceError) as info:
                type_distance(left, right)
            # bad input, not the internal error of a failed LP re-check
            assert type(info.value) is TypespaceError
            assert str(info.value) == message


def test_realized_type_refuses_a_coordinate_that_is_not_an_int():
    M = fo_structure([(0,), (1,)])
    family = FormulaFamily(("x",), (parse_formula("R0(x)", M.signature()),))
    with pytest.raises(TypespaceError) as info:
        realized_type(M, (1.0,), family)
    assert type(info.value) is TypespaceError
    assert str(info.value) == "element index 1.0 is not an int"


def test_type_vector_refuses_a_length_other_than_the_family():
    # keisler_decompose and mixture_type index the values by family formula
    M = fo_structure([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    family = FormulaFamily(
        ("x",), tuple(parse_formula(f"R{c}(x)", M.signature()) for c in range(3))
    )
    assert TypeVector(family, (ONE, ZERO, ZERO)).values == (ONE, ZERO, ZERO)
    for values in ((), (ONE,), (ONE, ZERO), (ONE, ZERO, ZERO, ONE)):
        with pytest.raises(TypespaceError) as info:
            TypeVector(family, values)
        assert type(info.value) is TypespaceError
        assert str(info.value) == f"expected 3 values, one per family formula, got {len(values)}"


def test_type_distance_triangle_and_symmetry_random():
    rng = random.Random(9)
    M = random_hull_structure(rng, n_vertices=4, n_coords=2)
    sig = M.signature()
    family = FormulaFamily(
        ("x",), tuple(parse_formula(f"R{c}(x)", sig) for c in range(2))
    )
    pts = [realized_type(M, (i,), family) for i in range(M.size)]
    mixes = [
        mixture_type([pts[0], pts[1]], [F(1, 3), F(2, 3)]),
        mixture_type([pts[2], pts[3]], [F(1, 2), F(1, 2)]),
        pts[0],
    ]
    for a in mixes:
        for b in mixes:
            dab = type_distance(a, b)
            assert dab == type_distance(b, a)
            assert dab >= 0
            for c in mixes:
                assert type_distance(a, c) <= dab + type_distance(b, c)


# The face and transport LPs as they were before they stated int rows for
# solve_int: Fraction rows through solve_standard.  Bodies verbatim; only
# the names carry a _ref_ prefix.


def _ref_score(fn, p):
    """typespace._score as it was before vertex scores were looked up in
    the factored table, kept verbatim (renamed)."""
    c0, cs = fn
    return c0 + sum((c * x for c, x in zip(cs, p)), start=ZERO)


def _ref_condition_functionals(hull, conditions):
    """typespace.condition_functionals as it was before is_face read each
    condition's gap at the vertices' first realizations, kept verbatim
    (renamed)."""
    out = []
    for cond in conditions:
        fv = cond.free_vars() - set(hull.family.variables)
        if fv:
            raise TypespaceError(
                f"condition uses variables outside the family tuple: {sorted(fv)}"
            )
        out.append(_affine_in_family(
            hull, eval_table(hull.structure, cond.gap, hull.family.variables),
            "condition is not affine in the family coordinates",
        ))
    return out


def _ref_exposed_face(hull, table, maximize=False):
    """typespace.exposed_face as it was before it looked its vertex scores
    up in the table, kept verbatim (renamed)."""
    n = hull.family.arity
    if row_major(table, hull.structure.size, n) is None:
        raise TypespaceError(
            f"predicate table must cover all {hull.structure.size ** n} tuples of arity {n}"
        )
    c0, cs = _affine_in_family(
        hull, table, "predicate does not factor affinely through the family"
    )
    scores = [_ref_score((c0, cs), v.values) for v in hull.vertices]
    best = max(scores) if maximize else min(scores)
    if all(s == best for s in scores):
        return ExposedFace(True, tuple(range(len(scores))), c0, cs, best)
    idx = tuple(i for i, s in enumerate(scores) if s == best)
    return ExposedFace(False, idx, c0, cs, best)


def _outcome(call):
    """The call's result, or its refusal as (class, message, certificate)."""
    try:
        return call()
    except TypespaceError as exc:
        return type(exc), str(exc), getattr(exc, "certificate", None)


def _ref_face_check_functionals(hull, functionals):
    values = hull.vertex_values()
    nv = len(values)
    cut_vertices = tuple(
        i for i, v in enumerate(values)
        if all(_ref_score(fn, v) >= 0 for fn in functionals)
    )
    if not functionals:
        return FaceReport(True, cut_vertices)

    # Variables: alpha (first endpoint), beta (second).  Constraints keep the
    # midpoint inside the cut; minimizing one functional at the alpha
    # endpoint probes for a violation.  Midpoints suffice for closed convex
    # cuts of a polytope.
    vertex_scores = [[_ref_score(fn, v) for v in values] for fn in functionals]
    nf = len(functionals)
    rows = []
    rhs = []
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
                FaceViolation(mid, x, y, F(1, 2), k),
            )
    return FaceReport(True, cut_vertices)


def _ref_type_distance(p, q):
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
    rows = []
    rhs = []
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


def _mixture(points, weights):
    """The mixture of the realized types points[i] with weights[i] > 0."""
    used = [i for i, w in enumerate(weights) if w]
    return mixture_type([points[i] for i in used], [weights[i] for i in used])


def _functional_conditions(family, functionals):
    """Each functional (c0, cs) as the condition
    (-c0) * 1 + sum_j (-c_j) * F_j <= 0 * 1, whose gap is c0 + cs . F."""
    out = []
    for c0, cs in functionals:
        lhs = Scale(-c0, One())
        for c, phi in zip(cs, family.formulas):
            lhs = Sum(lhs, Scale(-c, phi))
        out.append(Condition(lhs, Scale(ZERO, One())))
    return out


def _face_case(M, family, conditions, functionals, p_weights, q_weights):
    points = [realized_type(M, (i,), family) for i in range(M.size)]
    hull = type_hull(M, 1, family)
    return hull, conditions, functionals, _mixture(points, p_weights), _mixture(points, q_weights)


_ALGEBRA = build_algebra([F(1, 2), F(1, 2)]).to_structure()
_MU = FormulaFamily(("x",), (parse_formula("mu(x)", _ALGEBRA.signature()),))
# mu(x) = 1/2 is two conditions, and its cut (the two atoms) is not a face:
# the midpoint of 0 and 1 lands in it
_MULTI_CUT = _face_case(
    _ALGEBRA, _MU, parse_condition_line("mu(x) = 1/2 * 1", _ALGEBRA.signature()),
    [(ZERO, (ONE,)), (F(1, 2), (-ONE,)), (F(-1, 2), (ONE,))],
    [ONE, ZERO, ZERO, ZERO], [ZERO, F(1, 2), F(1, 3), F(1, 6)],
)
# one witness point against three, with unequal weights
_UNEQUAL_SUPPORTS = _face_case(
    _ALGEBRA, _MU, [], [(F(1, 3), (F(-1, 2),))],
    [ZERO, ZERO, ZERO, ONE], [F(1, 2), F(1, 4), ZERO, F(1, 4)],
)
_SMALL = st.sampled_from([F(-2), -ONE, F(-1, 2), ZERO, F(1, 3), F(1, 2), ONE, F(2)])


@st.composite
def _face_cases(draw):
    """A random structure on 1-4 points with 1-3 random family formulas in
    x, its hull, 1-3 conditions sum_j c_j * F_j <= c_0 * 1 (affine in the
    family, so is_face accepts them; one in five has a random formula on
    the left, which may not be), each one possibly with its reverse (an
    equality slice), 1-3 drawn functionals, and two random mixtures of the
    realized types."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    M = random_structure(rng, max_size=4)
    sig = M.signature()
    k = draw(st.integers(1, 3))
    family = FormulaFamily(("x",), tuple(random_formula(rng, sig, ("x",), depth=3) for _ in range(k)))
    conditions = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = Scale(draw(_SMALL), family.formulas[0])
        for phi in family.formulas[1:]:
            lhs = Sum(lhs, Scale(draw(_SMALL), phi))
        if draw(st.integers(0, 4)) == 0:
            lhs = random_formula(rng, sig, ("x",), depth=2)
        rhs = Scale(draw(_SMALL), One())
        conditions.append(Condition(lhs, rhs))
        if draw(st.booleans()):
            conditions.append(Condition(Scale(-ONE, lhs), Scale(-ONE, rhs)))
    functionals = draw(st.lists(
        st.tuples(_SMALL, st.tuples(*[_SMALL] * k)), min_size=1, max_size=3))
    mixes = []
    for _ in range(2):
        raw = draw(st.lists(st.sampled_from([ZERO, ONE, F(2), F(3)]), min_size=M.size, max_size=M.size))
        raw[draw(st.integers(0, M.size - 1))] += 1
        mixes.append([w / sum(raw) for w in raw])
    return _face_case(M, family, conditions, functionals, *mixes)


@settings(max_examples=200, deadline=None)
@given(_face_cases())
@example(_MULTI_CUT)
@example(_UNEQUAL_SUPPORTS)
def test_face_and_transport_lps_match_fraction_rows(case):
    hull, conditions, functionals, p, q = case
    expected = _outcome(
        lambda: _ref_face_check_functionals(hull, _ref_condition_functionals(hull, conditions)))
    assert _outcome(lambda: is_face(hull, conditions)) == expected
    expected = _ref_face_check_functionals(hull, functionals)
    assert is_face(hull, _functional_conditions(hull.family, functionals)) == expected
    assert type_distance(p, q) == _ref_type_distance(p, q)
    assert type_distance(q, p) == _ref_type_distance(q, p)


def test_face_differential_examples_cover_a_violation():
    hull, conditions, functionals, p, q = _MULTI_CUT
    rep = is_face(hull, conditions)
    assert not rep.is_face and rep.violation.functional_index == 0
    assert rep == _ref_face_check_functionals(hull, _ref_condition_functionals(hull, conditions))
    assert not is_face(hull, _functional_conditions(hull.family, functionals)).is_face
    assert len(p.witness) == 1 and len(q.witness) == 3
    assert len(_UNEQUAL_SUPPORTS[3].witness) == 1 and len(_UNEQUAL_SUPPORTS[4].witness) == 3


# ---------------------------------------------------------------------------
# affine satisfiability on the evaluator's int tables, against the Fraction
# tables it replaced


def _ref_affine_satisfiable_tables(tuples, gaps):
    """typespace.affine_satisfiable_tables as it was before affine_satisfiable
    put int_table rows into its LP, kept verbatim (renamed)."""
    tuples = list(tuples)
    if not tuples:
        raise TypespaceError("need at least one tuple")
    na = len(tuples)
    nc = len(gaps)
    # convexity over 1, then each gap row over the lcm den of its values,
    # with -den in its slack column
    inputs, dens = [[1] * na + [0] * nc + [1]], [1]
    for i, g in enumerate(gaps):
        nums, den = int_row([g[a] for a in tuples])
        row = nums + [0] * (nc + 1)
        row[na + i] = -den
        inputs.append(row)
        dens.append(den)
    res = solve_int(inputs, dens, [0] * (na + nc), 1)
    if _lp_status(res, OPTIMAL, INFEASIBLE) == OPTIMAL:
        witness = {a: w for a, w in zip(tuples, res.x[:na]) if w != 0}
        return SatisfiabilityResult(True, witness=witness)
    y = res.farkas
    coeffs = tuple(y[1 + i] for i in range(nc))
    margin = max(
        sum((coeffs[i] * gaps[i][a] for i in range(nc)), start=ZERO) for a in tuples
    )
    return SatisfiabilityResult(False, farkas=coeffs, margin=margin)


@st.composite
def _satisfiability_cases(draw):
    """A random structure on 2-4 points, 1-2 variables, and 1-4 conditions
    lhs <= rhs + c * 1 between random formulas, c drawn."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    M = random_structure(rng, max_size=4)
    sig = M.signature()
    variables = ("x", "y")[:draw(st.integers(1, 2))]
    conditions = []
    for _ in range(draw(st.integers(1, 4))):
        lhs = random_formula(rng, sig, variables, depth=2)
        rhs = random_formula(rng, sig, variables, depth=2)
        conditions.append(Condition(lhs, Sum(rhs, Scale(draw(_SMALL), One()))))
    return M, variables, conditions


_TWO_POINTS = build_algebra([ONE]).to_structure()
# refuted, as in test_affine_satisfiable_refutation_certificate
_REFUTED = (_TWO_POINTS, ("x",), [parse_condition(text, _TWO_POINTS.signature())
                                  for text in ("1 <= mu(x)", "mu(x) <= 0 * 1")])


@settings(max_examples=300, deadline=None)
@given(_satisfiability_cases())
@example(_REFUTED)
def test_affine_satisfiable_matches_the_fraction_tables(case):
    M, variables, conditions = case
    tuples = list(itertools.product(range(M.size), repeat=len(variables)))
    gaps = [eval_table(M, cond.gap, variables) for cond in conditions]
    res = affine_satisfiable(M, conditions, variables)
    expected = _ref_affine_satisfiable_tables(tuples, gaps)
    # satisfiable, witness, Farkas vector and margin, and the witness order
    assert res == expected
    assert list((res.witness or {}).items()) == list((expected.witness or {}).items())


def test_unexpected_lp_status_is_an_error_not_none(monkeypatch):
    # These raise by explicit check, so they hold under python -O as well.
    from affinelogic import typespace
    from affinelogic.linprog import UNBOUNDED, SimplexResult

    M = fo_structure([(0,), (1,)])
    family = FormulaFamily(("x",), (parse_formula("R0(x)", M.signature()),))
    p = realized_type(M, (0,), family)
    q = realized_type(M, (1,), family)
    hull = type_hull(M, 1, family)
    cond = parse_condition("R0(x) <= 1", M.signature())
    monkeypatch.setattr(typespace, "solve_int", lambda *args: SimplexResult(UNBOUNDED))
    with pytest.raises(TypespaceError, match="unbounded"):
        extreme_points(hull)
    with pytest.raises(TypespaceError, match="unbounded"):
        is_face(hull, [cond])
    with pytest.raises(TypespaceError, match="unbounded"):
        affine_satisfiable(M, [cond])
    with pytest.raises(TypespaceError, match="unbounded"):
        type_distance(p, q)


# ---------------------------------------------------------------------------
# affine factoring through the hull, against the family path it replaced


def _ref_affine_factor(keys, points, values):
    """linalg.affine_factor as it was before tables were factored through
    the type hull, kept verbatim (renamed)."""
    seen: dict[tuple[F, ...], int] = {}
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


def _ref_factor_table_through_family(M, table, family):
    """typespace.factor_table_through_family as it was, kept verbatim
    (renamed): every family formula evaluated again, the tuples grouped
    again."""
    tables = [eval_table(M, phi, family.variables) for phi in family.formulas]
    keys = sorted(table)
    points = [tuple(tbl[a] for tbl in tables) for a in keys]
    values = [table[a] for a in keys]
    return _ref_affine_factor(keys, points, values)


_TABLE_VALUES = st.sampled_from([F(-1), ZERO, F(1, 3), F(1, 2), ONE, F(2)])


@st.composite
def _factor_cases(draw):
    """A random structure on 1-4 points, a family of 1-3 random formulas in
    1-2 variables, and a table over its tuples: affine in the family with
    drawn coefficients, the same with one cell moved, or drawn cell by cell."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    M = random_structure(rng, max_size=4)
    variables = ("x", "y")[:draw(st.integers(1, 2))]
    sig = M.signature()
    k = draw(st.integers(1, 3))
    family = FormulaFamily(variables, tuple(random_formula(rng, sig, variables, depth=3) for _ in range(k)))
    tuples = list(itertools.product(range(M.size), repeat=len(variables)))
    kind = draw(st.sampled_from(["affine", "moved", "drawn"]))
    if kind == "drawn":
        return M, family, {a: draw(_TABLE_VALUES) for a in tuples}
    c0, cs = draw(_TABLE_VALUES), [draw(_TABLE_VALUES) for _ in range(k)]
    tables = [eval_table(M, phi, family.variables) for phi in family.formulas]
    table = {a: c0 + sum((c * t[a] for c, t in zip(cs, tables)), start=ZERO) for a in tuples}
    if kind == "moved":
        table[draw(st.sampled_from(tuples))] += draw(st.sampled_from([F(1, 2), ONE]))
    return M, family, table


# the two atoms share mu = 1/2 but the table splits them; mu^2 is not affine in mu
_FACTOR_CONFLICT = (_ALGEBRA, _MU, {(x,): ONE if x == 1 else ZERO for x in range(4)})
_FACTOR_RESIDUE = (_ALGEBRA, _MU, {a: v ** 2 for a, v in eval_table(_ALGEBRA, _MU.formulas[0], ("x",)).items()})


@settings(max_examples=300, deadline=None)
@given(_factor_cases())
@example(_FACTOR_CONFLICT)
@example(_FACTOR_RESIDUE)
def test_factor_through_hull_matches_the_family_path(case):
    M, family, table = case
    hull = type_hull(M, family.arity, family)
    assert factor_through_hull(hull, table) == _ref_factor_table_through_family(M, table, family)
    for maximize in (False, True):
        assert _outcome(lambda: exposed_face(hull, table, maximize)) == _outcome(
            lambda: _ref_exposed_face(hull, table, maximize))
    # the hull groups the tuples by their Fraction vectors, in first-occurrence order
    tables = [eval_table(M, phi, family.variables) for phi in family.formulas]
    vectors = {a: tuple(t[a] for t in tables) for a in table}
    assert [v.values for v in hull.vertices] == list(dict.fromkeys(vectors.values()))
    assert [[vectors[a] for a in reals] for reals in hull.realizations] == [
        [v.values] * len(reals) for v, reals in zip(hull.vertices, hull.realizations)]
    assert sorted(a for reals in hull.realizations for a in reals) == list(table)


def test_factor_examples_cover_a_conflict_and_a_residue():
    M, family, table = _FACTOR_CONFLICT
    res = factor_through_hull(type_hull(M, 1, family), table)
    assert res.conflict == FactorConflict((1,), (2,))
    M, family, table = _FACTOR_RESIDUE
    res = factor_through_hull(type_hull(M, 1, family), table)
    assert res.residue is not None and res.residue.keys == ((0,), (1,), (3,))


def test_is_face_and_exposed_face_evaluate_no_family_formula(monkeypatch, algebra_hull):
    from affinelogic import typespace

    calls = []
    real = typespace.eval_table

    def counting(M, phi, variables):
        calls.append(phi)
        return real(M, phi, variables)

    monkeypatch.setattr(typespace, "eval_table", counting)
    sig = algebra_hull.structure.signature()
    conditions = [parse_condition(text, sig) for text in
                  ("mu(x) <= 1", "0 * 1 <= mu(x)", "1/2 * mu(x) <= 1/2 * 1")]
    assert is_face(algebra_hull, conditions)
    # each condition's gap, once; the family values come from the hull
    assert [id(phi) for phi in calls] == [id(cond.gap) for cond in conditions]
    assert not any(phi is f for phi in calls for f in algebra_hull.family.formulas)
    table = {(x,): F(x) for x in range(4)}
    with pytest.raises(NotAffineError):
        exposed_face(algebra_hull, table)
    assert len(calls) == len(conditions)


# ---------------------------------------------------------------------------
# Keisler decomposition by one elimination, against the rank test it replaced


def _ref_affinely_independent(points):
    """linalg.affinely_independent as it was, kept verbatim (renamed)."""
    if not points:
        return True
    cols = [list(p) + [ONE] for p in points]
    return matrix_rank(cols) == len(points)


def _ref_keisler_decompose(hull, p):
    """keisler_decompose as it was before one gauss_solve answered both the
    rank and the solve, kept verbatim (renamed)."""
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
    if not _ref_affinely_independent(vectors):
        raise NonUniqueDecompositionError(
            "extreme vertices are affinely dependent: the family does not "
            "separate, decomposition is not unique"
        )
    dim = len(hull.family)
    rows = [[v[c] for v in vectors] for c in range(dim)]
    rows.append([ONE] * len(vectors))
    rhs = list(p.values) + [ONE]
    sol = gauss_solve(rows, rhs)
    if not sol.consistent:
        raise DecompositionError("point lies outside the affine hull of the extremes")
    if sol.x is None:
        raise _Internal("consistent system without a solution")
    if any(w < 0 for w in sol.x):
        raise DecompositionError("point lies outside the hull of the extremes")
    return BoundaryMeasure({i: w for i, w in zip(idx, sol.x) if w != 0})


def _decomposition(decompose, hull, p):
    try:
        return decompose(hull, p)
    except TypespaceError as exc:
        return type(exc), str(exc)


def _keisler_case(patterns, values):
    M = fo_structure(patterns)
    family = FormulaFamily(
        ("x",), tuple(parse_formula(f"R{c}(x)", M.signature()) for c in range(len(patterns[0])))
    )
    return type_hull(M, 1, family), TypeVector(family, tuple(values))


@st.composite
def _keisler_cases(draw):
    """A discrete structure on 1-5 points with 1-3 unary 0/1 relations, the
    hull of their family, and a point: a mixture of the vertices, an affine
    combination of them with weights from -2 to 3, or a drawn vector."""
    k = draw(st.integers(1, 3))
    patterns = draw(st.lists(st.tuples(*[st.integers(0, 1)] * k), min_size=1, max_size=5))
    hull, _ = _keisler_case(patterns, [ZERO] * k)
    kind = draw(st.sampled_from(["mixture", "affine", "drawn"]))
    if kind == "drawn":
        return _keisler_case(patterns, [draw(_SMALL) for _ in range(k)])
    ws = [F(draw(st.integers(0 if kind == "mixture" else -2, 3))) for _ in hull.vertices]
    if sum(ws) == 0:
        ws[0] += 1
    values = [sum((w * v.values[c] for w, v in zip(ws, hull.vertices)), start=ZERO) / sum(ws)
              for c in range(k)]
    return _keisler_case(patterns, values)


_KEISLER_UNIQUE = _keisler_case([(0, 0), (1, 0), (0, 1)], [F(1, 4), F(1, 4)])
_KEISLER_DEPENDENT = _keisler_case([(0, 0), (1, 0), (0, 1), (1, 1)], [ZERO, ZERO])
# dependent extremes and a point off their plane: dependence is reported first
_KEISLER_DEPENDENT_OFF = _keisler_case([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], [ZERO, ZERO, ONE])
_KEISLER_OUTSIDE = _keisler_case([(0, 0), (1, 0), (0, 1)], [F(2), ZERO])
_KEISLER_OFF_AFFINE = _keisler_case([(0, 0), (1, 0)], [ZERO, ONE])


@settings(max_examples=300, deadline=None)
@given(_keisler_cases())
@example(_KEISLER_UNIQUE)
@example(_KEISLER_DEPENDENT)
@example(_KEISLER_DEPENDENT_OFF)
@example(_KEISLER_OUTSIDE)
@example(_KEISLER_OFF_AFFINE)
def test_keisler_decompose_matches_the_rank_test(case):
    hull, p = case
    assert _decomposition(keisler_decompose, hull, p) == _decomposition(_ref_keisler_decompose, hull, p)


def test_keisler_examples_cover_every_branch():
    outcomes = [_decomposition(keisler_decompose, *case) for case in
                (_KEISLER_UNIQUE, _KEISLER_DEPENDENT, _KEISLER_DEPENDENT_OFF,
                 _KEISLER_OUTSIDE, _KEISLER_OFF_AFFINE)]
    assert outcomes[0].weights == {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)}
    assert [o[0] for o in outcomes[1:]] == [NonUniqueDecompositionError] * 2 + [DecompositionError] * 2
    assert "outside the hull" in outcomes[3][1] and "affine hull" in outcomes[4][1]


# ---------------------------------------------------------------------------
# structures the hull refuses


def test_factor_through_hull_refuses_the_empty_structure():
    # the hull of a structure with no elements has no vertex to solve over
    M = FiniteStructure((), ())
    with pytest.raises(TypespaceError, match="^structure must have at least one element$"):
        factor_through_hull(type_hull(M, 1, FormulaFamily(("x",), (One(),))), {})


@pytest.mark.parametrize("variables", [("x",), ()])
def test_affine_satisfiable_refuses_the_empty_structure(variables):
    M = FiniteStructure((), ())
    with pytest.raises(TypespaceError, match="^structure must have at least one element$"):
        affine_satisfiable(M, [], variables)


def test_type_hull_refuses_an_inexact_metric_it_does_not_read():
    # the family reads R only; the first-order flag still reads the metric
    M = FiniteStructure(("a", "b"), ((F(0), 0.5), (0.5, F(0))),
                        relations={"R": RelationInterp(1, F(1), {(0,): F(0), (1,): F(1)})})
    family = FormulaFamily(("x",), (parse_formula("R(x)", M.signature()),))
    with pytest.raises(StructureError) as info:
        type_hull(M, 1, family)
    assert str(info.value) == "metric 'd' has a value that is not an exact rational: 0.5"
