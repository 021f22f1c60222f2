import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from affinelogic import definability, suites
from affinelogic.definability import (
    AxiomCheck,
    DefinabilityError,
    DistanceAxiomReport,
    FunctionTable,
    GraphIdentityReport,
    PredicateTable,
    ProjectionReport,
    _normalize_set,
    _tuples,
    automorphism_invariant,
    check_distance_axioms,
    check_graph_identities,
    distance_predicate,
    function_graph,
    inf_over_definable,
    invariant_type,
    is_definable_predicate,
    is_definable_set,
    lambda_domination,
    predicate_from_formula,
    pushforward,
    validate_function_table,
    validate_predicate,
    zeroset_recover,
)
from affinelogic.model import (
    FiniteStructure,
    FunctionInterp,
    RelationInterp,
    StructureError,
    neighbour_pairs,
    validate_structure,
)
from affinelogic.pra import build_algebra
from affinelogic.sampling import random_metric
from affinelogic.syntax import One, parse_formula
from affinelogic.typespace import (
    FormulaFamily,
    TypespaceError,
    exposed_face,
    type_hull,
)
from test_typespace import _ref_affine_satisfiable_tables

ZERO = F(0)
ONE = F(1)


@pytest.fixture
def A2():
    """Probability algebra on two even atoms: elements 0, a, b, 1."""
    return build_algebra([F(1, 2), F(1, 2)]).to_structure()


def mu_family(M):
    return FormulaFamily(("x",), (parse_formula("mu(x)", M.signature()),))


# ---------------------------------------------------------------------------
# distance predicates and the axioms


def test_distance_predicate_frozen_values(A2):
    dist0 = distance_predicate(A2, {(0,)})
    assert [dist0.values[(x,)] for x in range(4)] == [0, F(1, 2), F(1, 2), 1]
    ends = distance_predicate(A2, {(0,), (3,)})
    assert [ends.values[(x,)] for x in range(4)] == [0, F(1, 2), F(1, 2), 0]


def test_distance_predicate_empty_set_is_constant_top(A2):
    dist = distance_predicate(A2, (), n=2)
    assert set(dist.values.values()) == {2 * A2.diameter()}
    with pytest.raises(DefinabilityError):
        distance_predicate(A2, ())  # empty needs an arity


def test_distance_predicate_rejects_mixed_arities(A2):
    with pytest.raises(DefinabilityError):
        distance_predicate(A2, {(0,), (0, 1)})


@pytest.mark.parametrize("member", [(-1,), (2,), (0.0,), 0])
def test_set_members_outside_the_structure_are_refused(member):
    M = build_algebra([ONE]).to_structure()
    P = predicate_from_formula(M, parse_formula("d(x, y)", M.signature()), ("x", "y"))
    calls = [
        (lambda: distance_predicate(M, {member}), member),
        (lambda: is_definable_set(M, {member}, mu_family(M)), member),
        (lambda: inf_over_definable(M, {member}, P, ONE), member),
    ]
    if isinstance(member, tuple):  # a graph member joins an input and an output tuple
        into = FunctionTable(1, 1, ONE, {(0,): (0,), (1,): member})
        calls.append((lambda: check_graph_identities(M, into), (1, *member)))
    for call, bad in calls:
        with pytest.raises(DefinabilityError) as info:
            call()
        assert type(info.value) is DefinabilityError
        assert str(info.value) == f"set member {bad} is not a tuple of element indices below 2"


def test_distance_axioms_hold_for_distance_tables(A2):
    for D in ({(0,)}, {(1,), (2,)}, {(0, 3), (1, 2)}):
        rep = check_distance_axioms(A2, distance_predicate(A2, D))
        assert rep.ok


def test_shifted_distance_fails_approachability(A2):
    base = distance_predicate(A2, {(0,)})
    shifted = PredicateTable(1, {a: v + F(1, 10) for a, v in base.values.items()})
    rep = check_distance_axioms(A2, shifted)
    assert rep.nonnegative.ok and rep.nonexpansive.ok
    assert not rep.approachable.ok
    a, farkas = rep.approachable.witness
    assert all(r >= 0 for r in farkas)


def test_negative_value_fails_nonnegativity(A2):
    P = PredicateTable(1, {(x,): F(-1, 8) if x == 0 else ONE for x in range(4)})
    rep = check_distance_axioms(A2, P)
    assert not rep.nonnegative.ok
    assert rep.nonnegative.witness == ((0,),)


def test_steep_predicate_fails_nonexpansiveness(A2):
    P = PredicateTable(1, {(x,): ONE if x == 3 else ZERO for x in range(4)})
    rep = check_distance_axioms(A2, P)
    assert not rep.nonexpansive.ok
    a, b = rep.nonexpansive.witness
    assert P.values[a] - P.values[b] > A2.metric[a[0]][b[0]]


def test_zeroset_recover_roundtrip(A2):
    D = frozenset({(1,), (3,)})
    P = distance_predicate(A2, D)
    assert zeroset_recover(A2, P) == D


def test_zeroset_recover_refuses_non_distance(A2):
    # d(., {0}) shifted up by 1/10 is nonnegative and 1-Lipschitz, nowhere 0
    base = distance_predicate(A2, {(0,)})
    shifted = PredicateTable(1, {a: v + F(1, 10) for a, v in base.values.items()})
    steep = PredicateTable(1, {(0,): F(-1, 4), (1,): ONE, (2,): ZERO, (3,): ZERO})
    for P, failing in (
        (shifted, "approachable"),
        (steep, "nonnegative, nonexpansive, approachable"),
    ):
        with pytest.raises(DefinabilityError) as info:
            zeroset_recover(A2, P)
        # the exact class: callers tell a refusal from other errors by its name
        assert type(info.value) is DefinabilityError
        assert str(info.value) == f"distance axioms fail, refusing to recover: {failing}"


def test_distance_axiom_suite_names_the_failing_axioms(monkeypatch):
    report = DistanceAxiomReport(
        AxiomCheck(True), AxiomCheck(True), AxiomCheck(False, ((0,), (F(3, 4), F(1, 4))))
    )
    monkeypatch.setattr(suites, "check_distance_axioms", lambda M, P: report)
    res = suites.run_distance_axioms(seed=0, instances=3)
    assert (res.ok, res.checked, res.detail) == (False, 1, "instance 0: axioms fail: approachable")


# Reference for the neighbour scan and the closed-form approachability test:
# the all-pairs nonexpansive loop and the per-point LP that
# check_distance_axioms ran before.  Returns (nonexpansive ok, first point
# where approachability fails or None).
def _reference_axioms(M, P):
    tuples = list(itertools.product(range(M.size), repeat=P.arity))
    values = P.values
    nonexp = not any(
        values[a] - values[b] > M.tuple_distance(a, b) for a in tuples for b in tuples
    )
    for a in tuples:
        gaps = [
            {y: -values[y] for y in tuples},
            {y: values[a] - M.tuple_distance(a, y) for y in tuples},
        ]
        if not _ref_affine_satisfiable_tables(tuples, gaps).satisfiable:
            return nonexp, a
    return nonexp, None


def _metric_space(draw):
    m = draw(st.integers(2, 4))
    metric = random_metric(draw(st.randoms(use_true_random=False)), m)
    return FiniteStructure(tuple(f"e{i}" for i in range(m)), metric, {}, {}, {})


_SIGNED = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _axiom_cases(draw):
    """Distance predicates, shifted up or down, with entries overwritten by
    signed values or by ties g(y) = f(y) at some point a."""
    M = _metric_space(draw)
    tuples = list(itertools.product(range(M.size), repeat=draw(st.integers(1, 2))))
    D = draw(st.sets(st.sampled_from(tuples), min_size=1))
    shift = draw(st.sampled_from([F(-1, 4), F(-1, 10), ZERO, ZERO, F(1, 10), F(1, 4)]))
    values = {a: v + shift for a, v in distance_predicate(M, D).values.items()}
    for _ in range(draw(st.integers(0, 2))):
        y = draw(st.sampled_from(tuples))
        if draw(st.booleans()):
            values[y] = draw(_SIGNED)
        else:  # P(a) - d(a, y) = -P(y): a tie, negative when d(a, y) < P(a)
            a = draw(st.sampled_from(tuples))
            values[y] = M.tuple_distance(a, y) - values[a]
    return M, PredicateTable(len(tuples[0]), values)


@settings(max_examples=300, deadline=None)
@given(_axiom_cases())
def test_distance_axioms_match_reference(case):
    M, P = case
    nonexp, failing = _reference_axioms(M, P)
    rep = check_distance_axioms(M, P)
    assert rep.nonnegative.ok == (min(P.values.values()) >= 0)
    assert rep.nonexpansive.ok == nonexp
    if not nonexp:
        a, b = rep.nonexpansive.witness
        assert P.values[a] - P.values[b] > M.tuple_distance(a, b)
    assert rep.approachable.ok == (failing is None)
    if failing is not None:
        a, (r0, r1) = rep.approachable.witness
        assert a == failing
        assert r0 >= 0 and r1 >= 0 and r0 + r1 == 1
        assert max(
            r0 * -P.values[y] + r1 * (P.values[a] - M.tuple_distance(a, y))
            for y in P.values
        ) < 0


@st.composite
def _trailing_cases(draw):
    M = _metric_space(draw)
    head = draw(st.integers(0, 1))
    tuples = itertools.product(range(M.size), repeat=head + 2)
    P = PredicateTable(head + 2, {a: draw(_SIGNED) / 6 for a in tuples})
    return M, P, draw(st.sampled_from([ZERO, F(1, 2), ONE, F(2), F(4)]))


@settings(max_examples=150, deadline=None)
@given(_trailing_cases())
def test_inf_over_definable_lipschitz_matches_all_pairs(case):
    M, P, lam = case
    head = P.arity - 2
    ys = list(itertools.product(range(M.size), repeat=2))
    lipschitz = all(
        abs(P.values[x + y1] - P.values[x + y2]) <= lam * M.tuple_distance(y1, y2)
        for x in itertools.product(range(M.size), repeat=head)
        for y1 in ys
        for y2 in ys
    )
    if lipschitz:
        assert inf_over_definable(M, {(0, 0)}, P, lam).identity_holds
    else:
        with pytest.raises(DefinabilityError, match="Lipschitz"):
            inf_over_definable(M, {(0, 0)}, P, lam)


# ---------------------------------------------------------------------------
# Fraction references for the int-numerator distance path: distance_predicate,
# check_distance_axioms with _approach_refutation, and inf_over_definable as
# they were before the metric became int numerators over one denominator.
# Bodies verbatim; only the names of the functions and of their calls to
# each other carry a _ref_ prefix.


def _ref_distance_predicate(M, D, n=None):
    tuples, n = _normalize_set(M, D, n)
    if not tuples:
        top = F(n) * M.diameter()
        return PredicateTable(n, {a: top for a in _tuples(M, n)})
    values = {
        a: min(M.tuple_distance(a, b) for b in tuples) for a in _tuples(M, n)
    }
    return PredicateTable(n, values)


def _ref_check_distance_axioms(M, P):
    validate_predicate(M, P)
    tuples = _tuples(M, P.arity)

    nonneg = AxiomCheck(True)
    for a in tuples:
        if P.values[a] < 0:
            nonneg = AxiomCheck(False, (a,))
            break

    nonexp = AxiomCheck(True)
    for a, b, x, y in neighbour_pairs(M.size, P.arity):
        diff = P.values[a] - P.values[b]
        if abs(diff) > M.metric[x][y]:
            nonexp = AxiomCheck(False, (a, b) if diff > 0 else (b, a))
            break

    approach = AxiomCheck(True)
    for a in tuples:
        farkas = _ref_approach_refutation(M, P, a, tuples)
        if farkas is not None:
            approach = AxiomCheck(False, (a, farkas))
            break

    return DistanceAxiomReport(nonneg, nonexp, approach)


def _ref_approach_refutation(M, P, a, tuples):
    pa = P.values[a]
    gaps = []
    lo, hi = ZERO, ONE
    for y in tuples:
        f = -P.values[y]
        g = pa - M.tuple_distance(a, y)
        h = g - f
        if h > 0:
            hi = min(hi, -f / h)
        elif h < 0:
            lo = max(lo, -f / h)
        elif f >= 0:
            return None
        if lo >= hi:
            return None
        gaps.append((f, g))
    s = (lo + hi) / 2
    if max((1 - s) * f + s * g for f, g in gaps) >= 0:
        raise DefinabilityError(f"approachability refutation at {a} does not refute")
    return 1 - s, s


def _ref_inf_over_definable(M, D, P, lam, n=None):
    lam = F(lam)
    if lam < 0:
        raise DefinabilityError("lam must be nonnegative")
    tuples_D, n = _normalize_set(M, D, n)
    if not tuples_D:
        raise DefinabilityError("D must be nonempty")
    validate_predicate(M, P)
    m = P.arity - n
    if m < 0:
        raise DefinabilityError("P arity must be at least the set arity")
    xs = _tuples(M, m)
    ys = _tuples(M, n)
    pairs = list(neighbour_pairs(M.size, n))
    for x in xs:
        for y1, y2, u, v in pairs:
            if abs(P.values[x + y1] - P.values[x + y2]) > lam * M.metric[u][v]:
                raise DefinabilityError(
                    f"P is not {lam}-Lipschitz in the trailing block at {x}, {y1}, {y2}"
                )
    dist = _ref_distance_predicate(M, tuples_D, n)
    q = {x: min(P.values[x + b] for b in tuples_D) for x in xs}
    identity = all(
        min(P.values[x + z] + lam * dist.values[z] for z in ys) == q[x] for x in xs
    )
    return ProjectionReport(PredicateTable(m, q), identity, lam)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DefinabilityError as exc:
        return f"DefinabilityError: {exc}"


# Values with denominators 7 and 9 (coprime to the metric grid's 4),
# integers, and signed sixths; the metric spaces have 1 to 4 points.
_VALUES = st.one_of(
    st.integers(-2, 3).map(F),
    st.builds(F, st.integers(-9, 18), st.sampled_from([7, 9])),
    _SIGNED,
)


def _any_metric_space(draw):
    m = draw(st.integers(1, 4))
    metric = random_metric(draw(st.randoms(use_true_random=False)), m)
    return FiniteStructure(tuple(f"e{i}" for i in range(m)), metric, {}, {}, {})


@st.composite
def _distance_cases(draw):
    """A metric space, an arity 0-2 and a subset of its tuples, maybe empty."""
    M = _any_metric_space(draw)
    n = draw(st.integers(0, 2))
    tuples = list(itertools.product(range(M.size), repeat=n))
    return M, draw(st.sets(st.sampled_from(tuples))), n


@settings(max_examples=200, deadline=None)
@given(_distance_cases())
def test_distance_predicate_matches_fraction_reference(case):
    M, D, n = case
    new, ref = distance_predicate(M, D, n), _ref_distance_predicate(M, D, n)
    assert new == ref
    assert list(new.values) == list(ref.values)
    assert all(type(v) is F for v in new.values.values())


@st.composite
def _predicate_cases(draw):
    """Arity 0-2 predicates (0-3 on up to 3 points): distance tables shifted
    by a drawn value, or tables of drawn values, with entries overwritten by
    drawn values or by ties g(y) = f(y), that is P(y) = d(a, y) - P(a), at
    some point a.  The drawn values may be negative, so approachability is
    compared with the reference on tables of either sign."""
    M = _any_metric_space(draw)
    n = draw(st.integers(0, 3 if M.size <= 3 else 2))
    tuples = list(itertools.product(range(M.size), repeat=n))
    if draw(st.booleans()):
        D = draw(st.sets(st.sampled_from(tuples), min_size=1))
        shift = draw(st.one_of(st.just(ZERO), _VALUES))
        values = {a: v + shift for a, v in distance_predicate(M, D).values.items()}
    else:
        values = {a: draw(_VALUES) for a in tuples}
    for _ in range(draw(st.integers(0, 3))):
        y = draw(st.sampled_from(tuples))
        if draw(st.booleans()):
            values[y] = draw(_VALUES)
        else:
            a = draw(st.sampled_from(tuples))
            values[y] = M.tuple_distance(a, y) - values[a]
    return M, PredicateTable(n, values)


_LINE = FiniteStructure(("a", "b"), ((ZERO, ONE), (ONE, ZERO)), {}, {}, {})


@settings(max_examples=400, deadline=None)
@given(_predicate_cases())
@example((_LINE, PredicateTable(1, {(0,): F(1, 4), (1,): F(3, 4)})))  # P >= 0, no zero
@example((_LINE, PredicateTable(1, {(0,): ZERO, (1,): F(1, 2)})))  # P >= 0, fails at b
@example((_LINE, PredicateTable(1, {(0,): F(-1, 4), (1,): F(1, 2)})))  # a negative value
def test_distance_axioms_match_fraction_reference(case):
    M, P = case
    new = _outcome(check_distance_axioms, M, P)
    assert new == _outcome(_ref_check_distance_axioms, M, P)
    if not isinstance(new, str) and not new.approachable.ok:
        _, farkas = new.approachable.witness
        assert all(type(r) is F for r in farkas)


@st.composite
def _projection_cases(draw):
    """P over head + n coordinates (head 0-1, n 0-2): drawn values, or a
    per-head offset plus t * distance to a set, which is t-Lipschitz in the
    trailing block; lam from integers, halves, sevenths and ninths."""
    M = _any_metric_space(draw)
    head, n = draw(st.integers(0, 1)), draw(st.integers(0, 2))
    ys = list(itertools.product(range(M.size), repeat=n))
    xs = list(itertools.product(range(M.size), repeat=head))
    if draw(st.booleans()):
        dist = distance_predicate(M, draw(st.sets(st.sampled_from(ys), min_size=1)), n)
        t = draw(st.sampled_from([ZERO, F(1, 2), ONE, F(9, 7)]))
        values = {}
        for x in xs:
            c = draw(_VALUES)
            values.update({x + y: c + t * dist.values[y] for y in ys})
    else:
        values = {x + y: draw(_VALUES) for x in xs for y in ys}
    lam = draw(st.sampled_from([ZERO, F(1, 2), ONE, F(2), F(2, 7), F(13, 9), F(4)]))
    D = draw(st.sets(st.sampled_from(ys), min_size=1))
    return M, D, PredicateTable(head + n, values), lam, n


@settings(max_examples=300, deadline=None)
@given(_projection_cases())
def test_inf_over_definable_matches_fraction_reference(case):
    M, D, P, lam, n = case
    new = _outcome(inf_over_definable, M, D, P, lam, n)
    assert new == _outcome(_ref_inf_over_definable, M, D, P, lam, n)
    if not isinstance(new, str):
        assert all(type(v) is F for v in new.table.values.values())


# Fraction references for the function-table checks, as they were before
# they read the int metric.  Bodies verbatim; only the names carry a _ref_
# prefix.


def _ref_validate_function_table(M, f):
    expected = set(itertools.product(range(M.size), repeat=f.arity_in))
    if set(f.table) != expected:
        raise DefinabilityError("function table must cover every input tuple")
    for args, out in f.table.items():
        if len(out) != f.arity_out:
            raise DefinabilityError(f"output arity mismatch at {args}")
        if any(not 0 <= x < M.size for x in out):
            raise DefinabilityError(f"output out of range at {args}")
    # All pairs, in product order: M is not validated here, and reducing to
    # neighbour pairs for tuple-valued outputs needs the triangle inequality
    # of its metric.
    for a in sorted(expected):
        for b in sorted(expected):
            if M.tuple_distance(f.table[a], f.table[b]) > f.lam * M.tuple_distance(a, b):
                raise DefinabilityError(
                    f"function table violates its declared constant at {a}, {b}"
                )


def _ref_check_graph_identities(M, f):
    graph = function_graph(M, f)
    dist = distance_predicate(M, graph, f.arity_in + f.arity_out)
    xs = _tuples(M, f.arity_in)
    ys = _tuples(M, f.arity_out)
    forward = all(
        dist.values[x + y]
        == min(M.tuple_distance(x, u) + M.tuple_distance(f.table[u], y) for u in xs)
        for x in xs
        for y in ys
    )
    backward = all(
        M.tuple_distance(f.table[x], y)
        == min(dist.values[x + v] + M.tuple_distance(v, y) for v in ys)
        for x in xs
        for y in ys
    )
    return GraphIdentityReport(forward, backward)


@st.composite
def _function_cases(draw):
    """A function table of arity 0-2 into arity 0-2 on 1-4 points (at most
    16 input or output tuples): random, a projection (nonexpansive) or
    constant outputs, one in ten draws with an output of the wrong length;
    lam from zero, halves, sevenths and integers.  The metric is a random
    metric or, since validate_function_table does not validate M, an
    asymmetric one that keeps the triangle inequality, or drawn values,
    negative ones included."""
    M = _any_metric_space(draw)
    m = M.size
    kind = draw(st.sampled_from(["metric", "quasi", "values"]))
    if kind != "metric":
        d = [[draw(_VALUES) for _ in range(m)] for _ in range(m)]
        if kind == "quasi":  # asymmetric, closed under the triangle inequality
            d = [[ZERO if i == j else abs(d[i][j]) for j in range(m)] for i in range(m)]
            for k, i, j in itertools.product(range(m), repeat=3):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        M = FiniteStructure(M.elements, tuple(map(tuple, d)), {}, {}, {})
    arity_in = draw(st.integers(0, 2))
    arity_out = draw(st.integers(0, 2))
    inputs = list(itertools.product(range(m), repeat=arity_in))
    outputs = list(itertools.product(range(m), repeat=arity_out))
    shape = draw(st.sampled_from(["random", "projection", "constant"]))
    if shape == "projection" and arity_out <= arity_in:
        table = {a: a[:arity_out] for a in inputs}
    elif shape == "constant":
        table = dict.fromkeys(inputs, draw(st.sampled_from(outputs)))
    else:
        table = {a: draw(st.sampled_from(outputs)) for a in inputs}
    if draw(st.integers(0, 9)) == 0:
        table[draw(st.sampled_from(inputs))] = (0,) * (arity_out + 1)
    lam = draw(st.sampled_from([ZERO, F(1, 2), ONE, F(9, 7), F(2), F(4)]))
    return M, FunctionTable(arity_in, arity_out, lam, table)


# d(p, q) = 1/2 but d(q, p) = 1: the constant map's backward identity holds
# when read as d(v, y), as tuple_distance reads it, and fails as d(y, v)
_ORIENTED = (
    FiniteStructure(("p", "q"), ((ZERO, F(1, 2)), (ONE, ZERO)), {}, {}, {}),
    FunctionTable(1, 1, ONE, {(0,): (0,), (1,): (0,)}),
)


@settings(max_examples=300, deadline=None)
@given(_function_cases())
@example(_ORIENTED)
def test_function_table_checks_match_fraction_reference(case):
    M, f = case
    assert _outcome(validate_function_table, M, f) == _outcome(_ref_validate_function_table, M, f)
    assert _outcome(check_graph_identities, M, f) == _outcome(_ref_check_graph_identities, M, f)


def test_function_table_witness_is_the_first_violating_pair_in_product_order(A2):
    # the identity on pairs is 1-Lipschitz, not 1/2-Lipschitz: every pair of
    # distinct inputs violates the constant, and the first of them in
    # product order is reported
    f = FunctionTable(2, 2, F(1, 2), {a: a for a in _tuples(A2, 2)})
    with pytest.raises(DefinabilityError) as info:
        validate_function_table(A2, f)
    assert str(info.value) == "function table violates its declared constant at (0, 0), (0, 1)"


@pytest.mark.parametrize("check, error", [
    (lambda M: check_distance_axioms(M, PredicateTable(1, {})), StructureError),
    (lambda M: is_definable_predicate(M, PredicateTable(1, {}), FormulaFamily(("x",), (One(),))),
     TypespaceError),
    (lambda M: is_definable_set(M, [], FormulaFamily(("x",), (One(),)), 1), TypespaceError),
], ids=["check_distance_axioms", "is_definable_predicate", "is_definable_set"])
def test_definability_refuses_the_empty_structure(check, error):
    with pytest.raises(error, match="^structure must have at least one element$"):
        check(FiniteStructure((), ()))


# ---------------------------------------------------------------------------
# the cover check of tuple-keyed tables (model.row_major), from each caller

_SPOIL = {
    "missing": lambda table: {a: v for a, v in table.items() if a != (1,)},
    "extra": lambda table: {**table, (4,): table[(0,)]},
    "arity": lambda table: {a + (0,): v for a, v in table.items()},
}


@pytest.mark.parametrize("defect", sorted(_SPOIL))
def test_every_cover_check_keeps_its_message(A2, defect):
    spoil = _SPOIL[defect]
    ident = {(x,): x for x in range(4)}
    M = replace(A2, functions={"f": FunctionInterp(1, ONE, spoil(ident))})
    assert validate_structure(M).message == "function 'f' table must cover all 4 tuples"
    mu = A2.relations["mu"]
    M = replace(A2, relations={"mu": RelationInterp(1, ONE, spoil(mu.table))})
    assert validate_structure(M).message == "relation 'mu' table must cover all 4 tuples"
    int_form = {
        "missing": "relation 'mu' has no value at (1,)",
        "extra": "relation 'mu' table must cover all 4 tuples",
        "arity": "relation 'mu' has no value at (0,)",
    }[defect]
    with pytest.raises(StructureError, match=re.escape(int_form)):
        M.int_relations

    P = PredicateTable(1, spoil(dict(mu.table)))
    Q = PredicateTable(1, dict(mu.table))
    message = re.escape("predicate table must cover all 4 tuples of arity 1")
    for check in (
        lambda: check_distance_axioms(A2, P),
        lambda: zeroset_recover(A2, P),
        lambda: lambda_domination(A2, P, Q, ZERO),
        lambda: lambda_domination(A2, Q, P, ZERO),
        lambda: is_definable_predicate(A2, P, mu_family(A2)),
        lambda: inf_over_definable(A2, {()}, P, ONE, 0),
        lambda: automorphism_invariant(A2, P),
    ):
        with pytest.raises(DefinabilityError, match=message):
            check()
    with pytest.raises(TypespaceError, match=message):
        exposed_face(type_hull(A2, 1, mu_family(A2)), P.values)
    f = FunctionTable(1, 1, ONE, spoil({(x,): (x,) for x in range(4)}))
    with pytest.raises(DefinabilityError, match="function table must cover every input tuple"):
        validate_function_table(A2, f)


# ---------------------------------------------------------------------------
# domination


def test_domination_frozen(A2):
    P = distance_predicate(A2, {(0,)})
    Q = distance_predicate(A2, {(0,), (3,)})
    assert lambda_domination(A2, P, Q, ZERO).lam == 1
    assert lambda_domination(A2, P, Q, F(1, 4)).lam == F(1, 2)
    assert lambda_domination(A2, P, Q, ONE).lam == 0


def test_domination_zero_set_obstruction(A2):
    P = distance_predicate(A2, {(3,)})
    Q = distance_predicate(A2, {(0,)})
    res = lambda_domination(A2, P, Q, F(1, 100))
    assert not res.dominates
    assert res.witness == (3,)
    assert P.values[(3,)] == 0 and Q.values[(3,)] > 0


def test_domination_input_checks(A2):
    P = distance_predicate(A2, {(0,)})
    with pytest.raises(DefinabilityError):
        lambda_domination(A2, P, distance_predicate(A2, {(0, 0)}, 2), ZERO)
    with pytest.raises(DefinabilityError):
        lambda_domination(A2, P, P, F(-1))


# ---------------------------------------------------------------------------
# affine definability


def test_definable_predicate_tautology(A2):
    P = predicate_from_formula(A2, parse_formula("mu(x)", A2.signature()), ("x",))
    rep = is_definable_predicate(A2, P, mu_family(A2))
    assert rep.definable
    assert rep.witness.offset == 0
    assert rep.witness.coeffs == (ONE,)


def test_definable_predicate_affine_transform(A2):
    mu = A2.relations["mu"].table
    P = PredicateTable(1, {(x,): 2 * mu[(x,)] - 1 for x in range(4)})
    rep = is_definable_predicate(A2, P, mu_family(A2))
    assert rep.definable
    assert rep.witness.offset == -1
    assert rep.witness.coeffs == (F(2),)


def test_definable_predicate_conflict_between_atoms(A2):
    P = PredicateTable(1, {(x,): ONE if x == 1 else ZERO for x in range(4)})
    rep = is_definable_predicate(A2, P, mu_family(A2))
    assert not rep.definable
    assert rep.conflict is not None
    # the two atoms share the family vector (mu = 1/2) but P splits them
    assert {rep.conflict.key_a, rep.conflict.key_b} == {(1,), (2,)}


def test_definable_predicate_residue_when_not_affine(A2):
    mu = A2.relations["mu"].table
    P = PredicateTable(1, {(x,): mu[(x,)] ** 2 for x in range(4)})
    rep = is_definable_predicate(A2, P, mu_family(A2))
    assert not rep.definable
    assert rep.residue is not None


def test_definable_predicate_rejects_factorisation_without_coefficients(A2, monkeypatch):
    P = predicate_from_formula(A2, parse_formula("mu(x)", A2.signature()), ("x",))
    real = definability.factor_through_hull

    def no_coeffs(*args):
        res = real(*args)
        res.coeffs = None
        return res

    monkeypatch.setattr(definability, "factor_through_hull", no_coeffs)
    with pytest.raises(DefinabilityError):
        is_definable_predicate(A2, P, mu_family(A2))


def test_definable_set(A2):
    rep = is_definable_set(A2, {(0,)}, mu_family(A2))
    assert rep.definable
    assert rep.witness.coeffs == (ONE,)
    bad = is_definable_set(A2, {(1,)}, mu_family(A2))
    assert not bad.definable
    assert bad.conflict is not None
    assert bad.distance.values[(1,)] == 0


# ---------------------------------------------------------------------------
# projections


def test_inf_over_definable_recovers_distance(A2):
    sig = A2.signature()
    P = predicate_from_formula(A2, parse_formula("d(x, y)", sig), ("x", "y"))
    rep = inf_over_definable(A2, {(0,)}, P, ONE)
    assert rep.identity_holds
    assert rep.table.values == distance_predicate(A2, {(0,)}).values


def test_inf_over_full_set_is_pointwise_min(A2):
    sig = A2.signature()
    P = predicate_from_formula(A2, parse_formula("d(x, y)", sig), ("x", "y"))
    rep = inf_over_definable(A2, {(y,) for y in range(4)}, P, ONE)
    assert rep.identity_holds
    assert set(rep.table.values.values()) == {ZERO}


def test_inf_over_definable_checks(A2):
    sig = A2.signature()
    P = predicate_from_formula(A2, parse_formula("d(x, y)", sig), ("x", "y"))
    with pytest.raises(DefinabilityError):
        inf_over_definable(A2, set(), P, ONE, n=1)
    with pytest.raises(DefinabilityError):
        inf_over_definable(A2, {(0,)}, P, F(-1))
    # lam = 0 demands a constant trailing block
    with pytest.raises(DefinabilityError, match="Lipschitz"):
        inf_over_definable(A2, {(0,)}, P, ZERO)


# ---------------------------------------------------------------------------
# function graphs


def test_graph_identities_for_nonexpansive_map(A2):
    compl = FunctionTable(1, 1, ONE, {(x,): (x ^ 3,) for x in range(4)})
    graph = function_graph(A2, compl)
    assert (0, 3) in graph and (3, 0) in graph
    rep = check_graph_identities(A2, compl)
    assert rep.forward_holds and rep.backward_holds


def test_backward_identity_fails_for_expansive_map():
    # three points nearly on a line; f stretches the left gap
    M = FiniteStructure(
        elements=("p", "q", "r"),
        metric=(
            (ZERO, F(1, 4), F(1, 2)),
            (F(1, 4), ZERO, F(1, 4)),
            (F(1, 2), F(1, 4), ZERO),
        ),
        constants={},
        functions={},
        relations={},
    )
    f = FunctionTable(1, 1, F(2), {(0,): (0,), (1,): (2,), (2,): (2,)})
    rep = check_graph_identities(M, f)
    assert rep.forward_holds
    assert not rep.backward_holds
    # the defect, concretely: d(f(0), 2) = 1/2, but routing through v = 2
    # pays only dist((0, 2), graph) + d(2, 2) = 1/4 — the graph point (1, 2)
    # sits 1/4 from (0, 2) while f stretches that gap to a full 1/2
    dist = distance_predicate(M, function_graph(M, f), 2)
    assert M.metric[f.table[(0,)][0]][2] == F(1, 2)
    assert dist.values[(0, 2)] == F(1, 4)
    assert min(dist.values[(0, v)] + M.metric[v][2] for v in range(3)) == F(1, 4)


# ---------------------------------------------------------------------------
# invariant types


def test_invariant_type_of_identity(A2):
    ident = FunctionTable(1, 1, ONE, {(x,): (x,) for x in range(4)})
    t = invariant_type(A2, ident, mu_family(A2))
    assert t.witness == {(0,): ONE}
    assert t.values == (ZERO,)


def test_invariant_type_of_swap():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    # swap the two atoms, fix 0 and 1: an automorphism of the algebra
    swap = FunctionTable(1, 1, ONE, {(0,): (0,), (1,): (2,), (2,): (1,), (3,): (3,)})
    t = invariant_type(M, swap, mu_family(M))
    assert t.witness == {(0,): ONE}  # the orbit of 0 is a fixed point
    push = pushforward(swap, t.witness)
    assert push == t.witness


def test_invariant_type_terminal_cycle():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    # 0 -> 1 -> 2 -> 1: the terminal cycle is {1, 2}
    f = FunctionTable(
        1, 1, F(2), {(0,): (1,), (1,): (2,), (2,): (1,), (3,): (3,)}
    )
    t = invariant_type(M, f, mu_family(M))
    assert t.witness == {(1,): F(1, 2), (2,): F(1, 2)}
    assert t.values == (F(1, 2),)
    assert pushforward(f, t.witness) == t.witness


def test_invariant_type_arity_checks(A2):
    binary = FunctionTable(2, 1, ONE, {})
    with pytest.raises(DefinabilityError):
        invariant_type(A2, binary, mu_family(A2))


def test_pushforward_merges_mass():
    f = FunctionTable(1, 1, ONE, {(0,): (2,), (1,): (2,), (2,): (2,)})
    out = pushforward(f, {(0,): F(1, 3), (1,): F(1, 3), (2,): F(1, 3)})
    assert out == {(2,): ONE}


# ---------------------------------------------------------------------------
# automorphism invariance


def test_automorphism_invariant_mu(A2):
    P = predicate_from_formula(A2, parse_formula("mu(x)", A2.signature()), ("x",))
    assert automorphism_invariant(A2, P).invariant


def test_automorphism_invariant_detects_atom_bias(A2):
    P = PredicateTable(1, {(x,): ONE if x == 1 else ZERO for x in range(4)})
    rep = automorphism_invariant(A2, P)
    assert not rep.invariant
    g, a = rep.witness
    assert P.values[tuple(g[x] for x in a)] != P.values[a]
