import copy
import itertools
import pickle
import random
import re
from dataclasses import replace
from fractions import Fraction
from fractions import Fraction as F
from typing import Mapping, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

import affinelogic.model as model
from affinelogic.linalg import int_row
from affinelogic.model import (
    EvalError,
    FiniteStructure,
    FunctionInterp,
    RelationInterp,
    StructureError,
    automorphisms,
    eval_formula,
    eval_table,
    neighbour_pairs,
    validate_structure,
)
from affinelogic.pra import build_algebra
from affinelogic.sampling import random_formula, random_metric, random_structure, random_structure_family
from affinelogic.syntax import (
    METRIC,
    Apply,
    Const,
    Formula,
    Func,
    Inf,
    One,
    ParseError,
    Scale,
    Sum,
    Sup,
    Term,
    Var,
    free_vars,
    parse_formula,
    render,
    term_vars,
)

ZERO = F(0)
ONE = F(1)


def two_point(d01=ONE):
    return FiniteStructure(
        elements=("a", "b"),
        metric=((ZERO, d01), (d01, ZERO)),
        constants={},
        functions={},
        relations={"R": RelationInterp(1, ONE, {(0,): ZERO, (1,): d01})},
    )


def test_validate_accepts_two_point():
    assert validate_structure(two_point()).ok


def test_validate_rejects_symmetry_violation():
    M = FiniteStructure(
        elements=("a", "b"),
        metric=((ZERO, F(1, 2)), (F(1, 3), ZERO)),
        constants={},
        functions={},
        relations={},
    )
    rep = validate_structure(M)
    assert not rep.ok
    assert rep.kind == "symmetry"


def test_validate_rejects_indiscernible_pair():
    M = FiniteStructure(
        elements=("a", "b"),
        metric=((ZERO, ZERO), (ZERO, ZERO)),
        constants={},
        functions={},
        relations={},
    )
    rep = validate_structure(M)
    assert not rep.ok
    assert rep.kind == "identity of indiscernibles"


def test_validate_rejects_triangle_violation():
    M = FiniteStructure(
        elements=("a", "b", "c"),
        metric=(
            (ZERO, F(1, 10), ONE),
            (F(1, 10), ZERO, F(1, 10)),
            (ONE, F(1, 10), ZERO),
        ),
        constants={},
        functions={},
        relations={},
    )
    rep = validate_structure(M)
    assert not rep.ok
    assert rep.kind == "triangle inequality"
    assert rep.witness is not None


def test_validate_rejects_relation_lipschitz_violation():
    M = FiniteStructure(
        elements=("a", "b"),
        metric=((ZERO, F(1, 4)), (F(1, 4), ZERO)),
        constants={},
        functions={},
        relations={"R": RelationInterp(1, ONE, {(0,): ZERO, (1,): ONE})},
    )
    rep = validate_structure(M)
    assert not rep.ok
    assert rep.kind == "relation Lipschitz"


def test_validate_rejects_incomplete_table():
    M = FiniteStructure(
        elements=("a", "b"),
        metric=((ZERO, ONE), (ONE, ZERO)),
        constants={},
        functions={},
        relations={"R": RelationInterp(1, ONE, {(0,): ZERO})},
    )
    rep = validate_structure(M)
    assert not rep.ok
    assert rep.kind == "shape"


def test_relation_range_witness_is_first_as_stored():
    # the table lists (1,) before (0,), and both leave [0, 1]
    M = FiniteStructure(
        ("a", "b"), ((ZERO, ONE), (ONE, ZERO)), {}, {},
        {"R": RelationInterp(1, ONE, {(1,): F(2), (0,): F(-1)})},
    )
    rep = validate_structure(M)
    assert (rep.kind, rep.witness) == ("relation range", (1,))


def test_validate_rejects_function_lipschitz_violation():
    M = FiniteStructure(
        elements=("a", "b", "c"),
        metric=(
            (ZERO, F(1, 4), F(1, 2)),
            (F(1, 4), ZERO, F(1, 4)),
            (F(1, 2), F(1, 4), ZERO),
        ),
        constants={},
        functions={"f": FunctionInterp(1, ONE, {(0,): 0, (1,): 2, (2,): 2})},
        relations={},
    )
    rep = validate_structure(M)
    assert not rep.ok
    assert rep.kind == "function Lipschitz"


def test_constants_out_of_range_is_shape_error():
    M = FiniteStructure(
        elements=("a",),
        metric=((ZERO,),),
        constants={"c": 3},
        functions={},
        relations={},
    )
    assert validate_structure(M).kind == "shape"


@pytest.mark.parametrize("kind", ["function", "relation"])
@pytest.mark.parametrize("arity", [0, -1])
def test_arity_below_one_is_shape_error_naming_the_symbol(kind, arity):
    # signature() refuses these arities, so validation must too; arity -1
    # used to ask for a table covering 0.5 tuples
    table = {(): 0} if arity == 0 else {}
    if kind == "function":
        M = replace(two_point(), functions={"f": FunctionInterp(arity, ONE, table)})
    else:
        M = replace(two_point(), relations={"f": RelationInterp(arity, ONE, table)})
    rep = validate_structure(M)
    assert (rep.ok, rep.kind) == (False, "shape")
    assert rep.message == f"{kind} 'f' has arity {arity}, must be at least 1"


def test_nullary_function_term_is_an_eval_error():
    M = replace(two_point(), functions={"f": FunctionInterp(0, ONE, {(): 0})})
    with pytest.raises(EvalError, match="'f' has arity 0"):
        eval_formula(M, Apply(METRIC, (Func("f", ()), Var("x"))), {"x": 1})


def test_non_square_metric_is_refused_by_validation_and_evaluation():
    # the second row is one short: d(b, b) used to be read as 1
    M = FiniteStructure(("a", "b"), ((ZERO, ONE, ONE), (ONE, ZERO)))
    rep = validate_structure(M)
    assert (rep.ok, rep.kind, rep.message) == (False, "shape", "metric table must be m x m")
    with pytest.raises(StructureError, match="metric table must be m x m"):
        eval_table(M, Apply(METRIC, (Var("x"), Var("y"))), ("x", "y"))


def test_validate_rejects_non_neighbour_first_violation():
    # lam = 1/2: the first violating pair in lexicographic order is the
    # diagonal ((0, 0), (1, 1)), which differs in both coordinates; the
    # neighbour scan must still reject, with a neighbour pair as witness.
    half, quarter = F(1, 2), F(1, 4)
    M = FiniteStructure(
        elements=("a", "b"),
        metric=((ZERO, half), (half, ZERO)),
        constants={},
        functions={},
        relations={"R": RelationInterp(2, half, {
            (0, 0): ZERO, (0, 1): quarter, (1, 0): quarter, (1, 1): F(3, 4),
        })},
    )
    assert _all_pairs_lipschitz(M) == (False, "relation Lipschitz", ((0, 0), (1, 1)))
    rep = validate_structure(M)
    assert (rep.ok, rep.kind) == (False, "relation Lipschitz")
    a, b = rep.witness
    assert sum(x != y for x, y in zip(a, b)) == 1
    table = M.relations["R"].table
    assert abs(table[a] - table[b]) > half * M.tuple_distance(a, b)


def test_neighbour_pairs_count_and_shape():
    for m, k in ((1, 2), (3, 0), (3, 1), (3, 2), (2, 3)):
        pairs = list(neighbour_pairs(m, k))
        expected = k * m ** (k - 1) * m * (m - 1) // 2 if k else 0
        assert len(pairs) == expected
        assert len({(a, b) for a, b, _, _ in pairs}) == len(pairs)
        for a, b, x, y in pairs:
            diff = [i for i in range(k) if a[i] != b[i]]
            assert len(diff) == 1 and (a[diff[0]], b[diff[0]]) == (x, y) and x < y


# Reference for the neighbour-pair Lipschitz scans: the all-pairs loops that
# validate_structure ran before.  The shape and metric checks that precede
# them are shared code, so their verdicts are taken from validate_structure.
def _all_pairs_lipschitz(M):
    rep = validate_structure(M)
    if rep.kind not in (None, "function Lipschitz", "relation Lipschitz"):
        return rep.ok, rep.kind, rep.witness
    m = M.size
    for fn in M.functions.values():
        tuples = list(itertools.product(range(m), repeat=fn.arity))
        for a in tuples:
            for b in tuples:
                if M.metric[fn.table[a]][fn.table[b]] > fn.lam * M.tuple_distance(a, b):
                    return False, "function Lipschitz", (a, b)
    for rel in M.relations.values():
        tuples = list(itertools.product(range(m), repeat=rel.arity))
        for a in tuples:
            for b in tuples:
                if abs(rel.table[a] - rel.table[b]) > rel.lam * M.tuple_distance(a, b):
                    return False, "relation Lipschitz", (a, b)
    return True, None, None


# Reference for the order of the Lipschitz witnesses: the scalar
# neighbour-pair loops that validate_structure ran before its scans went
# through first_violating_pair, in Fraction arithmetic.
def _scalar_neighbour_scan(M):
    m, d = M.size, M.metric
    for fn in M.functions.values():
        t = fn.table
        for a, b, x, y in neighbour_pairs(m, fn.arity):
            if d[t[a]][t[b]] > fn.lam * d[x][y]:
                return "function Lipschitz", (a, b)
    for rel in M.relations.values():
        t = rel.table
        for a, b, x, y in neighbour_pairs(m, rel.arity):
            if abs(t[a] - t[b]) > rel.lam * d[x][y]:
                return "relation Lipschitz", (a, b)
    return None, None


_LAMS = [ZERO, F(1, 4), F(1, 2), ONE, F(2)]
_UNIT = st.builds(lambda n, d: F(min(n, d), d), st.integers(0, 6), st.integers(1, 6))


@st.composite
def _perturbed_structures(draw):
    """Valid metric on 1-6 points; one relation and one function of arity
    1-3 (3 only up to 3 points), each either Lipschitz for its declared
    constant or perturbed away from it."""
    m = draw(st.integers(1, 6))
    metric = random_metric(draw(st.randoms(use_true_random=False)), m)
    arities = st.integers(1, 3 if m <= 3 else 2)

    def dist(a, b):
        return sum((metric[x][y] for x, y in zip(a, b)), start=ZERO)

    relations, functions = {}, {}
    if draw(st.booleans()):
        tuples = list(itertools.product(range(m), repeat=draw(arities)))
        lam = draw(st.sampled_from(_LAMS))
        values = {a: draw(_UNIT) for a in tuples}
        if draw(st.booleans()):  # inf-convolution: lam-Lipschitz, still in [0, 1]
            values = {a: min(values[b] + lam * dist(a, b) for b in tuples) for a in tuples}
        if draw(st.booleans()):
            values[draw(st.sampled_from(tuples))] = draw(_UNIT)
        if draw(st.booleans()):
            lam = draw(st.sampled_from(_LAMS))
        relations["R"] = RelationInterp(len(tuples[0]), lam, values)
    if draw(st.booleans()):
        tuples = list(itertools.product(range(m), repeat=draw(arities)))
        table = {a: draw(st.integers(0, m - 1)) for a in tuples}
        tight = max(
            (metric[table[a]][table[b]] / dist(a, b) for a in tuples for b in tuples if a != b),
            default=ZERO,
        )
        lam = tight * draw(st.sampled_from([ONE, ONE, F(3, 4), F(1, 2)]))
        functions["f"] = FunctionInterp(len(tuples[0]), lam, table)
    return FiniteStructure(
        elements=tuple(f"e{i}" for i in range(m)),
        metric=metric,
        constants={},
        functions=functions,
        relations=relations,
    )


@settings(max_examples=300, deadline=None)
@given(_perturbed_structures())
def test_validate_matches_all_pairs_reference(M):
    ok, kind, _ = _all_pairs_lipschitz(M)
    rep = validate_structure(M)
    assert (rep.ok, rep.kind) == (ok, kind)
    if kind in ("function Lipschitz", "relation Lipschitz"):
        assert (rep.kind, rep.witness) == _scalar_neighbour_scan(M)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_first_violating_pair_matches_scalar_scan(data):
    # value cells (signed ints) and element cells (indices into a flat
    # m x m dist); bounds from 0 up, so scans with and without a violation
    m, arity = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 3))
    cells = m ** arity
    ints = st.integers(0, 8)
    bound = data.draw(st.lists(ints, min_size=m * m, max_size=m * m))
    if data.draw(st.booleans()):
        table = data.draw(st.lists(st.integers(-4, 4), min_size=cells, max_size=cells))
        dist = None
    else:
        table = data.draw(st.lists(st.integers(0, m - 1), min_size=cells, max_size=cells))
        dist = data.draw(st.lists(ints, min_size=m * m, max_size=m * m))
    index = {a: i for i, a in enumerate(itertools.product(range(m), repeat=arity))}
    expected = None
    for a, b, x, y in neighbour_pairs(m, arity):
        ta, tb = table[index[a]], table[index[b]]
        gap = abs(ta - tb) if dist is None else dist[ta * m + tb]
        if gap > bound[x * m + y]:
            expected = a, b
            break
    assert model.first_violating_pair(table, m, arity, bound, dist) == expected


# ---------------------------------------------------------------------------
# evaluation


@pytest.fixture
def algebra_structure():
    return build_algebra([F(1, 2), F(1, 3), F(1, 6)]).to_structure()


def test_eval_formula_examples(algebra_structure):
    M = algebra_structure
    sig = M.signature()
    assert eval_formula(M, parse_formula("sup x. mu(x)", sig)) == 1
    assert eval_formula(M, parse_formula("inf x. mu(x)", sig)) == 0
    phi = parse_formula("1/2 * mu(x) + 1/2 * mu(x)", sig)
    for i in range(M.size):
        assert eval_formula(M, phi, {"x": i}) == M.relations["mu"].table[(i,)]


def test_eval_formula_requires_assignment(algebra_structure):
    M = algebra_structure
    phi = parse_formula("mu(x)", M.signature())
    with pytest.raises(Exception):
        eval_formula(M, phi, {})


def test_eval_table_matches_pointwise_eval(algebra_structure):
    M = algebra_structure
    sig = M.signature()
    rng = random.Random(11)
    for _ in range(25):
        phi = random_formula(rng, sig, ("x", "y"), depth=3, quantifiers=2)
        fv = tuple(sorted(free_vars(phi)))
        tbl = eval_table(M, phi, fv)
        for a in itertools.product(range(M.size), repeat=len(fv)):
            assert tbl[a] == eval_formula(M, phi, dict(zip(fv, a)))


def test_eval_table_variable_order_expansion(algebra_structure):
    M = algebra_structure
    sig = M.signature()
    phi = parse_formula("mu(x)", sig)
    tbl = eval_table(M, phi, ("y", "x"))
    for y in range(M.size):
        for x in range(M.size):
            assert tbl[(y, x)] == M.relations["mu"].table[(x,)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_structures_validate(seed):
    rng = random.Random(seed)
    M = random_structure(rng, max_size=4)
    assert validate_structure(M).ok


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphisms_of_symmetric_algebra():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    perms = automorphisms(M)
    # identity and the atom swap; 0 and top are named constants so they stay put
    assert len(perms) == 2
    swap = next(p for p in perms if p != tuple(range(M.size)))
    assert swap[0] == 0 and swap[3] == 3
    assert swap[1] == 2 and swap[2] == 1


def test_automorphisms_of_asymmetric_algebra_is_trivial():
    M = build_algebra([F(1, 3), F(2, 3)]).to_structure()
    assert automorphisms(M) == [tuple(range(M.size))]


def test_automorphisms_respect_relations():
    M = two_point()
    # R separates the two points even though the metric does not
    assert automorphisms(M) == [(0, 1)]


def _is_automorphism(M, p):
    """Brute force: p is an isometry, fixes every constant and maps every
    relation entry to an equal value and every function entry to p[out]."""
    n = M.size
    return (
        all(M.metric[i][j] == M.metric[p[i]][p[j]] for i in range(n) for j in range(n))
        and all(p[c] == c for c in M.constants.values())
        and all(rel.table[tuple(p[x] for x in a)] == v
                for rel in M.relations.values() for a, v in rel.table.items())
        and all(fn.table[tuple(p[x] for x in a)] == p[out]
                for fn in M.functions.values() for a, out in fn.table.items())
    )


@st.composite
def _symmetric_structures(draw):
    """Structures on m <= 5 points with much symmetry: discrete, two-valued
    or random metrics; relations of arity 1-3 that are random or depend
    only on a colouring; functions of arity 1-2 that are random, a
    projection or constant (outputs above their inputs included)."""
    m = draw(st.integers(1, 5), label="m")
    kind = draw(st.sampled_from(["discrete", "two-valued", "random"]), label="metric")
    if kind == "random":
        metric = random_metric(random.Random(draw(st.integers(0, 10**6))), m)
    else:
        pair = {(i, j): ONE if kind == "discrete" else draw(st.sampled_from([F(1, 2), ONE]))
                for i in range(m) for j in range(i + 1, m)}
        metric = tuple(tuple(ZERO if i == j else pair[min(i, j), max(i, j)] for j in range(m))
                       for i in range(m))
    colour = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m), label="colour")
    relations = {}
    for k in range(draw(st.integers(0, 2), label="relations")):
        arity = draw(st.integers(1, 3))
        keys = list(itertools.product(range(m), repeat=arity))
        if draw(st.booleans()):
            values = [draw(st.sampled_from([ZERO, F(1, 2), ONE])) for _ in keys]
        else:
            values = [F(sum(colour[x] for x in a), arity) for a in keys]
        relations[f"R{k}"] = RelationInterp(arity, ONE, dict(zip(keys, values)))
    functions = {}
    for k in range(draw(st.integers(0, 2), label="functions")):
        arity = draw(st.integers(1, 2))
        keys = list(itertools.product(range(m), repeat=arity))
        shape = draw(st.sampled_from(["random", "projection", "constant"]))
        if shape == "random":
            outs = [draw(st.integers(0, m - 1)) for _ in keys]
        elif shape == "projection":
            outs = [a[arity - 1] for a in keys]
        else:
            outs = [draw(st.integers(0, m - 1))] * len(keys)
        functions[f"f{k}"] = FunctionInterp(arity, ONE, dict(zip(keys, outs)))
    named = draw(st.sets(st.integers(0, m - 1), max_size=2), label="constants")
    return FiniteStructure(
        tuple(f"e{i}" for i in range(m)), metric, {f"c{i}": i for i in named}, functions, relations
    )


@settings(max_examples=300, deadline=None)
@given(_symmetric_structures())
def test_automorphisms_match_brute_force(M):
    brute = [p for p in itertools.permutations(range(M.size)) if _is_automorphism(M, p)]
    assert automorphisms(M) == brute


def test_automorphisms_of_addition_mod_8():
    # the discrete metric leaves only the ternary Add(x, y, z) = [x + y = z mod 8]
    # to prune; it is kept exactly by the maps x -> kx for odd k
    m = 8
    table = {a: F(int((a[0] + a[1]) % m == a[2])) for a in itertools.product(range(m), repeat=3)}
    M = FiniteStructure(
        elements=tuple(str(i) for i in range(m)),
        metric=tuple(tuple(ZERO if i == j else ONE for j in range(m)) for i in range(m)),
        relations={"Add": RelationInterp(3, ONE, table)},
    )
    assert automorphisms(M) == [tuple(k * x % m for x in range(m)) for k in (1, 3, 5, 7)]


def test_automorphisms_need_no_recursion():
    # one search step per element: 1,200 named points would pass the
    # default recursion limit of 1,000 if each step were a call
    m = 1200
    row = (ONE,) * m
    metric = tuple(row[:i] + (ZERO,) + row[i + 1:] for i in range(m))
    M = FiniteStructure(
        tuple(f"e{i}" for i in range(m)), metric, {f"c{i}": i for i in range(m)}
    )
    assert automorphisms(M) == [tuple(range(m))]


def test_automorphism_preserves_formula_values():
    M = build_algebra([F(1, 4), F(1, 4), F(1, 2)]).to_structure()
    sig = M.signature()
    rng = random.Random(5)
    perms = automorphisms(M)
    assert len(perms) >= 2
    for _ in range(10):
        phi = random_formula(rng, sig, ("x",), depth=3, quantifiers=1)
        fv = tuple(sorted(free_vars(phi)))
        tbl = eval_table(M, phi, fv)
        for perm in perms:
            for a in tbl:
                assert tbl[tuple(perm[x] for x in a)] == tbl[a]


def test_first_order_flag():
    # a one-atom algebra is {0, 1}-valued everywhere, hence first order
    assert build_algebra([ONE]).to_structure().is_first_order()
    # a three-atom algebra has mu values strictly between 0 and 1
    assert not build_algebra([F(1, 3), F(1, 3), F(1, 3)]).to_structure().is_first_order()
    rng = random.Random(0)
    from affinelogic.sampling import random_first_order_structure

    N = random_first_order_structure(rng, 3)
    assert N.is_first_order()


@settings(max_examples=200, deadline=None)
@given(_symmetric_structures(), st.sampled_from([ZERO, ONE, F(1, 2), F(2), F(-1)]))
def test_first_order_flag_matches_set_membership(M, value):
    # the flag as it was: every metric and relation value in the set {0, 1}
    if M.relations:  # one relation entry overwritten
        name = sorted(M.relations)[0]
        table = dict(M.relations[name].table)
        table[next(iter(table))] = value
        M.relations[name] = RelationInterp(M.relations[name].arity, ONE, table)
    two = {ZERO, ONE}
    expected = all(d in two for row in M.metric for d in row) and all(
        v in two for rel in M.relations.values() for v in rel.table.values()
    )
    assert M.is_first_order() == expected


@pytest.mark.parametrize("metric, values, named, bad", [
    (((ZERO, 0.5), (0.5, ZERO)), (ZERO, ONE), "metric 'd'", 0.5),
    (((ZERO, ONE), (ONE, ZERO)), (ZERO, 1.0), "relation 'S'", 1.0),
])
def test_first_order_flag_refuses_inexact_values(metric, values, named, bad):
    # a float is refused with the StructureError of the int forms, naming
    # its table, not read as its binary value (or a bare AttributeError)
    M = FiniteStructure(("a", "b"), metric, relations={
        "R": RelationInterp(1, ONE, {(0,): ZERO, (1,): ONE}),
        "S": RelationInterp(1, ONE, {(i,): v for i, v in enumerate(values)}),
    })
    with pytest.raises(StructureError) as info:
        M.is_first_order()
    assert str(info.value) == f"{named} has a value that is not an exact rational: {bad!r}"


def test_the_empty_structure_is_refused_by_the_int_metric():
    # eval_table reads d through int_metric, which refuses a structure with
    # no elements as validate_structure does (not with range()'s ValueError)
    M = FiniteStructure((), ())
    with pytest.raises(StructureError) as info:
        eval_table(M, parse_formula("d(x, x)", M.signature()), ("x",))
    assert str(info.value) == validate_structure(M).message == "structure must have at least one element"


# ---------------------------------------------------------------------------
# the flat-table kernel against the recursive evaluators it replaced
#
# The three functions below are the evaluators as they were before the
# integer kernel, kept verbatim (renamed) as references: a recursive
# eval_formula and an eval_table over dicts of Fractions.




def _reference_eval_term(M: FiniteStructure, t: Term, asg: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return asg[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Const):
        try:
            return M.constants[t.name]
        except KeyError:
            raise EvalError(f"constant {t.name!r} not interpreted") from None
    fn = M.functions.get(t.name)
    if fn is None:
        raise EvalError(f"function {t.name!r} not interpreted")
    args = tuple(_reference_eval_term(M, a, asg) for a in t.args)
    return fn.table[args]


def _reference_eval_formula(M: FiniteStructure, phi: Formula, asg: Mapping[str, int] | None = None) -> Fraction:
    """Exact value of phi in M under the assignment (element indices)."""
    asg = dict(asg or {})

    def go(node: Formula, env: dict[str, int]) -> Fraction:
        if isinstance(node, One):
            return ONE
        if isinstance(node, Apply):
            args = tuple(_reference_eval_term(M, t, env) for t in node.args)
            if node.symbol == METRIC:
                return M.metric[args[0]][args[1]]
            rel = M.relations.get(node.symbol)
            if rel is None:
                raise EvalError(f"relation {node.symbol!r} not interpreted")
            return rel.table[args]
        if isinstance(node, Scale):
            return node.coeff * go(node.body, env)
        if isinstance(node, Sum):
            return go(node.left, env) + go(node.right, env)
        if isinstance(node, (Inf, Sup)):
            best: Fraction | None = None
            saved = env.get(node.var)
            for e in range(M.size):
                env[node.var] = e
                v = go(node.body, env)
                if best is None:
                    best = v
                elif isinstance(node, Inf):
                    best = min(best, v)
                else:
                    best = max(best, v)
            if saved is None:
                del env[node.var]
            else:
                env[node.var] = saved
            assert best is not None
            return best
        raise TypeError(f"not a formula: {node!r}")

    return go(phi, asg)


def _reference_eval_table(
    M: FiniteStructure, phi: Formula, variables: Sequence[str]
) -> dict[tuple[int, ...], Fraction]:
    """Evaluate phi at every assignment of `variables`, bottom-up.

    Each subformula is tabulated over its own free variables, so quantifier
    alternation costs one table pass per binder instead of a nested loop.
    """
    variables = tuple(variables)
    fv = free_vars(phi)
    missing = fv - set(variables)
    if missing:
        raise EvalError(f"free variables not covered: {sorted(missing)}")
    m = M.size

    def term_tbl(t: Term) -> tuple[tuple[str, ...], dict[tuple[int, ...], int]]:
        vs = tuple(sorted(term_vars_of(t)))
        out: dict[tuple[int, ...], int] = {}
        for asg in itertools.product(range(m), repeat=len(vs)):
            out[asg] = _reference_eval_term(M, t, dict(zip(vs, asg)))
        return vs, out

    def term_vars_of(t: Term) -> frozenset[str]:
        return term_vars(t)

    def tbl(node: Formula) -> tuple[tuple[str, ...], dict[tuple[int, ...], Fraction]]:
        if isinstance(node, One):
            return (), {(): ONE}
        if isinstance(node, Apply):
            parts = [term_tbl(t) for t in node.args]
            vs = tuple(sorted(set().union(*(set(p[0]) for p in parts)) if parts else set()))
            pos = {v: i for i, v in enumerate(vs)}
            projs = [tuple(pos[v] for v in p[0]) for p in parts]
            if node.symbol == METRIC:
                lookup = lambda args: M.metric[args[0]][args[1]]
            else:
                rel = M.relations.get(node.symbol)
                if rel is None:
                    raise EvalError(f"relation {node.symbol!r} not interpreted")
                lookup = lambda args: rel.table[args]
            out: dict[tuple[int, ...], Fraction] = {}
            for asg in itertools.product(range(m), repeat=len(vs)):
                args = tuple(
                    part[1][tuple(asg[i] for i in proj)]
                    for part, proj in zip(parts, projs)
                )
                out[asg] = lookup(args)
            return vs, out
        if isinstance(node, Scale):
            vs, t = tbl(node.body)
            return vs, {k: node.coeff * v for k, v in t.items()}
        if isinstance(node, Sum):
            vl, tl = tbl(node.left)
            vr, tr = tbl(node.right)
            vs = tuple(sorted(set(vl) | set(vr)))
            pos = {v: i for i, v in enumerate(vs)}
            pl = tuple(pos[v] for v in vl)
            pr = tuple(pos[v] for v in vr)
            out = {}
            for asg in itertools.product(range(m), repeat=len(vs)):
                out[asg] = tl[tuple(asg[i] for i in pl)] + tr[tuple(asg[i] for i in pr)]
            return vs, out
        if isinstance(node, (Inf, Sup)):
            vb, t = tbl(node.body)
            if node.var not in vb:
                return vb, t
            drop = vb.index(node.var)
            vs = vb[:drop] + vb[drop + 1:]
            out = {}
            pick = min if isinstance(node, Inf) else max
            for asg, v in t.items():
                key = asg[:drop] + asg[drop + 1:]
                cur = out.get(key)
                out[key] = v if cur is None else pick(cur, v)
            return vs, out
        raise TypeError(f"not a formula: {node!r}")

    vs, t = tbl(phi)
    pos = [variables.index(v) for v in vs]
    result: dict[tuple[int, ...], Fraction] = {}
    for asg in itertools.product(range(m), repeat=len(variables)):
        result[asg] = t[tuple(asg[i] for i in pos)]
    return result


_VARS = ("x", "y", "z")
_VALUES = st.builds(F, st.integers(-3, 4), st.integers(1, 4))
_SCALES = st.sampled_from([F(0), F(-1), F(-1, 2), F(2, 3), F(1), F(3)])


@st.composite
def _eval_structures(draw, interpreted=st.just(True)):
    """m <= 3 elements, arbitrary rational tables (the evaluator needs no
    metric axioms), with constant c, functions f/1, g/2 and relations R/1,
    S/2, each present when `interpreted` draws True."""
    m = draw(st.integers(1, 3))
    tuples = {k: list(itertools.product(range(m), repeat=k)) for k in (1, 2)}
    elem = st.integers(0, m - 1)
    return FiniteStructure(
        elements=tuple(f"e{i}" for i in range(m)),
        metric=tuple(tuple(draw(_VALUES) for _ in range(m)) for _ in range(m)),
        constants={"c": draw(elem)} if draw(interpreted) else {},
        functions={
            name: FunctionInterp(k, ONE, {a: draw(elem) for a in tuples[k]})
            for name, k in (("f", 1), ("g", 2)) if draw(interpreted)
        },
        relations={
            name: RelationInterp(k, ONE, {a: draw(_VALUES) for a in tuples[k]})
            for name, k in (("R", 1), ("S", 2)) if draw(interpreted)
        },
    )


_TERMS = st.recursive(
    st.sampled_from(_VARS).map(Var) | st.just(Const("c")),
    lambda t: st.builds(lambda a: Func("f", (a,)), t)
    | st.builds(lambda a, b: Func("g", (a, b)), t, t),
    max_leaves=3,
)
# Quantifiers bind the same names that occur free, so bound variables
# shadow free ones and nest over the same name.
_FORMULAS = st.recursive(
    st.just(One())
    | st.builds(lambda a: Apply("R", (a,)), _TERMS)
    | st.builds(lambda a, b: Apply("S", (a, b)), _TERMS, _TERMS)
    | st.builds(lambda a, b: Apply(METRIC, (a, b)), _TERMS, _TERMS),
    lambda f: st.builds(Scale, _SCALES, f)
    | st.builds(Sum, f, f)
    | st.builds(Inf, st.sampled_from(_VARS), f)
    | st.builds(Sup, st.sampled_from(_VARS), f),
    max_leaves=8,
)


def _outcome(evaluate, *args):
    """The value, or the EvalError message, of one evaluation."""
    try:
        return "value", evaluate(*args)
    except EvalError as exc:
        return "error", str(exc)


@st.composite
def _table_variables(draw, phi):
    """The free variables of phi in any order, with unused and repeated
    names mixed in."""
    extra = draw(st.lists(st.sampled_from(_VARS + ("w",)), max_size=2))
    return tuple(draw(st.permutations(sorted(free_vars(phi)) + extra)))


@settings(max_examples=250, deadline=None)
@given(_eval_structures(), _FORMULAS, st.data())
def test_eval_table_matches_reference(M, phi, data):
    variables = data.draw(_table_variables(phi))
    kind, got = _outcome(eval_table, M, phi, variables)
    assert (kind, got) == _outcome(_reference_eval_table, M, phi, variables)
    if kind == "value":
        assert list(got) == list(itertools.product(range(M.size), repeat=len(variables)))


@settings(max_examples=250, deadline=None)
@given(_eval_structures(), _FORMULAS, st.data())
def test_eval_formula_matches_reference_and_table_cell(M, phi, data):
    names = sorted(free_vars(phi) | set(data.draw(st.lists(st.sampled_from(_VARS)))))
    asg = {v: data.draw(st.integers(0, M.size - 1)) for v in names}
    value = eval_formula(M, phi, asg)
    assert value == _reference_eval_formula(M, phi, asg)
    assert value == eval_table(M, phi, names)[tuple(asg[v] for v in names)]


@settings(max_examples=250, deadline=None)
@given(_eval_structures(interpreted=st.booleans()), _FORMULAS, st.data())
def test_eval_errors_match_reference(M, phi, data):
    # Symbols drop out of M at random and variables out of the assignment:
    # the same EvalError (or the same value) as the references.
    names = data.draw(st.lists(st.sampled_from(_VARS), unique=True))
    asg = {v: data.draw(st.integers(0, M.size - 1)) for v in names}
    assert _outcome(eval_formula, M, phi, asg) == _outcome(_reference_eval_formula, M, phi, asg)
    assert _outcome(eval_table, M, phi, names) == _outcome(_reference_eval_table, M, phi, names)


def test_eval_errors_name_the_missing_symbol():
    M = FiniteStructure(("a",), ((ZERO,),), {"c": 0}, {}, {})
    cases = [
        ("unbound variable 'x'", Apply(METRIC, (Var("x"), Var("x")))),
        ("constant 'k' not interpreted", Apply(METRIC, (Const("c"), Const("k")))),
        ("function 'f' not interpreted", Apply(METRIC, (Func("f", (Const("c"),)), Const("c")))),
        ("relation 'R' not interpreted", Apply("R", (Const("c"),))),
    ]
    for message, phi in cases:
        for evaluate in (eval_formula, _reference_eval_formula):
            with pytest.raises(EvalError, match=message):
                evaluate(M, phi, {})
    with pytest.raises(EvalError, match="not covered"):
        eval_table(M, cases[0][1], ())


@pytest.mark.parametrize("phi, message", [
    (Apply("R", (Var("x"), Var("y"))), "'R' takes 1 arguments, got 2"),
    (Apply(METRIC, (Var("x"),)), "'d' takes 2 arguments, got 1"),
    (Apply(METRIC, (Var("x"), Var("x"), Var("y"))), "'d' takes 2 arguments, got 3"),
    (Apply("R", (Func("g", (Var("x"),)),)), "function 'g' takes 2 arguments, got 1"),
    (Apply("R", (Func("f", (Var("x"), Var("y"))),)), "function 'f' takes 1 arguments, got 2"),
])
def test_eval_arity_mismatch_is_an_eval_error(phi, message):
    # Formulas built by hand skip check_formula; the evaluator still names
    # the symbol instead of failing on a table lookup.
    M = FiniteStructure(
        ("a", "b"), ((ZERO, ONE), (ONE, ZERO)), {},
        {"f": FunctionInterp(1, ONE, {(0,): 1, (1,): 0}),
         "g": FunctionInterp(2, ONE, {(i, j): i for i in range(2) for j in range(2)})},
        {"R": RelationInterp(1, ONE, {(0,): ZERO, (1,): ONE})},
    )
    for evaluate, args in ((eval_table, (("x", "y"),)), (eval_formula, ({"x": 0, "y": 1},))):
        with pytest.raises(EvalError, match=re.escape(message)):
            evaluate(M, phi, *args)


def test_eval_shadowing_and_nested_binders(algebra_structure):
    M = algebra_structure
    sig = M.signature()
    for text in ("mu(x) + sup x. mu(x)", "inf x. sup x. mu(x)", "sup x. (mu(x) + inf x. -1 * mu(x))"):
        phi = parse_formula(text, sig)
        table = eval_table(M, phi, ("x",))
        assert table == _reference_eval_table(M, phi, ("x",))
        for x in range(M.size):
            assert eval_formula(M, phi, {"x": x}) == _reference_eval_formula(M, phi, {"x": x}) \
                == table[(x,)]


@pytest.mark.parametrize("text", [
    "inf z. (S(x, z) + -1 * R(y))",
    "sup z. (2/3 * d(z, y) + 1 + R(x))",
    "inf z. R(x)",
    "inf x. (R(x) + S(x, y))",
    "inf z. sup z. (R(z) + R(x))",
    "-1 * inf z. (R(z) + R(y))",
])
def test_quantifier_over_summands_free_of_its_variable(text):
    # inf/sup reduce only the summands that mention the bound variable; x is
    # assigned too, so in "inf x. ..." the binder shadows a pinned variable
    for seed in (0, 2, 4):
        M = random_structure(random.Random(seed), max_size=3)
        phi = parse_formula(text, M.signature())
        table = eval_table(M, phi, ("x", "y"))
        assert table == _reference_eval_table(M, phi, ("x", "y"))
        for (x, y), value in table.items():
            asg = {"x": x, "y": y}
            assert eval_formula(M, phi, asg) == _reference_eval_formula(M, phi, asg) == value


@st.composite
def _quantified_sums(draw):
    """inf/sup v over a sum of two subformulas, one of them (scaled, on
    either side) free of v."""
    v = draw(st.sampled_from(_VARS))
    bound = draw(_FORMULAS)
    free = draw(_FORMULAS.filter(lambda f: v not in free_vars(f)))
    if draw(st.booleans()):
        free = Scale(draw(_SCALES), free)
    body = Sum(bound, free) if draw(st.booleans()) else Sum(free, bound)
    return draw(st.sampled_from([Inf, Sup]))(v, body)


@settings(max_examples=200, deadline=None)
@given(_eval_structures(), _quantified_sums(), st.data())
def test_quantified_sums_match_reference(M, phi, data):
    variables = data.draw(_table_variables(phi))
    assert _outcome(eval_table, M, phi, variables) == \
        _outcome(_reference_eval_table, M, phi, variables)
    asg = {v: data.draw(st.integers(0, M.size - 1)) for v in _VARS}
    assert eval_formula(M, phi, asg) == _reference_eval_formula(M, phi, asg)


def test_quantifier_never_spreads_a_free_summand_along_its_axis(monkeypatch):
    # inf z. (S(x, z) + R(y)) on 4 elements: S is 4 x 4, reduced to 4 cells
    # along z, and only then added to R(y) over (x, y); spreading R(y) over
    # (x, y, z) first would make a 64-cell table
    m = 4
    M = FiniteStructure(
        tuple("abcd"), tuple(tuple(F(i != j) for j in range(m)) for i in range(m)), {}, {},
        {"R": RelationInterp(1, ONE, {(i,): F(i, m) for i in range(m)}),
         "S": RelationInterp(2, ONE, {(i, j): F((i * j) % m, m)
                                      for i in range(m) for j in range(m)})},
    )
    spread, sizes = model._spread, []

    def recording(*args):
        cells = spread(*args)
        sizes.append(len(cells))
        return cells

    monkeypatch.setattr(model, "_spread", recording)
    phi = parse_formula("inf z. (S(x, z) + R(y))", M.signature())
    table = eval_table(M, phi, ("x", "y"))
    assert sizes and max(sizes) == m * m
    assert table == _reference_eval_table(M, phi, ("x", "y"))


def test_eval_formula_refuses_an_assignment_outside_the_domain():
    # the flat tables would read another cell (S(1, 0) for y = 3, S(2, 2)
    # for y = -1), or raise IndexError or TypeError, instead
    M = random_structure(random.Random(0), max_size=3)
    assert M.size == 3
    S = Apply("S", (Var("x"), Var("y")))
    for name, value in (("y", 3), ("y", -1), ("x", 3), ("x", 1.0), ("y", "1")):
        asg = {"x": 0, "y": 0, name: value}
        message = re.escape(f"variable '{name}' is assigned {value!r}, outside the domain of 3")
        with pytest.raises(EvalError, match=message):
            eval_formula(M, S, asg)


def _three_points(constants=(), functions=()):
    metric = tuple(tuple(ZERO if i == j else ONE for j in range(3)) for i in range(3))
    R = RelationInterp(1, ONE, {(0,): ZERO, (1,): F(1, 2), (2,): ONE})
    return FiniteStructure(("a", "b", "c"), metric, dict(constants), dict(functions), {"R": R})


@pytest.mark.parametrize("value", [-1, 3, 1.0])
def test_eval_refuses_a_constant_outside_the_domain(value):
    # -1 used to read element 2's cell, 3 raised IndexError and 1.0 TypeError
    M = _three_points(constants={"c": value})
    message = re.escape(f"constant 'c' is {value!r}, outside the domain of 3 elements")
    for phi in (Apply("R", (Const("c"),)), Apply(METRIC, (Const("c"), Var("x")))):
        with pytest.raises(EvalError, match=message):
            eval_table(M, phi, ("x",))
        with pytest.raises(EvalError, match=message):
            eval_formula(M, phi, {"x": 0})


@pytest.mark.parametrize("value", [-1, 3, 1.0])
def test_eval_refuses_a_function_output_outside_the_domain(value):
    # checked once per structure, so a point whose own output is in range
    # is refused too
    M = _three_points(functions={"f": FunctionInterp(1, ONE, {(0,): 1, (1,): value, (2,): 0})})
    message = re.escape(f"function 'f' maps to {value!r}, outside the domain of 3 elements")
    fx = Func("f", (Var("x"),))
    for phi in (Apply("R", (fx,)), Apply(METRIC, (fx, Var("x")))):
        with pytest.raises(EvalError, match=message):
            eval_table(M, phi, ("x",))
        with pytest.raises(EvalError, match=message):
            eval_formula(M, phi, {"x": 0})


def test_long_sum_needs_no_recursion():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    sig = M.signature()
    text = " + ".join(["mu(x)", "1/2 * d(x, y)", "-1/3 * mu(y)", "(inf z. d(x, z))"] * 5000)
    phi = parse_formula(text, sig)
    assert render(phi) == text  # text is in rendered form: parse and render round-trip
    assert free_vars(phi) == {"x", "y"}
    mu, d = M.relations["mu"].table, M.metric
    table = eval_table(M, phi, ("x", "y"))
    for (x, y), value in table.items():
        assert value == 5000 * (mu[(x,)] + d[x][y] / 2 - mu[(y,)] / 3)  # inf_z d(x, z) = 0
    for x, y in ((0, 0), (M.size - 1, 1)):
        assert eval_formula(M, phi, {"x": x, "y": y}) == table[(x, y)]


# Reference for the int metric checks of validate_structure: its metric-axiom
# and relation-range loops as they were, in Fraction arithmetic.
def _fraction_metric_checks(M):
    m = M.size
    for i in range(m):
        for j in range(m):
            dij = M.metric[i][j]
            if dij < 0 or dij > 1:
                return "metric range", (i, j)
            if M.metric[j][i] != dij:
                return "symmetry", (i, j)
        if M.metric[i][i] != 0:
            return "reflexivity", (i,)
    for i in range(m):
        for j in range(m):
            if i != j and M.metric[i][j] == 0:
                return "identity of indiscernibles", (i, j)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if M.metric[i][k] > M.metric[i][j] + M.metric[j][k]:
                    return "triangle inequality", (i, j, k)
    for rel in M.relations.values():
        for args, v in rel.table.items():
            if v < 0 or v > 1:
                return "relation range", args
    return None


@st.composite
def _perturbed_metrics(draw):
    """A valid metric with a few entries overwritten (possibly breaking range,
    symmetry, reflexivity, indiscernibility or the triangle inequality) and a
    relation whose values may leave [0, 1]."""
    m = draw(st.integers(1, 5))
    metric = [list(row) for row in random_metric(draw(st.randoms(use_true_random=False)), m)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        metric[i][j] = draw(st.builds(F, st.integers(-1, 7), st.integers(1, 6)))
        if draw(st.booleans()):  # keep symmetry, so the later axioms are reached
            metric[j][i] = metric[i][j]
    values = st.builds(F, st.integers(-1, 7), st.integers(1, 6))
    return FiniteStructure(
        elements=tuple(f"e{i}" for i in range(m)),
        metric=tuple(tuple(row) for row in metric),
        constants={},
        functions={},
        relations={"R": RelationInterp(1, F(100), {(i,): draw(values) for i in range(m)})},
    )


_Q = F(1, 4)


@settings(max_examples=400, deadline=None)
@given(_perturbed_metrics())
@example(FiniteStructure(  # (0, 1, 2) and (0, 1, 3) both break the triangle inequality
    elements=("a", "b", "c", "e"),
    metric=((ZERO, _Q, ONE, ONE), (_Q, ZERO, _Q, _Q), (ONE, _Q, ZERO, _Q), (ONE, _Q, _Q, ZERO)),
    constants={},
    functions={},
    relations={},
))
def test_int_metric_checks_match_fraction_reference(M):
    expected = _fraction_metric_checks(M)
    rep = validate_structure(M)
    if expected is None:
        assert rep.kind in (None, "relation Lipschitz")
    else:
        assert (rep.ok, rep.kind, rep.witness) == (False, *expected)


# ---------------------------------------------------------------------------
# the int forms a structure caches on first read


@settings(max_examples=150, deadline=None)
@given(_eval_structures(), st.randoms(use_true_random=False))
def test_int_forms_match_int_row_of_the_fraction_view(M, rnd):
    # tables stored out of key order still give row-major int forms
    shuffled = {}
    for name, rel in M.relations.items():
        items = list(rel.table.items())
        rnd.shuffle(items)
        shuffled[name] = RelationInterp(rel.arity, rel.lam, dict(items))
    M = replace(M, relations=shuffled)
    m = M.size
    metric, relations = M.int_metric, M.int_relations
    flat, D = int_row([d for row in M.metric for d in row])
    assert metric == (tuple(tuple(flat[i:i + m]) for i in range(0, m * m, m)), D)
    assert relations.keys() == M.relations.keys()
    for name, rel in M.relations.items():
        nums, R = int_row([rel.table[a] for a in itertools.product(range(m), repeat=rel.arity)])
        assert relations[name] == (tuple(nums), R)
    assert M.int_metric is metric and M.int_relations is relations


@pytest.mark.parametrize("metric, relations", [
    (((ZERO, ONE),), {}),
    (((ZERO,), (ONE, ZERO)), {}),
    (((ZERO, ONE), (ONE, ZERO)), {"R": RelationInterp(1, ONE, {(0,): ZERO, (2,): ONE})}),
    (((ZERO, ONE), (ONE, ZERO)), {"R": RelationInterp(2, ONE, {(0,): ZERO, (1,): ONE})}),
])
def test_validate_reports_shape_of_tables_the_int_forms_cannot_read(metric, relations):
    M = FiniteStructure(("a", "b"), metric, {}, {}, relations)
    rep = validate_structure(M)
    assert (rep.ok, rep.kind) == (False, "shape")


_TWO = ((ZERO, ONE), (ONE, ZERO))


# A non-int element index or a float value used to pass validation, or to
# escape it as a bare TypeError: each is a shape failure naming its symbol.
def test_validate_refuses_a_float_function_output():
    M = FiniteStructure(("a", "b"), _TWO, {}, {"f": FunctionInterp(1, ONE, {(0,): 0, (1,): 1.0})}, {})
    rep = validate_structure(M)
    assert (rep.ok, rep.kind, rep.witness) == (False, "shape", (1,))
    assert "function 'f'" in rep.message


def test_validate_refuses_a_float_constant():
    M = FiniteStructure(("a", "b"), _TWO, {"c": 1.0}, {}, {"R": RelationInterp(1, ONE, {(0,): ZERO, (1,): ONE})})
    rep = validate_structure(M)
    assert (rep.ok, rep.kind) == (False, "shape")
    assert "constant 'c'" in rep.message


def test_validate_refuses_a_float_metric_value():
    M = FiniteStructure(("a", "b"), ((ZERO, 0.5), (0.5, ZERO)), {}, {}, {})
    rep = validate_structure(M)
    assert (rep.ok, rep.kind) == (False, "shape")
    assert rep.message == "metric 'd' has a value that is not an exact rational: 0.5"
    with pytest.raises(StructureError, match="metric 'd'"):
        M.int_metric


def test_validate_refuses_a_float_relation_value():
    M = FiniteStructure(("a", "b"), _TWO, {}, {}, {"R": RelationInterp(1, ONE, {(0,): ZERO, (1,): 0.5})})
    rep = validate_structure(M)
    assert (rep.ok, rep.kind) == (False, "shape")
    assert rep.message == "relation 'R' has a value that is not an exact rational: 0.5"
    with pytest.raises(StructureError, match="relation 'R'"):
        M.int_relations


def test_eval_over_a_table_missing_a_tuple_names_the_symbol():
    metric, R = ((ZERO, ONE), (ONE, ZERO)), Apply("R", (Var("x"),))
    M = FiniteStructure(("a", "b"), metric, {}, {}, {"R": RelationInterp(1, ONE, {(0,): ZERO})})
    with pytest.raises(StructureError, match=r"relation 'R' has no value at \(1,\)"):
        eval_table(M, R, ("x",))
    # the int form covers the whole table, so a present cell raises too
    with pytest.raises(StructureError, match=r"relation 'R' has no value at \(1,\)"):
        eval_formula(M, R, {"x": 0})
    N = FiniteStructure(
        ("a", "b"), metric, {}, {"f": FunctionInterp(1, ONE, {(0,): 1})},
        {"R": RelationInterp(1, ONE, {(0,): ZERO, (1,): ONE})},
    )
    R_of_f = Apply("R", (Func("f", (Var("x"),)),))
    assert eval_formula(N, R_of_f, {"x": 0}) == ONE
    with pytest.raises(StructureError, match=r"function 'f' has no value at \(1,\)"):
        eval_formula(N, R_of_f, {"x": 1})


def test_nullary_relation_is_one_cell():
    # its int form holds the one value at (); the lookup used to find no cell
    M = FiniteStructure(("a", "b"), ((ZERO, ONE), (ONE, ZERO)), {}, {},
                        {"Z": RelationInterp(0, ONE, {(): F(1, 2)})})
    assert eval_formula(M, Apply("Z", ())) == F(1, 2)
    assert eval_table(M, Apply("Z", ()), ("x",)) == {(0,): F(1, 2), (1,): F(1, 2)}


# ---------------------------------------------------------------------------
# the plan a formula object compiles on its first evaluation

_PLAN_TEXTS = ("1", "R(x)", "inf z. (d(x, z) + -1 * R(y)) + 1/2 * R(x)", "sup y. 2 * d(x, y) - 1")


def test_an_evaluated_node_keeps_equality_hash_repr_and_copies():
    M = random_structure(random.Random(3), max_size=3)
    for text in _PLAN_TEXTS:
        phi, twin = parse_formula(text, M.signature()), parse_formula(text, M.signature())
        before = hash(phi), repr(phi)
        table = eval_table(M, phi, ("x", "y"))
        assert eval_formula(M, phi, {"x": 0, "y": 0}) == table[(0, 0)]
        assert phi == twin and (hash(phi), repr(phi)) == before
        for other in (pickle.loads(pickle.dumps(phi)), copy.deepcopy(phi)):
            assert other == phi and (hash(other), repr(other)) == before
            assert eval_table(M, other, ("x", "y")) == table


def test_a_node_compiles_once_and_an_equal_node_compiles_its_own(monkeypatch):
    # the plan lives on the node object: not keyed by equality, text or
    # structure, and one plan serves every structure
    compile_, compiled = model._compile, []

    def counting(phi, *binder):
        if not binder:  # the entry point; a quantifier body passes its binder
            compiled.append(phi)
        return compile_(phi, *binder)

    monkeypatch.setattr(model, "_compile", counting)
    factors = random_structure_family(random.Random(1), 3, max_size=3, product_cap=27)
    for text in _PLAN_TEXTS:
        phi, twin = parse_formula(text, factors[0].signature()), parse_formula(text, factors[0].signature())
        for M in factors:
            for _ in range(3):
                eval_table(M, phi, ("x", "y"))
                eval_formula(M, phi, {"x": 1, "y": 0})
        assert [node is phi for node in compiled] == [True]
        assert eval_formula(factors[0], twin, {"x": 1, "y": 0}) == eval_formula(factors[0], phi, {"x": 1, "y": 0})
        assert [node is twin for node in compiled] == [False, True]
        compiled.clear()


def _deepest(make, sig) -> int:
    """The largest n with make(n) parsing; make(n + 1) is a ParseError."""
    def parses(n):
        try:
            parse_formula(make(n), sig)
        except ParseError:
            return False
        return True

    lo, hi = 1, 2
    while parses(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if parses(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("make, value", [
    # nested binders, the innermost of which does not mention its variable
    (lambda n: "".join(f"inf y{i}. " for i in range(n)) + "d(x, y0)", lambda n, x: ZERO),
    # nested function terms: f swaps the two elements
    (lambda n: "R(" + "f(" * n + "x" + ")" * (n + 1), lambda n, x: F((x + n) % 2)),
    (lambda n: "1/2 * (" * n + "R(x)" + ")" * n, lambda n, x: F(x, 2 ** n)),
    # min over y0 of d(x, y0) + R(y0) is x, halved at every level
    (lambda n: "".join(f"inf y{i}. 1/2 * (" for i in range(n)) + "d(x, y0) + R(y0)" + ")" * n,
     lambda n, x: F(x, 2 ** n)),
])
def test_the_deepest_parsed_formulas_evaluate(make, value):
    M = FiniteStructure(
        ("a", "b"), ((ZERO, ONE), (ONE, ZERO)), {},
        {"f": FunctionInterp(1, ONE, {(0,): 1, (1,): 0})},
        {"R": RelationInterp(1, ONE, {(0,): ZERO, (1,): ONE})},
    )
    n = _deepest(make, M.signature())
    phi = parse_formula(make(n), M.signature())
    table = eval_table(M, phi, ("x",))
    for x in range(2):
        assert table[(x,)] == eval_formula(M, phi, {"x": x}) == value(n, x)
