import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from affinelogic.model import (
    FiniteStructure,
    FunctionInterp,
    RelationInterp,
    apply_to_tuple,
    automorphisms,
    eval_condition,
    eval_formula,
    eval_table,
    neighbour_pairs,
    validate_structure,
)
from affinelogic.pra import build_algebra
from affinelogic.sampling import random_formula, random_metric, random_structure
from affinelogic.syntax import parse_condition, parse_formula, free_vars

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


_LAMS = [ZERO, F(1, 4), F(1, 2), ONE, F(2)]
_UNIT = st.builds(lambda n, d: F(min(n, d), d), st.integers(0, 6), st.integers(1, 6))


@st.composite
def _perturbed_structures(draw):
    """Valid metric; one relation and one function of arity 1-2, each either
    Lipschitz for its declared constant or perturbed away from it."""
    m = draw(st.integers(2, 4))
    metric = random_metric(draw(st.randoms(use_true_random=False)), m)

    def dist(a, b):
        return sum((metric[x][y] for x, y in zip(a, b)), start=ZERO)

    relations, functions = {}, {}
    if draw(st.booleans()):
        tuples = list(itertools.product(range(m), repeat=draw(st.integers(1, 2))))
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
        tuples = list(itertools.product(range(m), repeat=draw(st.integers(1, 2))))
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
    if kind == "function Lipschitz":
        fn = M.functions["f"]
        a, b = rep.witness
        assert M.metric[fn.table[a]][fn.table[b]] > fn.lam * M.tuple_distance(a, b)
    if kind == "relation Lipschitz":
        rel = M.relations["R"]
        a, b = rep.witness
        assert abs(rel.table[a] - rel.table[b]) > rel.lam * M.tuple_distance(a, b)


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


def test_eval_condition(algebra_structure):
    M = algebra_structure
    sig = M.signature()
    cond = parse_condition("mu(x) <= 1/2 * 1", sig)
    assert eval_condition(M, cond, {"x": 0})
    assert not eval_condition(M, cond, {"x": M.size - 1})


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
                assert tbl[apply_to_tuple(perm, a)] == tbl[a]


def test_first_order_flag():
    # a one-atom algebra is {0, 1}-valued everywhere, hence first order
    assert build_algebra([ONE]).to_structure().is_first_order()
    # a three-atom algebra has mu values strictly between 0 and 1
    assert not build_algebra([F(1, 3), F(1, 3), F(1, 3)]).to_structure().is_first_order()
    rng = random.Random(0)
    from affinelogic.sampling import random_first_order_structure

    N = random_first_order_structure(rng, 3)
    assert N.is_first_order()
