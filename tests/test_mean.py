import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import affinelogic.mean as mean_module
from affinelogic.mean import (
    CapExceededError,
    MeanError,
    SignatureMismatchError,
    Ultracharge,
    build_ultramean,
    check_ultramean_identity,
)
from affinelogic.linalg import int_row
from affinelogic.model import EvalError, FiniteStructure, FunctionInterp, RelationInterp, StructureError
from affinelogic.sampling import (
    random_formula,
    random_structure,
    random_structure_family,
    random_ultracharge_weights,
)
from affinelogic.syntax import free_vars, parse_formula

ZERO = F(0)
ONE = F(1)


def two_point(r0=ZERO, r1=ONE):
    return FiniteStructure(
        elements=("p", "q"),
        metric=((ZERO, ONE), (ONE, ZERO)),
        constants={},
        functions={},
        relations={"R": RelationInterp(1, ONE, {(0,): r0, (1,): r1})},
    )


def test_ultracharge_validation():
    Ultracharge([F(1, 2), F(1, 2)])
    with pytest.raises(MeanError):
        Ultracharge([])
    with pytest.raises(MeanError):
        Ultracharge([F(1, 2), F(1, 3)])
    with pytest.raises(MeanError):
        Ultracharge([F(3, 2), F(-1, 2)])
    assert Ultracharge([F(0), F(1)]).support() == (1,)


def test_two_copy_mean_frozen():
    M = two_point()
    mu = Ultracharge([F(1, 2), F(1, 2)])
    mean = build_ultramean([M] * 2, mu)
    Q = mean.structure
    assert Q.size == 4
    # classes of (0,1) and (1,0) sit at distance 1/2*1 + 1/2*1 = 1
    a = mean.class_index((0, 1))
    b = mean.class_index((1, 0))
    assert Q.metric[a][b] == 1
    # and each is at distance 1/2 from either diagonal class
    da = mean.class_index((0, 0))
    assert Q.metric[a][da] == F(1, 2)
    # averaged relation values
    assert Q.relations["R"].table[(a,)] == F(1, 2)
    assert Q.relations["R"].table[(da,)] == 0


def test_zero_weight_factor_collapses():
    M = two_point()
    mu = Ultracharge([ONE, ZERO])
    mean = build_ultramean([M] * 2, mu)
    # the second coordinate is invisible: only two classes remain
    assert mean.structure.size == 2
    assert mean.class_index((0, 0)) == mean.class_index((0, 1))
    assert mean.class_index((1, 0)) == mean.class_index((1, 1))


def test_colliding_class_labels_are_refused():
    # "[x,y" + ",z]" and "[x" + ",y,z]" spell the same label
    M = replace(two_point(), elements=("x,y", "x"))
    N = replace(two_point(), elements=("z", "y,z"))
    with pytest.raises(MeanError, match=r"two classes share the label '\[x,y,z\]'"):
        build_ultramean([M, N], Ultracharge([F(1, 2), F(1, 2)]))
    # with one factor at weight 0 its second element never enters a label
    assert build_ultramean([M, N], Ultracharge([ONE, ZERO])).structure.elements == (
        "[x,y,z]", "[x,z]")


@pytest.mark.parametrize("table, error, message", [
    ({(0,): 1}, StructureError, "function 'f' table must cover all tuples of its arity"),
    ({(0,): 1, (1,): 2}, EvalError, "function 'f' maps to 2, outside the domain of 2 elements"),
])
def test_a_bad_function_table_in_a_factor_is_a_typed_error(table, error, message):
    good = replace(two_point(), functions={"f": FunctionInterp(1, ONE, {(0,): 1, (1,): 0})})
    bad = replace(good, functions={"f": FunctionInterp(1, ONE, table)})
    with pytest.raises(error) as info:
        build_ultramean([good, bad], Ultracharge([F(1, 2), F(1, 2)]))
    assert str(info.value) == message
    # a factor at weight 0 is never read
    assert build_ultramean([good, bad], Ultracharge([ONE, ZERO])).structure.size == 2


def test_point_mass_mean_is_isometric_copy():
    rng = random.Random(7)
    M = random_structure(rng, max_size=4)
    mu = Ultracharge([ONE])
    mean = build_ultramean([M], mu)
    Q = mean.structure
    assert Q.size == M.size
    for i in range(M.size):
        for j in range(M.size):
            assert Q.metric[mean.class_index((i,))][mean.class_index((j,))] == M.metric[i][j]


def test_signature_mismatch_rejected():
    M = two_point()
    N = FiniteStructure(
        elements=("p",),
        metric=((ZERO,),),
        constants={},
        functions={},
        relations={"S": RelationInterp(1, ONE, {(0,): ZERO})},
    )
    with pytest.raises(SignatureMismatchError):
        build_ultramean([M, N], Ultracharge([F(1, 2), F(1, 2)]))


def test_cap_enforced():
    M = two_point()
    with pytest.raises(CapExceededError):
        build_ultramean([M] * 3, Ultracharge([F(1, 3)] * 3), cap=7)


def test_empty_factor_rejected():
    # the raw product is empty, even with the empty factor at weight 0
    empty = FiniteStructure((), (), relations={"R": RelationInterp(1, ONE, {})})
    with pytest.raises(MeanError, match="at least one element"):
        build_ultramean([two_point(), empty], Ultracharge([ONE, ZERO]))


def test_length_mismatch_rejected():
    with pytest.raises(MeanError):
        build_ultramean([two_point()], Ultracharge([F(1, 2), F(1, 2)]))


def test_class_index_range_checks():
    mean = build_ultramean([two_point()] * 2, Ultracharge([F(1, 2), F(1, 2)]))
    with pytest.raises(MeanError):
        mean.class_index((0,))
    with pytest.raises(MeanError):
        mean.class_index((0, 5))


@pytest.mark.parametrize("bad", [1.0, "1", None])
def test_class_index_refuses_a_coordinate_that_is_not_an_int(monkeypatch, bad):
    # 1.0 == 1, so the class dict would answer with the class of (1, 0), and
    # the identity would evaluate the quotient side before the factor side
    # refused the assignment
    factors = random_structure_family(random.Random(1), 2, max_size=3, product_cap=9)
    mu = Ultracharge([F(1, 2), F(1, 2)])
    mean = build_ultramean(factors, mu)
    message = re.escape(f"coordinate 0 is {bad!r}")
    with pytest.raises(MeanError, match=message):
        mean.class_index((bad, 0))

    def no_evaluation(*args):
        raise AssertionError("evaluated before the coordinates were checked")

    monkeypatch.setattr(mean_module, "eval_formula", no_evaluation)
    phi = parse_formula("d(x, x)", factors[0].signature())
    with pytest.raises(MeanError, match=message):
        check_ultramean_identity(factors, mu, phi, {"x": (bad, 0)}, mean=mean)


def test_check_identity_simple_formula():
    M = two_point()
    mu = Ultracharge([F(1, 3), F(2, 3)])
    rep = check_ultramean_identity([M, M], mu, parse_formula("R(x)", M.signature()), {"x": (0, 1)})
    assert rep.equal
    assert rep.quotient_value == F(2, 3)


def test_check_identity_requires_all_variables():
    M = two_point()
    mu = Ultracharge([F(1, 2), F(1, 2)])
    phi = parse_formula("R(x) + R(y)", M.signature())
    with pytest.raises(MeanError, match=re.escape("raw tuples missing for variables ['y']")):
        check_ultramean_identity([M, M], mu, phi, {"x": (0, 0)})
    with pytest.raises(MeanError):
        check_ultramean_identity([M, M], mu, phi, {"x": (0,), "y": (1,)})
    # the free variables come from phi's plan, which refuses a non-formula
    with pytest.raises(TypeError, match="not a formula: 'R'"):
        check_ultramean_identity([M, M], mu, "R", {"x": (0, 0)})


def test_check_identity_refuses_a_mean_of_other_inputs():
    # a mean built under (1/2, 1/2) used to be compared against a (1/3, 2/3)
    # average and reported as a failure of the identity
    fs = random_structure_family(random.Random(5), 2, max_size=3, product_cap=9)
    halves, thirds = Ultracharge([F(1, 2), F(1, 2)]), Ultracharge([F(1, 3), F(2, 3)])
    mean = build_ultramean(fs, halves)
    phi = parse_formula("R(x)", fs[0].signature())
    raw = {"x": (0, 0)}
    for structures, mu in ((fs, thirds), (fs[::-1], halves), ([fs[0], fs[0]], halves)):
        with pytest.raises(MeanError, match="built from other structures or weights"):
            check_ultramean_identity(structures, mu, phi, raw, mean=mean)
    # equal copies of the factors and of the weights are the same inputs
    copies = [replace(M) for M in fs]
    assert check_ultramean_identity(copies, Ultracharge([F(1, 2), F(1, 2)]), phi, raw, mean=mean)
    assert check_ultramean_identity(fs, thirds, phi, raw)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_mean_identity_random(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    family = random_structure_family(rng, k, max_size=4, product_cap=64)
    mu = Ultracharge(random_ultracharge_weights(rng, k))
    mean = build_ultramean(family, mu)
    sig = family[0].signature()
    for _ in range(3):
        phi = random_formula(rng, sig, ("x", "y"), depth=3, quantifiers=2)
        raw = {
            v: tuple(rng.randrange(M.size) for M in family)
            for v in free_vars(phi)
        }
        rep = check_ultramean_identity(family, mu, phi, raw, mean=mean)
        assert rep.equal, (phi, raw, rep)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_mean_structure_is_valid(seed):
    from affinelogic.model import validate_structure

    rng = random.Random(seed)
    k = rng.randint(1, 3)
    family = random_structure_family(rng, k, max_size=4, product_cap=64)
    weights = random_ultracharge_weights(rng, k)
    mean = build_ultramean(family, Ultracharge(weights))
    assert validate_structure(mean.structure).ok


def _reference_ultramean(structures, mu):
    """The quotient as build_ultramean made it with Fraction tables and one
    Fraction per entry, before it read the factors' int forms (kept verbatim
    from the size checks on, which the callers here always pass)."""
    support = mu.support()
    sigs = [M.signature() for M in structures]
    reps: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for raw in itertools.product(*(range(M.size) for M in structures)):
        key = tuple(raw[i] for i in support)
        if key not in index:
            index[key] = len(reps)
            reps.append(raw)

    # Every stored value is sum_i mu_i * v_i over the support, accumulated as
    # an int numerator over wden * lcm(denominators of the v_i) and turned
    # into one Fraction per entry.
    w, wden = int_row([mu.weights[i] for i in support])
    weight = dict(zip(support, w))

    def scaled(tables) -> tuple[int, list[dict]]:
        nums, den = int_row([v for t in tables for v in t.values()])
        it = iter(nums)
        return den, [{k: next(it) for k in t} for t in tables]

    dden, dist = scaled([
        {(x, y): d for x, row in enumerate(structures[i].metric) for y, d in enumerate(row)}
        for i in support
    ])
    size = len(reps)
    metric = [[ZERO] * size for _ in range(size)]
    for p in range(size):
        a = reps[p]
        for q in range(p + 1, size):
            b = reps[q]
            dpq = Fraction(
                sum(weight[i] * t[a[i], b[i]] for i, t in zip(support, dist)), wden * dden
            )
            metric[p][q] = dpq
            metric[q][p] = dpq

    labels = tuple(
        "[" + ",".join(M.elements[x] for M, x in zip(structures, rep)) + "]"
        for rep in reps
    )

    def cls(raw: tuple[int, ...]) -> int:
        return index[tuple(raw[i] for i in support)]

    constants = {
        name: cls(tuple(M.constants[name] for M in structures))
        for name in sigs[0].constants
    }

    functions: dict[str, FunctionInterp] = {}
    for name, info in sigs[0].functions.items():
        table: dict[tuple[int, ...], int] = {}
        for args in itertools.product(range(size), repeat=info.arity):
            raw_out = tuple(
                structures[i].functions[name].table[tuple(reps[a][i] for a in args)]
                for i in range(len(structures))
            )
            table[args] = cls(raw_out)
        functions[name] = FunctionInterp(info.arity, info.lam, table)

    relations: dict[str, RelationInterp] = {}
    for name, info in sigs[0].relations.items():
        rden, tables = scaled([structures[i].relations[name].table for i in support])
        table_r: dict[tuple[int, ...], Fraction] = {}
        for args in itertools.product(range(size), repeat=info.arity):
            table_r[args] = Fraction(
                sum(
                    weight[i] * t[tuple(reps[a][i] for a in args)]
                    for i, t in zip(support, tables)
                ),
                wden * rden,
            )
        relations[name] = RelationInterp(info.arity, info.lam, table_r)

    return FiniteStructure(
        elements=labels,
        metric=tuple(tuple(row) for row in metric),
        constants=constants,
        functions=functions,
        relations=relations,
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans(), st.none())
@example(seed=0, ternary=True, weights=(ZERO, ONE, ZERO))
@example(seed=1, ternary=False, weights=(F(1, 2), ZERO, F(1, 2)))
@example(seed=2, ternary=True, weights=(ZERO, F(1, 3), F(2, 3)))
def test_ultramean_matches_fraction_reference(seed, ternary, weights):
    # Factors from the sampler, optionally with a ternary relation whose
    # table is stored out of key order; weights may vanish on some factors,
    # and the examples pin supports that are not a prefix.
    rng = random.Random(seed)
    k = rng.randint(1, 3) if weights is None else len(weights)
    family = random_structure_family(rng, k, max_size=4, product_cap=27)
    if ternary:
        for j, M in enumerate(family):
            keys = list(itertools.product(range(M.size), repeat=3))
            rng.shuffle(keys)
            dens = [rng.randint(1, 6) for _ in keys]
            T = RelationInterp(3, ONE, {a: F(rng.randint(0, q), q) for a, q in zip(keys, dens)})
            family[j] = replace(M, relations={**M.relations, "T": T})
    mu = Ultracharge(random_ultracharge_weights(rng, k) if weights is None else weights)
    Q, ref = build_ultramean(family, mu).structure, _reference_ultramean(family, mu)
    assert Q.elements == ref.elements
    assert Q.metric == ref.metric
    assert Q.constants == ref.constants
    assert list(Q.functions.items()) == list(ref.functions.items())
    for name, rel in ref.relations.items():
        assert list(Q.relations[name].table.items()) == list(rel.table.items())
    assert Q == ref


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_quotient_int_forms_are_what_a_fresh_copy_derives(seed):
    # build_ultramean stores its int forms on the quotient; a copy built
    # from the same Fraction tables derives them from scratch
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    family = random_structure_family(rng, k, max_size=4, product_cap=27)
    Q = build_ultramean(family, Ultracharge(random_ultracharge_weights(rng, k))).structure
    handed, fresh = vars(Q), replace(Q)
    assert "int_metric" not in vars(fresh) and "int_relations" not in vars(fresh)
    assert handed["int_metric"] == fresh.int_metric
    assert list(handed["int_relations"].items()) == list(fresh.int_relations.items())
