import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from affinelogic.model import validate_structure
from affinelogic.pra import (
    AdditiveFunction,
    AlgebraError,
    MeasureAlgebra,
    build_algebra,
    check_algebra_axioms,
    dcl,
    hahn_max_set,
    interval_distance,
    interval_projection,
    pra_definable_check,
)

ZERO = F(0)
ONE = F(1)

THIRDS = (F(1, 2), F(1, 3), F(1, 6))


@pytest.fixture
def A3():
    return build_algebra(THIRDS)


def test_build_algebra_validation():
    with pytest.raises(AlgebraError):
        build_algebra([])
    with pytest.raises(AlgebraError):
        build_algebra([F(1, 2), F(1, 3)])
    with pytest.raises(AlgebraError):
        build_algebra([F(3, 2), F(-1, 2)])
    with pytest.raises(AlgebraError):
        build_algebra([F(1, 4)] * 4, cap=3)


def test_boolean_operations(A3):
    A = A3
    assert A.size == 8 and A.top == 7
    assert A.meet(0b011, 0b110) == 0b010
    assert A.join(0b011, 0b100) == 0b111
    assert A.compl(0b101) == 0b010
    assert A.leq(0b001, 0b011)
    assert not A.leq(0b011, 0b001)


def test_measure_and_distance(A3):
    A = A3
    assert A.mu(0) == 0 and A.mu(A.top) == 1
    assert A.mu(0b001) == F(1, 2)
    assert A.mu(0b110) == F(1, 2)
    assert A.distance(0b001, 0b010) == F(5, 6)
    assert A.distance(0b011, 0b001) == F(1, 3)
    assert check_algebra_axioms(A)


def test_labels_roundtrip(A3):
    A = A3
    for x in A.elements():
        assert A.from_label(A.label(x)) == x
    assert len(A.label(0)) == 3 and set(A.label(A.top)) == {"1"}
    with pytest.raises(AlgebraError):
        A.from_label("01")
    with pytest.raises(AlgebraError):
        A.from_label("012")


def test_interval_members(A3):
    A = A3
    assert A.interval(0, A.top) == list(A.elements())
    assert A.interval(0b001, 0b011) == [0b001, 0b011]
    assert A.interval(0b010, 0b010) == [0b010]
    assert A.interval(0b011, 0b001) == []


def test_interval_distance_frozen(A3):
    A = A3
    # x = atom 2 (weight 1/6), interval [atom 0, atom 0 | atom 1]
    a, b = 0b001, 0b011
    x = 0b100
    # leave x's only atom (1/6), acquire the required atom 0 (1/2)
    assert interval_distance(A, x, a, b) == F(1, 6) + F(1, 2)
    p = interval_projection(A, x, a, b)
    assert p == 0b001
    assert A.distance(x, p) == interval_distance(A, x, a, b)


def test_interval_distance_zero_inside(A3):
    A = A3
    for x in A.interval(0b001, 0b011):
        assert interval_distance(A, 0b001, 0b001, 0b011) == 0
        assert interval_projection(A, x, 0b001, 0b011) == x


def test_interval_requires_order(A3):
    with pytest.raises(AlgebraError):
        interval_distance(A3, 0, 0b011, 0b001)
    with pytest.raises(AlgebraError):
        interval_projection(A3, 0, 0b011, 0b001)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_interval_distance_matches_brute_force(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    raw = [F(rng.randint(1, 6)) for _ in range(k)]
    total = sum(raw)
    A = build_algebra([w / total for w in raw])
    a = rng.randrange(A.size)
    b = a | rng.randrange(A.size)
    x = rng.randrange(A.size)
    members = A.interval(a, b)
    direct = min(A.distance(x, y) for y in members)
    assert interval_distance(A, x, a, b) == direct
    p = interval_projection(A, x, a, b)
    assert p in members
    assert A.distance(x, p) == direct


def test_additive_function_and_hahn_frozen(A3):
    f = AdditiveFunction((F(1, 4), F(-1, 3), F(1, 6)))
    assert f.value(0) == 0
    assert f.value(0b111) == F(1, 4) - F(1, 3) + F(1, 6)
    rep = hahn_max_set(A3, f)
    assert rep.a == 0b101 and rep.b == 0b010
    assert rep.lower == 0b101 and rep.upper == 0b101
    assert rep.max_value == F(1, 4) + F(1, 6)


def test_hahn_zero_atoms_widen_the_interval(A3):
    f = AdditiveFunction((F(1, 2), ZERO, F(-1, 2)))
    rep = hahn_max_set(A3, f)
    # the zero atom may go either way: maximizers form [100', 011] = [001, 011]
    assert rep.lower == 0b001
    assert rep.upper == 0b011
    maximizers = A3.interval(rep.lower, rep.upper)
    assert maximizers == [0b001, 0b011]
    for x in A3.elements():
        assert f.value(x) <= rep.max_value
        assert (f.value(x) == rep.max_value) == (x in maximizers)


def test_hahn_arity_check(A3):
    with pytest.raises(AlgebraError):
        hahn_max_set(A3, AdditiveFunction((ONE,)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_hahn_is_exact_argmax(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    raw = [F(rng.randint(1, 4)) for _ in range(k)]
    total = sum(raw)
    A = build_algebra([w / total for w in raw])
    f = AdditiveFunction(
        tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(k))
    )
    rep = hahn_max_set(A, f)
    best = max(f.value(x) for x in A.elements())
    assert rep.max_value == best
    maximizers = set(A.interval(rep.lower, rep.upper))
    assert maximizers == {x for x in A.elements() if f.value(x) == best}


def test_dcl_examples(A3):
    A = A3
    # the empty set generates the trivial subalgebra
    assert dcl(A, []) == frozenset({0, A.top})
    # one element generates itself, its complement, and the bounds
    assert dcl(A, [0b001]) == frozenset({0, 0b001, 0b110, A.top})
    # two atoms cut everything apart
    assert dcl(A, [0b001, 0b010]) == frozenset(A.elements())


def test_dcl_is_a_closure_operator(A3):
    A = A3
    base = dcl(A, [0b011])
    assert dcl(A, base) == base
    assert base <= dcl(A, [0b011, 0b001])
    for x in base:
        assert A.compl(x) in base
        for y in base:
            assert A.meet(x, y) in base
            assert A.join(x, y) in base


def test_pra_definable_check_interval(A3):
    A = A3
    D = A.interval(0b001, 0b011)
    rep = pra_definable_check(A, D)
    assert rep.definable and rep.cross_checked
    assert rep.lower == 0b001 and rep.upper == 0b011


def test_pra_definable_check_rejects_gap(A3):
    A = A3
    rep = pra_definable_check(A, [0b001, 0b111])
    assert not rep.definable
    assert rep.witness in set(A.interval(0b001, 0b111)) - {0b001, 0b111}
    with pytest.raises(AlgebraError):
        pra_definable_check(A, [])


def test_to_structure_is_valid_and_additive(A3):
    M = A3.to_structure()
    assert validate_structure(M).ok
    assert M.constants == {"zero": 0, "one": 7}
    mu = M.relations["mu"].table
    for x in A3.elements():
        for y in A3.elements():
            assert (
                mu[(A3.meet(x, y),)] + mu[(A3.join(x, y),)] == mu[(x,)] + mu[(y,)]
            )


@pytest.mark.parametrize("bad", [9, 8, -1, 1.5, "1"])
def test_library_calls_refuse_what_is_not_an_element(A3, bad):
    message = f"{bad!r} is not an element of the algebra on 3 atoms"
    for call in (
        lambda: pra_definable_check(A3, [bad]),
        lambda: pra_definable_check(A3, [0, bad]),
        lambda: dcl(A3, [0b001, bad]),
        lambda: interval_distance(A3, bad, 0, 1),
        lambda: interval_distance(A3, 0, 0, bad),
        lambda: interval_projection(A3, 0, bad, A3.top),
    ):
        with pytest.raises(AlgebraError) as info:
            call()
        assert type(info.value) is AlgebraError
        assert str(info.value) == message
