import itertools
import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from affinelogic.model import eval_formula, validate_structure
from affinelogic.sampling import (
    lipschitz_relation,
    random_first_order_structure,
    random_formula,
    random_fraction,
    random_hull_structure,
    random_metric,
    random_structure,
    random_structure_family,
    random_ultracharge_weights,
    tight_function_lambda,
)
from affinelogic.syntax import certificate, free_vars


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_metric_axioms(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    d = random_metric(rng, m)
    for i in range(m):
        assert d[i][i] == 0
        for j in range(m):
            assert d[i][j] == d[j][i]
            assert 0 <= d[i][j] <= 1
            if i != j:
                assert d[i][j] > 0
            for k in range(m):
                assert d[i][k] <= d[i][j] + d[j][k]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lipschitz_relation_respects_modulus(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    d = random_metric(rng, m)
    lam = rng.choice([F(1, 2), F(1), F(2)])
    arity = rng.randint(1, 2)
    tbl = lipschitz_relation(rng, d, arity, lam, m)
    for a in itertools.product(range(m), repeat=arity):
        assert 0 <= tbl[a] <= 1
        for b in itertools.product(range(m), repeat=arity):
            dist = sum(d[i][j] for i, j in zip(a, b))
            assert abs(tbl[a] - tbl[b]) <= lam * dist


def _lipschitz_relation_reference(rng, M_metric, arity, lam, m):
    """lipschitz_relation before the int rewrite: the Fraction double loop."""

    def dist(a, b):
        return sum((M_metric[x][y] for x, y in zip(a, b)), start=F(0))

    tuples = list(itertools.product(range(m), repeat=arity))
    raw = {a: random_fraction(rng) for a in tuples}
    return {a: min(raw[b] + lam * dist(a, b) for b in tuples) for a in tuples}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=-2, max_value=3, max_denominator=12),
)
def test_lipschitz_relation_matches_fraction_convolution(seed, m, arity, lam):
    rng = random.Random(seed)
    metric = random_metric(rng, m)
    rng_ref, rng_new = random.Random(seed), random.Random(seed)
    want = _lipschitz_relation_reference(rng_ref, metric, arity, lam, m)
    got = lipschitz_relation(rng_new, metric, arity, lam, m)
    assert list(got.items()) == list(want.items())
    # the same draws: both generators are left in the same state
    assert rng_new.getstate() == rng_ref.getstate()


def test_tight_function_lambda_identity_and_constant():
    d = ((F(0), F(1, 2)), (F(1, 2), F(0)))
    assert tight_function_lambda(d, {(0,): 0, (1,): 1}) == 1
    assert tight_function_lambda(d, {(0,): 0, (1,): 0}) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_structure_validates(seed):
    rng = random.Random(seed)
    M = random_structure(rng, max_size=5)
    assert validate_structure(M).ok


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_family_shares_signature_and_validates(seed):
    rng = random.Random(seed)
    family = random_structure_family(rng, rng.randint(2, 4), max_size=4)
    sig = family[0].signature()
    assert all(M.signature() == sig for M in family)
    for M in family:
        assert validate_structure(M).ok


def test_family_respects_product_cap():
    rng = random.Random(3)
    family = random_structure_family(rng, 4, max_size=6, product_cap=36)
    prod = 1
    for M in family:
        prod *= M.size
    assert prod <= 36


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_formula_evaluates_within_certificate_bound(seed):
    rng = random.Random(seed)
    M = random_structure(rng, max_size=4)
    sig = M.signature()
    phi = random_formula(rng, sig, ("x", "y"), depth=3, quantifiers=1)
    cert = certificate(phi, sig)
    assign = {v: rng.randrange(M.size) for v in free_vars(phi)}
    val = eval_formula(M, phi, assign)
    assert abs(val) <= cert.bound


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_ultracharge_weights_normalised(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 7)
    w = random_ultracharge_weights(rng, k)
    assert len(w) == k
    assert all(wi >= 0 for wi in w)
    assert sum(w) == 1


def test_first_order_structure_names_everything():
    rng = random.Random(1)
    M = random_first_order_structure(rng, 4)
    assert M.is_first_order()
    assert validate_structure(M).ok
    assert sorted(M.constants.values()) == [0, 1, 2, 3]


def test_hull_structure_shape():
    rng = random.Random(2)
    M = random_hull_structure(rng, n_vertices=5, n_coords=3)
    assert validate_structure(M).ok
    assert M.size == 5
    assert sorted(M.relations) == ["R0", "R1", "R2"]
    for rel in M.relations.values():
        assert rel.arity == 1
