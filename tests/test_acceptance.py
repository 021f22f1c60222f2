"""Acceptance gate: the eleven randomized/exhaustive check suites at full scale.

Each test runs one suite, prints its one-line verdict, and fails with the
suite detail if anything inside disagreed.  All comparisons inside the suites
are exact rational equalities; there are no tolerances anywhere.
"""

from affinelogic.suites import (
    run_certificates,
    run_dichotomy,
    run_distance_axioms,
    run_extreme,
    run_hahn,
    run_interval,
    run_invariant,
    run_keisler,
    run_pra_extreme,
    run_projection_graph,
    run_ultramean,
)


def _gate(res, checked, detail=""):
    """Pass when the suite held, and pin what it checked: the count and the
    detail line at these seeds and sizes."""
    print(res.line())
    assert res.ok, res.line()
    assert (res.checked, res.detail) == (checked, detail)


def test_c01_ultramean_identity_at_scale():
    _gate(run_ultramean(seed=0, instances=1000), 1000)


def test_c02_certificate_soundness_exhaustive():
    _gate(run_certificates(seed=0, structures=50), 2111)


def test_c03_interval_distance_formula_grid():
    _gate(run_interval(seed=0, max_atoms=6), 29190)


def test_c04_hahn_max_set_is_exact_argmax():
    _gate(run_hahn(seed=0, instances=500), 500)


def test_c05_distance_axiom_roundtrip():
    _gate(run_distance_axioms(seed=0, instances=500), 500)


def test_c06_extreme_point_oracle_agreement():
    _gate(run_extreme(seed=0, instances=200), 888)


def test_c07_affine_satisfiability_dichotomy():
    _gate(run_dichotomy(seed=0, instances=500), 501, "263 satisfiable / 237 refuted")


def test_c08_pra_extreme_types_are_zero_and_one():
    _gate(run_pra_extreme(seed=0, max_atoms=6), 15)


def test_c09_barycenter_keisler_inverse_pair():
    _gate(run_keisler(seed=0, instances=200), 200)


def test_c10_projection_and_graph_identities():
    _gate(run_projection_graph(seed=0, instances=200), 200)


def test_c11_invariant_type_pushforward_fixed():
    _gate(run_invariant(seed=0, instances=200), 200)
