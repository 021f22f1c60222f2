"""The suite harness: registration order, seeding, timing and pass-through
of each check's verdict.  The full-scale runs are in test_acceptance.py."""

import random

from affinelogic import suites
from affinelogic.pra import HahnReport


def test_suites_registers_every_runner_in_definition_order():
    assert list(suites.SUITES) == [
        "ultramean", "certificates", "interval", "hahn", "distance-axioms", "extreme",
        "dichotomy", "pra-extreme", "keisler", "projection-graph", "invariant",
    ]
    for key, run in suites.SUITES.items():
        assert getattr(suites, run.__name__) is run
        assert run.__name__ == "run_" + key.replace("-", "_")


def test_harness_seeds_the_check_and_builds_its_result(monkeypatch):
    monkeypatch.setattr(suites, "SUITES", {})
    seen = []

    @suites._suite("toy", "toy suite")
    def run_toy(rng, instances=3):
        seen.append(instances)
        return False, instances - 1, f"draw {rng.random()}"

    assert list(suites.SUITES.items()) == [("toy", run_toy)]
    res = run_toy(seed=5, instances=7)
    assert seen == [7]
    assert (res.name, res.ok, res.checked) == ("toy suite", False, 6)
    assert res.detail == f"draw {random.Random(5).random()}"
    assert res.seconds >= 0
    assert suites.run_suites(["toy"], seed=5)[0].detail == res.detail


def test_a_failing_check_passes_its_count_and_detail_through(monkeypatch):
    # a max-set interval that is empty (lower above upper) fails instance 0
    monkeypatch.setattr(suites, "hahn_max_set", lambda A, f: HahnReport(0, 0, 1, 0, 0))
    res = suites.run_hahn(seed=0, instances=4)
    assert (res.ok, res.checked, res.detail) == (False, 1, "instance 0: interval empty")
    assert res.line().startswith("[FAIL] hahn max-set: 1 checks in ")
