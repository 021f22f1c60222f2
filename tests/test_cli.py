import copy
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import affinelogic
from affinelogic import cli, typespace
from affinelogic.cli import build_parser, main
from affinelogic.definability import (
    FunctionTable,
    PredicateTable,
    distance_predicate,
    predicate_from_formula,
)
from affinelogic.errors import AffineLogicError
from affinelogic.linprog import UNBOUNDED, LinprogError, SimplexResult
from affinelogic.model import FiniteStructure, RelationInterp
from affinelogic.pra import build_algebra
from affinelogic.serialize import (
    function_table_to_dict,
    predicate_to_dict,
    save_function_table,
    save_predicate,
    save_structure,
    structure_to_dict,
)
from affinelogic.syntax import parse_formula
from affinelogic.typespace import SatisfiabilityResult

ZERO = F(0)
ONE = F(1)


def fo_structure(names, patterns):
    """Discrete metric; relation Rc holds at element i iff patterns[i][c] == 1."""
    n = len(names)
    return FiniteStructure(
        elements=tuple(names),
        metric=tuple(
            tuple(ZERO if i == j else ONE for j in range(n)) for i in range(n)
        ),
        constants={},
        functions={},
        relations={
            f"R{c}": RelationInterp(
                1, ONE, {(i,): F(patterns[i][c]) for i in range(n)}
            )
            for c in range(len(patterns[0]))
        },
    )


@pytest.fixture
def work(tmp_path):
    """Algebra structure, a first-order structure, and table files."""
    paths = {}
    A = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    paths["alg"] = str(tmp_path / "alg.json")
    save_structure(A, paths["alg"])

    fo = fo_structure(("u", "v", "w"), [(0, 0), (1, 0), (0, 1)])
    paths["fo"] = str(tmp_path / "fo.json")
    save_structure(fo, paths["fo"])

    fam = tmp_path / "family.txt"
    fam.write_text("# one coordinate\nmu(x)\n")
    paths["family"] = str(fam)

    fam2 = tmp_path / "family2.txt"
    fam2.write_text("R0(x)\nR1(x)\n")
    paths["family_fo"] = str(fam2)

    mu = {(x,): A.relations["mu"].table[(x,)] for x in range(4)}
    paths["mu"] = str(tmp_path / "mu.json")
    save_predicate(PredicateTable(1, mu), paths["mu"])

    dist0 = distance_predicate(A, {(0,)})
    paths["dist0"] = str(tmp_path / "dist0.json")
    save_predicate(dist0, paths["dist0"])

    shifted = PredicateTable(1, {a: v + F(1, 10) for a, v in dist0.values.items()})
    paths["shifted"] = str(tmp_path / "shifted.json")
    save_predicate(shifted, paths["shifted"])

    biased = PredicateTable(1, {(x,): ONE if x == 1 else ZERO for x in range(4)})
    paths["biased"] = str(tmp_path / "biased.json")
    save_predicate(biased, paths["biased"])

    squared = PredicateTable(1, {a: v * v for a, v in mu.items()})
    paths["squared"] = str(tmp_path / "squared.json")
    save_predicate(squared, paths["squared"])

    paths["dxy"] = str(tmp_path / "dxy.json")
    save_predicate(predicate_from_formula(A, parse_formula("d(x, y)", A.signature()), ("x", "y")),
                   paths["dxy"])

    const = PredicateTable(1, {(x,): F(1, 2) for x in range(4)})
    paths["const"] = str(tmp_path / "const.json")
    save_predicate(const, paths["const"])

    paths["compl"] = str(tmp_path / "compl.json")
    save_function_table(
        FunctionTable(1, 1, ONE, {(x,): (x ^ 3,) for x in range(4)}), paths["compl"]
    )

    paths["tmp"] = tmp_path
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse(capsys):
    code, out, _ = run(capsys, ["parse", "inf y . d(x , y)"])
    assert code == 0
    assert "inf y. d(x, y)" in out
    assert "free variables: x" in out


def test_parse_json(capsys):
    code, out, _ = run(capsys, ["parse", "--json", "1 + -1/2 * 1"])
    assert code == 0
    data = json.loads(out)
    assert data["free_variables"] == []


def test_parse_error_is_usage(capsys):
    code, _, err = run(capsys, ["parse", "sup ."])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text, at", [("² * 1", 0), ("1/² * 1", 2), ("١ * 1", 0)])
def test_a_digit_that_is_not_ascii_is_a_usage_error(capsys, text, at):
    code, out, err = run(capsys, ["parse", text])
    assert (code, out, err) == (2, "", f"error: unexpected character {text[at]!r} (at position {at})\n")


def test_cert(capsys):
    code, out, _ = run(capsys, ["cert", "1/2 * d(x, y)"])
    assert code == 0
    assert "lam = 1/2" in out
    assert "bound = 1/2" in out


def test_eval(capsys, work):
    code, out, _ = run(
        capsys, ["eval", "mu(x)", "--structure", work["alg"], "--assign", "x=11"]
    )
    assert code == 0
    assert out.strip() == "1/1"


def test_eval_missing_assignment(capsys, work):
    code, _, err = run(capsys, ["eval", "mu(x)", "--structure", work["alg"]])
    assert code == 2 and "error" in err


def test_invalid_structure_file_is_usage_error(capsys, work):
    # d(a, b) = 1 but d(b, a) = 1/4: loading fails validation, so the
    # distance axioms are never checked against an asymmetric metric.
    M = FiniteStructure(
        elements=("a", "b"),
        metric=((ZERO, ONE), (F(1, 4), ZERO)),
        constants={},
        functions={},
        relations={},
    )
    path = str(work["tmp"] / "asymmetric.json")
    save_structure(M, path)
    pred = str(work["tmp"] / "p.json")
    save_predicate(PredicateTable(1, {(0,): ZERO, (1,): F(1, 2)}), pred)
    code, out, err = run(capsys, [
        "defcheck", "distance-axioms", "--structure", path, "--predicate", pred,
    ])
    assert code == 2 and out == ""
    assert "invalid structure (symmetry)" in err


def test_missing_relation_entry_is_usage_error(capsys, work):
    data = json.loads(Path(work["alg"]).read_text())
    del data["relations"]["mu"]["table"]["1"]
    path = work["tmp"] / "missing.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, ["eval", "mu(x)", "--structure", str(path), "--assign", "x=11"])
    assert code == 2
    assert "invalid structure (shape): relation 'mu' table must cover all 4 tuples" in err


def test_automorphisms(capsys, work):
    code, out, _ = run(capsys, ["automorphisms", "--structure", work["alg"]])
    assert code == 0
    assert "2 automorphisms" in out


def test_ultramean_build_and_verify(capsys, work):
    out_path = str(work["tmp"] / "mean.json")
    code, out, _ = run(capsys, [
        "ultramean", "build",
        "--structure", work["alg"], "--structure", work["alg"],
        "--mu", "1/3,2/3", "--out", out_path,
    ])
    assert code == 0
    assert "16 classes" in out

    code, out, _ = run(capsys, [
        "ultramean", "verify", "sup y. d(x, y) + -1 * mu(x)",
        "--structure", work["alg"], "--structure", work["alg"],
        "--mu", "1/3,2/3", "--assign", "x=01,10",
    ])
    assert code == 0
    assert "equal" in out and "NOT" not in out


def test_ultramean_build_refuses_colliding_labels(capsys, tmp_path):
    # "[x,y" + ",z]" and "[x" + ",y,z]": the quotient would have two
    # elements labelled "[x,y,z]", which no structure file may hold
    metric = ((ZERO, ONE), (ONE, ZERO))
    paths = []
    for name, labels in (("M", ("x,y", "x")), ("N", ("z", "y,z"))):
        paths += ["--structure", str(tmp_path / f"{name}.json")]
        save_structure(FiniteStructure(labels, metric), paths[-1])
    out_path = tmp_path / "mean.json"
    code, out, err = run(capsys, [
        "ultramean", "build", *paths, "--mu", "1/2,1/2", "--out", str(out_path),
    ])
    assert (code, out) == (2, "")
    assert err == "error: two classes share the label '[x,y,z]'\n"
    assert not out_path.exists()


def test_ultramean_weight_count_mismatch(capsys, work):
    code, _, err = run(capsys, [
        "ultramean", "build", "--structure", work["alg"], "--mu", "1/2,1/2",
    ])
    assert code == 2 and "error" in err


def test_types_hull_and_extreme(capsys, work):
    code, out, _ = run(capsys, [
        "types", "hull", "--structure", work["alg"], "--family", work["family"],
    ])
    assert code == 0
    assert "3 realized type vectors" in out

    code, out, _ = run(capsys, [
        "types", "extreme", "--structure", work["alg"], "--family", work["family"],
        "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert len(data["extreme"]) == 2
    assert len(data["non_extreme"]) == 1


def test_types_face(capsys, work):
    code, out, _ = run(capsys, [
        "types", "face", "--structure", work["alg"], "--family", work["family"],
        "--predicate", work["mu"], "--max",
    ])
    assert code == 0
    assert "max value 1/1" in out


def test_types_face_non_affine_is_usage(capsys, work):
    code, _, err = run(capsys, [
        "types", "face", "--structure", work["alg"], "--family", work["family"],
        "--predicate", work["squared"],
    ])
    assert code == 2 and "error" in err


def test_types_facial(capsys, work):
    code, out, _ = run(capsys, [
        "types", "facial", "--structure", work["alg"], "--family", work["family"],
        "--condition", "mu(x) <= 0 * 1",
    ])
    assert code == 0
    assert "face" in out

    code, out, _ = run(capsys, [
        "types", "facial", "--structure", work["alg"], "--family", work["family"],
        "--condition", "1/2 * 1 <= mu(x)", "--condition", "mu(x) <= 1/2 * 1",
    ])
    assert code == 1
    assert "NOT a face" in out


def test_types_satisfiable(capsys, work):
    code, out, _ = run(capsys, [
        "types", "satisfiable", "--structure", work["alg"],
        "--condition", "1/2 * 1 <= mu(x)", "--condition", "mu(x) <= 1/2 * 1",
        "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["satisfiable"] is True
    assert sum(F(w) for w in (F(*map(int, v.split("/"))) for v in data["witness"].values())) == 1

    code, out, _ = run(capsys, [
        "types", "satisfiable", "--structure", work["alg"],
        "--condition", "1 <= mu(x)", "--condition", "mu(x) <= 0 * 1",
    ])
    assert code == 1
    assert "refuted" in out


def test_types_barycenter_and_keisler(capsys, work):
    code, out, _ = run(capsys, [
        "types", "barycenter", "--structure", work["fo"], "--family", work["family_fo"],
        "--weights", "0=1/2,1=1/4,2=1/4",
    ])
    assert code == 0
    assert out.strip() == "(1/4, 1/4)"

    code, out, _ = run(capsys, [
        "types", "keisler", "--structure", work["fo"], "--family", work["family_fo"],
        "--values", "1/4,1/4", "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["weights"] == {"0": "1/2", "1": "1/4", "2": "1/4"}


def test_types_keisler_point_flag_exclusivity(capsys, work):
    code, _, err = run(capsys, [
        "types", "keisler", "--structure", work["fo"], "--family", work["family_fo"],
    ])
    assert code == 2 and "error" in err


def test_types_keisler_non_first_order_fails(capsys, work):
    code, _, err = run(capsys, [
        "types", "keisler", "--structure", work["alg"], "--family", work["family"],
        "--point", "00",
    ])
    assert code == 1
    assert "no decomposition" in err


def test_types_keisler_dependent_extremes_is_usage_error(capsys, work):
    # the four corners of the unit square are extreme and affinely dependent
    square = fo_structure(("a", "b", "c", "d"), [(0, 0), (1, 0), (0, 1), (1, 1)])
    path = str(work["tmp"] / "square.json")
    save_structure(square, path)
    code, out, err = run(capsys, [
        "types", "keisler", "--structure", path, "--family", work["family_fo"],
        "--point", "a",
    ])
    assert code == 2 and out == ""
    assert err == (
        "error: extreme vertices are affinely dependent: the family does not "
        "separate, decomposition is not unique\n"
    )


def test_types_distance(capsys, work):
    code, out, _ = run(capsys, [
        "types", "distance", "--structure", work["alg"], "--family", work["family"],
        "--left", "00", "--right", "11",
    ])
    assert code == 0
    assert out.strip() == "1/1"


def test_defcheck_distance_axioms(capsys, work):
    code, out, _ = run(capsys, [
        "defcheck", "distance-axioms", "--structure", work["alg"],
        "--predicate", work["dist0"],
    ])
    assert code == 0
    assert out.count("ok") == 3

    code, out, _ = run(capsys, [
        "defcheck", "distance-axioms", "--structure", work["alg"],
        "--predicate", work["shifted"],
    ])
    assert code == 1
    assert "approachable: FAIL" in out


@pytest.mark.parametrize("d, values, text, payload", [
    (ONE, (F(1, 2), F(1, 4)),
     ["nonnegative: ok", "nonexpansive: ok", "approachable: FAIL at (p), Farkas pair (3/4, 1/4)"],
     {"nonnegative": {"ok": True}, "nonexpansive": {"ok": True},
      "approachable": {"ok": False, "witness": {"point": "(p)", "farkas": ["3/4", "1/4"]}}}),
    (F(1, 2), (F(-1, 4), F(1, 2)),
     ["nonnegative: FAIL at (p)", "nonexpansive: FAIL at (q) (p)",
      "approachable: FAIL at (p), Farkas pair (1/4, 3/4)"],
     {"nonnegative": {"ok": False, "witness": ["(p)"]},
      "nonexpansive": {"ok": False, "witness": ["(q)", "(p)"]},
      "approachable": {"ok": False, "witness": {"point": "(p)", "farkas": ["1/4", "3/4"]}}}),
])
def test_defcheck_distance_axioms_witnesses(capsys, tmp_path, d, values, text, payload):
    # witnesses name elements by label and rationals as "p/q", in text and JSON
    structure, predicate = str(tmp_path / "M.json"), str(tmp_path / "P.json")
    save_structure(FiniteStructure(("p", "q"), ((ZERO, d), (d, ZERO))), structure)
    save_predicate(PredicateTable(1, {(0,): values[0], (1,): values[1]}), predicate)
    argv = ["defcheck", "distance-axioms", "--structure", structure, "--predicate", predicate]
    code, out, _ = run(capsys, argv)
    assert (code, out.splitlines()) == (1, text)
    code, out, _ = run(capsys, [*argv, "--json"])
    assert (code, json.loads(out)) == (1, payload)


@pytest.mark.parametrize("d, values, reason", [
    (ONE, (F(1, 2), F(1, 4)),
     "approachable: FAIL at (p), Farkas pair (3/4, 1/4)"),
    (F(1, 2), (F(-1, 4), F(1, 2)),
     "nonnegative: FAIL at (p); nonexpansive: FAIL at (q) (p); "
     "approachable: FAIL at (p), Farkas pair (1/4, 3/4)"),
])
def test_defcheck_recover_refusal_renders_each_failing_axiom(capsys, tmp_path, d, values, reason):
    # the refusal names each failing axiom as defcheck distance-axioms does
    structure, predicate = str(tmp_path / "M.json"), str(tmp_path / "P.json")
    save_structure(FiniteStructure(("p", "q"), ((ZERO, d), (d, ZERO))), structure)
    save_predicate(PredicateTable(1, {(0,): values[0], (1,): values[1]}), predicate)
    argv = ["defcheck", "recover", "--structure", structure, "--predicate", predicate]
    reason = "distance axioms fail, refusing to recover: " + reason
    assert run(capsys, argv) == (1, f"refused: {reason}\n", "")
    code, out, err = run(capsys, [*argv, "--json"])
    assert (code, json.loads(out), err) == (1, {"recovered": None, "error": reason}, "")


def test_defcheck_recover(capsys, work):
    code, out, _ = run(capsys, [
        "defcheck", "recover", "--structure", work["alg"],
        "--predicate", work["dist0"],
    ])
    assert code == 0
    assert "zero set: (00)" in out

    code, out, _ = run(capsys, [
        "defcheck", "recover", "--structure", work["alg"],
        "--predicate", work["shifted"],
    ])
    assert code == 1
    assert "refused" in out


def test_defcheck_domination(capsys, work):
    code, out, _ = run(capsys, [
        "defcheck", "domination", "--structure", work["alg"],
        "--lower", work["dist0"], "--upper", work["dist0"], "--eps", "0",
    ])
    assert code == 0
    assert "lam = 1/1" in out


def test_defcheck_predicate(capsys, work):
    code, out, _ = run(capsys, [
        "defcheck", "predicate", "--structure", work["alg"],
        "--family", work["family"], "--predicate", work["mu"],
    ])
    assert code == 0
    assert "definable" in out

    code, out, _ = run(capsys, [
        "defcheck", "predicate", "--structure", work["alg"],
        "--family", work["family"], "--predicate", work["biased"],
    ])
    assert code == 1
    assert "not definable" in out


def test_defcheck_set(capsys, work):
    code, out, _ = run(capsys, [
        "defcheck", "set", "--structure", work["alg"],
        "--family", work["family"], "--set", "00",
    ])
    assert code == 0

    code, out, _ = run(capsys, [
        "defcheck", "set", "--structure", work["alg"],
        "--family", work["family"], "--set", "10",
    ])
    assert code == 1


def test_defcheck_project(capsys, work):
    code, out, _ = run(capsys, [
        "defcheck", "project", "--structure", work["alg"],
        "--predicate", work["dxy"], "--set", "00", "--lam", "1",
    ])
    assert code == 0
    assert "identity holds" in out


def test_defcheck_invariant_type(capsys, work):
    code, out, _ = run(capsys, [
        "defcheck", "invariant-type", "--structure", work["alg"],
        "--family", work["family"], "--function", work["compl"],
    ])
    assert code == 0
    assert "witness distribution" in out


def test_defcheck_auto_invariant(capsys, work):
    code, out, _ = run(capsys, [
        "defcheck", "auto-invariant", "--structure", work["alg"],
        "--predicate", work["mu"],
    ])
    assert code == 0

    code, out, _ = run(capsys, [
        "defcheck", "auto-invariant", "--structure", work["alg"],
        "--predicate", work["biased"],
    ])
    assert code == 1
    assert "NOT invariant" in out


def test_pra_commands(capsys, work):
    out_path = str(work["tmp"] / "pra.json")
    code, out, _ = run(capsys, ["pra", "build", "--atoms", "1/2,1/3,1/6", "--out", out_path])
    assert code == 0
    assert "8 elements over 3 atoms; export valid" in out

    code, _, err = run(capsys, ["pra", "build", "--atoms", "1/2,1/3"])
    assert code == 2 and "error" in err

    code, out, _ = run(capsys, [
        "pra", "interval", "--atoms", "1/2,1/3,1/6",
        "-x", "001", "-a", "100", "-b", "110",
    ])
    assert code == 0
    assert "= 2/3" in out
    assert "nearest point 100" in out

    code, out, _ = run(capsys, [
        "pra", "hahn", "--atoms", "1/2,1/3,1/6", "--values", "1/4,-1/3,1/6",
    ])
    assert code == 0
    assert "max 5/12" in out

    code, out, _ = run(capsys, [
        "pra", "dcl", "--atoms", "1/2,1/3,1/6", "--elements", "100",
    ])
    assert code == 0
    assert "4 elements" in out

    code, out, _ = run(capsys, [
        "pra", "definable", "--atoms", "1/2,1/3,1/6", "--elements", "100;110",
    ])
    assert code == 0
    code, out, _ = run(capsys, [
        "pra", "definable", "--atoms", "1/2,1/3,1/6", "--elements", "100;111",
    ])
    assert code == 1
    assert "not definable" in out


def test_suite_runs(capsys):
    code, out, _ = run(capsys, ["suite", "hahn", "--seed", "1"])
    assert code == 0
    assert out.startswith("[PASS] hahn max-set:")


def test_suite_json(capsys):
    code, out, _ = run(capsys, ["suite", "pra-extreme", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data[0]["name"] == "pra extreme types"
    assert data[0]["ok"] is True


def test_suite_unknown_name(capsys):
    code, out, err = run(capsys, ["suite", "nope"])
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown suite 'nope'; choose from ultramean, certificates, interval, "
        "hahn, distance-axioms, extreme, dichotomy, pra-extreme, keisler, "
        "projection-graph, invariant\n"
    )


def test_number_where_a_rational_belongs_is_a_usage_error(capsys, work):
    data = json.loads(Path(work["alg"]).read_text())
    data["relations"]["mu"]["lambda"] = 1
    path = work["tmp"] / "int_lambda.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["eval", "mu(x)", "--structure", str(path), "--assign", "x=11"])
    assert (code, out) == (2, "")
    assert err == "error: malformed rational 1: not a 'p/q' string\n"


def test_report_without_promised_field_is_an_error(capsys, work, monkeypatch):
    monkeypatch.setattr(
        cli, "affine_satisfiable", lambda *args, **kwargs: SatisfiabilityResult(True)
    )
    code, out, err = run(capsys, [
        "types", "satisfiable", "--structure", work["alg"], "--condition", "0 * 1 <= mu(x)",
    ])
    assert (code, out, err) == (2, "", "error: report has no witness\n")


# ---------------------------------------------------------------------------
# one parser per process: repeated main calls must not see each other


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_append_defaults_do_not_leak_between_calls(capsys, work):
    code, out, _ = run(capsys, ["eval", "mu(x)", "--structure", work["alg"], "--assign", "x=11"])
    assert (code, out) == (0, "1/1\n")
    code, out, err = run(capsys, ["eval", "mu(x)", "--structure", work["alg"]])
    assert code == 2 and out == "" and "error" in err

    parser = build_parser()
    evaluate = ["eval", "mu(x)", "--structure", work["alg"]]
    assert parser.parse_args(evaluate + ["--assign", "x=11"]).assign == ["x=11"]
    assert parser.parse_args(evaluate).assign == []
    verify = ["ultramean", "verify", "1", "--mu", "1/2,1/2"]
    assert parser.parse_args(verify + ["--structure", "a", "--structure", "b"]).structure == ["a", "b"]
    assert parser.parse_args(verify + ["--structure", "c"]).structure == ["c"]
    facial = ["types", "facial", "--structure", "s", "--family", "f"]
    assert parser.parse_args(facial + ["--condition", "1 <= 1", "--condition", "0 <= 1"]).condition == [
        "1 <= 1", "0 <= 1",
    ]
    assert parser.parse_args(facial + ["--condition", "0 <= 1"]).condition == ["0 <= 1"]


@pytest.mark.parametrize("argv", [["--help"], ["types", "keisler", "--help"]])
def test_help_is_the_same_on_every_call(capsys, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: affinelogic" in texts[0]


def test_usage_error_then_valid_call(capsys, work):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "mu(x)"])
    assert exit_info.value.code == 2
    assert "--structure" in capsys.readouterr().err
    code, out, err = run(capsys, ["eval", "mu(x)", "--structure", work["alg"], "--assign", "x=11"])
    assert (code, out, err) == (0, "1/1\n", "")


# ---------------------------------------------------------------------------
# one error taxonomy: the class of an error decides its exit code and label

EXIT_CODES = {
    "AffineLogicError": 2,
    "FormatError": 2,
    "FormulaError": 2,
    "ParseError": 2,
    "StructureError": 2,
    "EvalError": 2,
    "MeanError": 2,
    "AlgebraError": 2,
    "TypespaceError": 2,
    "NonUniqueDecompositionError": 2,
    "DefinabilityError": 2,
    "CliError": 2,
    "DecompositionError": 1,
    "InternalError": 3,
    "LinalgError": 3,
    "LinprogError": 3,
}
LABELS = {1: "no decomposition", 2: "error", 3: "internal error"}


def test_every_exported_error_carries_its_exit_code():
    classes = {
        name: obj for name, obj in vars(affinelogic).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    classes["CliError"] = cli.CliError
    assert set(classes) == set(EXIT_CODES)
    for name, cls in classes.items():
        assert issubclass(cls, AffineLogicError), name
        assert (cls.exit_code, cls.label) == (EXIT_CODES[name], LABELS[EXIT_CODES[name]]), name


def _lp_unbounded(*args):
    return SimplexResult(UNBOUNDED)


def _lp_fails_its_recheck(*args):
    raise LinprogError("Farkas certificate fails y.A <= 0 < y.b")


@pytest.mark.parametrize("solve", [_lp_unbounded, _lp_fails_its_recheck])
def test_failed_internal_recheck_exits_3(capsys, work, monkeypatch, solve):
    monkeypatch.setattr(typespace, "solve_int", solve)
    code, out, err = run(capsys, [
        "types", "extreme", "--structure", work["fo"], "--family", work["family_fo"],
    ])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_weights_index_that_is_not_an_integer_is_a_usage_error(capsys, work):
    code, out, err = run(capsys, [
        "types", "barycenter", "--structure", work["fo"], "--family", work["family_fo"],
        "--weights", "a=1/2",
    ])
    assert (code, out, err) == (2, "", "error: --weights index 'a' is not an integer\n")


def test_face_predicate_must_cover_the_tuples(capsys, work):
    partial = str(work["tmp"] / "partial.json")
    save_predicate(PredicateTable(1, {(0,): ZERO}), partial)
    for structure, family, predicate, count in (
        (work["alg"], work["family"], partial, 4),
        (work["fo"], work["family_fo"], work["mu"], 3),
    ):
        code, out, err = run(capsys, [
            "types", "face", "--structure", structure, "--family", family,
            "--predicate", predicate,
        ])
        assert (code, out) == (2, "")
        assert err == f"error: predicate table must cover all {count} tuples of arity 1\n"


def test_recover_tells_a_refusal_from_a_malformed_table(capsys, work):
    partial = str(work["tmp"] / "partial.json")
    save_predicate(PredicateTable(1, {(0,): ZERO}), partial)
    code, out, err = run(capsys, [
        "defcheck", "recover", "--structure", work["alg"], "--predicate", partial,
    ])
    assert (code, out) == (2, "")
    assert err == "error: predicate table must cover all 4 tuples of arity 1\n"
    code, out, err = run(capsys, [
        "defcheck", "recover", "--structure", work["alg"], "--predicate", work["shifted"],
    ])
    assert (code, err) == (1, "")
    assert out.startswith("refused: distance axioms fail, refusing to recover: ")


def test_long_sum_and_deep_nesting(capsys):
    code, out, err = run(capsys, ["cert", " + ".join(["1/2 * d(x, y)"] * 20000)])
    assert (code, out, err) == (0, "lam = 10000/1\nbound = 10000/1\n", "")
    code, out, err = run(capsys, ["parse", "(" * 3000 + "1" + ")" * 3000])
    assert (code, out, err) == (2, "", "error: formula nested too deeply\n")


# ---------------------------------------------------------------------------
# malformed files: exit 2 and one line, whatever is wrong with them


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name, broken, message", [
    ("metric", lambda d: {**d, "metric": 5}, "malformed structure: "),
    ("elements", lambda d: {**d, "elements": None}, "structure elements must be"),
    ("relations", lambda d: {**d, "relations": []}, "malformed structure: "),
    ("top", lambda d: [1, 2], "malformed structure: "),
    ("lambda", lambda d: {**d, "relations": {"mu": {k: v for k, v in d["relations"]["mu"].items()
                                                  if k != "lambda"}}},
     "malformed structure: missing field 'lambda'"),
])
def test_malformed_structure_file(capsys, work, name, broken, message):
    path = work["tmp"] / f"{name}.json"
    path.write_text(json.dumps(broken(json.loads(Path(work["alg"]).read_text()))))
    code, out, err = run(capsys, ["automorphisms", "--structure", str(path)])
    _assert_one_error_line(code, out, err)
    assert err.startswith("error: " + message)


@pytest.mark.parametrize("key", ["01", " +1"])
def test_non_canonical_table_key_is_a_usage_error(capsys, work, key):
    # int() reads both as 1; the "1" entry would be dropped without a word
    data = json.loads(Path(work["alg"]).read_text())
    data["relations"]["mu"]["table"][key] = data["relations"]["mu"]["table"]["1"]
    path = work["tmp"] / "key.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["automorphisms", "--structure", str(path)])
    _assert_one_error_line(code, out, err)
    assert err == f"error: table key {key!r} is not comma-joined canonical indices\n"


def test_duplicate_element_label_is_a_usage_error(capsys, work):
    data = json.loads(Path(work["alg"]).read_text())
    label = data["elements"][0]
    data["elements"][1] = label
    path = work["tmp"] / "duplicate.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["eval", "mu(x)", "--structure", str(path), "--assign", f"x={label}"])
    _assert_one_error_line(code, out, err)
    assert err == f"error: duplicate element label {label!r}\n"


@pytest.mark.parametrize("kind, spec", [
    ("relations", {"arity": 0, "lambda": "1/1", "table": {"": "1/2"}}),
    ("functions", {"arity": 0, "lambda": "1/1", "table": {"": 0}}),
])
def test_arity_zero_symbol_is_rejected_at_load(capsys, work, kind, spec):
    # formulas cannot use it, so the file is refused where it is read
    data = json.loads(Path(work["alg"]).read_text())
    data.setdefault(kind, {})["Z"] = spec
    path = work["tmp"] / "nullary.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["automorphisms", "--structure", str(path)])
    _assert_one_error_line(code, out, err)
    assert err == "error: arity of 'Z' must be at least 1, got 0\n"


@pytest.mark.parametrize("text", ["[1]", "{", "\udcff"])
def test_malformed_predicate_file(capsys, work, text):
    path = work["tmp"] / "bad.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    code, out, err = run(capsys, [
        "defcheck", "distance-axioms", "--structure", work["alg"], "--predicate", str(path),
    ])
    _assert_one_error_line(code, out, err)
    assert err.startswith("error: malformed predicate table: ")


_ALG = build_algebra([F(1, 2), F(1, 2)]).to_structure()
_VALID = {
    "structure": structure_to_dict(_ALG),
    "predicate": predicate_to_dict(distance_predicate(_ALG, {(0,)})),
    "function": function_table_to_dict(
        FunctionTable(1, 1, ONE, {(x,): (x ^ 3,) for x in range(4)})
    ),
}
# Keys the formats require; every key of a "table" or "values" is too.
# Leaving out an optional key such as "constants" gives a valid file.
_REQUIRED = {"elements", "metric", "arity", "lambda", "table", "values", "arity_in", "arity_out"}
# A number, null, a list and a string that are valid nowhere they can
# land in place of a value of another JSON type.
_SENTINELS = (-1, None, [], "?")


def _paths(value, path=()):
    """The path of every node of a JSON tree, the root's () first."""
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield from _paths(child, path + (key,))


def _node(data, path):
    for key in path:
        data = data[key]
    return data


@pytest.fixture(scope="module")
def reference_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("reference")
    save_structure(_ALG, str(d / "alg.json"))
    (d / "family.txt").write_text("mu(x)\n")
    return d


@pytest.mark.parametrize("kind", sorted(_VALID))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_file_exits_2_with_one_line(reference_files, kind, data):
    tree = copy.deepcopy(_VALID[kind])
    paths = list(_paths(tree))
    required = [
        p for p in paths if p and (p[-1] in _REQUIRED or len(p) > 1 and p[-2] in ("table", "values"))
    ]
    if data.draw(st.booleans(), label="delete"):
        path = data.draw(st.sampled_from(required), label="path")
        del _node(tree, path[:-1])[path[-1]]
    else:
        path = data.draw(st.sampled_from(paths), label="path")
        node = _node(tree, path)
        value = data.draw(st.sampled_from([s for s in _SENTINELS if type(s) is not type(node)]))
        if path:
            _node(tree, path[:-1])[path[-1]] = value
        else:
            tree = value
    bad = reference_files / f"bad-{kind}.json"
    bad.write_text(json.dumps(tree))
    structure = str(reference_files / "alg.json")
    argv = {
        "structure": ["automorphisms", "--structure", str(bad)],
        "predicate": ["defcheck", "distance-axioms", "--structure", structure,
                      "--predicate", str(bad)],
        "function": ["defcheck", "invariant-type", "--structure", structure,
                     "--family", str(reference_files / "family.txt"), "--function", str(bad)],
    }[kind]
    _assert_one_error_line(*_main_quietly(argv))


# ---------------------------------------------------------------------------
# golden outputs: every subcommand and branch, as text and as --json, with
# the exit code and the complete stdout and stderr pinned in cli_golden.txt

GOLDEN_CASES = [
    ("parse", ["parse", "inf y . d(x , y)"]),
    ("parse-closed", ["parse", "sup x. mu(x) + -1/2 * 1", "--structure", "{alg}"]),
    ("parse-error", ["parse", "sup ."]),
    ("cert", ["cert", "1/2 * d(x, y) + mu(x)", "--structure", "{alg}"]),
    ("eval", ["eval", "sup y. d(x, y) + -1 * mu(x)", "--structure", "{alg}", "--assign", "x=10"]),
    ("eval-by-index", ["eval", "d(x, y)", "--structure", "{alg}", "--assign", "x=1", "--assign", "y=2"]),
    ("eval-assign-form", ["eval", "mu(x)", "--structure", "{alg}", "--assign", "x11"]),
    ("eval-unknown-element", ["eval", "mu(x)", "--structure", "{alg}", "--assign", "x=zz"]),
    ("eval-element-range", ["eval", "mu(x)", "--structure", "{alg}", "--assign", "x=4"]),
    ("eval-missing-file", ["eval", "mu(x)", "--structure", "{tmp}/nope.json"]),
    ("automorphisms", ["automorphisms", "--structure", "{alg}"]),
    ("automorphisms-fo", ["automorphisms", "--structure", "{fo}"]),
    ("ultramean-build", ["ultramean", "build", "--structure", "{alg}", "--structure", "{alg}",
                         "--mu", "1/3,2/3"]),
    ("ultramean-build-out", ["ultramean", "build", "--structure", "{fo}", "--structure", "{fo}",
                             "--mu", "0,1", "--out", "{tmp}/mean.json"]),
    ("ultramean-build-weights", ["ultramean", "build", "--structure", "{alg}", "--mu", "1/2,1/2"]),
    ("ultramean-verify", ["ultramean", "verify", "sup y. d(x, y) + -1 * mu(x)",
                          "--structure", "{alg}", "--structure", "{alg}", "--mu", "1/3,2/3",
                          "--assign", "x=01,10"]),
    ("ultramean-verify-assign-form", ["ultramean", "verify", "mu(x)", "--structure", "{alg}",
                                      "--structure", "{alg}", "--mu", "1/3,2/3",
                                      "--assign", "x01,10"]),
    ("ultramean-verify-assign-count", ["ultramean", "verify", "mu(x)", "--structure", "{alg}",
                                       "--structure", "{alg}", "--mu", "1/3,2/3",
                                       "--assign", "x=01"]),
    ("types-hull", ["types", "hull", "--structure", "{alg}", "--family", "{family}"]),
    ("types-hull-fo", ["types", "hull", "--structure", "{fo}", "--family", "{family_fo}"]),
    ("types-extreme", ["types", "extreme", "--structure", "{alg}", "--family", "{family}"]),
    ("types-face-max", ["types", "face", "--structure", "{alg}", "--family", "{family}",
                        "--predicate", "{mu}", "--max"]),
    ("types-face-min", ["types", "face", "--structure", "{alg}", "--family", "{family}",
                        "--predicate", "{dist0}"]),
    ("types-face-constant", ["types", "face", "--structure", "{alg}", "--family", "{family}",
                             "--predicate", "{const}"]),
    ("types-face-not-affine", ["types", "face", "--structure", "{alg}", "--family", "{family}",
                               "--predicate", "{squared}"]),
    ("types-facial", ["types", "facial", "--structure", "{alg}", "--family", "{family}",
                      "--condition", "mu(x) <= 0 * 1"]),
    ("types-facial-violation", ["types", "facial", "--structure", "{alg}", "--family", "{family}",
                                "--condition", "1/2 * 1 <= mu(x)",
                                "--condition", "mu(x) <= 1/2 * 1"]),
    ("types-satisfiable", ["types", "satisfiable", "--structure", "{alg}",
                           "--condition", "1/2 * 1 <= mu(x)", "--condition", "mu(x) <= 1/2 * 1"]),
    ("types-satisfiable-vars", ["types", "satisfiable", "--structure", "{fo}", "--vars", "x,y",
                                "--condition", "1 <= d(x, y)", "--condition", "1 <= R0(x) + R1(y)"]),
    ("types-satisfiable-refuted", ["types", "satisfiable", "--structure", "{alg}",
                                   "--condition", "1 <= mu(x)", "--condition", "mu(x) <= 0 * 1"]),
    ("types-barycenter", ["types", "barycenter", "--structure", "{fo}", "--family", "{family_fo}",
                          "--weights", "0=1/2,1=1/4,2=1/4"]),
    ("types-barycenter-weights-form", ["types", "barycenter", "--structure", "{fo}",
                                       "--family", "{family_fo}", "--weights", "0:1"]),
    ("types-barycenter-weights-index", ["types", "barycenter", "--structure", "{fo}",
                                        "--family", "{family_fo}", "--weights", "a=1/2"]),
    ("types-keisler-values", ["types", "keisler", "--structure", "{fo}", "--family", "{family_fo}",
                              "--values", "1/4,1/4"]),
    ("types-keisler-point", ["types", "keisler", "--structure", "{fo}", "--family", "{family_fo}",
                             "--point", "v"]),
    ("types-keisler-no-decomposition", ["types", "keisler", "--structure", "{alg}",
                                        "--family", "{family}", "--point", "00"]),
    ("types-keisler-flags", ["types", "keisler", "--structure", "{fo}", "--family", "{family_fo}"]),
    ("types-keisler-values-count", ["types", "keisler", "--structure", "{fo}",
                                    "--family", "{family_fo}", "--values", "1/4"]),
    ("types-distance", ["types", "distance", "--structure", "{alg}", "--family", "{family}",
                        "--left", "00", "--right", "11"]),
    ("defcheck-distance-axioms", ["defcheck", "distance-axioms", "--structure", "{alg}",
                                  "--predicate", "{dist0}"]),
    ("defcheck-distance-axioms-fail", ["defcheck", "distance-axioms", "--structure", "{alg}",
                                       "--predicate", "{shifted}"]),
    ("defcheck-recover", ["defcheck", "recover", "--structure", "{alg}", "--predicate", "{dist0}"]),
    ("defcheck-recover-refused", ["defcheck", "recover", "--structure", "{alg}",
                                  "--predicate", "{shifted}"]),
    ("defcheck-domination", ["defcheck", "domination", "--structure", "{alg}",
                             "--lower", "{dist0}", "--upper", "{biased}", "--eps", "1/10"]),
    ("defcheck-domination-witness", ["defcheck", "domination", "--structure", "{alg}",
                                     "--lower", "{biased}", "--upper", "{mu}"]),
    ("defcheck-predicate", ["defcheck", "predicate", "--structure", "{alg}", "--family", "{family}",
                            "--predicate", "{mu}"]),
    ("defcheck-predicate-conflict", ["defcheck", "predicate", "--structure", "{alg}",
                                     "--family", "{family}", "--predicate", "{biased}"]),
    ("defcheck-predicate-residue", ["defcheck", "predicate", "--structure", "{alg}",
                                    "--family", "{family}", "--predicate", "{squared}"]),
    ("defcheck-set", ["defcheck", "set", "--structure", "{alg}", "--family", "{family}",
                      "--set", "00"]),
    ("defcheck-set-conflict", ["defcheck", "set", "--structure", "{alg}", "--family", "{family}",
                               "--set", "10"]),
    ("defcheck-set-residue", ["defcheck", "set", "--structure", "{alg}", "--family", "{family}",
                              "--set", "00;11"]),
    ("defcheck-set-empty", ["defcheck", "set", "--structure", "{alg}", "--family", "{family}",
                            "--set", ";"]),
    ("defcheck-project", ["defcheck", "project", "--structure", "{alg}", "--predicate", "{dxy}",
                          "--set", "00;11", "--lam", "1"]),
    ("defcheck-invariant-type", ["defcheck", "invariant-type", "--structure", "{alg}",
                                 "--family", "{family}", "--function", "{compl}"]),
    ("defcheck-auto-invariant", ["defcheck", "auto-invariant", "--structure", "{alg}",
                                 "--predicate", "{mu}"]),
    ("defcheck-auto-invariant-moved", ["defcheck", "auto-invariant", "--structure", "{alg}",
                                       "--predicate", "{biased}"]),
    ("pra-build", ["pra", "build", "--atoms", "1/2,1/3,1/6"]),
    ("pra-build-out", ["pra", "build", "--atoms", "1/2,1/2", "--out", "{tmp}/pra.json"]),
    ("pra-build-unvalidated", ["pra", "build", "--atoms", ",".join(["1/7"] * 7)]),
    ("pra-build-sum", ["pra", "build", "--atoms", "1/2,1/3"]),
    ("pra-interval", ["pra", "interval", "--atoms", "1/2,1/3,1/6",
                      "-x", "001", "-a", "100", "-b", "110"]),
    ("pra-interval-index", ["pra", "interval", "--atoms", "1/2,1/3,1/6",
                            "-x", "6", "-a", "0", "-b", "1"]),
    ("pra-interval-bad-element", ["pra", "interval", "--atoms", "1/2,1/3,1/6",
                                  "-x", "0x1", "-a", "100", "-b", "110"]),
    ("pra-hahn", ["pra", "hahn", "--atoms", "1/2,1/3,1/6", "--values", "1/4,-1/3,1/6"]),
    ("pra-dcl", ["pra", "dcl", "--atoms", "1/2,1/3,1/6", "--elements", "100"]),
    ("pra-dcl-two", ["pra", "dcl", "--atoms", "1/2,1/3,1/6", "--elements", "110;011"]),
    ("pra-dcl-range", ["pra", "dcl", "--atoms", "1/2,1/3,1/6", "--elements", "8"]),
    ("pra-definable", ["pra", "definable", "--atoms", "1/2,1/3,1/6", "--elements", "100;110"]),
    ("pra-definable-witness", ["pra", "definable", "--atoms", "1/2,1/3,1/6",
                               "--elements", "100;111"]),
    ("suite", ["suite", "pra-extreme", "hahn"]),
    ("suite-unknown", ["suite", "nope"]),
]
GOLDEN = Path(__file__).with_name("cli_golden.txt")


def _golden_records() -> dict[str, tuple[int, str, str]]:
    """`## name` opens a record; `exit N` is its code; `1|` and `2|` lines
    are its stdout and stderr, each line ending in a newline."""
    records = {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("## "):
            name, streams = line[3:], {"1": "", "2": ""}
        elif line.startswith("exit "):
            code = int(line[5:])
        elif line[1:2] == "|":
            streams[line[0]] += line[2:] + "\n"
        elif not line:
            records[name] = (code, streams["1"], streams["2"])
    return records


def _golden_output(work, argv, mode):
    """(exit code, stdout, stderr) of one case, with the tmp directory
    written <tmp> and suite timings written <s>."""
    argv = [arg.format(**work) for arg in argv] + (["--json"] if mode == "json" else [])
    code, out, err = _main_quietly(argv)

    def normal(text):
        text = text.replace(str(work["tmp"]), "<tmp>")
        text = re.sub(r" in \d+\.\ds", " in <s>s", text)
        return re.sub(r'"seconds": [0-9.e-]+', '"seconds": <s>', text)

    return code, normal(out), normal(err)


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("name, argv", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_golden_output(work, name, argv, mode):
    assert _golden_output(work, argv, mode) == _golden_records()[f"{name} {mode}"]


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["eval", "mu(x)", "--structure", "{alg}", "--assign", "x=11"],
    ["defcheck", "recover", "--structure", "{alg}", "--predicate", "{shifted}"],
    ["suite", "pra-extreme"],
])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_failed_write_exits_2_with_one_line(work, argv, mode):
    # a closed pipe on stdout is an unwritable output, not a crash
    err = io.StringIO()
    with redirect_stdout(_ClosedPipe()), redirect_stderr(err):
        code = main([arg.format(**work) for arg in argv] + mode)
    assert (code, err.getvalue()) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv, expected", [
    (["eval", "mu(x)", "--structure", "{alg}", "--assign", "x=11"], 0),
    (["defcheck", "recover", "--structure", "{alg}", "--predicate", "{shifted}"], 1),
])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_module_entry_point_matches_main(work, argv, expected, mode):
    argv = [arg.format(**work) for arg in argv] + mode
    # the package this process imported, ahead of any other on the path
    package_root = str(Path(affinelogic.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "affinelogic.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    code, out, _ = _main_quietly(argv)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == expected
