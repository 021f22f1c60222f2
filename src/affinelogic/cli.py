"""Command-line front door: file loading, dispatch, structured reports.

Exit codes: 0 for success or a check that comes back true, 1 for a check
that comes back false (the witness is in the report), 2 for usage errors,
unreadable or malformed files, or validation failures, and 3 for an
internal error: a result of the package that failed its own re-check,
which is a bug.  Each error class carries its exit code and the label
printed before its message (see `affinelogic.errors`).  Each command
returns its exit code, its report as a JSON payload whose rationals are
exact "p/q" strings, and its report as text lines; `main` prints the
payload (keys sorted) under --json and the lines otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from .definability import (
    automorphism_invariant,
    check_distance_axioms,
    inf_over_definable,
    invariant_type,
    is_definable_predicate,
    is_definable_set,
    lambda_domination,
    zeroset_recover,
)
from .errors import AffineLogicError
from .mean import Ultracharge, build_ultramean, check_ultramean_identity
from .model import DEFAULT_CAP, FiniteStructure, automorphisms, eval_formula, validate_structure
from .pra import (
    AdditiveFunction,
    MeasureAlgebra,
    build_algebra,
    dcl,
    hahn_max_set,
    interval_distance,
    interval_projection,
    pra_definable_check,
)
from .rationals import format_rational as _fmt, parse_rational
from .serialize import load_family, load_function_table, load_predicate, load_structure, save_structure
from .suites import SUITES, run_suites
from .syntax import Signature, certificate, free_vars, parse_condition, parse_formula, render
from .typespace import (
    BoundaryMeasure,
    TypeVector,
    affine_satisfiable,
    barycenter,
    exposed_face,
    extreme_points,
    is_face,
    keisler_decompose,
    realized_type,
    type_distance,
    type_hull,
)

CHECK_FALSE = 1
OK = 0

Report = tuple[int, object, list[str]]  # exit code, JSON payload, text lines


class CliError(AffineLogicError):
    """Usage-level problem: bad flag combination, unparsable argument; or a
    report without the field its verdict promises."""


# ---------------------------------------------------------------------------
# argument decoding helpers


def _fractions(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part.strip()]


def _element(M: FiniteStructure, text: str) -> int:
    text = text.strip()
    if text in M.elements:
        return M.element_index(text)
    try:
        idx = int(text)
    except ValueError:
        raise CliError(f"unknown element {text!r}") from None
    if not 0 <= idx < M.size:
        raise CliError(f"element index {idx} out of range")
    return idx


def _tuple_of(M: FiniteStructure, text: str) -> tuple[int, ...]:
    return tuple(_element(M, part) for part in text.split(",") if part.strip())


def _tuple_set(M: FiniteStructure, text: str) -> frozenset[tuple[int, ...]]:
    out = frozenset(_tuple_of(M, chunk) for chunk in text.split(";") if chunk.strip())
    if not out:
        raise CliError("expected a nonempty set of tuples")
    return out


def _pairs(flag: str, form: str, items):
    """Each NAME=VALUE item split at its first '=', lazily, so that a bad
    item is reported only after the items before it were decoded."""
    for item in items:
        if "=" not in item:
            raise CliError(f"{flag} expects {form}, got {item!r}")
        name, value = item.split("=", 1)
        yield name, value


def _algebra_element(A: MeasureAlgebra, text: str) -> int:
    text = text.strip()
    if set(text) <= {"0", "1"} and len(text) == A.k:
        return A.from_label(text)
    try:
        x = int(text)
    except ValueError:
        raise CliError(f"bad algebra element {text!r}") from None
    if not 0 <= x < A.size:
        raise CliError(f"algebra element {x} out of range")
    return x


def _algebra_elements(A: MeasureAlgebra, text: str) -> list[int]:
    return [_algebra_element(A, part) for part in text.split(";") if part.strip()]


def _signature_for(args) -> Signature:
    if getattr(args, "structure", None):
        return load_structure(args.structure).signature()
    return Signature.make()


def _load_hull(args):
    M = load_structure(args.structure)
    family = load_family(args.family, M.signature(), _vars(args))
    hull = type_hull(M, family.arity, family, cap=args.cap)
    return M, family, hull


def _vars(args) -> tuple[str, ...] | None:
    raw = getattr(args, "vars", None)
    if raw is None:
        return None
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _present(value, field: str):
    """value, checked to be set: a report field that its verdict promises."""
    if value is None:
        raise CliError(f"report has no {field}")
    return value


def _vec(values) -> str:
    """A rational vector as text: "(a, b)"."""
    return "(" + ", ".join(_fmt(x) for x in values) + ")"


def _names(M: FiniteStructure, a) -> list[str]:
    return [M.elements[i] for i in a]


def _labels(M: FiniteStructure, a) -> str:
    return "(" + ",".join(_names(M, a)) + ")"


def _moves(M: FiniteStructure, perm) -> str:
    return " ".join(f"{M.elements[i]}->{M.elements[j]}" for i, j in enumerate(perm))


def _save_out(M: FiniteStructure, path: str | None, payload: dict, lines: list[str]) -> None:
    if path:
        save_structure(M, path)
        payload["out"] = path
        lines.append(f"wrote {path}")


def _distribution(M: FiniteStructure, weights) -> tuple[dict, str]:
    """A distribution over tuples as a JSON object and as text {(a):w, ...}."""
    items = sorted(weights.items())
    mix = ", ".join(f"{_labels(M, a)}:{_fmt(w)}" for a, w in items)
    return {",".join(_names(M, a)): _fmt(w) for a, w in items}, f"{{{mix}}}"


# ---------------------------------------------------------------------------
# formula-level commands


def cmd_parse(args) -> Report:
    sig = _signature_for(args)
    phi = parse_formula(args.formula, sig)
    fv = sorted(free_vars(phi))
    return OK, {"formula": render(phi), "free_variables": fv}, [
        render(phi), f"free variables: {', '.join(fv) if fv else '(none)'}"
    ]


def cmd_cert(args) -> Report:
    sig = _signature_for(args)
    phi = parse_formula(args.formula, sig)
    cert = certificate(phi, sig)
    return OK, {"formula": render(phi), "lam": _fmt(cert.lam), "bound": _fmt(cert.bound)}, [
        f"lam = {_fmt(cert.lam)}", f"bound = {_fmt(cert.bound)}"
    ]


def cmd_eval(args) -> Report:
    M = load_structure(args.structure)
    phi = parse_formula(args.formula, M.signature())
    asg = {
        name.strip(): _element(M, value)
        for name, value in _pairs("--assign", "NAME=ELEMENT", args.assign)
    }
    value = eval_formula(M, phi, asg)
    return OK, {"value": _fmt(value)}, [_fmt(value)]


def cmd_automorphisms(args) -> Report:
    M = load_structure(args.structure)
    perms = automorphisms(M)
    lines = [f"{len(perms)} automorphisms"] + ["  " + _moves(M, perm) for perm in perms]
    return OK, {"count": len(perms), "permutations": [list(p) for p in perms]}, lines


# ---------------------------------------------------------------------------
# ultramean commands


def _mean_inputs(args):
    structures = [load_structure(path) for path in args.structure]
    mu = Ultracharge(_fractions(args.mu))
    if len(mu) != len(structures):
        raise CliError("--mu must list one weight per structure")
    return structures, mu


def cmd_ultramean_build(args) -> Report:
    structures, mu = _mean_inputs(args)
    mean = build_ultramean(structures, mu, cap=args.cap)
    report = {
        "classes": mean.structure.size,
        "support": list(mean.support),
        "elements": list(mean.structure.elements),
    }
    lines = [f"{mean.structure.size} classes over support {list(mean.support)}"]
    _save_out(mean.structure, args.out, report, lines)
    return OK, report, lines


def cmd_ultramean_verify(args) -> Report:
    structures, mu = _mean_inputs(args)
    sig = structures[0].signature()
    phi = parse_formula(args.formula, sig)
    raw_tuples: dict[str, tuple[int, ...]] = {}
    for name, value in _pairs("--assign", "NAME=i,j,...", args.assign):
        parts = [p for p in value.split(",") if p.strip()]
        if len(parts) != len(structures):
            raise CliError(f"assignment for {name!r} needs one element per factor")
        raw_tuples[name.strip()] = tuple(
            _element(M, p) for M, p in zip(structures, parts)
        )
    report = check_ultramean_identity(structures, mu, phi, raw_tuples)
    payload = {
        "quotient": _fmt(report.quotient_value),
        "integral": _fmt(report.integral_value),
        "equal": report.equal,
    }
    lines = [
        f"quotient side: {_fmt(report.quotient_value)}",
        f"integral side: {_fmt(report.integral_value)}",
        "equal" if report.equal else "NOT EQUAL",
    ]
    return (OK if report.equal else CHECK_FALSE), payload, lines


# ---------------------------------------------------------------------------
# type-space commands


def cmd_types_hull(args) -> Report:
    M, family, hull = _load_hull(args)
    lines = [f"{len(hull)} realized type vectors over {len(family)} formulas"]
    vertices = []
    for i, v in enumerate(hull.vertices):
        reals = " ".join(_labels(M, a) for a in hull.realizations[i])
        lines.append(f"  [{i}] {_vec(v.values)} realized by {reals}")
        vertices.append({
            "values": [_fmt(x) for x in v.values],
            "realizations": [_names(M, a) for a in hull.realizations[i]],
        })
    return OK, {"vertices": vertices, "first_order": hull.first_order}, lines


def cmd_types_extreme(args) -> Report:
    M, family, hull = _load_hull(args)
    rep = extreme_points(hull)
    lines = [f"{len(rep.extreme)} extreme / {len(hull)} vertices"]
    payload = {"extreme": [], "non_extreme": []}
    for ev in rep.extreme:
        lines.append(
            f"  [{ev.index}] {_vec(hull.vertices[ev.index].values)} extreme; "
            f"functional offset {_fmt(ev.offset)}, coeffs {_vec(ev.coeffs)}"
        )
        payload["extreme"].append({
            "index": ev.index,
            "offset": _fmt(ev.offset),
            "coeffs": [_fmt(c) for c in ev.coeffs],
        })
    for nv in rep.non_extreme:
        mix = ", ".join(f"{j}:{_fmt(w)}" for j, w in sorted(nv.weights.items()))
        lines.append(f"  [{nv.index}] non-extreme = mix {{{mix}}}")
        payload["non_extreme"].append({
            "index": nv.index,
            "weights": {str(j): _fmt(w) for j, w in nv.weights.items()},
        })
    return OK, payload, lines


def cmd_types_face(args) -> Report:
    M, family, hull = _load_hull(args)
    P = load_predicate(args.predicate)
    face = exposed_face(hull, P.values, maximize=args.max)
    goal = "max" if args.max else "min"
    if face.entire_space:
        lines = [f"functional is constant; the {goal}-face is the entire space"]
    else:
        lines = [
            f"{goal} value {_fmt(face.optimum)} attained at vertices "
            f"{list(face.vertex_indices)}"
        ]
    payload = {
        "entire_space": face.entire_space,
        "vertices": list(face.vertex_indices),
        "optimum": _fmt(face.optimum),
        "offset": _fmt(face.offset),
        "coeffs": [_fmt(c) for c in face.coeffs],
    }
    return OK, payload, lines


def cmd_types_facial(args) -> Report:
    M, family, hull = _load_hull(args)
    sig = M.signature()
    conditions = [parse_condition(text, sig) for text in args.condition]
    rep = is_face(hull, conditions)
    payload = {"is_face": rep.is_face, "cut_vertices": list(rep.cut_vertex_indices)}
    lines = [
        ("face" if rep.is_face else "NOT a face")
        + f"; cut contains vertices {list(rep.cut_vertex_indices)}"
    ]
    if rep.violation is not None:
        v = rep.violation
        lines.append(
            f"  violation: gamma={_fmt(v.gamma)} mix of {_vec(v.endpoint)} and "
            f"{_vec(v.partner)} lies in the cut, endpoint fails condition {v.functional_index}"
        )
        payload["violation"] = {
            "gamma": _fmt(v.gamma),
            "inside": [_fmt(x) for x in v.inside],
            "endpoint": [_fmt(x) for x in v.endpoint],
            "partner": [_fmt(x) for x in v.partner],
            "condition": v.functional_index,
        }
    return (OK if rep.is_face else CHECK_FALSE), payload, lines


def cmd_types_satisfiable(args) -> Report:
    M = load_structure(args.structure)
    sig = M.signature()
    conditions = [parse_condition(text, sig) for text in args.condition]
    res = affine_satisfiable(M, conditions, _vars(args), cap=args.cap)
    if res.satisfiable:
        witness, mix = _distribution(M, _present(res.witness, "witness"))
        return OK, {"satisfiable": True, "witness": witness}, [f"satisfiable by mixture {mix}"]
    farkas = _present(res.farkas, "Farkas vector")
    payload = {
        "satisfiable": False,
        "farkas": [_fmt(c) for c in farkas],
        "margin": _fmt(res.margin),
    }
    lines = [
        f"refuted: nonnegative combination {_vec(farkas)} has margin {_fmt(res.margin)} < 0"
    ]
    return CHECK_FALSE, payload, lines


def cmd_types_barycenter(args) -> Report:
    M, family, hull = _load_hull(args)
    weights = {}
    items = [item for item in args.weights.split(",") if item.strip()]
    for idx, w in _pairs("--weights", "INDEX=p/q", items):
        try:
            index = int(idx)
        except ValueError:
            raise CliError(f"--weights index {idx.strip()!r} is not an integer") from None
        weights[index] = parse_rational(w)
    p = barycenter(hull, BoundaryMeasure(weights))
    return OK, {"values": [_fmt(x) for x in p.values]}, [_vec(p.values)]


def cmd_types_keisler(args) -> Report:
    M, family, hull = _load_hull(args)
    if (args.point is None) == (args.values is None):
        raise CliError("give exactly one of --point or --values")
    if args.point is not None:
        p = realized_type(M, _tuple_of(M, args.point), family)
    else:
        values = tuple(_fractions(args.values))
        if len(values) != len(family):
            raise CliError("--values must list one rational per family formula")
        p = TypeVector(family, values, witness=None, structure=M)
    measure = keisler_decompose(hull, p)
    payload = {"weights": {str(i): _fmt(w) for i, w in sorted(measure.weights.items())}}
    lines = ["boundary measure:"]
    for i, w in sorted(measure.weights.items()):
        reals = " ".join(_labels(M, a) for a in hull.realizations[i])
        lines.append(f"  vertex {i} ({reals}): {_fmt(w)}")
    return OK, payload, lines


def cmd_types_distance(args) -> Report:
    M, family, hull = _load_hull(args)
    p = realized_type(M, _tuple_of(M, args.left), family)
    q = realized_type(M, _tuple_of(M, args.right), family)
    value = type_distance(p, q)
    return OK, {"distance": _fmt(value)}, [_fmt(value)]


# ---------------------------------------------------------------------------
# definability commands


def _axiom_checks(M: FiniteStructure, rep):
    """(label, payload entry, text line) of each distance axiom, witnesses
    in element labels and rationals as "p/q"."""
    for label, check in (
        ("nonnegative", rep.nonnegative),
        ("nonexpansive", rep.nonexpansive),
        ("approachable", rep.approachable),
    ):
        entry = {"ok": check.ok}
        line = f"{label}: {'ok' if check.ok else 'FAIL'}"
        if not check.ok and check.witness is not None:
            # (a,) or (a, b) tuples; approachability's is (a, (r0, r1))
            if label == "approachable":
                a, farkas = check.witness
                witness = {"point": _labels(M, a), "farkas": [_fmt(r) for r in farkas]}
                line += f" at {witness['point']}, Farkas pair {_vec(farkas)}"
            else:
                witness = [_labels(M, a) for a in check.witness]
                line += f" at {' '.join(witness)}"
            entry["witness"] = witness
        yield label, entry, line


def cmd_def_distance_axioms(args) -> Report:
    M = load_structure(args.structure)
    P = load_predicate(args.predicate)
    rep = check_distance_axioms(M, P)
    checks = list(_axiom_checks(M, rep))
    payload = {label: entry for label, entry, _ in checks}
    return (OK if rep.ok else CHECK_FALSE), payload, [line for _, _, line in checks]


def cmd_def_recover(args) -> Report:
    M = load_structure(args.structure)
    P = load_predicate(args.predicate)
    axioms = check_distance_axioms(M, P)
    if not axioms.ok:
        failing = [line for _, entry, line in _axiom_checks(M, axioms) if not entry["ok"]]
        reason = "distance axioms fail, refusing to recover: " + "; ".join(failing)
        return CHECK_FALSE, {"recovered": None, "error": reason}, [f"refused: {reason}"]
    tuples = sorted(zeroset_recover(M, P))
    payload = {"zero_set": [_names(M, a) for a in tuples]}
    return OK, payload, ["zero set: " + " ".join(_labels(M, a) for a in tuples)]


def cmd_def_domination(args) -> Report:
    M = load_structure(args.structure)
    P = load_predicate(args.lower)
    Q = load_predicate(args.upper)
    res = lambda_domination(M, P, Q, parse_rational(args.eps))
    if res.dominates:
        lam = _present(res.lam, "lam")
        return OK, {"dominates": True, "lam": _fmt(lam)}, [f"lam = {_fmt(lam)}"]
    witness = _present(res.witness, "witness")
    payload = {"dominates": False, "witness": _names(M, witness)}
    return CHECK_FALSE, payload, [f"no lam works: at {_labels(M, witness)} P = 0 < Q"]


def cmd_def_predicate(args) -> Report:
    M = load_structure(args.structure)
    P = load_predicate(args.predicate)
    family = load_family(args.family, M.signature(), _vars(args))
    return _definability_report(M, is_definable_predicate(M, P, family))


def _definability_report(M: FiniteStructure, rep) -> Report:
    if rep.definable:
        w = rep.witness
        payload = {
            "definable": True,
            "offset": _fmt(w.offset),
            "coeffs": [_fmt(c) for c in w.coeffs],
        }
        lines = [
            "definable: P = "
            + " + ".join([_fmt(w.offset)] + [
                f"{_fmt(c)}*F{j}" for j, c in enumerate(w.coeffs) if c != 0
            ])
        ]
        return OK, payload, lines
    payload = {"definable": False}
    lines = ["not definable over the family"]
    if rep.conflict is not None:
        a, b = rep.conflict.key_a, rep.conflict.key_b
        lines.append(f"  tuples {_labels(M, a)} and {_labels(M, b)} share family values but differ")
        payload["conflict"] = [_names(M, a), _names(M, b)]
    if rep.residue is not None:
        payload["residue"] = True
        lines.append("  linear system inconsistent over the realized vectors")
    return CHECK_FALSE, payload, lines


def cmd_def_set(args) -> Report:
    M = load_structure(args.structure)
    D = _tuple_set(M, args.set)
    family = load_family(args.family, M.signature(), _vars(args))
    return _definability_report(M, is_definable_set(M, D, family))


def cmd_def_project(args) -> Report:
    M = load_structure(args.structure)
    P = load_predicate(args.predicate)
    D = _tuple_set(M, args.set)
    rep = inf_over_definable(M, D, P, parse_rational(args.lam))
    payload = {
        "identity_holds": rep.identity_holds,
        "values": {",".join(map(str, a)): _fmt(v) for a, v in sorted(rep.table.values.items())},
    }
    lines = ["identity holds" if rep.identity_holds else "identity FAILS"]
    for a, v in sorted(rep.table.values.items()):
        lines.append(f"  Q{_labels(M, a)} = {_fmt(v)}")
    return (OK if rep.identity_holds else CHECK_FALSE), payload, lines


def cmd_def_invariant_type(args) -> Report:
    M = load_structure(args.structure)
    f = load_function_table(args.function)
    family = load_family(args.family, M.signature(), _vars(args))
    p = invariant_type(M, f, family)
    witness, mix = _distribution(M, _present(p.witness, "witness"))
    payload = {"values": [_fmt(x) for x in p.values], "witness": witness}
    return OK, payload, [f"type values: {_vec(p.values)}", f"witness distribution {mix}"]


def cmd_def_auto_invariant(args) -> Report:
    M = load_structure(args.structure)
    P = load_predicate(args.predicate)
    rep = automorphism_invariant(M, P)
    if rep.invariant:
        return OK, {"invariant": True}, ["invariant under all automorphisms"]
    perm, a = rep.witness
    payload = {"invariant": False, "permutation": list(perm), "tuple": _names(M, a)}
    return CHECK_FALSE, payload, [f"NOT invariant: {_moves(M, perm)} moves {_labels(M, a)}"]


# ---------------------------------------------------------------------------
# probability-algebra commands


def _algebra_for(args) -> MeasureAlgebra:
    return build_algebra(_fractions(args.atoms))


def cmd_pra_build(args) -> Report:
    A = _algebra_for(args)
    M = A.to_structure()
    payload = {"atoms": [_fmt(w) for w in A.weights], "elements": A.size}
    if A.k <= 6:
        validation = validate_structure(M)
        payload["valid"] = validation.ok
        state = "valid" if validation.ok else "INVALID"
    else:
        validation = None
        payload["valid"] = None
        state = "validation skipped at this size"
    lines = [f"{A.size} elements over {A.k} atoms; export {state}"]
    _save_out(M, args.out, payload, lines)
    return (OK if validation is None or validation.ok else CHECK_FALSE), payload, lines


def cmd_pra_interval(args) -> Report:
    A = _algebra_for(args)
    x = _algebra_element(A, args.x)
    a = _algebra_element(A, args.a)
    b = _algebra_element(A, args.b)
    value = interval_distance(A, x, a, b)
    proj = interval_projection(A, x, a, b)
    payload = {"distance": _fmt(value), "projection": A.label(proj)}
    return OK, payload, [
        f"d({A.label(x)}, [{A.label(a)},{A.label(b)}]) = {_fmt(value)}",
        f"nearest point {A.label(proj)}",
    ]


def cmd_pra_hahn(args) -> Report:
    A = _algebra_for(args)
    values = _fractions(args.values)
    f = AdditiveFunction(tuple(values))
    rep = hahn_max_set(A, f)
    payload = {
        "a": A.label(rep.a),
        "b": A.label(rep.b),
        "lower": A.label(rep.lower),
        "upper": A.label(rep.upper),
        "max": _fmt(rep.max_value),
    }
    lines = [
        f"nonnegative part a = {A.label(rep.a)}, nonpositive part b = {A.label(rep.b)}",
        f"max {_fmt(rep.max_value)} attained exactly on [{A.label(rep.lower)}, {A.label(rep.upper)}]",
    ]
    return OK, payload, lines


def cmd_pra_dcl(args) -> Report:
    A = _algebra_for(args)
    closure = [A.label(x) for x in sorted(dcl(A, _algebra_elements(A, args.elements)))]
    return OK, {"closure": closure}, [f"{len(closure)} elements: " + " ".join(closure)]


def cmd_pra_definable(args) -> Report:
    A = _algebra_for(args)
    rep = pra_definable_check(A, _algebra_elements(A, args.elements))
    if rep.definable:
        payload = {"definable": True, "lower": A.label(rep.lower), "upper": A.label(rep.upper)}
        return OK, payload, [f"definable: D = [{A.label(rep.lower)}, {A.label(rep.upper)}]"]
    payload = {"definable": False, "witness": A.label(rep.witness)}
    return CHECK_FALSE, payload, [
        f"not definable: {A.label(rep.witness)} lies in "
        f"[{A.label(rep.lower)}, {A.label(rep.upper)}] but not in D"
    ]


# ---------------------------------------------------------------------------
# suites


def cmd_suite(args) -> Report:
    results = run_suites(args.names or None, seed=args.seed)
    code = OK if all(r.ok for r in results) else CHECK_FALSE
    return code, [asdict(r) for r in results], [r.line() for r in results]


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing never changes the parser, and `append` options copy their
    default list before appending, so every `main` call in a process can
    reuse one parser.  Each subcommand's `func` is the `cmd_*` function
    bound when the parser was built: replacing a `cmd_*` attribute of this
    module afterwards does not change what `main` dispatches to.
    """
    parser = argparse.ArgumentParser(
        prog="affinelogic",
        description="Affine continuous logic over finite metric structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options every command takes
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable report")

    def command(group, name, func, summary, structure=False, family=False, cap=False):
        p = group.add_parser(name, help=summary, parents=[shared])
        p.set_defaults(func=func)
        if structure:
            p.add_argument("--structure", required=True, help="structure JSON file")
        if family:
            p.add_argument("--family", required=True, help="formula list file")
            p.add_argument("--vars", help="comma-separated family variables")
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="size cap")
        return p

    p = command(sub, "parse", cmd_parse, "parse and re-render a formula")
    p.add_argument("formula")
    p.add_argument("--structure", help="take the signature from this structure")
    p = command(sub, "cert", cmd_cert, "Lipschitz certificate of a formula")
    p.add_argument("formula")
    p.add_argument("--structure", help="take the signature from this structure")
    p = command(sub, "eval", cmd_eval, "evaluate a formula in a structure", structure=True)
    p.add_argument("formula")
    p.add_argument("--assign", action="append", help="NAME=ELEMENT", default=[])
    command(sub, "automorphisms", cmd_automorphisms, "list the automorphism group", structure=True)

    um = sub.add_parser("ultramean", help="measure-weighted products").add_subparsers(
        dest="subcommand", required=True
    )
    p = command(um, "build", cmd_ultramean_build, "build the quotient structure", cap=True)
    p.add_argument("--structure", action="append", required=True)
    p.add_argument("--mu", required=True, help="comma-separated weights")
    p.add_argument("--out", help="write the quotient structure here")
    p = command(um, "verify", cmd_ultramean_verify, "check the mean identity for a formula")
    p.add_argument("formula")
    p.add_argument("--structure", action="append", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--assign", action="append", default=[], help="NAME=i,j,... per factor")

    ty = sub.add_parser("types", help="type hulls and faces").add_subparsers(
        dest="subcommand", required=True
    )
    hull = {"structure": True, "family": True, "cap": True}
    command(ty, "hull", cmd_types_hull, "realized type vectors", **hull)
    command(ty, "extreme", cmd_types_extreme, "extreme points with certificates", **hull)
    p = command(ty, "face", cmd_types_face, "exposed face of an affine functional", **hull)
    p.add_argument("--predicate", required=True, help="predicate table JSON")
    p.add_argument("--max", action="store_true", help="maximize instead of minimize")
    p = command(ty, "facial", cmd_types_facial, "does a condition set cut a face?", **hull)
    p.add_argument("--condition", action="append", required=True)
    p = command(ty, "satisfiable", cmd_types_satisfiable, "affine satisfiability dichotomy",
                structure=True, cap=True)
    p.add_argument("--condition", action="append", required=True)
    p.add_argument("--vars", help="comma-separated variables")
    p = command(ty, "barycenter", cmd_types_barycenter, "mix extreme vertices by a measure", **hull)
    p.add_argument("--weights", required=True, help="INDEX=p/q, comma-separated")
    p = command(ty, "keisler", cmd_types_keisler, "decompose a type over the extreme boundary",
                **hull)
    p.add_argument("--point", help="realize the type at this tuple")
    p.add_argument("--values", help="type vector, comma-separated rationals")
    p = command(ty, "distance", cmd_types_distance, "transport distance between realized types",
                **hull)
    p.add_argument("--left", required=True, help="tuple, comma-separated")
    p.add_argument("--right", required=True, help="tuple, comma-separated")

    dc = sub.add_parser("defcheck", help="definability checks").add_subparsers(
        dest="subcommand", required=True
    )
    p = command(dc, "distance-axioms", cmd_def_distance_axioms, "distance-predicate axioms",
                structure=True)
    p.add_argument("--predicate", required=True)
    p = command(dc, "recover", cmd_def_recover, "zero set of a distance predicate", structure=True)
    p.add_argument("--predicate", required=True)
    p = command(dc, "domination", cmd_def_domination, "least lam with Q <= lam*P + eps",
                structure=True)
    p.add_argument("--lower", required=True, help="P table JSON")
    p.add_argument("--upper", required=True, help="Q table JSON")
    p.add_argument("--eps", default="0", help="slack rational")
    p = command(dc, "predicate", cmd_def_predicate, "affine factoring through a family",
                structure=True, family=True)
    p.add_argument("--predicate", required=True)
    p = command(dc, "set", cmd_def_set, "definability of a tuple set", structure=True, family=True)
    p.add_argument("--set", required=True, help="tuples 'a,b;c,d'")
    p = command(dc, "project", cmd_def_project, "inf of P over D with the penalty identity",
                structure=True)
    p.add_argument("--predicate", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--lam", required=True)
    p = command(dc, "invariant-type", cmd_def_invariant_type,
                "pushforward-fixed type of a unary map", structure=True, family=True)
    p.add_argument("--function", required=True, help="function table JSON")
    p = command(dc, "auto-invariant", cmd_def_auto_invariant,
                "automorphism invariance of a table", structure=True)
    p.add_argument("--predicate", required=True)

    pa = sub.add_parser("pra", help="probability algebras").add_subparsers(
        dest="subcommand", required=True
    )
    p = command(pa, "build", cmd_pra_build, "build and validate an algebra")
    p.add_argument("--atoms", required=True, help="positive weights summing to 1")
    p.add_argument("--out", help="write the exported structure here")
    p = command(pa, "interval", cmd_pra_interval, "distance to an order interval")
    p.add_argument("--atoms", required=True)
    p.add_argument("-x", required=True, help="element (bitmask label or index)")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p = command(pa, "hahn", cmd_pra_hahn, "max-set of an additive function")
    p.add_argument("--atoms", required=True)
    p.add_argument("--values", required=True, help="one rational per atom")
    p = command(pa, "dcl", cmd_pra_dcl, "generated subalgebra")
    p.add_argument("--atoms", required=True)
    p.add_argument("--elements", required=True, help="labels 'lab;lab'")
    p = command(pa, "definable", cmd_pra_definable, "interval criterion for a subset")
    p.add_argument("--atoms", required=True)
    p.add_argument("--elements", required=True)

    p = command(sub, "suite", cmd_suite, "run the randomized check suites")
    p.add_argument("names", nargs="*", help=f"subset of: {', '.join(SUITES)}")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command, print its report and return its exit code.

    The parser comes from `build_parser`, built on the first call in a
    process and reused by every later one.  Errors map to exit codes by
    type alone, through the `exit_code` and `label` of their class (see
    `affinelogic.errors`): one line `label: message` goes to stderr.  A
    point with no boundary decomposition exits 1; bad input, such as a
    malformed file or a family that does not separate the extreme
    vertices, an unreadable file and an unwritable output (OSError) exit
    2; a result that failed its own re-check exits 3.
    """
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return code
    except (AffineLogicError, OSError) as exc:
        label = getattr(exc, "label", AffineLogicError.label)
        print(f"{label}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", AffineLogicError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
