"""Command-line front door: file loading, dispatch, structured reports.

Exit codes: 0 for success or a check that comes back true, 1 for a check
that comes back false (the witness is in the report), 2 for usage errors,
unreadable or malformed files, or validation failures, and 3 for an
internal error: a result of the package that failed its own re-check,
which is a bug.  Each error class carries its exit code and the label
printed before its message (see `affinelogic.errors`).  With --json the
report is a machine-readable object whose rationals are exact "p/q"
strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
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
from .model import FiniteStructure, automorphisms, eval_formula, validate_structure
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
from .rationals import format_rational, parse_rational
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
    out = set()
    for chunk in text.split(";"):
        if chunk.strip():
            out.add(_tuple_of(M, chunk))
    if not out:
        raise CliError("expected a nonempty set of tuples")
    return frozenset(out)


def _assignment(M: FiniteStructure, pairs: list[str] | None) -> dict[str, int]:
    asg = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"--assign expects NAME=ELEMENT, got {pair!r}")
        name, value = pair.split("=", 1)
        asg[name.strip()] = _element(M, value)
    return asg


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


def _fmt(value: Fraction) -> str:
    return format_rational(value)


def _emit(args, report: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _witness_obj(M: FiniteStructure, witness) -> dict:
    return {
        ",".join(M.elements[i] for i in a): _fmt(w) for a, w in sorted(witness.items())
    }


def _labels(M: FiniteStructure, a) -> str:
    return "(" + ",".join(M.elements[i] for i in a) + ")"


# ---------------------------------------------------------------------------
# formula-level commands


def cmd_parse(args) -> int:
    sig = _signature_for(args)
    phi = parse_formula(args.formula, sig)
    fv = sorted(free_vars(phi))
    _emit(args, {"formula": render(phi), "free_variables": fv},
          [render(phi), f"free variables: {', '.join(fv) if fv else '(none)'}"])
    return OK


def cmd_cert(args) -> int:
    sig = _signature_for(args)
    phi = parse_formula(args.formula, sig)
    cert = certificate(phi, sig)
    _emit(args, {"formula": render(phi), "lam": _fmt(cert.lam), "bound": _fmt(cert.bound)},
          [f"lam = {_fmt(cert.lam)}", f"bound = {_fmt(cert.bound)}"])
    return OK


def cmd_eval(args) -> int:
    M = load_structure(args.structure)
    phi = parse_formula(args.formula, M.signature())
    asg = _assignment(M, args.assign)
    value = eval_formula(M, phi, asg)
    _emit(args, {"value": _fmt(value)}, [_fmt(value)])
    return OK


def cmd_automorphisms(args) -> int:
    M = load_structure(args.structure)
    perms = automorphisms(M)
    lines = [f"{len(perms)} automorphisms"]
    for perm in perms:
        lines.append("  " + " ".join(f"{M.elements[i]}->{M.elements[j]}" for i, j in enumerate(perm)))
    _emit(args, {"count": len(perms), "permutations": [list(p) for p in perms]}, lines)
    return OK


# ---------------------------------------------------------------------------
# ultramean commands


def _mean_inputs(args):
    structures = [load_structure(path) for path in args.structure]
    mu = Ultracharge(_fractions(args.mu))
    if len(mu) != len(structures):
        raise CliError("--mu must list one weight per structure")
    return structures, mu


def cmd_ultramean_build(args) -> int:
    structures, mu = _mean_inputs(args)
    mean = build_ultramean(structures, mu, cap=args.cap)
    report = {
        "classes": mean.structure.size,
        "support": list(mean.support),
        "elements": list(mean.structure.elements),
    }
    lines = [f"{mean.structure.size} classes over support {list(mean.support)}"]
    if args.out:
        save_structure(mean.structure, args.out)
        report["out"] = args.out
        lines.append(f"wrote {args.out}")
    _emit(args, report, lines)
    return OK


def cmd_ultramean_verify(args) -> int:
    structures, mu = _mean_inputs(args)
    sig = structures[0].signature()
    phi = parse_formula(args.formula, sig)
    raw_tuples: dict[str, tuple[int, ...]] = {}
    for pair in args.assign or []:
        if "=" not in pair:
            raise CliError(f"--assign expects NAME=i,j,..., got {pair!r}")
        name, value = pair.split("=", 1)
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
    _emit(args, payload, lines)
    return OK if report.equal else CHECK_FALSE


# ---------------------------------------------------------------------------
# type-space commands


def cmd_types_hull(args) -> int:
    M, family, hull = _load_hull(args)
    lines = [f"{len(hull)} realized type vectors over {len(family)} formulas"]
    vertices = []
    for i, v in enumerate(hull.vertices):
        vals = "(" + ", ".join(_fmt(x) for x in v.values) + ")"
        reals = " ".join(_labels(M, a) for a in hull.realizations[i])
        lines.append(f"  [{i}] {vals} realized by {reals}")
        vertices.append({
            "values": [_fmt(x) for x in v.values],
            "realizations": [[M.elements[i_] for i_ in a] for a in hull.realizations[i]],
        })
    _emit(args, {"vertices": vertices, "first_order": hull.first_order}, lines)
    return OK


def cmd_types_extreme(args) -> int:
    M, family, hull = _load_hull(args)
    rep = extreme_points(hull)
    lines = [f"{len(rep.extreme)} extreme / {len(hull)} vertices"]
    payload = {"extreme": [], "non_extreme": []}
    for ev in rep.extreme:
        vals = "(" + ", ".join(_fmt(x) for x in hull.vertices[ev.index].values) + ")"
        lines.append(
            f"  [{ev.index}] {vals} extreme; functional offset {_fmt(ev.offset)}, "
            f"coeffs ({', '.join(_fmt(c) for c in ev.coeffs)})"
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
    _emit(args, payload, lines)
    return OK


def cmd_types_face(args) -> int:
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
    _emit(args, payload, lines)
    return OK


def cmd_types_facial(args) -> int:
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
            f"  violation: gamma={_fmt(v.gamma)} mix of "
            f"({', '.join(_fmt(x) for x in v.endpoint)}) and "
            f"({', '.join(_fmt(x) for x in v.partner)}) lies in the cut, "
            f"endpoint fails condition {v.functional_index}"
        )
        payload["violation"] = {
            "gamma": _fmt(v.gamma),
            "inside": [_fmt(x) for x in v.inside],
            "endpoint": [_fmt(x) for x in v.endpoint],
            "partner": [_fmt(x) for x in v.partner],
            "condition": v.functional_index,
        }
    _emit(args, payload, lines)
    return OK if rep.is_face else CHECK_FALSE


def cmd_types_satisfiable(args) -> int:
    M = load_structure(args.structure)
    sig = M.signature()
    conditions = [parse_condition(text, sig) for text in args.condition]
    res = affine_satisfiable(M, conditions, _vars(args), cap=args.cap)
    if res.satisfiable:
        witness = _present(res.witness, "witness")
        payload = {"satisfiable": True, "witness": _witness_obj(M, witness)}
        mix = ", ".join(
            f"{_labels(M, a)}:{_fmt(w)}" for a, w in sorted(witness.items())
        )
        _emit(args, payload, [f"satisfiable by mixture {{{mix}}}"])
        return OK
    farkas = _present(res.farkas, "Farkas vector")
    payload = {
        "satisfiable": False,
        "farkas": [_fmt(c) for c in farkas],
        "margin": _fmt(res.margin),
    }
    lines = [
        "refuted: nonnegative combination "
        f"({', '.join(_fmt(c) for c in farkas)}) has margin {_fmt(res.margin)} < 0"
    ]
    _emit(args, payload, lines)
    return CHECK_FALSE


def _measure_arg(text: str) -> dict[int, Fraction]:
    weights = {}
    for pair in text.split(","):
        if not pair.strip():
            continue
        if "=" not in pair:
            raise CliError(f"--weights expects INDEX=p/q, got {pair!r}")
        idx, w = pair.split("=", 1)
        try:
            index = int(idx)
        except ValueError:
            raise CliError(f"--weights index {idx.strip()!r} is not an integer") from None
        weights[index] = parse_rational(w)
    return weights


def cmd_types_barycenter(args) -> int:
    M, family, hull = _load_hull(args)
    measure = BoundaryMeasure(_measure_arg(args.weights))
    p = barycenter(hull, measure)
    payload = {"values": [_fmt(x) for x in p.values]}
    _emit(args, payload, ["(" + ", ".join(_fmt(x) for x in p.values) + ")"])
    return OK


def cmd_types_keisler(args) -> int:
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
    _emit(args, payload, lines)
    return OK


def cmd_types_distance(args) -> int:
    M, family, hull = _load_hull(args)
    p = realized_type(M, _tuple_of(M, args.left), family)
    q = realized_type(M, _tuple_of(M, args.right), family)
    value = type_distance(p, q)
    _emit(args, {"distance": _fmt(value)}, [_fmt(value)])
    return OK


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
                line += f" at {witness['point']}, Farkas pair ({', '.join(witness['farkas'])})"
            else:
                witness = [_labels(M, a) for a in check.witness]
                line += f" at {' '.join(witness)}"
            entry["witness"] = witness
        yield label, entry, line


def cmd_def_distance_axioms(args) -> int:
    M = load_structure(args.structure)
    P = load_predicate(args.predicate)
    rep = check_distance_axioms(M, P)
    checks = list(_axiom_checks(M, rep))
    _emit(args, {label: entry for label, entry, _ in checks}, [line for _, _, line in checks])
    return OK if rep.ok else CHECK_FALSE


def cmd_def_recover(args) -> int:
    M = load_structure(args.structure)
    P = load_predicate(args.predicate)
    axioms = check_distance_axioms(M, P)
    if not axioms.ok:
        failing = [line for _, entry, line in _axiom_checks(M, axioms) if not entry["ok"]]
        reason = "distance axioms fail, refusing to recover: " + "; ".join(failing)
        _emit(args, {"recovered": None, "error": reason}, [f"refused: {reason}"])
        return CHECK_FALSE
    zero = zeroset_recover(M, P)
    tuples = sorted(zero)
    payload = {"zero_set": [[M.elements[i] for i in a] for a in tuples]}
    lines = ["zero set: " + " ".join(_labels(M, a) for a in tuples)]
    _emit(args, payload, lines)
    return OK


def cmd_def_domination(args) -> int:
    M = load_structure(args.structure)
    P = load_predicate(args.lower)
    Q = load_predicate(args.upper)
    res = lambda_domination(M, P, Q, parse_rational(args.eps))
    if res.dominates:
        lam = _present(res.lam, "lam")
        _emit(args, {"dominates": True, "lam": _fmt(lam)}, [f"lam = {_fmt(lam)}"])
        return OK
    witness = _present(res.witness, "witness")
    payload = {"dominates": False, "witness": [M.elements[i] for i in witness]}
    _emit(args, payload,
          [f"no lam works: at {_labels(M, witness)} P = 0 < Q"])
    return CHECK_FALSE


def cmd_def_predicate(args) -> int:
    M = load_structure(args.structure)
    P = load_predicate(args.predicate)
    family = load_family(args.family, M.signature(), _vars(args))
    rep = is_definable_predicate(M, P, family)
    return _emit_definability(args, M, rep)


def _emit_definability(args, M: FiniteStructure, rep) -> int:
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
        _emit(args, payload, lines)
        return OK
    payload = {"definable": False}
    lines = ["not definable over the family"]
    if rep.conflict is not None:
        a, b = rep.conflict.key_a, rep.conflict.key_b
        lines.append(f"  tuples {_labels(M, a)} and {_labels(M, b)} share family values but differ")
        payload["conflict"] = [[M.elements[i] for i in a], [M.elements[i] for i in b]]
    if rep.residue is not None:
        payload["residue"] = True
        lines.append("  linear system inconsistent over the realized vectors")
    _emit(args, payload, lines)
    return CHECK_FALSE


def cmd_def_set(args) -> int:
    M = load_structure(args.structure)
    D = _tuple_set(M, args.set)
    family = load_family(args.family, M.signature(), _vars(args))
    rep = is_definable_set(M, D, family)
    return _emit_definability(args, M, rep)


def cmd_def_project(args) -> int:
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
    _emit(args, payload, lines)
    return OK if rep.identity_holds else CHECK_FALSE


def cmd_def_invariant_type(args) -> int:
    M = load_structure(args.structure)
    f = load_function_table(args.function)
    family = load_family(args.family, M.signature(), _vars(args))
    p = invariant_type(M, f, family)
    witness = _present(p.witness, "witness")
    payload = {
        "values": [_fmt(x) for x in p.values],
        "witness": _witness_obj(M, witness),
    }
    mix = ", ".join(f"{_labels(M, a)}:{_fmt(w)}" for a, w in sorted(witness.items()))
    lines = [
        "type values: (" + ", ".join(_fmt(x) for x in p.values) + ")",
        f"witness distribution {{{mix}}}",
    ]
    _emit(args, payload, lines)
    return OK


def cmd_def_auto_invariant(args) -> int:
    M = load_structure(args.structure)
    P = load_predicate(args.predicate)
    rep = automorphism_invariant(M, P)
    if rep.invariant:
        _emit(args, {"invariant": True}, ["invariant under all automorphisms"])
        return OK
    perm, a = rep.witness
    payload = {
        "invariant": False,
        "permutation": list(perm),
        "tuple": [M.elements[i] for i in a],
    }
    moves = " ".join(f"{M.elements[i]}->{M.elements[j]}" for i, j in enumerate(perm))
    _emit(args, payload, [f"NOT invariant: {moves} moves {_labels(M, a)}"])
    return CHECK_FALSE


# ---------------------------------------------------------------------------
# probability-algebra commands


def _algebra_for(args) -> MeasureAlgebra:
    return build_algebra(_fractions(args.atoms))


def cmd_pra_build(args) -> int:
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
    if args.out:
        save_structure(M, args.out)
        payload["out"] = args.out
        lines.append(f"wrote {args.out}")
    _emit(args, payload, lines)
    return OK if validation is None or validation.ok else CHECK_FALSE


def cmd_pra_interval(args) -> int:
    A = _algebra_for(args)
    x = _algebra_element(A, args.x)
    a = _algebra_element(A, args.a)
    b = _algebra_element(A, args.b)
    value = interval_distance(A, x, a, b)
    proj = interval_projection(A, x, a, b)
    payload = {"distance": _fmt(value), "projection": A.label(proj)}
    _emit(args, payload,
          [f"d({A.label(x)}, [{A.label(a)},{A.label(b)}]) = {_fmt(value)}",
           f"nearest point {A.label(proj)}"])
    return OK


def cmd_pra_hahn(args) -> int:
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
    _emit(args, payload, lines)
    return OK


def cmd_pra_dcl(args) -> int:
    A = _algebra_for(args)
    S = [_algebra_element(A, part) for part in args.elements.split(";") if part.strip()]
    closure = sorted(dcl(A, S))
    payload = {"closure": [A.label(x) for x in closure]}
    _emit(args, payload,
          [f"{len(closure)} elements: " + " ".join(A.label(x) for x in closure)])
    return OK


def cmd_pra_definable(args) -> int:
    A = _algebra_for(args)
    D = [_algebra_element(A, part) for part in args.elements.split(";") if part.strip()]
    rep = pra_definable_check(A, D)
    if rep.definable:
        payload = {"definable": True, "lower": A.label(rep.lower), "upper": A.label(rep.upper)}
        _emit(args, payload,
              [f"definable: D = [{A.label(rep.lower)}, {A.label(rep.upper)}]"])
        return OK
    payload = {"definable": False, "witness": A.label(rep.witness)}
    _emit(args, payload,
          [f"not definable: {A.label(rep.witness)} lies in "
           f"[{A.label(rep.lower)}, {A.label(rep.upper)}] but not in D"])
    return CHECK_FALSE


# ---------------------------------------------------------------------------
# suites


def cmd_suite(args) -> int:
    names = args.names or None
    results = run_suites(names, seed=args.seed)
    payload = []
    for res in results:
        if not args.json:
            print(res.line())
        payload.append({
            "name": res.name,
            "ok": res.ok,
            "checked": res.checked,
            "seconds": res.seconds,
            "detail": res.detail,
        })
    if args.json:
        print(json.dumps(payload, indent=2))
    return OK if all(r.ok for r in results) else CHECK_FALSE


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
            p.add_argument("--cap", type=int, default=4096, help="size cap")
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
    """Run one command and return its exit code.

    The parser comes from `build_parser`, built on the first call in a
    process and reused by every later one.  Errors map to exit codes by
    type alone, through the `exit_code` and `label` of their class (see
    `affinelogic.errors`): one line `label: message` goes to stderr.  A
    point with no boundary decomposition exits 1; bad input, such as a
    malformed file or a family that does not separate the extreme
    vertices, and an unreadable file (OSError) exit 2; a result that
    failed its own re-check exits 3.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AffineLogicError, OSError) as exc:
        label = getattr(exc, "label", AffineLogicError.label)
        print(f"{label}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", AffineLogicError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
