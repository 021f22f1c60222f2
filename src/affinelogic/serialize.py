"""JSON file formats with bit-exact 'p/q' rationals.

Structure files carry elements, a row-major metric, constants, and
function/relation tables keyed by comma-joined element indices.  Each
index is canonical: ASCII digits, no sign, space, '_' or leading zero.
Every rational is exactly '[-]p' or '[-]p/q' (see parse_rational).
Family files are plain text, one formula per line.  Nothing here ever
goes through floating point.

Every decoder raises FormatError for input it cannot decode, whatever
went wrong inside it (see `_decodes`).
"""

from __future__ import annotations

import functools
import json
import re
from typing import Mapping, Sequence

from .definability import FunctionTable, PredicateTable
from .errors import AffineLogicError, FormatError
from .model import FiniteStructure, FunctionInterp, RelationInterp, validate_structure
from .rationals import format_rational, parse_rational
from .syntax import Formula, Signature, parse_formula
from .typespace import FormulaFamily


def _decodes(what: str):
    """Decorator for a decoder of `what`: the errors that malformed JSON
    raises inside it, such as a missing key or a null where a table
    belongs, become one FormatError.  The package's own errors, such as a
    FormatError naming the bad value, pass through unchanged."""

    def wrap(fn):
        @functools.wraps(fn)
        def decode(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except AffineLogicError:
                raise
            except KeyError as exc:
                raise FormatError(f"malformed {what}: missing field {exc}") from exc
            except (TypeError, AttributeError, ValueError) as exc:
                raise FormatError(f"malformed {what}: {exc}") from exc

        return decode

    return wrap


def _int(value, what: str) -> int:
    """A field that must be a JSON integer: a float, a string or a bool is
    a FormatError, where int() would truncate, parse or accept it."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _arity(value, name: str) -> int:
    """A relation's or function's arity: a JSON integer of at least 1, the
    arities formulas can use (see SymbolInfo)."""
    arity = _int(value, f"arity of {name!r}")
    if arity < 1:
        raise FormatError(f"arity of {name!r} must be at least 1, got {arity}")
    return arity


# A key: canonical indices (ASCII digits, no sign, space, '_' or leading
# zero) joined by commas, or "" for arity 0.
_INDEX = r"(?:0|[1-9][0-9]*)"
_KEY = re.compile(f"(?:{_INDEX}(?:,{_INDEX})*)?")


def _key_of(args: Sequence[int]) -> str:
    return ",".join(str(a) for a in args)


def _parse_key(text: str, arity: int) -> tuple[int, ...]:
    """The inverse of _key_of: `arity` canonical indices joined by commas,
    so each tuple has one spelling and no two keys collapse."""
    if not _KEY.fullmatch(text):
        raise FormatError(f"table key {text!r} is not comma-joined canonical indices")
    parts = tuple(map(int, text.split(","))) if text else ()
    if len(parts) != arity:
        raise FormatError(f"table key {text!r} does not have arity {arity}")
    return parts


# ---------------------------------------------------------------------------
# structures


def structure_to_dict(M: FiniteStructure) -> dict:
    return {
        "elements": list(M.elements),
        "metric": [[format_rational(d) for d in row] for row in M.metric],
        "constants": {k: M.elements[v] for k, v in sorted(M.constants.items())},
        "functions": {
            name: {
                "arity": fn.arity,
                "lambda": format_rational(fn.lam),
                "table": {_key_of(a): out for a, out in sorted(fn.table.items())},
            }
            for name, fn in sorted(M.functions.items())
        },
        "relations": {
            name: {
                "arity": rel.arity,
                "lambda": format_rational(rel.lam),
                "table": {
                    _key_of(a): format_rational(v) for a, v in sorted(rel.table.items())
                },
            }
            for name, rel in sorted(M.relations.items())
        },
    }


@_decodes("structure")
def structure_from_dict(data: Mapping) -> FiniteStructure:
    """Decode and validate a structure; an invalid one raises FormatError
    naming the failed check (see `validate_structure`) and its witness."""
    labels = data["elements"]
    if not isinstance(labels, list) or not all(isinstance(e, str) for e in labels):
        raise FormatError("structure elements must be a list of string labels")
    elements = tuple(labels)
    metric = tuple(tuple(parse_rational(d) for d in row) for row in data["metric"])
    index = {label: i for i, label in enumerate(elements)}
    if len(index) != len(elements):
        repeated = next(e for i, e in enumerate(elements) if index[e] != i)
        raise FormatError(f"duplicate element label {repeated!r}")

    def elem(ref) -> int:
        if not isinstance(ref, str):
            return _int(ref, "element index")
        if ref in index:
            return index[ref]
        raise FormatError(f"unknown element reference {ref!r}")

    constants = {k: elem(v) for k, v in data.get("constants", {}).items()}
    functions = {}
    for name, spec in data.get("functions", {}).items():
        arity = _arity(spec["arity"], name)
        table = {
            _parse_key(k, arity): elem(v) for k, v in spec["table"].items()
        }
        functions[name] = FunctionInterp(arity, parse_rational(spec["lambda"]), table)
    relations = {}
    for name, spec in data.get("relations", {}).items():
        arity = _arity(spec["arity"], name)
        table = {
            _parse_key(k, arity): parse_rational(v) for k, v in spec["table"].items()
        }
        relations[name] = RelationInterp(arity, parse_rational(spec["lambda"]), table)
    M = FiniteStructure(elements, metric, constants, functions, relations)
    report = validate_structure(M)
    if not report.ok:
        where = "" if report.witness is None else f" at {report.witness}"
        raise FormatError(f"invalid structure ({report.kind}): {report.message}{where}")
    return M


def save_structure(M: FiniteStructure, path: str) -> None:
    # encoded first, so a value that cannot be written leaves the file as it was
    data = structure_to_dict(M)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


@_decodes("structure")
def load_structure(path: str) -> FiniteStructure:
    with open(path) as fh:
        return structure_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# families (one formula per line)


@_decodes("family file")
def load_family(
    path: str, sig: Signature, variables: Sequence[str] | None = None
) -> FormulaFamily:
    with open(path) as fh:
        formulas = parse_family_lines(fh.read().splitlines(), sig)
    return family_with_variables(formulas, variables)


def parse_family_lines(lines: Sequence[str], sig: Signature) -> list[Formula]:
    formulas = []
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        formulas.append(parse_formula(text, sig))
    return formulas


def family_with_variables(
    formulas: Sequence[Formula], variables: Sequence[str] | None
) -> FormulaFamily:
    from .syntax import free_vars

    if variables is None:
        names: set[str] = set()
        for phi in formulas:
            names |= free_vars(phi)
        variables = tuple(sorted(names))
    return FormulaFamily(tuple(variables), tuple(formulas))


# ---------------------------------------------------------------------------
# predicate and function tables


def predicate_to_dict(P: PredicateTable) -> dict:
    return {
        "arity": P.arity,
        "values": {_key_of(a): format_rational(v) for a, v in sorted(P.values.items())},
    }


@_decodes("predicate table")
def predicate_from_dict(data: Mapping) -> PredicateTable:
    arity = _int(data["arity"], "arity")
    values = {
        _parse_key(k, arity): parse_rational(v) for k, v in data["values"].items()
    }
    return PredicateTable(arity, values)


def function_table_to_dict(f: FunctionTable) -> dict:
    return {
        "arity_in": f.arity_in,
        "arity_out": f.arity_out,
        "lambda": format_rational(f.lam),
        "table": {_key_of(a): list(out) for a, out in sorted(f.table.items())},
    }


@_decodes("function table")
def function_table_from_dict(data: Mapping) -> FunctionTable:
    arity_in = _int(data["arity_in"], "arity_in")
    arity_out = _int(data["arity_out"], "arity_out")
    table = {}
    for k, v in data["table"].items():
        out = tuple(_int(x, "function table output") for x in (v if isinstance(v, list) else [v]))
        if len(out) != arity_out:
            raise FormatError(f"function table output {v!r} does not match arity_out")
        table[_parse_key(k, arity_in)] = out
    return FunctionTable(arity_in, arity_out, parse_rational(data["lambda"]), table)


@_decodes("predicate table")
def load_predicate(path: str) -> PredicateTable:
    with open(path) as fh:
        return predicate_from_dict(json.load(fh))


def save_predicate(P: PredicateTable, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(predicate_to_dict(P), fh, indent=2)
        fh.write("\n")


@_decodes("function table")
def load_function_table(path: str) -> FunctionTable:
    with open(path) as fh:
        return function_table_from_dict(json.load(fh))


def save_function_table(f: FunctionTable, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(function_table_to_dict(f), fh, indent=2)
        fh.write("\n")
