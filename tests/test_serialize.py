import copy
import json
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from affinelogic.definability import FunctionTable, PredicateTable
from affinelogic.pra import build_algebra
from affinelogic.rationals import format_rational, parse_rational
from affinelogic.sampling import random_structure
from affinelogic.serialize import (
    FormatError,
    function_table_from_dict,
    function_table_to_dict,
    load_structure,
    parse_family_lines,
    predicate_from_dict,
    predicate_to_dict,
    save_function_table,
    save_predicate,
    save_structure,
    structure_from_dict,
    structure_to_dict,
)


def test_rational_formatting():
    assert format_rational(F(1)) == "1/1"
    assert format_rational(F(-3, 4)) == "-3/4"
    assert parse_rational("7/2") == F(7, 2)
    assert parse_rational("5") == F(5)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("a/b")
    for value in (1, 0.5, None, [1, 2]):
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rational(value)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int/str conversion limit")
def test_rational_past_the_int_str_limit_is_a_format_error(tmp_path):
    huge = F(1, 10**5000)
    limit = str(sys.get_int_max_str_digits())
    with pytest.raises(FormatError, match=limit):
        format_rational(huge)
    # each saver encodes before it opens the file, so the file is kept
    for save, value in [
        (save_structure, build_algebra([huge, 1 - huge]).to_structure()),
        (save_predicate, PredicateTable(1, {(0,): huge, (1,): F(0)})),
        (save_function_table, FunctionTable(1, 1, huge, {(0,): (0,), (1,): (1,)})),
    ]:
        path = tmp_path / f"{save.__name__}.json"
        path.write_text("kept")
        with pytest.raises(FormatError, match=limit):
            save(value, str(path))
        assert path.read_text() == "kept"


def _ascii_digits(part):
    return part != "" and set(part) <= set("0123456789")


def _grammar_value(text):
    """The rational grammar spelled out by hand: after surrounding
    whitespace, an optional '-', ASCII digits, and optionally '/' and
    ASCII digits that are not all zero.  None for any other text."""
    body = text.strip()
    sign = -1 if body.startswith("-") else 1
    num, slash, den = body.removeprefix("-").partition("/")
    if not _ascii_digits(num) or slash and not (_ascii_digits(den) and int(den) != 0):
        return None
    return F(sign * int(num), int(den) if slash else 1)


_RATIONAL_TEXT = st.one_of(
    st.text(),
    st.text(alphabet="0123456789-+/ _.eE\t\u0663\u00b2", max_size=12),
    st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
)


@settings(max_examples=1500, deadline=None)
@given(_RATIONAL_TEXT)
@example("1/0")
@example("-0/0")
@example("-3/-4")
@example("+3/4")
@example("1_0/3")
@example(" 7/2")
@example("7/2\n")
@example("1.5")
@example("2e3")
@example("1e-999")
@example("1e-999999999")
@example("9_9E+9_9")
@example("\u0663/4")
@example("\u00b2")
@example("5/")
@example("/5")
@example("-")
@example("")
@example("007/010")
def test_parse_rational_grammar(text):
    # only '[-]p' and '[-]p/q' parse; '+', '_', decimals, exponents and
    # non-ASCII digits are FormatErrors, so no text makes a huge power of 10
    expected = _grammar_value(text)
    if expected is None:
        with pytest.raises(FormatError, match="malformed rational"):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


def test_structure_roundtrip(tmp_path):
    rng = random.Random(4)
    M = random_structure(rng, max_size=5)
    path = tmp_path / "structure.json"
    save_structure(M, str(path))
    back = load_structure(str(path))
    assert back == M
    # the file is valid JSON with string rationals throughout
    data = json.loads(path.read_text())
    parse_rational(data["metric"][0][0])


def test_structure_constants_by_label_or_index():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    data = structure_to_dict(M)
    assert data["constants"]["zero"] == M.elements[0]
    again = structure_from_dict(data)
    assert again.constants == M.constants
    data["constants"]["zero"] = 0  # raw index form is accepted too
    assert structure_from_dict(data).constants == M.constants


def test_structure_unknown_element_reference():
    M = build_algebra([F(1)]).to_structure()
    data = structure_to_dict(M)
    data["constants"]["zero"] = "nope"
    with pytest.raises(FormatError):
        structure_from_dict(data)


def test_structure_missing_field():
    with pytest.raises(FormatError):
        structure_from_dict({"elements": ["a"]})


def test_structure_is_validated_where_loaded():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    data = structure_to_dict(M)
    data["metric"][0][1] = "1/4"  # d(0, 1) != d(1, 0)
    with pytest.raises(FormatError, match=r"invalid structure \(symmetry\): .* at \(0, 1\)"):
        structure_from_dict(data)
    data = structure_to_dict(M)
    del data["relations"]["mu"]["table"]["1"]
    with pytest.raises(FormatError, match=r"invalid structure \(shape\): relation 'mu'"):
        structure_from_dict(data)


def test_signature_roundtrip():
    # a signature is stored only inside a structure file
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    sig = M.signature()
    assert structure_from_dict(structure_to_dict(M)).signature() == sig


def test_predicate_roundtrip():
    P = PredicateTable(2, {(i, j): F(i + j, 4) for i in range(2) for j in range(2)})
    data = predicate_to_dict(P)
    assert data["values"]["1,1"] == "1/2"
    back = predicate_from_dict(data)
    assert back == P


def test_predicate_bad_key_arity():
    with pytest.raises(FormatError):
        predicate_from_dict({"arity": 2, "values": {"0": "1/2"}})


@pytest.mark.parametrize("key", ["01", " +1", "+1", " 1", "1 ", "0_0", "-0", "1,", "\u0661", "00"])
def test_table_keys_must_be_canonical(key):
    # int() reads most of these as an index, so "01" would overwrite "1"
    values = {"0": "0/1", "1": "1/2", key: "1/3"}
    with pytest.raises(FormatError, match=re.escape(repr(key))):
        predicate_from_dict({"arity": 1, "values": values})
    with pytest.raises(FormatError, match=re.escape(repr(f"0,{key}"))):
        predicate_from_dict({"arity": 2, "values": {f"0,{key}": "1/3"}})


def test_function_table_roundtrip():
    f = FunctionTable(1, 2, F(3, 2), {(0,): (1, 0), (1,): (0, 0)})
    data = function_table_to_dict(f)
    assert data["lambda"] == "3/2"
    assert function_table_from_dict(data) == f


def test_function_table_output_arity_check():
    with pytest.raises(FormatError):
        function_table_from_dict(
            {"arity_in": 1, "arity_out": 2, "lambda": "1/1", "table": {"0": [1]}}
        )


def test_family_lines_skip_blanks_and_comments():
    M = build_algebra([F(1, 2), F(1, 2)]).to_structure()
    sig = M.signature()
    formulas = parse_family_lines(
        ["# heading", "", "mu(x)", "  d(x, zero)  "], sig
    )
    assert len(formulas) == 2


_STRUCTURE = {
    "elements": ["a", "b"],
    "metric": [["0/1", "1/1"], ["1/1", "0/1"]],
    "constants": {"c": 0},
    "functions": {"f": {"arity": 1, "lambda": "1/1", "table": {"0": 1, "1": 0}}},
    "relations": {"R": {"arity": 1, "lambda": "1/1", "table": {"0": "0/1", "1": "1/1"}}},
}
_PREDICATE = {"arity": 1, "values": {"0": "0/1", "1": "1/2"}}
_FUNCTION_TABLE = {"arity_in": 1, "arity_out": 1, "lambda": "1/1", "table": {"0": [1], "1": [0]}}


# Explicit ids keep each case's name fixed when entries are added or removed.
@pytest.mark.parametrize("decode, good, path", [
    pytest.param(structure_from_dict, _STRUCTURE, ("relations", "R", "arity"), id="structure_from_dict-good0-path0"),
    pytest.param(structure_from_dict, _STRUCTURE, ("functions", "f", "arity"), id="structure_from_dict-good1-path1"),
    pytest.param(structure_from_dict, _STRUCTURE, ("functions", "f", "table", "1"), id="structure_from_dict-good2-path2"),
    pytest.param(structure_from_dict, _STRUCTURE, ("constants", "c"), id="structure_from_dict-good3-path3"),
    pytest.param(predicate_from_dict, _PREDICATE, ("arity",), id="predicate_from_dict-good6-path6"),
    pytest.param(function_table_from_dict, _FUNCTION_TABLE, ("arity_in",), id="function_table_from_dict-good7-path7"),
    pytest.param(function_table_from_dict, _FUNCTION_TABLE, ("arity_out",), id="function_table_from_dict-good8-path8"),
    pytest.param(function_table_from_dict, _FUNCTION_TABLE, ("table", "1", 0), id="function_table_from_dict-good9-path9"),
])
@pytest.mark.parametrize("bad", [1.5, 0.7, 1.0, "1", True])
def test_integer_fields_must_be_json_integers(decode, good, path, bad):
    # int() would truncate a float, parse a string and take a bool as 0/1;
    # a string where an element belongs is read as a label, and "1" is none.
    decode(good)
    data = copy.deepcopy(good)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(FormatError, match=re.escape(repr(bad))):
        decode(data)
