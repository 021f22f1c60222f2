import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from affinelogic.sampling import random_formula
from affinelogic.syntax import (
    METRIC,
    RESERVED,
    Apply,
    ArityMismatchError,
    Condition,
    Const,
    FormulaError,
    Func,
    Inf,
    LipschitzCertificate,
    One,
    ParseError,
    Scale,
    Signature,
    Sum,
    Sup,
    UnknownSymbolError,
    Var,
    _cert,
    affine_combine,
    certificate,
    check_formula,
    free_vars,
    parse_condition,
    parse_condition_line,
    parse_formula,
    render,
    render_condition,
    summands,
    term_vars,
)

SIG = Signature.make(
    relations={"mu": (1, F(1)), "R": (2, F(2))},
    functions={"f": (1, F(1, 2))},
    constants=["zero", "one"],
)


def roundtrip(text):
    phi = parse_formula(text, SIG)
    again = parse_formula(render(phi), SIG)
    assert again == phi
    return phi


def test_parse_atoms():
    assert parse_formula("1", SIG) == One()
    assert parse_formula("mu(x)", SIG) == Apply("mu", (Var("x"),))
    assert parse_formula("d(x, zero)", SIG) == Apply("d", (Var("x"), Const("zero")))
    assert parse_formula("R(f(x), y)", SIG) == Apply(
        "R", (Func("f", (Var("x"),)), Var("y"))
    )


def test_one_versus_rational_scaling():
    # a bare "1" is the constant formula; "1/2 * phi" and "3 * phi" scale
    assert parse_formula("1 + 1", SIG) == Sum(One(), One())
    assert parse_formula("1/2 * 1", SIG) == Scale(F(1, 2), One())
    assert parse_formula("3 * mu(x)", SIG) == Scale(F(3), Apply("mu", (Var("x"),)))
    assert parse_formula("2 * 3 * 1", SIG) == Scale(F(2), Scale(F(3), One()))


def test_sum_is_left_associative_and_minus_scales():
    phi = parse_formula("mu(x) + mu(y) + 1", SIG)
    assert phi == Sum(Sum(Apply("mu", (Var("x"),)), Apply("mu", (Var("y"),))), One())
    m = parse_formula("1 - mu(x)", SIG)
    assert m == Sum(One(), Scale(F(-1), Apply("mu", (Var("x"),))))


def test_quantifier_body_extends_right():
    phi = parse_formula("inf y. d(x,y) + mu(y)", SIG)
    assert isinstance(phi, Inf)
    assert isinstance(phi.body, Sum)
    # scaling binds tighter than the binder when written in front
    psi = parse_formula("2 * sup y. mu(y)", SIG)
    assert psi == Scale(F(2), Sup("y", Apply("mu", (Var("y"),))))


def test_free_vars_and_shadowing():
    phi = parse_formula("mu(x) + inf x. d(x, zero)", SIG)
    assert free_vars(phi) == {"x"}
    closed = parse_formula("sup x. inf y. R(x, y)", SIG)
    assert free_vars(closed) == set()


@pytest.mark.parametrize(
    "text",
    [
        "sup x. mu(x)",
        "1/2 * mu(x) + 1/2 * mu(y)",
        "inf y. d(x,y) + 2 * R(y, f(y))",
        "1 - 1/3 * sup z. d(z, one)",
        "-2 * mu(x) + 1",
        "inf x. (mu(x) + 1) + mu(x)",
    ],
)
def test_render_parse_roundtrip(text):
    roundtrip(text)


def test_parse_errors():
    with pytest.raises(UnknownSymbolError):
        parse_formula("nu(x)", SIG)
    with pytest.raises(ArityMismatchError):
        parse_formula("mu(x, y)", SIG)
    with pytest.raises(ArityMismatchError):
        parse_formula("d(x)", SIG)
    with pytest.raises(ParseError):
        parse_formula("mu(x) +", SIG)
    with pytest.raises(ParseError):
        parse_formula("mu(x) mu(y)", SIG)
    with pytest.raises(ParseError):
        parse_formula("", SIG)


def test_variable_cannot_collide_with_symbols():
    with pytest.raises(ParseError):
        parse_formula("d(mu, zero)", SIG)
    with pytest.raises(ParseError):
        parse_formula("inf mu. 1", SIG)


def test_check_formula_rejects_foreign_symbols():
    other = Signature.make(relations={"S": (1, F(1))})
    phi = parse_formula("S(x)", other)
    with pytest.raises(UnknownSymbolError):
        check_formula(phi, SIG)


def test_check_formula_rejects_a_variable_named_like_a_symbol():
    # d(mu, zero) does not parse, so its AST must not pass the check either
    phi = Apply("d", (Var("mu"), Const("zero")))
    with pytest.raises(UnknownSymbolError, match="variable 'mu' collides"):
        check_formula(phi, SIG)
    with pytest.raises(UnknownSymbolError):
        certificate(phi, SIG)


@pytest.mark.parametrize("text, error, message", [
    ("mu(f)", UnknownSymbolError, "variable 'f' collides with a declared symbol"),
    ("mu(d)", UnknownSymbolError, "variable 'd' collides with a declared symbol"),
    ("mu(mu(x))", UnknownSymbolError, "unknown function symbol 'mu'"),
    ("mu(mu)", UnknownSymbolError, "variable 'mu' collides with a declared symbol"),
    ("inf mu. 1", UnknownSymbolError, "quantified variable 'mu' collides with a declared symbol"),
    ("R(f(x, y), y)", ArityMismatchError, "function 'f' expects 1 arguments, got 2"),
    ("nu(x)", UnknownSymbolError, "unknown relation symbol 'nu'"),
])
def test_symbol_errors_come_from_check_formula_without_position(text, error, message):
    with pytest.raises(error) as info:
        parse_formula(text, SIG)
    assert str(info.value) == message
    assert info.value.position is None


@pytest.mark.parametrize("text, message", [
    ("mu(inf)", "keyword 'inf' cannot appear in a term (at position 3)"),
    ("mu(x", "expected ')', found 'end of input' (at position 4)"),
    ("mu", "'mu' is not a formula by itself; relation symbols take an argument list"
           " (at position 0)"),
])
def test_syntax_errors_keep_their_position(text, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text, SIG)
    assert type(info.value) is ParseError
    assert str(info.value) == message


# Every name a formula can use with SIG, and the names SIG reserves.
_NAMES = ("x", "y", "z", "mu", "R", "f", "zero", "one", "d", "inf", "sup")
_ANY_TERMS = st.recursive(
    st.sampled_from(_NAMES).map(Var) | st.sampled_from(_NAMES).map(Const),
    lambda t: st.builds(Func, st.sampled_from(_NAMES), st.lists(t, max_size=3).map(tuple)),
    max_leaves=4,
)
_ANY_FORMULAS = st.recursive(
    st.just(One())
    | st.builds(Apply, st.sampled_from(_NAMES), st.lists(_ANY_TERMS, max_size=3).map(tuple)),
    lambda f: st.builds(Scale, st.sampled_from([F(-1), F(-2, 3), F(0), F(1), F(3)]), f)
    | st.builds(Sum, f, f)
    | st.builds(Inf, st.sampled_from(_NAMES), f)
    | st.builds(Sup, st.sampled_from(_NAMES), f),
    max_leaves=6,
)


@settings(max_examples=500, deadline=None)
@given(_ANY_FORMULAS)
@example(Apply("d", (Var("mu"), Const("zero"))))
@example(Apply("R", (Var("zero"), Const("zero"))))
@example(Apply("mu", (Var("f"),)))
@example(Inf("x", Apply("mu", (Func("f", (Var("R"),)),))))
def test_check_formula_accepts_exactly_what_round_trips(phi):
    # One rule book: an AST passes check_formula exactly when its rendering
    # parses back to it, since the parser reads syntax and then runs the check.
    try:
        check_formula(phi, SIG)
        accepted = True
    except FormulaError:
        accepted = False
    try:
        round_trips = parse_formula(render(phi), SIG) == phi
    except FormulaError:
        round_trips = False
    assert accepted == round_trips


def test_signature_rejects_reserved_names():
    with pytest.raises(ValueError):
        Signature.make(relations={"d": (2, F(1))})
    with pytest.raises(ValueError):
        Signature.make(constants=["inf"])
    with pytest.raises(ValueError):
        Signature.make(relations={"mu": (1, F(1))}, constants=["mu"])


# ---------------------------------------------------------------------------
# Lipschitz certificates


def test_certificate_base_cases():
    cert = certificate(parse_formula("1", SIG), SIG)
    assert (cert.lam, cert.bound) == (0, 1)
    cert = certificate(parse_formula("d(x,y)", SIG), SIG)
    assert (cert.lam, cert.bound) == (1, 1)
    cert = certificate(parse_formula("mu(x)", SIG), SIG)
    assert (cert.lam, cert.bound) == (1, 1)


def test_certificate_scaling_sum_and_binders():
    phi = certificate(parse_formula("2 * mu(x) + mu(y)", SIG), SIG)
    assert (phi.lam, phi.bound) == (F(3), F(3))
    neg = certificate(parse_formula("-1/2 * mu(x)", SIG), SIG)
    assert (neg.lam, neg.bound) == (F(1, 2), F(1, 2))
    bound = certificate(parse_formula("sup y. 2 * mu(x) + mu(y)", SIG), SIG)
    assert (bound.lam, bound.bound) == (F(3), F(3))


def test_certificate_repeated_variable_slopes_add():
    # both arguments of d are the same variable: slopes accumulate per variable
    phi = parse_formula("d(x, f(x))", SIG)
    assert certificate(phi, SIG).lam == F(3, 2)  # 1 * (1 + 1/2)
    psi = parse_formula("R(x, x)", SIG)
    assert certificate(psi, SIG).lam == F(4)  # 2 * (1 + 1)


def test_certificate_function_composition():
    phi = parse_formula("mu(f(f(x)))", SIG)
    assert certificate(phi, SIG).lam == F(1, 4)


@given(st.integers(min_value=0, max_value=10_000))
def test_random_formula_certificates_are_nonnegative(seed):
    rng = random.Random(seed)
    phi = random_formula(rng, SIG, ("x", "y"), depth=3, quantifiers=2)
    cert = certificate(phi, SIG)
    assert cert.lam >= 0
    assert cert.bound >= 0
    again = parse_formula(render(phi), SIG)
    assert again == phi


# ---------------------------------------------------------------------------
# one walk of the affine spine
#
# free_vars, check_formula and _cert read the Sum/Scale spine through
# summands.  The three functions below are their previous versions, each
# with a stack loop of its own, kept verbatim (renamed) as references.


def _ref_free_vars(phi):
    out = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            stack += (node.left, node.right)
        elif isinstance(node, Scale):
            stack.append(node.body)
        elif isinstance(node, Apply):
            for t in node.args:
                out |= term_vars(t)
        elif isinstance(node, (Inf, Sup)):
            out |= _ref_free_vars(node.body) - {node.var}
        elif not isinstance(node, One):
            raise TypeError(f"not a formula: {node!r}")
    return frozenset(out)


def _ref_check_formula(phi, sig):
    taken = RESERVED | sig.constants | sig.functions.keys() | sig.relations.keys()

    def check_term(t):
        if isinstance(t, Var):
            if t.name in taken:
                raise UnknownSymbolError(f"variable {t.name!r} collides with a declared symbol")
            return
        if isinstance(t, Const):
            if t.name not in sig.constants:
                raise UnknownSymbolError(f"unknown constant symbol {t.name!r}")
            return
        info = sig.functions.get(t.name)
        if info is None:
            raise UnknownSymbolError(f"unknown function symbol {t.name!r}")
        if len(t.args) != info.arity:
            raise ArityMismatchError(
                f"function {t.name!r} expects {info.arity} arguments, got {len(t.args)}"
            )
        for a in t.args:
            check_term(a)

    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            stack += (node.right, node.left)
        elif isinstance(node, Scale):
            stack.append(node.body)
        elif isinstance(node, Apply):
            if node.symbol == METRIC:
                if len(node.args) != 2:
                    raise ArityMismatchError("the metric 'd' takes exactly 2 arguments")
            else:
                info = sig.relations.get(node.symbol)
                if info is None:
                    raise UnknownSymbolError(f"unknown relation symbol {node.symbol!r}")
                if len(node.args) != info.arity:
                    raise ArityMismatchError(
                        f"relation {node.symbol!r} expects {info.arity} arguments,"
                        f" got {len(node.args)}"
                    )
            for t in node.args:
                check_term(t)
        elif isinstance(node, (Inf, Sup)):
            if node.var in taken:
                raise UnknownSymbolError(
                    f"quantified variable {node.var!r} collides with a declared symbol"
                )
            stack.append(node.body)
        elif not isinstance(node, One):
            raise TypeError(f"not a formula: {node!r}")


def _ref_term_slopes(t, sig):
    if isinstance(t, Var):
        return {t.name: F(1)}
    if isinstance(t, Const):
        return {}
    lam_f = sig.functions[t.name].lam
    merged = {}
    for arg in t.args:
        for v, s in _ref_term_slopes(arg, sig).items():
            merged[v] = merged.get(v, F(0)) + s
    return {v: lam_f * s for v, s in merged.items()}


def _ref_cert(phi, sig):
    lam, bound = F(0), F(0)
    stack = [(phi, F(1))]
    while stack:
        node, r = stack.pop()
        if isinstance(node, Sum):
            stack += ((node.left, r), (node.right, r))
        elif isinstance(node, Scale):
            stack.append((node.body, r * abs(node.coeff)))
        elif isinstance(node, (Inf, Sup)):
            stack.append((node.body, r))
        elif isinstance(node, One):
            bound += r
        elif isinstance(node, Apply):
            lam_r = F(1) if node.symbol == METRIC else sig.relations[node.symbol].lam
            per_var = {}
            for t in node.args:
                for v, s in _ref_term_slopes(t, sig).items():
                    per_var[v] = per_var.get(v, F(0)) + s
            lam += r * lam_r * max(per_var.values(), default=F(0))
            bound += r
        else:
            raise TypeError(f"not a formula: {node!r}")
    return lam, bound


def _walk_outcome(fn, *args):
    """The value, or the type and message of the error, of one call."""
    try:
        return fn(*args)
    except (FormulaError, TypeError) as exc:
        return type(exc), str(exc)


def _foreign_nodes(phi) -> int:
    """How many nodes in formula position are not formula nodes."""
    if isinstance(phi, Sum):
        return _foreign_nodes(phi.left) + _foreign_nodes(phi.right)
    if isinstance(phi, (Scale, Inf, Sup)):
        return _foreign_nodes(phi.body)
    return 0 if isinstance(phi, (One, Apply)) else 1


# Not formulas, each with a fixed repr: a term, a string and None.
_FOREIGN = (Var("x"), Const("zero"), "mu(x)", None)
_WALKED_FORMULAS = st.recursive(
    st.just(One())
    | st.builds(Apply, st.sampled_from(_NAMES), st.lists(_ANY_TERMS, max_size=3).map(tuple))
    | st.sampled_from(_FOREIGN),
    lambda f: st.builds(Scale, st.sampled_from([F(-1), F(-2, 3), F(0), F(1), F(3)]), f)
    | st.builds(Sum, f, f)
    | st.builds(Inf, st.sampled_from(_NAMES), f)
    | st.builds(Sup, st.sampled_from(_NAMES), f),
    max_leaves=8,
)
_RANDOM_FORMULAS = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: random_formula(random.Random(seed), SIG, ("x", "y"), depth=4, quantifiers=2)
)

_MU_X = Apply("mu", (Var("x"),))


@settings(max_examples=800, deadline=None)
@given(_WALKED_FORMULAS | _RANDOM_FORMULAS)
# an error in a quantifier body comes before one in a right-hand sibling
@example(Sum(Inf("x", Apply("nu", (Var("x"),))), Apply("mu", (Var("f"),))))
@example(Sum(Sup("y", Sum(One(), Var("y"))), Apply("R", (Var("x"),))))
@example(Sum(Inf("x", Scale(F(2), Apply("d", (Var("x"),)))), Sup("mu", _MU_X)))
@example(Sum(Scale(F(3), Inf("z", Apply("mu", (Const("two"),)))), None))
# ... and after one in a left-hand sibling, or in the quantifier's variable
@example(Sum(Apply("mu", (Var("zero"),)), Inf("x", "mu(x)")))
@example(Sum(Inf("inf", Apply("nu", ())), Apply("R", ())))
# two foreign nodes: free_vars and _cert may name either one
@example(Sum(Var("x"), Inf("y", Const("zero"))))
@example(Sum(Sum(_MU_X, None), Scale(F(1, 2), "mu(x)")))
def test_spine_walkers_match_their_references(phi):
    assert _walk_outcome(check_formula, phi, SIG) == _walk_outcome(_ref_check_formula, phi, SIG)
    fv, ref_fv = _walk_outcome(free_vars, phi), _walk_outcome(_ref_free_vars, phi)
    if _foreign_nodes(phi) > 1:
        # the references walk right to left; both refuse some foreign node
        assert fv[0] is ref_fv[0] is TypeError
    else:
        assert fv == ref_fv
    checked = _walk_outcome(_ref_check_formula, phi, SIG)
    if checked is None:
        assert _cert(phi, SIG) == _ref_cert(phi, SIG)
        assert certificate(phi, SIG) == LipschitzCertificate(*_ref_cert(phi, SIG))
    else:
        assert _walk_outcome(certificate, phi, SIG) == checked


def test_summands_are_the_leaves_with_their_coefficients():
    phi = parse_formula("1/2 * (mu(x) - 3 * (1 + inf y. d(x, y))) + 2 * -1 * R(x, y)", SIG)
    leaves = list(summands(phi))
    assert leaves == [
        (F(1, 2), _MU_X),
        (F(-3, 2), One()),
        (F(-3, 2), Inf("y", Apply("d", (Var("x"), Var("y"))))),
        (F(-2), Apply("R", (Var("x"), Var("y")))),
    ]
    # a quantifier is a leaf: its body's spine is not entered
    assert list(summands(phi.left.body.right)) == [(F(-3), One()), (F(-3), leaves[2][1])]
    assert list(summands(One())) == [(1, One())]
    walk = summands(Sum(_MU_X, Scale(F(2), Var("y"))))
    assert next(walk) == (1, _MU_X)  # the foreign node is refused when reached
    with pytest.raises(TypeError, match=r"not a formula: Var\(name='y'\)"):
        next(walk)


def test_a_long_sum_is_checked_and_certified_without_recursion():
    phi = parse_formula(" + ".join(["mu(x)", "-1/2 * R(x, f(y))", "(sup z. d(z, one))"] * 5000), SIG)
    assert len(list(summands(phi))) == 15000
    cert = certificate(phi, SIG)
    assert (cert.lam, cert.bound) == (5000 * F(3), 5000 * F(5, 2))


# ---------------------------------------------------------------------------
# conditions


def test_parse_condition_and_render():
    cond = parse_condition("mu(x) <= 1/2 * 1", SIG)
    assert cond.lhs == Apply("mu", (Var("x"),))
    assert cond.rhs == Scale(F(1, 2), One())
    assert render_condition(cond) == "mu(x) <= 1/2 * 1"
    assert cond.free_vars() == {"x"}
    assert not cond.is_closed()


def test_condition_line_equality_sugar():
    conds = parse_condition_line("mu(x) = 1/2 * 1", SIG)
    assert len(conds) == 2
    texts = {render_condition(c) for c in conds}
    assert texts == {"mu(x) <= 1/2 * 1", "1/2 * 1 <= mu(x)"}


def test_affine_combine():
    c1 = parse_condition("mu(x) <= 1", SIG)
    c2 = parse_condition("d(x, zero) <= mu(x)", SIG)
    combo = affine_combine([c1, c2], [F(2), F(1)])
    assert render_condition(combo) == "2 * mu(x) + d(x, zero) <= 2 * 1 + mu(x)"
    # zero coefficients drop out entirely
    only_first = affine_combine([c1, c2], [F(1), F(0)])
    assert render_condition(only_first) == render_condition(c1)


def test_affine_combine_rejects_bad_weights():
    c1 = parse_condition("mu(x) <= 1", SIG)
    with pytest.raises(ValueError):
        affine_combine([c1], [F(-1)])
    with pytest.raises(ValueError):
        affine_combine([c1], [F(0)])
    with pytest.raises(ValueError):
        affine_combine([c1], [F(1), F(1)])
