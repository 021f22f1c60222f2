"""Affine formula language.

Formulas are built from the constant 1, relation applications R(t1, ..., tn),
the built-in metric d(t1, t2), rational rescaling r * phi, binary sums, and
inf/sup quantifiers.  There is no min/max connective; that absence is what
makes every formula an affine functional of the model's relation tables.

The module owns the term/formula AST, the concrete grammar (parser and
renderer), Lipschitz certificates, and affine combinations of conditions.
Every formula is a sum of c * leaf (One, Apply, Inf or Sup); free_vars,
check_formula, the certificates and model's compiler walk that Sum/Scale
spine only through summands.  The parser reads syntax only; check_formula
holds every signature rule (declared symbols, arities, variable names),
and parse_formula ends by calling it.  Only syntax errors carry a position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import AffineLogicError

METRIC = "d"
QUANTIFIER_KEYWORDS = ("inf", "sup")
RESERVED = frozenset(QUANTIFIER_KEYWORDS) | {METRIC}
ZERO = Fraction(0)
ONE = Fraction(1)


class FormulaError(AffineLogicError, ValueError):
    """Base class for everything that can go wrong with formula input."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownSymbolError(ParseError):
    pass


class ArityMismatchError(ParseError):
    pass


# ---------------------------------------------------------------------------
# terms and formulas


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    """A constant symbol of the signature (not a number)."""

    name: str


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple["Term", ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


Term = Union[Var, Const, Func]


class _Node:
    """Base of the formula nodes.  The evaluator keeps a node's compiled plan
    in its __dict__ (model._plan); pickling and copying leave it out, so a
    copy compiles its own."""

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_plan"}


@dataclass(frozen=True)
class One(_Node):
    """The constant formula with value 1."""


@dataclass(frozen=True)
class Apply(_Node):
    """Application of a relation symbol (or the metric 'd') to terms."""

    symbol: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Scale(_Node):
    coeff: Fraction
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))


@dataclass(frozen=True)
class Sum(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Inf(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Sup(_Node):
    var: str
    body: "Formula"


Formula = Union[One, Apply, Scale, Sum, Inf, Sup]


def term_vars(term: Term) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, Const):
        return frozenset()
    out: frozenset[str] = frozenset()
    for arg in term.args:
        out |= term_vars(arg)
    return out


def summands(phi: Formula) -> Iterator[tuple[Fraction, Formula]]:
    """The leaves of phi's Sum/Scale spine, left to right, each a One,
    Apply, Inf or Sup node with the product c of the coefficients above it
    (phi is the sum of c * leaf).  Right children wait on a stack, so a long
    sum costs no recursion depth.  A node that is not a formula is a TypeError."""
    stack = [(ONE, phi)]
    while stack:
        c, node = stack.pop()
        while True:
            if isinstance(node, Sum):
                stack.append((c, node.right))
                node = node.left
            elif isinstance(node, Scale):
                c, node = (node.coeff if c is ONE else c * node.coeff), node.body
            else:
                break
        if not isinstance(node, (Apply, One, Inf, Sup)):
            raise TypeError(f"not a formula: {node!r}")
        yield c, node


def free_vars(phi: Formula) -> frozenset[str]:
    """Free variables of a formula (quantifiers bind their variable)."""
    out: set[str] = set()
    for _, node in summands(phi):
        if isinstance(node, Apply):
            for t in node.args:
                out |= term_vars(t)
        elif not isinstance(node, One):
            out |= free_vars(node.body) - {node.var}
    return frozenset(out)


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class SymbolInfo:
    arity: int
    lam: Fraction  # declared Lipschitz constant

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.arity < 1:
            raise FormulaError("symbol arity must be at least 1")
        if self.lam < 0:
            raise FormulaError("Lipschitz constants must be nonnegative")


@dataclass
class Signature:
    """Constant, function and relation symbols with declared Lipschitz data.

    The metric symbol 'd' (binary, 1-Lipschitz in each argument) is built in
    and must not be redeclared.  Treated as immutable once constructed.
    """

    constants: frozenset[str]
    functions: dict[str, SymbolInfo]
    relations: dict[str, SymbolInfo]

    def __post_init__(self):
        self.constants = frozenset(self.constants)
        names = list(self.constants) + list(self.functions) + list(self.relations)
        for name in names:
            if name in RESERVED:
                raise FormulaError(f"symbol name {name!r} is reserved")
        if len(set(names)) != len(names):
            raise FormulaError("symbol names must be unique across kinds")

    @staticmethod
    def make(
        constants: Iterable[str] = (),
        functions: Mapping[str, tuple[int, object]] | None = None,
        relations: Mapping[str, tuple[int, object]] | None = None,
    ) -> "Signature":
        fns = {k: SymbolInfo(a, Fraction(l)) for k, (a, l) in (functions or {}).items()}
        rels = {k: SymbolInfo(a, Fraction(l)) for k, (a, l) in (relations or {}).items()}
        return Signature(frozenset(constants), fns, rels)


def check_formula(phi: Formula, sig: Signature) -> None:
    """Raise if phi breaks a rule of sig, the only place that knows them:
    every symbol is declared and gets as many arguments as its arity (d
    takes 2), and no variable is named like a reserved word or a declared
    symbol.  The errors carry no position.

    Nodes are visited in order, left before right (see summands), and a
    quantifier's body before the nodes to its right."""
    taken = RESERVED | sig.constants | sig.functions.keys() | sig.relations.keys()

    def check_term(t: Term) -> None:
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

    def check(phi: Formula) -> None:
        for _, node in summands(phi):
            if isinstance(node, Apply):
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
            elif not isinstance(node, One):
                if node.var in taken:
                    raise UnknownSymbolError(
                        f"quantified variable {node.var!r} collides with a declared symbol"
                    )
                check(node.body)

    check(phi)


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    single = {
        "+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
        "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT",
    }
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        if "0" <= ch <= "9":  # ASCII only: int() refuses '²' and reads '١' as 1
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        kind = single.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append(_Token(kind, ch, i))
        i += 1
    tokens.append(_Token("END", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser
#
# formula := sum
# sum     := scaled (("+" | "-") scaled)*        -- "a - b" sugars to a + (-1)*b
# scaled  := rational "*" scaled | atom          -- scaling binds tighter than +
# atom    := "1" | ident args                      -- a relation, or the metric d
#          | ("inf" | "sup") ident "." formula   -- body extends maximally right
#          | "(" formula ")"
# args    := "(" term ("," term)* ")"
# term    := ident args | ident                  -- a function; a constant or variable
# rational := ["-"] int ["/" int]


class _Parser:
    """Reads syntax only.  The one thing it takes from the signature is the
    set of constant names, which tells a Const from a Var."""

    def __init__(self, tokens: list[_Token], constants: frozenset[str]):
        self.tokens = tokens
        self.constants = constants
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "END":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def formula(self) -> Formula:
        node = self.scaled()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.scaled()
            if op.kind == "MINUS":
                rhs = Scale(Fraction(-1), rhs)
            node = Sum(node, rhs)
        return node

    def scaled(self) -> Formula:
        tok = self.peek()
        if tok.kind == "MINUS" or tok.kind == "INT":
            # A lone "1" is the constant formula; any other numeric prefix
            # must be a scalar coefficient followed by "*".
            if tok.kind == "INT" and tok.text == "1" \
                    and self.peek(1).kind not in ("SLASH", "STAR"):
                self.advance()
                return One()
            coeff = self.rational()
            self.expect("STAR", "'*' after scalar coefficient")
            return Scale(coeff, self.scaled())
        return self.atom()

    def rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1
        num = int(self.expect("INT", "an integer").text)
        den = 1
        if self.peek().kind == "SLASH":
            self.advance()
            den_tok = self.expect("INT", "a denominator")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("malformed rational: zero denominator", den_tok.pos)
        return Fraction(sign * num, den)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            node = self.formula()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "IDENT":
            if tok.text in QUANTIFIER_KEYWORDS:
                self.advance()
                var = self.expect("IDENT", "a variable name").text
                self.expect("DOT", "'.' after quantified variable")
                body = self.formula()
                return Inf(var, body) if tok.text == "inf" else Sup(var, body)
            self.advance()
            if self.peek().kind != "LPAREN":
                raise ParseError(
                    f"{tok.text!r} is not a formula by itself; relation symbols take"
                    " an argument list", tok.pos,
                )
            return Apply(tok.text, self.arguments())
        raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos)

    def arguments(self) -> tuple[Term, ...]:
        self.expect("LPAREN", "'('")
        args = [self.term()]
        while self.peek().kind == "COMMA":
            self.advance()
            args.append(self.term())
        self.expect("RPAREN", "')'")
        return tuple(args)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)
        if tok.text in QUANTIFIER_KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} cannot appear in a term", tok.pos)
        self.advance()
        if self.peek().kind == "LPAREN":
            return Func(tok.text, self.arguments())
        return Const(tok.text) if tok.text in self.constants else Var(tok.text)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse concrete syntax into a Formula, then check it against sig.

    The parser reads syntax only, and its errors carry their position in
    text; check_formula then applies every signature rule, and its errors
    carry none.  The parser recurses once per level of nesting
    (parentheses, quantifiers, scalings); nesting deeper than the
    interpreter's recursion limit is a ParseError.  Sums are read with a
    loop, so a long sum nests nothing."""
    parser = _Parser(_tokenize(text), sig.constants)
    try:
        node = parser.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    end = parser.peek()
    if end.kind != "END":
        raise ParseError(f"unexpected trailing input {end.text!r}", end.pos)
    check_formula(node, sig)
    return node


# ---------------------------------------------------------------------------
# renderer
#
# render/parse round-trip exactly: quantifiers are parenthesized whenever they
# occur under a scale or inside a sum, because an unparenthesized quantifier
# body would swallow everything to its right on re-parse.


def _coeff_str(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def render_term(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.name}({', '.join(render_term(a) for a in t.args)})"


def _scaled_str(phi: Formula) -> str:
    if isinstance(phi, One):
        return "1"
    if isinstance(phi, Apply):
        return f"{phi.symbol}({', '.join(render_term(a) for a in phi.args)})"
    if isinstance(phi, Scale):
        body = phi.body
        if isinstance(body, (Sum, Inf, Sup)):
            return f"{_coeff_str(phi.coeff)} * ({render(body)})"
        return f"{_coeff_str(phi.coeff)} * {_scaled_str(body)}"
    return f"({render(phi)})"


def render(phi: Formula) -> str:
    """Concrete syntax for phi; parse_formula(render(phi)) == phi.

    The left spine of a Sum chain is walked with a loop, so a long sum
    costs no recursion depth."""
    if isinstance(phi, (Inf, Sup)):
        kw = "inf" if isinstance(phi, Inf) else "sup"
        return f"{kw} {phi.var}. {render(phi.body)}"
    parts = []
    while isinstance(phi, Sum):
        right = phi.right
        if isinstance(right, Scale) and right.coeff == -1:
            parts.append(f" - {_scaled_str(right.body)}")
        else:
            parts.append(f" + {_scaled_str(right)}")
        phi = phi.left
    parts.append(_scaled_str(phi))
    return "".join(reversed(parts))


# ---------------------------------------------------------------------------
# Lipschitz certificates
#
# certificate(phi) returns (lam, bound) with the guarantees
#   |phi(a) - phi(b)| <= lam * sum_v d(a_v, b_v)   over the free variables,
#   |phi(a)| <= bound.
# Inside an atom, per-variable slopes of the argument terms are summed and the
# atom's lam is the relation's constant times the worst single variable; the
# formula combinators then use |r|*lam, lam+lam, and inf/sup keep the body's
# lam.  The values are sound but not claimed tight.


@dataclass(frozen=True)
class LipschitzCertificate:
    lam: Fraction
    bound: Fraction


def _slopes(terms: Iterable[Term], sig: Signature) -> dict[str, Fraction]:
    """Per-variable slopes of the terms, summed over the terms."""
    merged: dict[str, Fraction] = {}
    for t in terms:
        for v, s in _term_slopes(t, sig).items():
            merged[v] = merged.get(v, ZERO) + s
    return merged


def _term_slopes(t: Term, sig: Signature) -> dict[str, Fraction]:
    if isinstance(t, Var):
        return {t.name: ONE}
    if isinstance(t, Const):
        return {}
    lam_f = sig.functions[t.name].lam
    return {v: lam_f * s for v, s in _slopes(t.args, sig).items()}


def _cert(phi: Formula, sig: Signature) -> tuple[Fraction, Fraction]:
    """(lam, bound) of phi: each summand's pair times |c|, summed over the
    summands; an atom's pair is (relation constant * worst slope, 1), and a
    quantifier's is its body's."""
    lam, bound = ZERO, ZERO
    for c, node in summands(phi):
        r = abs(c)
        if isinstance(node, Apply):
            lam_r = ONE if node.symbol == METRIC else sig.relations[node.symbol].lam
            lam += r * lam_r * max(_slopes(node.args, sig).values(), default=ZERO)
            bound += r
        elif isinstance(node, One):
            bound += r
        else:
            body_lam, body_bound = _cert(node.body, sig)
            lam, bound = lam + r * body_lam, bound + r * body_bound
    return lam, bound


def certificate(phi: Formula, sig: Signature) -> LipschitzCertificate:
    """Sound Lipschitz constant and uniform bound for phi over sig."""
    check_formula(phi, sig)
    lam, bound = _cert(phi, sig)
    return LipschitzCertificate(lam, bound)


# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class Condition:
    """An inequality 'lhs <= rhs' between two formulas."""

    lhs: Formula
    rhs: Formula

    def free_vars(self) -> frozenset[str]:
        return free_vars(self.lhs) | free_vars(self.rhs)

    def is_closed(self) -> bool:
        return not self.free_vars()

    @cached_property
    def gap(self) -> Formula:
        """rhs - lhs as one formula, built on first use and kept, so its plan
        is compiled once; the condition holds where the gap is >= 0."""
        return Sum(Scale(-1, self.lhs), self.rhs)


def render_condition(cond: Condition) -> str:
    return f"{render(cond.lhs)} <= {render(cond.rhs)}"


def parse_condition(text: str, sig: Signature) -> Condition:
    """Parse 'lhs <= rhs'; see parse_condition_line for the '=' sugar."""
    if "<=" not in text:
        raise ParseError("a condition needs '<=' between two formulas")
    lhs_text, rhs_text = text.split("<=", 1)
    return Condition(parse_formula(lhs_text, sig), parse_formula(rhs_text, sig))


def parse_condition_line(text: str, sig: Signature) -> list[Condition]:
    """Parse one condition, expanding 'lhs = rhs' into the two inequalities."""
    if "<=" in text:
        return [parse_condition(text, sig)]
    if "=" in text:
        lhs_text, rhs_text = text.split("=", 1)
        lhs = parse_formula(lhs_text, sig)
        rhs = parse_formula(rhs_text, sig)
        return [Condition(lhs, rhs), Condition(rhs, lhs)]
    raise ParseError("a condition needs '<=' (or '=') between two formulas")


def _scale_by(r: Fraction, phi: Formula) -> Formula:
    return phi if r == 1 else Scale(r, phi)


def affine_combine(conditions: Sequence[Condition], coeffs: Sequence[Fraction]) -> Condition:
    """Nonnegative combination sum r_i * (lhs_i <= rhs_i) of conditions.

    Requires at least one strictly positive coefficient.  The result is a
    consequence of the inputs: any assignment satisfying every input
    satisfies the combination.
    """
    if len(conditions) != len(coeffs):
        raise FormulaError("coefficient count must match condition count")
    if not conditions:
        raise FormulaError("need at least one condition")
    rs = [Fraction(r) for r in coeffs]
    if any(r < 0 for r in rs):
        raise FormulaError("combination coefficients must be nonnegative")
    if all(r == 0 for r in rs):
        raise FormulaError("at least one combination coefficient must be positive")
    lhs: Formula | None = None
    rhs: Formula | None = None
    for cond, r in zip(conditions, rs):
        if r == 0:
            continue
        lterm = _scale_by(r, cond.lhs)
        rterm = _scale_by(r, cond.rhs)
        lhs = lterm if lhs is None else Sum(lhs, lterm)
        rhs = rterm if rhs is None else Sum(rhs, rterm)
    if lhs is None or rhs is None:
        raise FormulaError("at least one combination coefficient must be positive")
    return Condition(lhs, rhs)
