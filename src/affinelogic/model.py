"""Finite metric structures and exact formula evaluation.

A structure is a finite point set with a [0,1]-valued metric, plus
interpretations for the signature's constants, Lipschitz functions, and
[0,1]-valued Lipschitz relations.  Tuples are measured in the sum metric.

Formulas are evaluated by one kernel: every subformula becomes a flat
row-major table of int numerators over one positive denominator, ranging
over its own free variables, each with a domain.  eval_table gives every
variable the whole domain; eval_formula pins each assigned variable to a
one-element domain, so a point query is a one-cell table.  A formula
object is compiled once, on its first evaluation, into a plan kept on
that object; plans hold no structure and no values.  Validation compares
int numerators too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Rational
from operator import add, gt, itemgetter, sub
from typing import Iterator, Mapping, Sequence

from .errors import AffineLogicError
from .linalg import fractions_over, int_row
from .syntax import (
    METRIC,
    Const,
    Formula,
    Inf,
    One,
    Signature,
    Sup,
    SymbolInfo,
    Term,
    Var,
    summands,
)

ZERO = Fraction(0)
EMPTY_STRUCTURE = "structure must have at least one element"
# the default bound on how many tuples a construction may enumerate
DEFAULT_CAP = 4096


class StructureError(AffineLogicError, ValueError):
    """Malformed structure data (shape problems, missing table entries)."""


class EvalError(AffineLogicError, ValueError):
    """Evaluation failed: unbound or out-of-domain variable, or uninterpreted symbol."""


@dataclass
class FunctionInterp:
    arity: int
    lam: Fraction
    table: dict[tuple[int, ...], int]


@dataclass
class RelationInterp:
    arity: int
    lam: Fraction
    table: dict[tuple[int, ...], Fraction]


@dataclass
class FiniteStructure:
    """Finite metric structure.

    Immutable once constructed; int forms cached on first use.  `metric`
    and the relation tables are the Fraction view.  `int_metric` and
    `int_relations` are the exact int forms that evaluation and validation
    compare, each built on its first read and kept on the instance, so a
    table changed after that read would not be seen.  Nothing is checked at
    construction: `validate_structure` reports a malformed structure.
    """

    elements: tuple[str, ...]
    metric: tuple[tuple[Fraction, ...], ...]
    constants: dict[str, int] = field(default_factory=dict)
    functions: dict[str, FunctionInterp] = field(default_factory=dict)
    relations: dict[str, RelationInterp] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.elements)

    def distance(self, i: int, j: int) -> Fraction:
        return self.metric[i][j]

    def tuple_distance(self, a: Sequence[int], b: Sequence[int]) -> Fraction:
        """Sum metric on tuples: sum_i d(a_i, b_i)."""
        if len(a) != len(b):
            raise ValueError("tuple lengths differ")
        return sum((self.metric[x][y] for x, y in zip(a, b)), start=ZERO)

    def diameter(self) -> Fraction:
        return max((d for row in self.metric for d in row), default=ZERO)

    def signature(self) -> Signature:
        return Signature(
            frozenset(self.constants),
            {k: SymbolInfo(f.arity, f.lam) for k, f in self.functions.items()},
            {k: SymbolInfo(r.arity, r.lam) for k, r in self.relations.items()},
        )

    def element_index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise StructureError(f"no element labelled {label!r}") from None

    @cached_property
    def int_metric(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The metric as int numerator rows over its common denominator D > 0:
        d(i, j) = rows[i][j] / D.

        Comparisons of distances, and of anything else scaled to a multiple
        of D, are then comparisons of int numerators.  A structure with no
        elements, and a metric that is not m x m, are StructureErrors.
        """
        m = self.size
        if m == 0:
            raise StructureError(EMPTY_STRUCTURE)
        if len(self.metric) != m or any(len(row) != m for row in self.metric):
            raise StructureError("metric table must be m x m")
        flat, D = int_row(_exact([x for row in self.metric for x in row], f"metric {METRIC!r}"))
        return tuple(tuple(flat[i:i + m]) for i in range(0, m * m, m)), D

    @cached_property
    def int_relations(self) -> dict[str, tuple[tuple[int, ...], int]]:
        """Each relation as (nums, R): int numerators over its common
        denominator R > 0, row-major like a formula table, so the value at
        (a_1, ..., a_k) is nums[sum_i a_i * m^(k-i)] / R.
        """
        m, out = self.size, {}
        for name, rel in self.relations.items():
            values = row_major(rel.table, m, rel.arity)
            if values is None:
                missing = next((a for a in itertools.product(range(m), repeat=rel.arity)
                                if a not in rel.table), None)
                raise StructureError(
                    f"relation {name!r} table must cover all {m ** rel.arity} tuples"
                    if missing is None else f"relation {name!r} has no value at {missing}")
            nums, R = int_row(_exact(values, f"relation {name!r}"))
            out[name] = tuple(nums), R
        return out

    @cached_property
    def function_tables(self) -> dict[str, dict[tuple[int, ...], int]]:
        """Each function's table, its outputs checked once to be element
        indices (ints in range(m)); the evaluator reads functions through
        it.  An output that is not one is an EvalError naming the function.
        A missing input is reported where the evaluator reads it."""
        m = self.size
        for name, fn in self.functions.items():
            outs = fn.table.values()
            if outs and not (all(issubclass(t, int) for t in set(map(type, outs)))
                             and min(outs) >= 0 and max(outs) < m):
                bad = next(o for o in outs if not (isinstance(o, int) and 0 <= o < m))
                raise EvalError(f"function {name!r} maps to {bad!r}, outside the domain of {m} elements")
        return {name: fn.table for name, fn in self.functions.items()}

    def is_first_order(self) -> bool:
        """True when the metric and every relation take values in {0, 1}.  A
        value that is not an exact rational is a StructureError (see _exact)."""
        values = _exact(list(itertools.chain.from_iterable(self.metric)), f"metric {METRIC!r}")
        for name, rel in self.relations.items():
            values += _exact(list(rel.table.values()), f"relation {name!r}")
        return all(v.denominator == 1 and 0 <= v.numerator <= 1 for v in values)


def row_major(table: Mapping[tuple[int, ...], object], m: int, arity: int) -> list | None:
    """The values of a table keyed by the tuples of range(m)^arity, read in
    row-major (itertools.product) order, or None unless its keys are exactly
    those tuples.  m^arity keys that include every such tuple are exactly
    them, so the read is the cover check."""
    if len(table) != m ** arity:
        return None
    try:
        return list(map(table.__getitem__, itertools.product(range(m), repeat=arity)))
    except KeyError:
        return None


def _exact(values: list, what: str) -> list:
    """values, refused with a StructureError naming `what` unless each one is
    an exact rational (an int or a Fraction): a float would be read as its
    binary value.  One type test per distinct type, so C-speed per value."""
    if not all(issubclass(t, Rational) for t in set(map(type, values))):
        bad = next(v for v in values if not isinstance(v, Rational))
        raise StructureError(f"{what} has a value that is not an exact rational: {bad!r}")
    return values


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_structure: ok, or the first violation found.

    kind is "shape" for structural problems (wrong table sizes, bad indices)
    and the axiom's name otherwise.
    """

    ok: bool
    kind: str | None = None
    message: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(kind: str, message: str, witness: tuple | None = None) -> ValidationReport:
    return ValidationReport(False, kind, message, witness)


def neighbour_pairs(
    m: int, arity: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, int]]:
    """Every (a, b, x, y) with a, b in range(m)^arity differing in exactly
    one coordinate i, where a[i] = x < y = b[i]: for each coordinate i, each
    line along i (the other coordinates in product order), then each x < y.

    In the sum metric d(a, b) = d(x, y) for such a pair (the other
    coordinates contribute d(z, z) = 0), and any two tuples are joined by a
    path of neighbour steps whose distances add up to exactly d(a, b).  So a
    real-valued table is lam-Lipschitz iff it is on these k * m^(k-1) *
    m(m-1)/2 pairs, instead of all m^(2k) pairs.  This order defines the
    witness of every neighbour scan; `first_violating_pair` scans in it.
    """
    for i in range(arity):
        for rest in itertools.product(range(m), repeat=arity - 1):
            head, tail = rest[:i], rest[i:]
            line = [head + (x,) + tail for x in range(m)]
            for x in range(m):
                a = line[x]
                for y in range(x + 1, m):
                    yield a, line[y], x, y


@lru_cache(maxsize=64)
def _pair_index(m: int):
    """The x < y pairs of range(m), m >= 2, x-major: their xs, their ys and
    x * m + y, and two getters that read a line's cells at the xs and at the
    ys as tuples, each in one C call.  It holds no structure data and is
    O(m^2), the size of a metric."""
    xs: list[int] = []
    ys: list[int] = []
    for x in range(m):
        xs += [x] * (m - 1 - x)
        ys += range(x + 1, m)
    return xs, ys, [x * m + y for x, y in zip(xs, ys)], _getter(xs), _getter(ys)


def _getter(index: list[int]):
    """itemgetter(*index), but returning a tuple also for one index."""
    if len(index) == 1:
        i = index[0]
        return lambda line: (line[i],)
    return itemgetter(*index)


def _tuple_at(i: int, m: int, arity: int) -> tuple[int, ...]:
    """The tuple at row-major index i of range(m)^arity."""
    return tuple(i // m ** (arity - 1 - c) % m for c in range(arity))


def first_violating_pair(
    table: Sequence[int], m: int, arity: int, bound: Sequence[int],
    dist: Sequence[int] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first neighbour pair (a, b), in `neighbour_pairs` order, whose gap
    exceeds its bound, or None.

    table holds int cells, row-major over range(m)^arity.  For a pair with
    a[i] = x < y = b[i] the bound is bound[x * m + y] (bound is flat m x m).
    The gap is |table[a] - table[b]| for value cells, or, given a flat m x m
    dist, dist[table[a] * m + table[b]] for element cells.  Each line of each
    coordinate is one strided slice of table, compared with every x < y
    pair at C speed through map, so no bytecode runs per pair.
    """
    if m < 2:
        return None
    xs, ys, xy, at_xs, at_ys = _pair_index(m)
    limits = list(map(bound.__getitem__, xy))
    if dist is None:
        left = table

        def gaps(a, b):
            return map(abs, map(sub, a, b))
    else:
        left = list(map(m.__mul__, table))  # table[a] * m

        def gaps(a, b):
            return map(dist.__getitem__, map(add, a, b))
    for i in range(arity):
        stride = m ** (arity - 1 - i)
        span = m * stride
        for head in range(0, len(table), span):
            for start in range(head, head + stride):
                a = at_xs(left[start:start + span:stride])
                b = at_ys(table[start:start + span:stride])
                if any(map(gt, gaps(a, b), limits)):
                    k = next(itertools.compress(itertools.count(), map(gt, gaps(a, b), limits)))
                    return (_tuple_at(start + xs[k] * stride, m, arity),
                            _tuple_at(start + ys[k] * stride, m, arity))
    return None


def validate_structure(M: FiniteStructure) -> ValidationReport:
    """Check shape, metric axioms, value ranges, and declared Lipschitz bounds.

    Shape covers arities (at least 1, as in `SymbolInfo`), table sizes and
    keys, element indices (ints in range(m)) and exact values: a metric
    that is not m x m, and a metric or relation value that is not an int or
    a Fraction, are refused where the int forms are built, and reported here.

    The Lipschitz bounds are checked on neighbour pairs only (tuples that
    differ in one coordinate, see `neighbour_pairs`), which is exact: in the
    sum metric a path that changes one coordinate at a time has step
    distances adding up to d(a, b), so a table is lam-Lipschitz on all pairs
    iff it is on neighbour pairs.  For functions the chain also needs the
    triangle inequality on outputs, which is checked first.  A Lipschitz
    witness is therefore the first violating neighbour pair in
    `neighbour_pairs` order, not necessarily the first violating pair in
    lexicographic order; `first_violating_pair` finds it at C speed.

    All comparisons are on int numerators (the metric over its common
    denominator, each relation over its own), with the same witnesses as
    the Fraction comparisons they stand for.  The metric axioms are checked
    a row at a time, and the triangle inequality, once symmetry holds, over
    i < j as max_k |d(i, k) - d(j, k)| <= d(i, j); a failing row or pair is
    then searched entry by entry for the witness.
    """
    m = M.size
    if m == 0:
        return _fail("shape", EMPTY_STRUCTURE)
    for name, idx in M.constants.items():
        if not isinstance(idx, int):
            return _fail("shape", f"constant {name!r} is not an element index", (idx,))
        if not 0 <= idx < m:
            return _fail("shape", f"constant {name!r} maps outside the domain", (idx,))
    outputs = {}
    for name, fn in M.functions.items():
        if fn.arity < 1:
            return _fail("shape", f"function {name!r} has arity {fn.arity}, must be at least 1")
        outs = row_major(fn.table, m, fn.arity)
        if outs is None:
            return _fail("shape", f"function {name!r} table must cover all {m ** fn.arity} tuples")
        if fn.lam < 0:
            return _fail("shape", f"function {name!r} has negative Lipschitz constant")
        if not all(issubclass(t, int) for t in set(map(type, outs))):
            args = next(a for a, out in fn.table.items() if not isinstance(out, int))
            return _fail("shape", f"function {name!r} maps to a value that is not an element index", args)
        if min(outs) < 0 or max(outs) >= m:
            args = next(a for a, out in fn.table.items() if not 0 <= out < m)
            return _fail("shape", f"function {name!r} maps outside the domain", args)
        outputs[name] = outs
    for name, rel in M.relations.items():
        if rel.arity < 1:
            return _fail("shape", f"relation {name!r} has arity {rel.arity}, must be at least 1")
        if row_major(rel.table, m, rel.arity) is None:
            return _fail("shape", f"relation {name!r} table must cover all {m ** rel.arity} tuples")
        if rel.lam < 0:
            return _fail("shape", f"relation {name!r} has negative Lipschitz constant")
    try:
        d, D = M.int_metric
        int_relations = M.int_relations
    except StructureError as e:
        return _fail("shape", str(e))

    cols = list(zip(*d))
    for i, row in enumerate(d):
        if min(row) < 0 or max(row) > D or row != cols[i]:
            for j, dij in enumerate(row):
                if dij < 0 or dij > D:
                    return _fail("metric range", "distances must lie in [0, 1]", (i, j))
                if d[j][i] != dij:
                    return _fail("symmetry", "metric must be symmetric", (i, j))
        if row[i] != 0:
            return _fail("reflexivity", "d(a, a) must be 0", (i,))
    for i, row in enumerate(d):
        if row.count(0) > 1:  # row[i] is one zero
            j = next(j for j, dij in enumerate(row) if dij == 0 and j != i)
            return _fail("identity of indiscernibles", "distinct elements at distance 0", (i, j))
    # d is symmetric, so d(i, k) > d(i, j) + d(j, k) or the same with i and
    # j swapped iff |d(i, k) - d(j, k)| > d(i, j): one test per i < j.
    if any(max(map(abs, map(sub, d[i], d[j]))) > d[i][j]
           for i in range(m) for j in range(i + 1, m)):
        for i, di in enumerate(d):
            for j, dj in enumerate(d):
                # some k has d(i, k) - d(j, k) > d(i, j): report the first one
                if max(map(sub, di, dj)) > di[j]:
                    k = next(k for k in range(m) if di[k] > di[j] + dj[k])
                    return _fail("triangle inequality", "d(a,c) > d(a,b) + d(b,c)", (i, j, k))

    for name, rel in M.relations.items():
        nums, R = int_relations[name]
        if min(nums) < 0 or max(nums) > R:
            args = next(a for a, v in rel.table.items() if not 0 <= v <= 1)
            return _fail("relation range", f"relation {name!r} leaves [0, 1]", args)
    flat = list(itertools.chain.from_iterable(d))
    # Exact by the triangle inequality checked above: the outputs along a
    # coordinate path are at most the sum of their step distances apart.
    for name, fn in M.functions.items():
        # q * d(t(a), t(b)) > p * d(x, y), with lam = p / q
        p, q = fn.lam.numerator, fn.lam.denominator
        hit = first_violating_pair(outputs[name], m, fn.arity, list(map(p.__mul__, flat)),
                                   list(map(q.__mul__, flat)))
        if hit is not None:
            return _fail("function Lipschitz",
                         f"function {name!r} violates its declared constant", hit)
    for name, rel in M.relations.items():
        nums, R = int_relations[name]
        # |t(a) - t(b)| / R > lam * d(x, y) / D, cross-multiplied
        lhs, rhs = rel.lam.denominator * D, rel.lam.numerator * R
        hit = first_violating_pair(list(map(lhs.__mul__, nums)), m, rel.arity,
                                   list(map(rhs.__mul__, flat)))
        if hit is not None:
            return _fail("relation Lipschitz",
                         f"relation {name!r} violates its declared constant", hit)
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# evaluation


# A table is (nums, den): the value at the i-th assignment of a node's sorted
# free variables vs is nums[i] / den, den > 0, cells in row-major order over
# each variable's domain in `dom`.  A domain is range(m), or one element for a
# variable that eval_formula pins; a bound variable always ranges over
# range(m), so shadowing needs no special case.  A node's plan is (vs, run):
# run(M, dom) is its table (for a term: its element index at every cell).


def _spread(vs: tuple[str, ...], cells: list, to: tuple[str, ...], dom) -> list:
    """Cells over vs, repeated along each axis of the superset `to` that vs
    lacks; axes are inserted from the innermost out."""
    inner = 1
    for v in reversed(to):
        n = len(dom[v])
        if n > 1 and v not in vs:
            if inner == 1:
                cells = [c for c in cells for _ in range(n)]
            elif inner == len(cells):
                cells = cells * n
            else:
                cells = [c for b in range(0, len(cells), inner) for c in cells[b:b + inner] * n]
        inner *= n
    return cells


def _plan(phi: Formula):
    """phi's plan, compiled on its first evaluation and kept on phi.  It holds
    no structure and no values, so it serves every structure."""
    plan = getattr(phi, "_plan", None)
    if plan is None:
        plan = _compile(phi)
        object.__setattr__(phi, "_plan", plan)
    return plan


def _compile(phi: Formula, x: str | None = None, pick=None):
    """Plan of phi, or with x of inf/sup x. phi (pick is min or max).  The
    summands of phi become leaves with int coefficients, run left to right,
    so the leftmost leaf's error comes first.  inf/sup x reduces only the
    leaves that mention x and adds the others after, unspread along x:
    inf x. (phi + c * psi) = (inf x. phi) + c * psi, x not in psi."""
    leaves = []  # (index, c_num, c_den, vs, run)
    for c, node in summands(phi):
        leaves.append((len(leaves), c.numerator, c.denominator, *_compile_leaf(node)))
    if x is None and len(leaves) == 1 and leaves[0][1:3] == (1, 1):
        return leaves[0][3:]  # a lone leaf is its own plan
    bound = [leaf[:4] for leaf in leaves if x in leaf[3]]
    rest = [leaf[:4] for leaf in leaves if x not in leaf[3]]
    if bound:
        bvs, add_bound = _adder(bound)
        p = bvs.index(x)
        rest.insert(0, (len(leaves), 1, 1, bvs[:p] + bvs[p + 1:]))
    vs, add_rest = _adder(rest)

    def run(M, dom):
        if x is not None:
            if M.size == 0:
                raise EvalError("cannot quantify over an empty domain")
            dom = {**dom, x: range(M.size)}
        tables = [leaf[4](M, dom) for leaf in leaves]
        if bound:
            # x's axis has stride `inner`: reduce each block of m * inner
            # cells to inner cells with int min/max over strided slices.
            nums, den = add_bound(tables, dom)
            inner = math.prod(len(dom[v]) for v in bvs[p + 1:])
            block = len(dom[x]) * inner
            tables.append(([pick(nums[b + i:b + block:inner]) for b in range(0, len(nums), block)
                            for i in range(inner)], den))
        return add_rest(tables, dom)
    return vs, run


def _adder(leaves):
    """(vs, add): add(tables, dom) sums c * tables[i] over the (i, c_num,
    c_den, vs_i) leaves, over the union vs of their variables and the lcm of
    their denominators."""
    if len(leaves) == 1 and leaves[0][1:3] == (1, 1):
        i = leaves[0][0]
        return leaves[0][3], lambda tables, dom: tables[i]
    vs = tuple(sorted(set().union(*[leaf[3] for leaf in leaves])))

    def add_(tables, dom):
        den = math.lcm(*{cd * tables[i][1] for i, _, cd, _ in leaves})
        out: list[int] = []
        for i, cn, cd, lvs in leaves:
            nums, d = tables[i]
            f = cn * (den // (cd * d))
            col = nums if f == 1 else [f * x for x in nums]
            col = col if lvs == vs else _spread(lvs, col, vs, dom)
            out = list(map(add, out, col)) if out else col
        g = math.gcd(den, *out)
        return [x // g for x in out] if g > 1 else out, den // g
    return vs, add_


def _compile_leaf(node: Formula):
    """Plan of a One, Apply, Inf or Sup node."""
    if isinstance(node, One):
        return (), lambda M, dom: ([1], 1)
    if isinstance(node, (Inf, Sup)):
        return _compile(node.body, node.var, min if isinstance(node, Inf) else max)
    symbol, n = node.symbol, len(node.args)
    vs, cols = _joined(node.args)

    def run(M, dom):
        idx = cols(M, dom) or [[0]]
        rel = None if symbol == METRIC else M.relations.get(symbol)
        if rel is None and symbol != METRIC:
            raise EvalError(f"relation {symbol!r} not interpreted")
        if n != (2 if rel is None else rel.arity):
            raise EvalError(f"{symbol!r} takes {2 if rel is None else rel.arity} arguments, got {n}")
        if rel is None:
            d, D = M.int_metric
            return [d[a][b] for a, b in zip(*idx)], D
        # _joined spread every column to the same cells: fold them row-major
        (nums, R), m, flat = M.int_relations[symbol], M.size, idx[0]
        for col in idx[1:]:
            flat = [i * m + a for i, a in zip(flat, col)]
        return [nums[i] for i in flat], R
    return vs, run


def _joined(terms: Sequence[Term]):
    """Plan of the terms' index columns, spread to the union of their
    variables.  Loops, not comprehensions, so that a nested function term
    costs two frames at compile and at run time, as in the parser."""
    parts = []
    for t in terms:
        parts.append(_compile_term(t))
    vs = tuple(sorted(set().union(*[pvs for pvs, _ in parts])))

    def run(M, dom):
        cols = []
        for _, part in parts:
            cols.append(part(M, dom))
        return [col if pvs == vs else _spread(pvs, col, vs, dom)
                for (pvs, _), col in zip(parts, cols)]
    return vs, run


def _compile_term(t: Term):
    name = t.name
    if isinstance(t, Var):
        def var(M, dom):
            if name not in dom:
                raise EvalError(f"unbound variable {name!r}")
            return list(dom[name])
        return (name,), var
    if isinstance(t, Const):
        def const(M, dom):
            if name not in M.constants:
                raise EvalError(f"constant {name!r} not interpreted")
            c = M.constants[name]
            if not isinstance(c, int) or not 0 <= c < M.size:
                raise EvalError(f"constant {name!r} is {c!r}, outside the domain of {M.size} elements")
            return [c]
        return (), const
    n, (vs, cols) = len(t.args), _joined(t.args)

    def apply(M, dom):
        fn = M.functions.get(name)
        if fn is None:
            raise EvalError(f"function {name!r} not interpreted")
        if fn.arity < 1:
            raise EvalError(f"function {name!r} has arity {fn.arity}, must be at least 1")
        if n != fn.arity:
            raise EvalError(f"function {name!r} takes {fn.arity} arguments, got {n}")
        table = M.function_tables[name]
        try:
            return [table[a] for a in zip(*cols(M, dom))]
        except KeyError as e:
            raise StructureError(f"function {name!r} has no value at {e.args[0]}") from None
    return vs, apply


def eval_formula(M: FiniteStructure, phi: Formula, asg: Mapping[str, int] | None = None) -> Fraction:
    """Exact value of phi in M under the assignment (element indices).

    The plan of eval_table with each assigned variable pinned to a
    one-element domain, so the result is a single cell.  An assigned index
    outside the domain is an EvalError.
    """
    asg = asg or {}
    for v, e in asg.items():
        if not isinstance(e, int) or not 0 <= e < M.size:
            raise EvalError(f"variable {v!r} is assigned {e!r}, outside the domain of {M.size} elements")
    nums, den = _plan(phi)[1](M, {v: (e,) for v, e in asg.items()})
    return Fraction(nums[0], den)


def sorted_free_vars(phi: Formula) -> tuple[str, ...]:
    """phi's free variables, sorted: the ones its plan is tabulated over.
    Read from the plan, so a formula that is also evaluated is walked once.
    A node that is not a formula is a TypeError."""
    return _plan(phi)[0]


def int_table(
    M: FiniteStructure, phi: Formula, variables: Sequence[str]
) -> tuple[list[int], int]:
    """phi at every assignment of `variables`, in itertools.product order,
    as int numerators over one positive denominator (see eval_table)."""
    variables = tuple(variables)
    vs, run = _plan(phi)
    missing = set(vs) - set(variables)
    if missing:
        raise EvalError(f"free variables not covered: {sorted(missing)}")
    m = M.size
    nums, den = run(M, {v: range(m) for v in variables})
    if vs == variables:  # already row-major over variables: no re-index
        return nums, den
    stride = {v: m ** (len(vs) - 1 - i) for i, v in enumerate(vs)}
    idx = [0]
    for j, v in enumerate(variables):
        s = stride.get(v, 0) if variables.index(v) == j else 0
        idx = [i + k * s for i in idx for k in range(m)]
    return [nums[i] for i in idx], den


def eval_table(
    M: FiniteStructure, phi: Formula, variables: Sequence[str]
) -> dict[tuple[int, ...], Fraction]:
    """Evaluate phi at every assignment of `variables`, bottom-up: one table
    pass per subformula (see _plan), one Fraction per distinct value,
    keyed in itertools.product order.  A name repeated in `variables` reads
    its first occurrence.
    """
    variables = tuple(variables)
    nums, den = int_table(M, phi, variables)
    keys = itertools.product(range(M.size), repeat=len(variables))
    return dict(zip(keys, fractions_over(nums, den)))


# ---------------------------------------------------------------------------
# automorphisms


def automorphisms(M: FiniteStructure) -> list[tuple[int, ...]]:
    """All permutations preserving the metric and every interpretation.

    Depth-first over the images of 0, 1, ..., m-1, each taking candidates
    in increasing order, with named constants pinned to themselves.  Every
    table entry is checked once, at the step that assigns the largest
    element it mentions (the max of its arguments and, for a function, of
    its output), so each complete assignment is an automorphism.  The
    identity is always present and the result is closed under composition.
    """
    m, d = M.size, M.metric
    pinned = set(M.constants.values())
    free = [c for c in range(m) if c not in pinned]  # a pinned c is no other's image
    # due[i]: (table, args, value, is_function) for the entries whose
    # largest element is i (a nullary relation's at 0: any perm keeps it)
    due: list[list] = [[] for _ in range(m)]
    for rel in M.relations.values():
        for args, v in rel.table.items():
            due[max(args, default=0)].append((rel.table, args, v, False))
    for fn in M.functions.values():
        for args, out in fn.table.items():
            due[max(out, *args)].append((fn.table, args, out, True))
    if m == 0:
        return [()]
    # An explicit stack, so no size meets the recursion limit: stack[i]
    # iterates the candidates for i not tried yet, and perm[i] is the
    # accepted image of i, or -1.
    perm, used, results = [-1] * m, [False] * m, []
    stack = [iter((0,) if 0 in pinned else free)]
    while stack:
        i = len(stack) - 1
        if perm[i] >= 0:
            used[perm[i]] = False
            perm[i] = -1
        for c in stack[i]:
            if used[c] or d[i][i] != d[c][c] or any(d[i][j] != d[c][perm[j]] for j in range(i)):
                continue
            perm[i] = c
            if all(table[tuple(map(perm.__getitem__, args))] == (perm[v] if is_fn else v)
                   for table, args, v, is_fn in due[i]):
                break
        else:
            perm[i] = -1
            stack.pop()
            continue
        used[c] = True
        if i + 1 == m:
            results.append(tuple(perm))
        else:
            stack.append(iter((i + 1,) if i + 1 in pinned else free))
    return results
