"""Finite metric structures and exact formula evaluation.

A structure is a finite point set with a [0,1]-valued metric, plus
interpretations for the signature's constants, Lipschitz functions, and
[0,1]-valued Lipschitz relations.  Tuples are measured in the sum metric.

Formulas are evaluated by one kernel: every subformula becomes a flat
row-major table of int numerators over one positive denominator, ranging
over its own free variables, each with a domain.  eval_table gives every
variable the whole domain; eval_formula pins each assigned variable to a
one-element domain, so a point query is a one-cell table.  Validation
compares int numerators too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, sub
from typing import Iterator, Mapping, Sequence

from .errors import AffineLogicError
from .linalg import fractions_over, int_row
from .syntax import (
    METRIC,
    Apply,
    Const,
    Formula,
    Inf,
    One,
    Scale,
    Signature,
    Sum,
    Sup,
    SymbolInfo,
    Term,
    Var,
    free_vars,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class StructureError(AffineLogicError, ValueError):
    """Malformed structure data (shape problems, missing table entries)."""


class EvalError(AffineLogicError, ValueError):
    """Evaluation failed: unbound variable or uninterpreted symbol."""


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
        of D, are then comparisons of int numerators.  The metric must be
        m x m.
        """
        m = self.size
        flat, D = int_row([x for row in self.metric for x in row])
        return tuple(tuple(flat[i:i + m]) for i in range(0, m * m, m)), D

    @cached_property
    def int_relations(self) -> dict[str, tuple[tuple[int, ...], int]]:
        """Each relation as (nums, R): int numerators over its common
        denominator R > 0, row-major like a formula table, so the value at
        (a_1, ..., a_k) is nums[sum_i a_i * m^(k-i)] / R.
        """
        m, out = self.size, {}
        for name, rel in self.relations.items():
            try:
                values = [rel.table[a] for a in itertools.product(range(m), repeat=rel.arity)]
            except KeyError as e:
                raise StructureError(f"relation {name!r} has no value at {e.args[0]}") from None
            nums, R = int_row(values)
            out[name] = tuple(nums), R
        return out

    def is_first_order(self) -> bool:
        """True when the metric and every relation take values in {0, 1}."""
        values = itertools.chain(
            itertools.chain.from_iterable(self.metric),
            *(rel.table.values() for rel in self.relations.values()),
        )
        return all(v.denominator == 1 and 0 <= v.numerator <= 1 for v in values)


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
    one coordinate i, where a[i] = x < y = b[i].

    In the sum metric d(a, b) = d(x, y) for such a pair (the other
    coordinates contribute d(z, z) = 0), and any two tuples are joined by a
    path of neighbour steps whose distances add up to exactly d(a, b).  So a
    real-valued table is lam-Lipschitz iff it is on these k * m^(k-1) *
    m(m-1)/2 pairs, instead of all m^(2k) pairs.
    """
    for i in range(arity):
        for rest in itertools.product(range(m), repeat=arity - 1):
            head, tail = rest[:i], rest[i:]
            line = [head + (x,) + tail for x in range(m)]
            for x in range(m):
                a = line[x]
                for y in range(x + 1, m):
                    yield a, line[y], x, y


def validate_structure(M: FiniteStructure) -> ValidationReport:
    """Check shape, metric axioms, value ranges, and declared Lipschitz bounds.

    The Lipschitz bounds are checked on neighbour pairs only (tuples that
    differ in one coordinate, see `neighbour_pairs`), which is exact: in the
    sum metric a path that changes one coordinate at a time has step
    distances adding up to d(a, b), so a table is lam-Lipschitz on all pairs
    iff it is on neighbour pairs.  For functions the chain also needs the
    triangle inequality on outputs, which is checked first.  A Lipschitz
    witness is therefore a violating neighbour pair, not necessarily the
    first violating pair in lexicographic order.

    All comparisons are on int numerators (the metric over its common
    denominator, each relation over its own), with the same witnesses as
    the Fraction comparisons they stand for.
    """
    m = M.size
    if m == 0:
        return _fail("shape", "structure must have at least one element")
    if len(M.metric) != m or any(len(row) != m for row in M.metric):
        return _fail("shape", "metric table must be m x m")
    for name, idx in M.constants.items():
        if not 0 <= idx < m:
            return _fail("shape", f"constant {name!r} maps outside the domain", (idx,))
    for name, fn in M.functions.items():
        expected = m ** fn.arity
        if len(fn.table) != expected or \
                set(fn.table) != set(itertools.product(range(m), repeat=fn.arity)):
            return _fail("shape", f"function {name!r} table must cover all {expected} tuples")
        if fn.lam < 0:
            return _fail("shape", f"function {name!r} has negative Lipschitz constant")
        for args, out in fn.table.items():
            if not 0 <= out < m:
                return _fail("shape", f"function {name!r} maps outside the domain", args)
    for name, rel in M.relations.items():
        expected = m ** rel.arity
        if len(rel.table) != expected or \
                set(rel.table) != set(itertools.product(range(m), repeat=rel.arity)):
            return _fail("shape", f"relation {name!r} table must cover all {expected} tuples")
        if rel.lam < 0:
            return _fail("shape", f"relation {name!r} has negative Lipschitz constant")

    # The axioms and Lipschitz scans compare int numerators: the metric's
    # over its common denominator D, each relation's over its own.
    d, D = M.int_metric
    for i in range(m):
        for j in range(m):
            dij = d[i][j]
            if dij < 0 or dij > D:
                return _fail("metric range", "distances must lie in [0, 1]", (i, j))
            if d[j][i] != dij:
                return _fail("symmetry", "metric must be symmetric", (i, j))
        if d[i][i] != 0:
            return _fail("reflexivity", "d(a, a) must be 0", (i,))
    for i in range(m):
        for j in range(m):
            if i != j and d[i][j] == 0:
                return _fail(
                    "identity of indiscernibles",
                    "distinct elements at distance 0", (i, j),
                )
    for i, di in enumerate(d):
        for j, dj in enumerate(d):
            # some k has d(i, k) - d(j, k) > d(i, j): report the first one
            if max(map(sub, di, dj)) > di[j]:
                k = next(k for k in range(m) if di[k] > di[j] + dj[k])
                return _fail("triangle inequality", "d(a,c) > d(a,b) + d(b,c)", (i, j, k))

    scaled = {}
    for name, rel in M.relations.items():
        nums, R = M.int_relations[name]
        table = dict(zip(itertools.product(range(m), repeat=rel.arity), nums))
        if min(nums) < 0 or max(nums) > R:
            args = next(a for a in rel.table if not 0 <= table[a] <= R)
            return _fail("relation range", f"relation {name!r} leaves [0, 1]", args)
        scaled[name] = R, table
    # Exact by the triangle inequality checked above: the outputs along a
    # coordinate path are at most the sum of their step distances apart.
    for name, fn in M.functions.items():
        p, q, t = fn.lam.numerator, fn.lam.denominator, fn.table
        for a, b, x, y in neighbour_pairs(m, fn.arity):
            if q * d[t[a]][t[b]] > p * d[x][y]:
                return _fail(
                    "function Lipschitz",
                    f"function {name!r} violates its declared constant", (a, b),
                )
    for name, rel in M.relations.items():
        R, t = scaled[name]
        # |t(a) - t(b)| / R > lam * d(x, y) / D, cross-multiplied
        lhs, rhs = rel.lam.denominator * D, rel.lam.numerator * R
        for a, b, x, y in neighbour_pairs(m, rel.arity):
            if lhs * abs(t[a] - t[b]) > rhs * d[x][y]:
                return _fail(
                    "relation Lipschitz",
                    f"relation {name!r} violates its declared constant", (a, b),
                )
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# evaluation


# A table is (vs, nums, den): the value at the i-th assignment of the sorted
# free variables vs is nums[i] / den, den > 0, cells in row-major order over
# each variable's domain in `dom`.  A domain is range(m), or one element for
# a variable that eval_formula pins; a bound variable always ranges over
# range(m), so shadowing needs no special case.
_Table = tuple[tuple[str, ...], list[int], int]


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


def _join(parts, dom) -> tuple[tuple[str, ...], list[list]]:
    """Spread (vs, cells) parts to the union of their variables."""
    vs = tuple(sorted(set().union(*[p[0] for p in parts])))
    return vs, [_spread(pvs, cells, vs, dom) for pvs, cells in parts]


def _term(M: FiniteStructure, t: Term, dom) -> tuple[tuple[str, ...], list[int]]:
    """Element index of t at every assignment of its variables."""
    if isinstance(t, Var):
        if t.name not in dom:
            raise EvalError(f"unbound variable {t.name!r}")
        return (t.name,), list(dom[t.name])
    if isinstance(t, Const):
        if t.name not in M.constants:
            raise EvalError(f"constant {t.name!r} not interpreted")
        return (), [M.constants[t.name]]
    fn = M.functions.get(t.name)
    if fn is None:
        raise EvalError(f"function {t.name!r} not interpreted")
    if len(t.args) != fn.arity:
        raise EvalError(f"function {t.name!r} takes {fn.arity} arguments, got {len(t.args)}")
    vs, cols = _join([_term(M, a, dom) for a in t.args], dom)
    try:
        return vs, [fn.table[args] for args in zip(*cols)]
    except KeyError as e:
        raise StructureError(f"function {t.name!r} has no value at {e.args[0]}") from None


def _table(M: FiniteStructure, phi: Formula, dom: dict[str, Sequence[int]]) -> _Table:
    """Tabulate phi.  A chain of Sum/Scale nodes is unrolled into one affine
    combination of its other subformulas, over the lcm of their denominators."""
    leaves: list[tuple[Fraction, _Table]] = []
    stack = [(ONE, phi)]
    while stack:
        c, node = stack.pop()
        if isinstance(node, Sum):
            stack += ((c, node.right), (c, node.left))
        elif isinstance(node, Scale):
            stack.append((c * node.coeff, node.body))
        else:
            leaves.append((c, _leaf(M, node, dom)))
    if len(leaves) == 1 and leaves[0][0] == 1:
        return leaves[0][1]
    vs = tuple(sorted(set().union(*[t[0] for _, t in leaves])))
    den = math.lcm(*{c.denominator * t[2] for c, t in leaves})
    out: list[int] = []
    for c, (lvs, nums, d) in leaves:
        f = c.numerator * (den // (c.denominator * d))
        col = _spread(lvs, nums if f == 1 else [f * x for x in nums], vs, dom)
        out = list(map(add, out, col)) if out else col
    g = math.gcd(den, *out)
    return vs, [x // g for x in out] if g > 1 else out, den // g


def _leaf(M: FiniteStructure, node: Formula, dom: dict[str, Sequence[int]]) -> _Table:
    """Tabulate a One, Apply, Inf or Sup node."""
    if isinstance(node, One):
        return (), [1], 1
    if isinstance(node, Apply):
        vs, cols = _join([_term(M, t, dom) for t in node.args], dom)
        rel = None if node.symbol == METRIC else M.relations.get(node.symbol)
        if rel is None and node.symbol != METRIC:
            raise EvalError(f"relation {node.symbol!r} not interpreted")
        arity = 2 if rel is None else rel.arity
        if len(cols) != arity:
            raise EvalError(f"{node.symbol!r} takes {arity} arguments, got {len(cols)}")
        if rel is None:
            d, D = M.int_metric
            return vs, [d[a][b] for a, b in zip(*cols)], D
        nums, R = M.int_relations[node.symbol]
        # _join spread every column to the same cells: fold them row-major
        m, idx = M.size, cols[0] if cols else [0]
        for col in cols[1:]:
            idx = [i * m + a for i, a in zip(idx, col)]
        return vs, [nums[i] for i in idx], R
    if not isinstance(node, (Inf, Sup)):
        raise TypeError(f"not a formula: {node!r}")
    x, m = node.var, M.size
    if m == 0:
        raise EvalError("cannot quantify over an empty domain")
    dom = {**dom, x: range(m)}
    vs, nums, den = _table(M, node.body, dom)
    if x in vs:
        # x's axis has stride `inner`: reduce each block of m * inner cells
        # to inner cells with int min/max over strided slices.
        p = vs.index(x)
        inner = math.prod(len(dom[v]) for v in vs[p + 1:])
        pick, block = (min if isinstance(node, Inf) else max), m * inner
        nums = [pick(nums[b + i:b + block:inner]) for b in range(0, len(nums), block) for i in range(inner)]
        vs = vs[:p] + vs[p + 1:]
    return vs, nums, den


def eval_formula(M: FiniteStructure, phi: Formula, asg: Mapping[str, int] | None = None) -> Fraction:
    """Exact value of phi in M under the assignment (element indices).

    The kernel of eval_table with each assigned variable pinned to a
    one-element domain, so the result is a single cell.
    """
    _, nums, den = _table(M, phi, {v: (e,) for v, e in (asg or {}).items()})
    return Fraction(nums[0], den)


def eval_table(
    M: FiniteStructure, phi: Formula, variables: Sequence[str]
) -> dict[tuple[int, ...], Fraction]:
    """Evaluate phi at every assignment of `variables`, bottom-up: one table
    pass per subformula (see _table), one Fraction per distinct value,
    keyed in itertools.product order.  A name repeated in `variables` reads
    its first occurrence.
    """
    variables = tuple(variables)
    missing = free_vars(phi) - set(variables)
    if missing:
        raise EvalError(f"free variables not covered: {sorted(missing)}")
    m = M.size
    vs, nums, den = _table(M, phi, {v: range(m) for v in variables})
    cells = fractions_over(nums, den)
    stride = {v: m ** (len(vs) - 1 - i) for i, v in enumerate(vs)}
    idx = [0]
    for j, v in enumerate(variables):
        s = stride.get(v, 0) if variables.index(v) == j else 0
        idx = [i + k * s for i in idx for k in range(m)]
    keys = itertools.product(range(m), repeat=len(variables))
    return dict(zip(keys, [cells[i] for i in idx]))


def eval_condition(M: FiniteStructure, cond, asg: Mapping[str, int] | None = None) -> bool:
    """True when lhs <= rhs holds at the assignment."""
    return eval_formula(M, cond.lhs, asg) <= eval_formula(M, cond.rhs, asg)


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
