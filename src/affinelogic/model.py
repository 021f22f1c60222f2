"""Finite metric structures and exact formula evaluation.

A structure is a finite point set with a [0,1]-valued metric, plus
interpretations for the signature's constants, Lipschitz functions, and
[0,1]-valued Lipschitz relations.  Tuples are measured in the sum metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .syntax import (
    METRIC,
    Apply,
    Const,
    Formula,
    Func,
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


class StructureError(ValueError):
    """Malformed structure data (shape problems, missing table entries)."""


class EvalError(ValueError):
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
    """Finite metric structure.  Treated as immutable once constructed."""

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

    def is_first_order(self) -> bool:
        """True when the metric and every relation take values in {0, 1}."""
        two = {ZERO, ONE}
        if any(d not in two for row in self.metric for d in row):
            return False
        return all(
            v in two for rel in self.relations.values() for v in rel.table.values()
        )


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

    for i in range(m):
        for j in range(m):
            dij = M.metric[i][j]
            if dij < 0 or dij > 1:
                return _fail("metric range", "distances must lie in [0, 1]", (i, j))
            if M.metric[j][i] != dij:
                return _fail("symmetry", "metric must be symmetric", (i, j))
        if M.metric[i][i] != 0:
            return _fail("reflexivity", "d(a, a) must be 0", (i,))
    for i in range(m):
        for j in range(m):
            if i != j and M.metric[i][j] == 0:
                return _fail(
                    "identity of indiscernibles",
                    "distinct elements at distance 0", (i, j),
                )
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if M.metric[i][k] > M.metric[i][j] + M.metric[j][k]:
                    return _fail("triangle inequality", "d(a,c) > d(a,b) + d(b,c)", (i, j, k))

    for name, rel in M.relations.items():
        for args, v in rel.table.items():
            if v < 0 or v > 1:
                return _fail("relation range", f"relation {name!r} leaves [0, 1]", args)
    # Exact by the triangle inequality checked above: the outputs along a
    # coordinate path are at most the sum of their step distances apart.
    for name, fn in M.functions.items():
        for a, b, x, y in neighbour_pairs(m, fn.arity):
            if M.metric[fn.table[a]][fn.table[b]] > fn.lam * M.metric[x][y]:
                return _fail(
                    "function Lipschitz",
                    f"function {name!r} violates its declared constant", (a, b),
                )
    for name, rel in M.relations.items():
        for a, b, x, y in neighbour_pairs(m, rel.arity):
            if abs(rel.table[a] - rel.table[b]) > rel.lam * M.metric[x][y]:
                return _fail(
                    "relation Lipschitz",
                    f"relation {name!r} violates its declared constant", (a, b),
                )
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# evaluation


def _eval_term(M: FiniteStructure, t: Term, asg: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return asg[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Const):
        try:
            return M.constants[t.name]
        except KeyError:
            raise EvalError(f"constant {t.name!r} not interpreted") from None
    fn = M.functions.get(t.name)
    if fn is None:
        raise EvalError(f"function {t.name!r} not interpreted")
    args = tuple(_eval_term(M, a, asg) for a in t.args)
    return fn.table[args]


def eval_formula(M: FiniteStructure, phi: Formula, asg: Mapping[str, int] | None = None) -> Fraction:
    """Exact value of phi in M under the assignment (element indices)."""
    asg = dict(asg or {})

    def go(node: Formula, env: dict[str, int]) -> Fraction:
        if isinstance(node, One):
            return ONE
        if isinstance(node, Apply):
            args = tuple(_eval_term(M, t, env) for t in node.args)
            if node.symbol == METRIC:
                return M.metric[args[0]][args[1]]
            rel = M.relations.get(node.symbol)
            if rel is None:
                raise EvalError(f"relation {node.symbol!r} not interpreted")
            return rel.table[args]
        if isinstance(node, Scale):
            return node.coeff * go(node.body, env)
        if isinstance(node, Sum):
            return go(node.left, env) + go(node.right, env)
        if isinstance(node, (Inf, Sup)):
            best: Fraction | None = None
            saved = env.get(node.var)
            for e in range(M.size):
                env[node.var] = e
                v = go(node.body, env)
                if best is None:
                    best = v
                elif isinstance(node, Inf):
                    best = min(best, v)
                else:
                    best = max(best, v)
            if saved is None:
                del env[node.var]
            else:
                env[node.var] = saved
            assert best is not None
            return best
        raise TypeError(f"not a formula: {node!r}")

    return go(phi, asg)


def eval_table(
    M: FiniteStructure, phi: Formula, variables: Sequence[str]
) -> dict[tuple[int, ...], Fraction]:
    """Evaluate phi at every assignment of `variables`, bottom-up.

    Each subformula is tabulated over its own free variables, so quantifier
    alternation costs one table pass per binder instead of a nested loop.
    """
    variables = tuple(variables)
    fv = free_vars(phi)
    missing = fv - set(variables)
    if missing:
        raise EvalError(f"free variables not covered: {sorted(missing)}")
    m = M.size

    def term_tbl(t: Term) -> tuple[tuple[str, ...], dict[tuple[int, ...], int]]:
        vs = tuple(sorted(term_vars_of(t)))
        out: dict[tuple[int, ...], int] = {}
        for asg in itertools.product(range(m), repeat=len(vs)):
            out[asg] = _eval_term(M, t, dict(zip(vs, asg)))
        return vs, out

    def term_vars_of(t: Term) -> frozenset[str]:
        from .syntax import term_vars
        return term_vars(t)

    def tbl(node: Formula) -> tuple[tuple[str, ...], dict[tuple[int, ...], Fraction]]:
        if isinstance(node, One):
            return (), {(): ONE}
        if isinstance(node, Apply):
            parts = [term_tbl(t) for t in node.args]
            vs = tuple(sorted(set().union(*(set(p[0]) for p in parts)) if parts else set()))
            pos = {v: i for i, v in enumerate(vs)}
            projs = [tuple(pos[v] for v in p[0]) for p in parts]
            if node.symbol == METRIC:
                lookup = lambda args: M.metric[args[0]][args[1]]
            else:
                rel = M.relations.get(node.symbol)
                if rel is None:
                    raise EvalError(f"relation {node.symbol!r} not interpreted")
                lookup = lambda args: rel.table[args]
            out: dict[tuple[int, ...], Fraction] = {}
            for asg in itertools.product(range(m), repeat=len(vs)):
                args = tuple(
                    part[1][tuple(asg[i] for i in proj)]
                    for part, proj in zip(parts, projs)
                )
                out[asg] = lookup(args)
            return vs, out
        if isinstance(node, Scale):
            vs, t = tbl(node.body)
            return vs, {k: node.coeff * v for k, v in t.items()}
        if isinstance(node, Sum):
            vl, tl = tbl(node.left)
            vr, tr = tbl(node.right)
            vs = tuple(sorted(set(vl) | set(vr)))
            pos = {v: i for i, v in enumerate(vs)}
            pl = tuple(pos[v] for v in vl)
            pr = tuple(pos[v] for v in vr)
            out = {}
            for asg in itertools.product(range(m), repeat=len(vs)):
                out[asg] = tl[tuple(asg[i] for i in pl)] + tr[tuple(asg[i] for i in pr)]
            return vs, out
        if isinstance(node, (Inf, Sup)):
            vb, t = tbl(node.body)
            if node.var not in vb:
                return vb, t
            drop = vb.index(node.var)
            vs = vb[:drop] + vb[drop + 1:]
            out = {}
            pick = min if isinstance(node, Inf) else max
            for asg, v in t.items():
                key = asg[:drop] + asg[drop + 1:]
                cur = out.get(key)
                out[key] = v if cur is None else pick(cur, v)
            return vs, out
        raise TypeError(f"not a formula: {node!r}")

    vs, t = tbl(phi)
    pos = [variables.index(v) for v in vs]
    result: dict[tuple[int, ...], Fraction] = {}
    for asg in itertools.product(range(m), repeat=len(variables)):
        result[asg] = t[tuple(asg[i] for i in pos)]
    return result


def eval_condition(M: FiniteStructure, cond, asg: Mapping[str, int] | None = None) -> bool:
    """True when lhs <= rhs holds at the assignment."""
    return eval_formula(M, cond.lhs, asg) <= eval_formula(M, cond.rhs, asg)


# ---------------------------------------------------------------------------
# automorphisms


def automorphisms(M: FiniteStructure) -> list[tuple[int, ...]]:
    """All permutations preserving the metric and every interpretation.

    Backtracking over images with incremental metric and table pruning; the
    identity is always present and the result is closed under composition.
    """
    m = M.size
    perm: list[int] = [-1] * m
    used = [False] * m
    results: list[tuple[int, ...]] = []

    pinned: dict[int, int] = {}
    for idx in M.constants.values():
        pinned[idx] = idx

    rel_items = list(M.relations.values())
    fn_items = list(M.functions.values())

    def consistent(i: int, cand: int) -> bool:
        for j in range(i):
            if M.metric[i][j] != M.metric[cand][perm[j]]:
                return False
        if M.metric[i][i] != M.metric[cand][cand]:
            return False
        assigned = list(range(i + 1))
        for rel in rel_items:
            if rel.arity > 2:
                continue  # deferred to the final check
            if rel.arity == 1:
                if rel.table[(i,)] != rel.table[(cand,)]:
                    return False
            else:
                for j in assigned:
                    pj = perm[j] if j < i else cand
                    if rel.table[(i, j)] != rel.table[(cand, pj)]:
                        return False
                    if rel.table[(j, i)] != rel.table[(pj, cand)]:
                        return False
        for fn in fn_items:
            if fn.arity > 2:
                continue
            if fn.arity == 1:
                out = fn.table[(i,)]
                if out <= i:
                    target = perm[out] if out < i else cand
                    if fn.table[(cand,)] != target:
                        return False
            else:
                for j in assigned:
                    for x, y in ((i, j), (j, i)):
                        px = cand if x == i else perm[x]
                        py = cand if y == i else perm[y]
                        out = fn.table[(x, y)]
                        if out <= i:
                            pout = cand if out == i else perm[out]
                            if fn.table[(px, py)] != pout:
                                return False
        return True

    def full_check() -> bool:
        g = perm
        for rel in M.relations.values():
            for args, v in rel.table.items():
                if rel.table[tuple(g[a] for a in args)] != v:
                    return False
        for fn in M.functions.values():
            for args, out in fn.table.items():
                if fn.table[tuple(g[a] for a in args)] != g[out]:
                    return False
        return True

    def extend(i: int) -> None:
        if i == m:
            if full_check():
                results.append(tuple(perm))
            return
        forced = pinned.get(i)
        candidates = [forced] if forced is not None else [c for c in range(m) if not used[c]]
        for cand in candidates:
            if used[cand] or not consistent(i, cand):
                continue
            perm[i] = cand
            used[cand] = True
            extend(i + 1)
            used[cand] = False
            perm[i] = -1

    extend(0)
    return results


def apply_to_tuple(perm: Sequence[int], a: Sequence[int]) -> tuple[int, ...]:
    return tuple(perm[x] for x in a)
