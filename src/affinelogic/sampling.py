"""Seeded random instance generators for the acceptance suites and tests.

Everything draws from random.Random so runs are reproducible from a seed,
and every generated object is valid by construction: metrics come from a
min-plus closure over a positive grid, relation tables are Lipschitz by
inf-convolution against the declared constant (one int convolution, over
every axis or the trailing ones), function tables declare the least
constant of the table, taken over neighbour pairs, which is exact because
every metric here is valid.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .definability import FunctionTable, PredicateTable
from .errors import AffineLogicError
from .linalg import int_row
from .model import FiniteStructure, FunctionInterp, RelationInterp, neighbour_pairs
from .syntax import (
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
    Var,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class SamplingError(AffineLogicError, ValueError):
    """Generator arguments that no instance can meet."""


_METRIC_GRID = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
_VALUE_DENOMS = [1, 2, 3, 4, 6]
_COEFFS = [
    Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 3),
    Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
]


def random_fraction(rng: random.Random) -> Fraction:
    """A rational in [0, 1] with a small denominator."""
    den = rng.choice(_VALUE_DENOMS)
    return Fraction(rng.randint(0, den), den)


def random_metric(rng: random.Random, m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Random grid distances tightened to a metric by min-plus closure."""
    d = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d[i][j] = d[j][i] = rng.choice(_METRIC_GRID)
    for k in range(m):
        for i in range(m):
            for j in range(m):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return tuple(tuple(row) for row in d)


def lipschitz_relation(
    rng: random.Random,
    M_metric: Sequence[Sequence[Fraction]],
    arity: int,
    lam: Fraction,
    m: int,
) -> dict[tuple[int, ...], Fraction]:
    """Inf-convolution of random raw values: lam-Lipschitz, in [0, 1]."""
    return _inf_convolution(rng, M_metric, m, arity, lam, arity)


def _inf_convolution(
    rng: random.Random, M_metric: Sequence[Sequence[Fraction]], m: int, arity: int,
    lam: Fraction, axes: int,
) -> dict[tuple[int, ...], Fraction]:
    """Random raw values on range(m)^arity, inf-convolved along the last
    `axes` coordinates: the value at x + y is min over z of raw[x + z] +
    lam * d(z, y), with d the sum metric.  A sum over coordinates lets the
    min run one coordinate at a time, in ints over one common denominator
    of the raw values and lam times the metric.
    """
    tuples = list(itertools.product(range(m), repeat=arity))
    raw_nums, raw_den = int_row([random_fraction(rng) for _ in tuples])
    metric_nums, metric_den = int_row([d for row in M_metric for d in row])
    lam_num, lam_den = Fraction(lam).as_integer_ratio()
    den = lcm(raw_den, lam_den * metric_den)
    scale = lam_num * (den // (lam_den * metric_den))
    step = [[scale * metric_nums[x * m + y] for y in range(m)] for x in range(m)]
    vals = [v * (den // raw_den) for v in raw_nums]
    # vals is row-major over the tuples; each pass takes the min along one axis
    for stride in (m ** k for k in range(axes)):
        out = []
        for i in range(len(vals)):
            x = i // stride % m
            base = i - x * stride
            out.append(min(vals[base + y * stride] + d for y, d in enumerate(step[x])))
        vals = out
    return {a: Fraction(v, den) for a, v in zip(tuples, vals)}


def tight_function_lambda(
    metric: Sequence[Sequence[Fraction]],
    table: Mapping[tuple[int, ...], int | tuple[int, ...]],
) -> Fraction:
    """The least Lipschitz constant of a total map whose outputs are
    elements or tuples of elements, in the sum metric.

    Taken over neighbour pairs only (see `neighbour_pairs`), which is exact
    for a valid metric: by the triangle inequality on outputs, a coordinate
    path from a to b moves the output at most lam * d(a, b).
    """
    lam = ZERO
    for a, b, x, y in neighbour_pairs(len(metric), len(next(iter(table)))):
        fa, fb = table[a], table[b]
        out = metric[fa][fb] if isinstance(fa, int) else sum(metric[u][v] for u, v in zip(fa, fb))
        lam = max(lam, Fraction(out) / metric[x][y])
    return lam


def random_structure_family(
    rng: random.Random,
    count: int,
    max_size: int = 6,
    product_cap: int = 256,
) -> list[FiniteStructure]:
    """Factor structures over one shared signature, product capped.  Every
    factor has at least 2 elements, so arguments no family can meet are
    refused before any draw."""
    if count < 1:
        raise SamplingError(f"count={count}: a family needs at least one structure")
    if max_size < 2:
        raise SamplingError(f"max_size={max_size}: every structure has at least 2 elements")
    if product_cap < 2 ** count:
        raise SamplingError(
            f"product_cap={product_cap} is below 2**count = {2 ** count}: "
            f"{count} structures of at least 2 elements cannot fit"
        )
    while True:
        sizes = [rng.randint(2, max_size) for _ in range(count)]
        product = 1
        for s in sizes:
            product *= s
        if product <= product_cap:
            break

    rel_specs = [("R", 1, rng.choice([Fraction(1, 2), ONE, Fraction(2)]))]
    if rng.random() < 0.5:
        rel_specs.append(("S", 2, rng.choice([Fraction(1, 2), ONE])))
    use_function = rng.random() < 0.5
    use_constant = rng.random() < 0.6

    metrics = [random_metric(rng, s) for s in sizes]
    fn_tables: list[dict[tuple[int, ...], int]] = []
    if use_function:
        for s, metric in zip(sizes, metrics):
            fn_tables.append({(i,): rng.randrange(s) for i in range(s)})
        fn_lam = max(
            tight_function_lambda(metric, tbl)
            for metric, tbl in zip(metrics, fn_tables)
        )

    structures = []
    for idx, (s, metric) in enumerate(zip(sizes, metrics)):
        relations = {
            name: RelationInterp(
                arity, lam, lipschitz_relation(rng, metric, arity, lam, s)
            )
            for name, arity, lam in rel_specs
        }
        functions = {}
        if use_function:
            functions["f"] = FunctionInterp(1, fn_lam, fn_tables[idx])
        constants = {"c": rng.randrange(s)} if use_constant else {}
        structures.append(
            FiniteStructure(
                elements=tuple(f"e{i}" for i in range(s)),
                metric=metric,
                constants=constants,
                functions=functions,
                relations=relations,
            )
        )
    return structures


def random_structure(rng: random.Random, max_size: int = 5) -> FiniteStructure:
    return random_structure_family(rng, 1, max_size=max_size, product_cap=max_size)[0]


def random_term(rng: random.Random, sig: Signature, scope: Sequence[str], depth: int):
    choices = ["var"] * 3
    if sig.constants:
        choices.append("const")
    if sig.functions and depth > 0:
        choices += ["func"] * 2
    kind = rng.choice(choices)
    if kind == "var" or not scope and kind != "const":
        if scope:
            return Var(rng.choice(list(scope)))
        kind = "const"
    if kind == "const":
        if sig.constants:
            return Const(rng.choice(sorted(sig.constants)))
        return Var(rng.choice(list(scope)))
    name = rng.choice(sorted(sig.functions))
    info = sig.functions[name]
    return Func(name, tuple(random_term(rng, sig, scope, depth - 1) for _ in range(info.arity)))


def random_formula(
    rng: random.Random,
    sig: Signature,
    variables: Sequence[str],
    depth: int = 4,
    quantifiers: int = 2,
) -> Formula:
    """A random formula with free variables among `variables`."""

    def atom(scope: list[str]) -> Formula:
        names = sorted(sig.relations) + ["d"]
        if not scope and not sig.constants:
            return One()
        name = rng.choice(names + ["one"])
        if name == "one":
            return One()
        arity = 2 if name == "d" else sig.relations[name].arity
        return Apply(
            name, tuple(random_term(rng, sig, scope, 1) for _ in range(arity))
        )

    def go(d: int, q: int, scope: list[str]) -> Formula:
        if d <= 0:
            return atom(scope)
        kinds = ["atom", "scale", "sum", "sum"]
        if q > 0:
            kinds += ["quant", "quant"]
        kind = rng.choice(kinds)
        if kind == "atom":
            return atom(scope)
        if kind == "scale":
            return Scale(rng.choice(_COEFFS), go(d - 1, q, scope))
        if kind == "sum":
            qa = rng.randint(0, q)
            return Sum(go(d - 1, qa, scope), go(d - 1, q - qa, scope))
        var = f"q{d}_{rng.randint(0, 1)}"
        body = go(d - 1, q - 1, scope + [var])
        return Inf(var, body) if rng.random() < 0.5 else Sup(var, body)

    return go(depth, quantifiers, list(variables))


def random_ultracharge_weights(rng: random.Random, k: int) -> list[Fraction]:
    if k == 1:
        return [ONE]
    style = rng.random()
    if style < 0.2:
        weights = [ZERO] * k
        weights[rng.randrange(k)] = ONE
        return weights
    raws = [rng.randint(0, 4) for _ in range(k)]
    if sum(raws) == 0:
        raws[rng.randrange(k)] = 1
    total = sum(raws)
    return [Fraction(r, total) for r in raws]


def random_positive_weights(rng: random.Random, k: int) -> list[Fraction]:
    raws = [rng.randint(1, 6) for _ in range(k)]
    total = sum(raws)
    return [Fraction(r, total) for r in raws]


def random_predicate_lipschitz_tail(
    rng: random.Random, M: FiniteStructure, head: int, tail: int, lam: Fraction
) -> PredicateTable:
    """Random table lam-Lipschitz in its trailing `tail` coordinates."""
    values = _inf_convolution(rng, M.metric, M.size, head + tail, lam, tail)
    return PredicateTable(head + tail, values)


def random_function_table(
    rng: random.Random, M: FiniteStructure, arity_in: int, arity_out: int
) -> FunctionTable:
    """Random total map with the exact Lipschitz constant of its own table."""
    ins = list(itertools.product(range(M.size), repeat=arity_in))
    table = {
        a: tuple(rng.randrange(M.size) for _ in range(arity_out)) for a in ins
    }
    return FunctionTable(arity_in, arity_out, tight_function_lambda(M.metric, table), table)


def random_subset(
    rng: random.Random, M: FiniteStructure, arity: int
) -> frozenset[tuple[int, ...]]:
    """A random nonempty set of tuples."""
    tuples = list(itertools.product(range(M.size), repeat=arity))
    picked = [a for a in tuples if rng.random() < 0.4]
    if not picked:
        picked = [rng.choice(tuples)]
    return frozenset(picked)


def _discrete_metric(m: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(ZERO if i == j else ONE for j in range(m)) for i in range(m))


def random_first_order_structure(rng: random.Random, size: int) -> FiniteStructure:
    """Discrete metric, {0,1}-valued relations, every point named."""
    relations = {
        "R": RelationInterp(
            1, ONE, {(i,): Fraction(rng.randint(0, 1)) for i in range(size)}
        )
    }
    constants = {f"c{i}": i for i in range(size)}
    return FiniteStructure(
        elements=tuple(f"p{i}" for i in range(size)),
        metric=_discrete_metric(size),
        constants=constants,
        functions={},
        relations=relations,
    )


def random_hull_structure(
    rng: random.Random, n_vertices: int, n_coords: int
) -> FiniteStructure:
    """Discrete-metric structure whose unary relations realize random vectors."""
    relations = {}
    for c in range(n_coords):
        relations[f"R{c}"] = RelationInterp(
            1, ONE, {(i,): random_fraction(rng) for i in range(n_vertices)}
        )
    return FiniteStructure(
        elements=tuple(f"v{i}" for i in range(n_vertices)),
        metric=_discrete_metric(n_vertices),
        constants={},
        functions={},
        relations=relations,
    )
