"""Independent re-checks of what the library returns.

Nothing here calls into affinelogic.  Formulas are evaluated by a naive
recursive evaluator written against the AST's field names, and every
certificate is re-verified from its definition.  Keeping the checks
separate from the library matters twice: a wrong library answer cannot
vouch for itself, and the traced run's per-layer numbers only see the
benchmark's timed calls, never check work.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
METRIC = "d"


class CheckFailed(Exception):
    """A returned value or certificate does not hold."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# evaluation


def term_value(M, t, env) -> int:
    kind = type(t).__name__
    if kind == "Var":
        return env[t.name]
    if kind == "Const":
        return M.constants[t.name]
    args = tuple(term_value(M, a, env) for a in t.args)
    return M.functions[t.name].table[args]


def formula_value(M, phi, env) -> Fraction:
    """Value of phi in M at the assignment env (variable -> element index)."""
    kind = type(phi).__name__
    if kind == "One":
        return ONE
    if kind == "Apply":
        args = tuple(term_value(M, a, env) for a in phi.args)
        if phi.symbol == METRIC:
            return M.metric[args[0]][args[1]]
        return M.relations[phi.symbol].table[args]
    if kind == "Scale":
        return phi.coeff * formula_value(M, phi.body, env)
    if kind == "Sum":
        return formula_value(M, phi.left, env) + formula_value(M, phi.right, env)
    if kind in ("Inf", "Sup"):
        inner = dict(env)
        values = []
        for e in range(M.size):
            inner[phi.var] = e
            values.append(formula_value(M, phi.body, inner))
        return min(values) if kind == "Inf" else max(values)
    raise CheckFailed(f"unknown formula node {kind}")


def term_vars(t) -> frozenset:
    kind = type(t).__name__
    if kind == "Var":
        return frozenset((t.name,))
    if kind == "Const":
        return frozenset()
    return frozenset().union(*(term_vars(a) for a in t.args))


def free_vars(phi) -> frozenset:
    kind = type(phi).__name__
    if kind == "One":
        return frozenset()
    if kind == "Apply":
        return frozenset().union(*(term_vars(a) for a in phi.args))
    if kind == "Scale":
        return free_vars(phi.body)
    if kind == "Sum":
        return free_vars(phi.left) | free_vars(phi.right)
    return free_vars(phi.body) - {phi.var}


def tuple_distance(M, a, b) -> Fraction:
    return sum((M.metric[x][y] for x, y in zip(a, b)), start=ZERO)


def tuples(M, n: int) -> list:
    return list(itertools.product(range(M.size), repeat=n))


def dot(coeffs, point) -> Fraction:
    return sum((c * x for c, x in zip(coeffs, point)), start=ZERO)


# ---------------------------------------------------------------------------
# certificates


def check_hull(M, relations, hull) -> list:
    """Vertices are exactly the distinct relation vectors; returns them."""
    seen = {}
    for x in range(M.size):
        vec = tuple(M.relations[r].table[(x,)] for r in relations)
        seen.setdefault(vec, []).append((x,))
    got = [tuple(v.values) for v in hull.vertices]
    require(len(got) == len(set(got)), "hull has repeated vertices")
    require(set(got) == set(seen), "hull vertices differ from the realized vectors")
    for vec, reals in zip(got, hull.realizations):
        require(sorted(reals) == seen[vec], "hull realizations are wrong")
    return got


def check_extreme(points, report) -> None:
    """Separating functionals and convex weights, one per vertex."""
    ext = {e.index for e in report.extreme}
    non = {n.index for n in report.non_extreme}
    require(not ext & non and ext | non == set(range(len(points))),
            "extreme report does not classify every vertex once")
    for e in report.extreme:
        require(e.offset + dot(e.coeffs, points[e.index]) > 0,
                f"functional not positive at vertex {e.index}")
        for j, p in enumerate(points):
            if j != e.index:
                require(e.offset + dot(e.coeffs, p) <= 0,
                        f"functional of vertex {e.index} positive at {j}")
    for n in report.non_extreme:
        w = n.weights
        require(n.index not in w, "non-extreme vertex uses itself")
        require(all(x >= 0 for x in w.values()), "negative convex weight")
        require(sum(w.values(), start=ZERO) == 1, "convex weights do not sum to 1")
        mix = tuple(
            sum((x * points[j][c] for j, x in w.items()), start=ZERO)
            for c in range(len(points[n.index]))
        )
        require(mix == points[n.index], f"weights do not reproduce vertex {n.index}")


def condition_gaps(M, conditions, variables) -> tuple[list, list]:
    """rhs - lhs of each condition at every assignment tuple."""
    tps = tuples(M, len(variables))
    gaps = []
    for cond in conditions:
        g = {}
        for a in tps:
            env = dict(zip(variables, a))
            g[a] = formula_value(M, cond.rhs, env) - formula_value(M, cond.lhs, env)
        gaps.append(g)
    return tps, gaps


def check_satisfiable(tps, gaps, res) -> None:
    """Witness distribution, or Farkas coefficients with a negative margin."""
    if res.satisfiable:
        w = res.witness
        require(w is not None and res.farkas is None, "satisfiable without a witness")
        require(set(w) <= set(tps), "witness outside the tuples")
        require(all(x >= 0 for x in w.values()), "negative witness weight")
        require(sum(w.values(), start=ZERO) == 1, "witness weights do not sum to 1")
        for g in gaps:
            require(sum((x * g[a] for a, x in w.items()), start=ZERO) >= 0,
                    "witness violates a condition in the mean")
        return
    r = res.farkas
    require(r is not None and res.witness is None, "refuted without coefficients")
    require(all(x >= 0 for x in r), "negative Farkas coefficient")
    margin = max(sum((r[i] * gaps[i][a] for i in range(len(gaps))), start=ZERO)
                 for a in tps)
    require(margin < 0, "combined condition holds somewhere")
    require(res.margin == margin, "reported margin is wrong")


def distance_table(M, D, n: int) -> dict:
    return {a: min(tuple_distance(M, a, b) for b in D) for a in tuples(M, n)}


def check_approach_refutation(M, P, witness) -> None:
    """The Farkas pair (r0, r1) refutes approachability at the point a."""
    a, farkas = witness
    require(farkas is not None and len(farkas) == 2, "no Farkas pair")
    r0, r1 = farkas
    require(r0 >= 0 and r1 >= 0, "negative Farkas coefficient")
    worst = max(
        r0 * -P[y] + r1 * (P[a] - tuple_distance(M, a, y)) for y in P
    )
    require(worst < 0, "Farkas pair does not refute approachability")


def check_definable(M, family, dist, rep) -> None:
    """Affine witness over the family, or a conflict or residue certificate."""
    keys = sorted(dist)
    vectors = {
        a: tuple(formula_value(M, phi, dict(zip(family.variables, a)))
                 for phi in family.formulas)
        for a in keys
    }
    if rep.definable:
        w = rep.witness
        for a in keys:
            require(w.offset + dot(w.coeffs, vectors[a]) == dist[a],
                    f"affine witness fails at {a}")
        return
    if rep.conflict is not None:
        a, b = rep.conflict.key_a, rep.conflict.key_b
        require(vectors[a] == vectors[b] and dist[a] != dist[b], "conflict is not one")
        return
    res = rep.residue
    require(res is not None, "not definable without a certificate")
    y = res.combination
    rows = [(ONE,) + vectors[k] for k in res.keys]
    require(len(y) == len(rows), "residue length mismatch")
    for c in range(len(rows[0])):
        require(sum((yi * row[c] for yi, row in zip(y, rows)), start=ZERO) == 0,
                "residue combination does not cancel")
    require(sum((yi * dist[k] for yi, k in zip(y, res.keys)), start=ZERO) != 0,
            "residue combination has a zero right-hand side")


def class_of(mean, raw) -> int:
    """Quotient element of a raw tuple, found from the class representatives."""
    support = mean.support
    for idx, rep in enumerate(mean.class_reps):
        if all(rep[i] == raw[i] for i in support):
            return idx
    raise CheckFailed(f"no class for raw tuple {raw}")


def is_automorphism(M, perm) -> bool:
    m = M.size
    if sorted(perm) != list(range(m)):
        return False
    if any(M.metric[perm[i]][perm[j]] != M.metric[i][j] for i in range(m) for j in range(m)):
        return False
    if any(perm[i] != i for i in M.constants.values()):
        return False
    for rel in M.relations.values():
        if any(rel.table[tuple(perm[x] for x in a)] != v for a, v in rel.table.items()):
            return False
    for fn in M.functions.values():
        if any(fn.table[tuple(perm[x] for x in a)] != perm[v] for a, v in fn.table.items()):
            return False
    return True
