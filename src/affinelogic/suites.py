"""Randomized check suites, one per headline identity or solver guarantee.

Each runner draws seeded instances, re-verifies every returned certificate by
direct evaluation, and reports a single pass/fail result with the number of
checks performed.  Oracles here are deliberately independent of the solver
code: convex-combination search by subset enumeration and Gaussian solves,
brute-force minima over enumerated intervals, exhaustive argmax scans.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .definability import (
    FunctionTable,
    check_distance_axioms,
    check_graph_identities,
    distance_predicate,
    inf_over_definable,
    invariant_type,
    pushforward,
    zeroset_recover,
)
from .errors import AffineLogicError
from .linalg import _row_reduce, int_row
from .mean import Ultracharge, check_ultramean_identity
from .model import DEFAULT_CAP, FiniteStructure, eval_table
from .pra import (
    AdditiveFunction,
    build_algebra,
    hahn_max_set,
    interval_distance,
    interval_projection,
)
from .sampling import (
    random_first_order_structure,
    random_formula,
    random_fraction,
    random_function_table,
    random_hull_structure,
    random_positive_weights,
    random_predicate_lipschitz_tail,
    random_structure,
    random_structure_family,
    random_subset,
    random_ultracharge_weights,
    tight_function_lambda,
)
from .syntax import Apply, Condition, Const, One, Scale, Var, certificate, free_vars, parse_condition
from .typespace import (
    BoundaryMeasure,
    FormulaFamily,
    affine_satisfiable,
    barycenter,
    extreme_points,
    keisler_decompose,
    type_hull,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class SuiteResult:
    name: str
    ok: bool
    checked: int
    seconds: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        extra = f" -- {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}: {self.checked} checks in {self.seconds:.1f}s{extra}"


Verdict = tuple[bool, int, str]  # (ok, checks performed, detail)

SUITES: dict[str, Callable[..., SuiteResult]] = {}


def _suite(key: str, name: str):
    """Declare a suite: check(rng, **sizes) -> (ok, checked, detail) becomes
    the runner (seed=0, **sizes) -> SuiteResult, registered in SUITES under
    `key` in definition order.  The runner seeds the rng and times the whole
    check; this is the one place a suite reads the clock."""

    def declare(check: Callable[..., Verdict]) -> Callable[..., SuiteResult]:
        def run(seed: int = 0, **sizes: int) -> SuiteResult:
            clock = time.perf_counter
            start = clock()
            ok, checked, detail = check(random.Random(seed), **sizes)
            return SuiteResult(name, ok, checked, clock() - start, detail)

        run.__name__ = run.__qualname__ = check.__name__
        SUITES[key] = run
        return run

    return declare


# ---------------------------------------------------------------------------
# 1. quotient value equals the weighted factor average


@_suite("ultramean", "ultramean identity")
def run_ultramean(rng: random.Random, instances: int = 1000) -> Verdict:
    for i in range(instances):
        big = i % 100 == 99
        count = rng.randint(1, 4)
        structures = random_structure_family(
            rng, count, max_size=6, product_cap=216 if big else 36
        )
        sig = structures[0].signature()
        mu = Ultracharge(random_ultracharge_weights(rng, count))
        variables = ("x", "y")[: rng.randint(1, 2)]
        phi = random_formula(
            rng, sig, variables,
            depth=rng.randint(1, 4),
            quantifiers=1 if big else 2,
        )
        raw = {
            v: tuple(rng.randrange(M.size) for M in structures)
            for v in sorted(free_vars(phi))
        }
        report = check_ultramean_identity(structures, mu, phi, raw)
        if not report.equal:
            detail = f"instance {i}: {report.quotient_value} != {report.integral_value}"
            return False, i + 1, detail
    return True, instances, ""


# ---------------------------------------------------------------------------
# 2. Lipschitz certificates are sound on every assignment pair


@_suite("certificates", "certificate soundness")
def run_certificates(rng: random.Random, structures: int = 50) -> Verdict:
    checked = 0
    for s in range(structures):
        M = random_structure(rng, max_size=4)
        sig = M.signature()
        for _ in range(4):
            variables = ("x", "y")[: rng.randint(1, 2)]
            phi = random_formula(
                rng, sig, variables, depth=rng.randint(1, 3), quantifiers=1
            )
            cert = certificate(phi, sig)
            fv = tuple(sorted(free_vars(phi)))
            tbl = eval_table(M, phi, fv)
            asgs = list(tbl)
            for a in asgs:
                checked += 1
                if abs(tbl[a]) > cert.bound:
                    detail = f"structure {s}: |phi({a})| = {tbl[a]} > b = {cert.bound}"
                    return False, checked, detail
            for a, b in itertools.combinations(asgs, 2):
                checked += 1
                if abs(tbl[a] - tbl[b]) > cert.lam * M.tuple_distance(a, b):
                    detail = (
                        f"structure {s}: |phi({a})-phi({b})| = {abs(tbl[a] - tbl[b])}"
                        f" > lam*d = {cert.lam * M.tuple_distance(a, b)}"
                    )
                    return False, checked, detail
    return True, checked, ""


# ---------------------------------------------------------------------------
# 3. interval distance formula against brute-force minima


def weight_grid(k: int) -> list[list[Fraction]]:
    """Deterministic atom-weight vectors: uniform, ramp, geometric."""
    grids = [[Fraction(1, k)] * k]
    if k > 1:
        total = k * (k + 1) // 2
        grids.append([Fraction(i, total) for i in range(1, k + 1)])
        geo = [Fraction(2**i) for i in range(k)]
        s = sum(geo)
        grids.append([g / s for g in geo])
    out, seen = [], set()
    for g in grids:
        key = tuple(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def _interval_triples(k: int) -> list[tuple[int, int, int]]:
    top = (1 << k) - 1
    triples = []
    for a in range(1 << k):
        free = top & ~a
        s = free
        while True:
            b = a | s
            for x in range(1 << k):
                triples.append((x, a, b))
            if s == 0:
                break
            s = (s - 1) & free
    return triples


@_suite("interval", "interval distance")
def run_interval(rng: random.Random, max_atoms: int = 6, sample_cap: int = DEFAULT_CAP) -> Verdict:
    checked = 0
    for k in range(1, max_atoms + 1):
        all_triples = _interval_triples(k)
        for weights in weight_grid(k):
            A = build_algebra(weights)
            mu_tab = [A.mu(x) for x in A.elements()]
            triples = all_triples
            if len(triples) > sample_cap:
                triples = rng.sample(all_triples, sample_cap)
            for x, a, b in triples:
                got = interval_distance(A, x, a, b)
                free = b & ~a
                s = free
                best = None
                while True:
                    v = mu_tab[x ^ (a | s)]
                    if best is None or v < best:
                        best = v
                    if s == 0:
                        break
                    s = (s - 1) & free
                proj = interval_projection(A, x, a, b)
                checked += 1
                if got != best or not (A.leq(a, proj) and A.leq(proj, b)) or mu_tab[x ^ proj] != got:
                    detail = f"k={k} x={x} a={a} b={b}: formula {got}, brute force {best}"
                    return False, checked, detail
    return True, checked, ""


# ---------------------------------------------------------------------------
# 4. Hahn max-sets against exhaustive argmax


@_suite("hahn", "hahn max-set")
def run_hahn(rng: random.Random, instances: int = 500) -> Verdict:
    for i in range(instances):
        k = rng.randint(1, 6)
        A = build_algebra(random_positive_weights(rng, k))
        vals = tuple(
            Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4, 5])) for _ in range(k)
        )
        f = AdditiveFunction(vals)
        rep = hahn_max_set(A, f)
        table = [f.value(x) for x in A.elements()]
        best = max(table)
        argmax = {x for x in A.elements() if table[x] == best}
        if not A.leq(rep.lower, rep.upper):
            return False, i + 1, f"instance {i}: interval empty"
        if rep.max_value != best or set(A.interval(rep.lower, rep.upper)) != argmax:
            detail = f"instance {i}: atoms {vals}, got max {rep.max_value}, want {best}"
            return False, i + 1, detail
    return True, instances, ""


# ---------------------------------------------------------------------------
# 5. distance tables satisfy the axioms and round-trip through their zero set


@_suite("distance-axioms", "distance-axiom round trip")
def run_distance_axioms(rng: random.Random, instances: int = 500) -> Verdict:
    for i in range(instances):
        M = random_structure(rng, max_size=5)
        n = 1 if M.size > 4 else rng.randint(1, 2)
        D = random_subset(rng, M, n)
        P = distance_predicate(M, D, n)
        rep = check_distance_axioms(M, P)
        if not rep.ok:
            detail = f"instance {i}: axioms fail: {', '.join(rep.failing)}"
            return False, i + 1, detail
        back = zeroset_recover(M, P)
        if back != D:
            return False, i + 1, f"instance {i}: recovered {sorted(back)}"
    return True, instances, ""


# ---------------------------------------------------------------------------
# 6. extreme-point classification against convex-combination search


def oracle_extreme(points: Sequence[tuple[Fraction, ...]], i: int) -> bool:
    """Subset enumeration + Gaussian solves; no linear programming involved.

    Each coordinate is scaled to ints once, over its own denominator, so
    every system [combo | v] plus the convexity row is an int matrix that
    the elimination kernel reduces with no Fraction and no identity block.
    """
    v = points[i]
    others = [p for j, p in enumerate(points) if j != i]
    if not others:
        return True
    dim = len(v)
    for r in range(dim):
        col = [p[r] for p in others]
        if v[r] > max(col) or v[r] < min(col):
            return True
    cols = [int_row([p[r] for p in points])[0] for r in range(dim)]
    scaled = list(zip(*cols))
    v, others = scaled[i], scaled[:i] + scaled[i + 1:]
    for size in range(1, min(len(others), dim + 1) + 1):
        for combo in itertools.combinations(others, size):
            rows = [[p[r] for p in combo] + [v[r]] for r in range(dim)]
            rows.append([1] * (size + 1))
            pivots, _, _ = _row_reduce(rows, size)
            # a free variable means the combo is affinely dependent; its
            # subsets were already tried, so skipping keeps completeness.
            # Otherwise the weights are the pivot rows' right-hand sides
            # over D > 0, and a nonzero one below them is an inconsistency.
            if len(pivots) == size and not any(row[size] for row in rows[size:]) \
                    and all(rows[r][size] >= 0 for r, _ in pivots):
                return False
    return True


@_suite("extreme", "extreme-point oracle")
def run_extreme(rng: random.Random, instances: int = 200) -> Verdict:
    checked = 0
    for i in range(instances):
        if i % 25 == 24:
            nv, nc = 12, 4
        else:
            nv = rng.randint(1, 8)
            nc = rng.randint(1, 4)
        M = random_hull_structure(rng, nv, nc)
        family = FormulaFamily(
            ("x",), tuple(Apply(f"R{c}", (Var("x"),)) for c in range(nc))
        )
        hull = type_hull(M, 1, family)
        rep = extreme_points(hull)
        pts = hull.vertex_values()
        lp_extreme = set(rep.extreme_indices)
        for idx in range(len(pts)):
            checked += 1
            if oracle_extreme(pts, idx) != (idx in lp_extreme):
                detail = f"instance {i}: vertex {idx} of {pts} misclassified"
                return False, checked, detail
        for ev in rep.extreme:
            score = ev.offset + sum(
                (c * x for c, x in zip(ev.coeffs, pts[ev.index])), start=ZERO
            )
            rest = [
                ev.offset + sum((c * x for c, x in zip(ev.coeffs, p)), start=ZERO)
                for j, p in enumerate(pts)
                if j != ev.index
            ]
            if score <= 0 or any(r > 0 for r in rest):
                detail = f"instance {i}: separating functional fails at vertex {ev.index}"
                return False, checked, detail
        for nv_ in rep.non_extreme:
            w = nv_.weights
            mix = tuple(
                sum((wj * pts[j][r] for j, wj in w.items()), start=ZERO)
                for r in range(len(pts[0]))
            )
            if (
                nv_.index in w
                or any(wj < 0 for wj in w.values())
                or sum(w.values(), start=ZERO) != 1
                or mix != pts[nv_.index]
            ):
                detail = f"instance {i}: convex weights fail at vertex {nv_.index}"
                return False, checked, detail
    return True, checked, ""


# ---------------------------------------------------------------------------
# 7. satisfiability dichotomy with certificate re-verification


@_suite("dichotomy", "satisfiability dichotomy")
def run_dichotomy(rng: random.Random, instances: int = 500) -> Verdict:
    sat_count = unsat_count = 0
    for i in range(instances):
        M = random_structure(rng, max_size=4)
        sig = M.signature()
        variables = ("x", "y")[: rng.randint(1, 2)]
        conds = []
        for _ in range(rng.randint(1, 3)):
            lhs = random_formula(rng, sig, variables, depth=rng.randint(0, 2), quantifiers=1)
            if rng.random() < 0.5:
                rhs: object = Scale(random_fraction(rng), One())
            else:
                rhs = random_formula(rng, sig, variables, depth=rng.randint(0, 2), quantifiers=0)
            if rng.random() < 0.5:
                lhs, rhs = rhs, lhs
            conds.append(Condition(lhs, rhs))
        res = affine_satisfiable(M, conds, variables)
        tuples = list(itertools.product(range(M.size), repeat=len(variables)))
        gaps = []
        for c in conds:
            lt = eval_table(M, c.lhs, variables)
            rt = eval_table(M, c.rhs, variables)
            gaps.append({a: rt[a] - lt[a] for a in tuples})
        if res.satisfiable:
            sat_count += 1
            w = res.witness
            bad = (
                w is None
                or res.farkas is not None
                or any(wt < 0 for wt in w.values())
                or sum(w.values(), start=ZERO) != 1
                or any(k not in set(tuples) for k in w)
                or any(sum((wt * g[a] for a, wt in w.items()), start=ZERO) < 0 for g in gaps)
            )
        else:
            unsat_count += 1
            r = res.farkas
            bad = (
                r is None
                or res.witness is not None
                or any(ri < 0 for ri in r)
                or res.margin is None
                or res.margin >= 0
                or res.margin
                != max(
                    sum((r[j] * gaps[j][a] for j in range(len(gaps))), start=ZERO)
                    for a in tuples
                )
            )
        if bad:
            return False, i + 1, f"instance {i}: certificate fails"
    A = build_algebra([ONE])
    Mp = A.to_structure()
    sigp = Mp.signature()
    conds = [
        parse_condition("1/2 * 1 <= mu(x)", sigp),
        parse_condition("mu(x) <= 1/2 * 1", sigp),
    ]
    res = affine_satisfiable(Mp, conds, ("x",))
    want = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    if not res.satisfiable or res.witness != want:
        return False, instances + 1, f"two-point instance: witness {res.witness}, want {want}"
    for e in (0, 1):
        mu_e = Mp.relations["mu"].table[(e,)]
        if mu_e == Fraction(1, 2):
            return False, instances + 1, f"two-point instance: point witness {e} should not exist"
    detail = f"{sat_count} satisfiable / {unsat_count} refuted"
    if sat_count < 20 or unsat_count < 20:
        return False, instances + 1, "generator degenerate: " + detail
    return True, instances + 1, detail


# ---------------------------------------------------------------------------
# 8. probability-algebra extreme types are exactly the types of 0 and 1


@_suite("pra-extreme", "pra extreme types")
def run_pra_extreme(rng: random.Random, max_atoms: int = 6) -> Verdict:
    checked = 0
    for k in range(1, max_atoms + 1):
        for weights in weight_grid(k):
            A = build_algebra(weights)
            M = A.to_structure()
            family = FormulaFamily(("x",), (Apply("mu", (Var("x"),)),))
            hull = type_hull(M, 1, family)
            rep = extreme_points(hull)
            values = hull.vertex_values()
            ext_vals = {values[i] for i in rep.extreme_indices}
            checked += 1
            if ext_vals != {(ZERO,), (ONE,)}:
                detail = f"k={k} weights {weights}: extremes {sorted(ext_vals)}"
                return False, checked, detail
            zero_idx = values.index((ZERO,))
            one_idx = values.index((ONE,))
            if hull.realizations[zero_idx] != ((0,),) or hull.realizations[one_idx] != ((A.top,),):
                detail = f"k={k}: extreme vertices not realized by 0 and 1 alone"
                return False, checked, detail
    return True, checked, ""


# ---------------------------------------------------------------------------
# 9. keisler_decompose inverts barycenter on separating families


@_suite("keisler", "keisler/barycenter inverse")
def run_keisler(rng: random.Random, instances: int = 200) -> Verdict:
    for i in range(instances):
        m = rng.randint(2, 5)
        M = random_first_order_structure(rng, m)
        family = FormulaFamily(
            ("x",), tuple(Apply("d", (Var("x"), Const(f"c{j}"))) for j in range(m))
        )
        hull = type_hull(M, 1, family)
        rep = extreme_points(hull)
        idxs = list(rep.extreme_indices)
        if len(idxs) != m:
            return False, i + 1, f"instance {i}: {len(idxs)} extremes"
        ws = random_ultracharge_weights(rng, m)
        measure = BoundaryMeasure({j: w for j, w in zip(idxs, ws) if w != 0})
        p = barycenter(hull, measure)
        rec = keisler_decompose(hull, p)
        if rec.weights != measure.weights:
            detail = f"instance {i}: got {rec.weights}, want {measure.weights}"
            return False, i + 1, detail
    return True, instances, ""


# ---------------------------------------------------------------------------
# 10. projection identity and graph identities


def lipschitz_map(rng: random.Random, M: FiniteStructure) -> FunctionTable:
    """A random nonexpansive unary map (constant, identity, or resampled)."""
    style = rng.random()
    if style < 0.3:
        c = rng.randrange(M.size)
        table = {(i,): (c,) for i in range(M.size)}
    elif style < 0.5:
        table = {(i,): (i,) for i in range(M.size)}
    else:
        table = None
        for _ in range(60):
            cand = {(i,): (rng.randrange(M.size),) for i in range(M.size)}
            if tight_function_lambda(M.metric, cand) <= 1:
                table = cand
                break
        if table is None:
            table = {(i,): (0,) for i in range(M.size)}
    return FunctionTable(1, 1, tight_function_lambda(M.metric, table), table)


@_suite("projection-graph", "projection and graph identities")
def run_projection_graph(rng: random.Random, instances: int = 200) -> Verdict:
    for i in range(instances):
        M = random_structure(rng, max_size=4)
        lam = rng.choice([Fraction(1, 2), ONE, Fraction(2)])
        head = 1 if M.size > 3 else rng.randint(1, 2)
        P = random_predicate_lipschitz_tail(rng, M, head, 1, lam)
        D = random_subset(rng, M, 1)
        rep = inf_over_definable(M, D, P, lam)
        if not rep.identity_holds:
            return False, i + 1, f"instance {i}: projection identity fails"
        f = lipschitz_map(rng, M)
        g = check_graph_identities(M, f)
        if not g.ok:
            which = "forward" if not g.forward_holds else "backward"
            return False, i + 1, f"instance {i}: {which} graph identity fails"
    return True, instances, ""


# ---------------------------------------------------------------------------
# 11. invariant types are pushforward-fixed


@_suite("invariant", "invariant type")
def run_invariant(rng: random.Random, instances: int = 200) -> Verdict:
    for i in range(instances):
        M = random_structure(rng, max_size=5)
        sig = M.signature()
        f = random_function_table(rng, M, 1, 1)
        formulas = tuple(
            random_formula(rng, sig, ("x",), depth=rng.randint(1, 2), quantifiers=1)
            for _ in range(rng.randint(1, 2))
        )
        family = FormulaFamily(("x",), formulas)
        p = invariant_type(M, f, family)
        w = p.witness
        if w is None:
            return False, i + 1, f"instance {i}: no witness"
        if pushforward(f, w) != w:
            return False, i + 1, f"instance {i}: witness not invariant"
        for j, phi in enumerate(family.formulas):
            tbl = eval_table(M, phi, ("x",))
            composed = sum(
                (wt * tbl[f.table[a]] for a, wt in w.items()), start=ZERO
            )
            if composed != p.values[j]:
                detail = f"instance {i}: p(phi_{j} o f) = {composed} != {p.values[j]}"
                return False, i + 1, detail
    return True, instances, ""


# ---------------------------------------------------------------------------
# run by key


def run_suites(names: Sequence[str] | None = None, seed: int = 0) -> list[SuiteResult]:
    picked = list(SUITES) if names is None else list(names)
    results = []
    for name in picked:
        if name not in SUITES:
            raise AffineLogicError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        results.append(SUITES[name](seed))
    return results
