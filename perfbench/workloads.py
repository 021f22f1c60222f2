"""The four workloads: seeded input generation, timed calls, checks.

Each workload has three parts.  make() builds a pool of instances from a
seeded generator during set-up; it may call the library to build inputs
(ultramean quotients, algebra exports, reference files), because set-up is
never traced.  run() holds nothing but library calls: it is the timed
region of one instance.  check() re-verifies what run() returned using
only checks.py, outside the timed region, and raises CheckFailed.

Sizes are drawn from stratified schedules: every block of instances covers
the stated size mix exactly once in a seeded order, so two seeds differ in
the random contents of the inputs and not in how much work the mix holds.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import checks
from checks import require

ONE = Fraction(1)


def structure_family(lib, rng: random.Random, count: int, max_size: int, cap: int) -> list:
    """sampling.random_structure_family, refusing arguments it cannot meet.

    Every factor has at least 2 elements, so a product cap below 2**count
    makes the sampler loop forever; fail fast instead.
    """
    if count < 1 or max_size < 2 or count > math.log2(cap):
        raise ValueError(
            f"{count} factors of at least 2 elements cannot fit product cap {cap}"
        )
    return lib.sampling.random_structure_family(rng, count, max_size=max_size, product_cap=cap)


def stratified(rng: random.Random, strata: list, count: int) -> list:
    """count draws that cycle through every stratum once per block, shuffled."""
    out: list = []
    while len(out) < count:
        block = list(strata)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def has_quantifier(phi) -> bool:
    kind = type(phi).__name__
    if kind in ("Inf", "Sup"):
        return True
    if kind == "Scale":
        return has_quantifier(phi.body)
    if kind == "Sum":
        return has_quantifier(phi.left) or has_quantifier(phi.right)
    return False


def quantified_formula(lib, rng, sig, variables, depth_range):
    """Random formula with exactly one quantifier.

    Over at most two free variables, its subformula tables then have at most
    three variables, which bounds what eval_table fills.
    """
    while True:
        phi = lib.sampling.random_formula(
            rng, sig, variables, depth=rng.randint(*depth_range), quantifiers=1
        )
        if has_quantifier(phi):
            return phi


def random_conditions(lib, rng, M, variables, count: int) -> list:
    """count quantified conditions 'lhs <= rhs' over the variables (as in c07)."""
    syn = lib.syntax
    sig = M.signature()
    conds = []
    for _ in range(count):
        lhs = quantified_formula(lib, rng, sig, variables, (1, 2))
        if rng.random() < 0.5:
            rhs = syn.Scale(lib.sampling.random_fraction(rng), syn.One())
        else:
            rhs = lib.sampling.random_formula(rng, sig, variables, depth=rng.randint(0, 2), quantifiers=0)
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        conds.append(syn.Condition(lhs, rhs))
    return conds


# ---------------------------------------------------------------------------
# hull: type geometry, dominated by the LP kernel

# (vertices, unary relations) strata.  Random points in 6 coordinates are all
# extreme, so the largest cells cost several times the mean; cells with
# vertices * relations above HULL_WORK_CAP stay out of the mix.
HULL_WORK_CAP = 144
HULL_STRATA = [
    (nv, nc) for nv in range(16, 49, 8) for nc in range(3, 7) if nv * nc <= HULL_WORK_CAP
]
HULL_FIRST_ORDER_EVERY = 4  # one instance in 4 is first-order and decomposed


@dataclass
class HullInstance:
    M: Any
    relations: tuple[str, ...]
    family: Any
    sat_structure: Any
    conditions: list
    measure: Any = None  # first-order instances: barycenter -> keisler_decompose


def _first_order_hull(lib, rng, nv: int, nc: int):
    """Discrete structure whose 0/1 relation vectors are 0 and the unit vectors.

    Those nc + 1 vectors are affinely independent, so every hull vertex is
    extreme and keisler_decompose has a unique answer.
    """
    model = lib.model
    vectors = [tuple(ONE if c == k else Fraction(0) for c in range(nc)) for k in range(-1, nc)]
    pick = list(range(nc + 1)) + [rng.randrange(nc + 1) for _ in range(nv - nc - 1)]
    rng.shuffle(pick)
    metric = tuple(
        tuple(Fraction(0) if i == j else ONE for j in range(nv)) for i in range(nv)
    )
    relations = {
        f"R{c}": model.RelationInterp(1, ONE, {(i,): vectors[pick[i]][c] for i in range(nv)})
        for c in range(nc)
    }
    return model.FiniteStructure(
        elements=tuple(f"v{i}" for i in range(nv)), metric=metric,
        constants={}, functions={}, relations=relations,
    )


def make_hull(lib, rng: random.Random, workdir: Path, count: int) -> list:
    ts, syn = lib.typespace, lib.syntax
    sizes = stratified(rng, HULL_STRATA, count)
    pool = []
    for i, (nv, nc) in enumerate(sizes):
        first_order = i % HULL_FIRST_ORDER_EVERY == HULL_FIRST_ORDER_EVERY - 1
        if first_order:
            M = _first_order_hull(lib, rng, nv, nc)
        else:
            M = lib.sampling.random_hull_structure(rng, nv, nc)
        relations = tuple(f"R{c}" for c in range(nc))
        family = ts.FormulaFamily(("x",), tuple(syn.Apply(r, (syn.Var("x"),)) for r in relations))
        S = lib.sampling.random_structure(rng, max_size=4)
        conds = random_conditions(lib, rng, S, ("x", "y"), rng.randint(2, 4))
        measure = None
        if first_order:
            weights = lib.sampling.random_positive_weights(rng, nc + 1)
            measure = ts.BoundaryMeasure(dict(enumerate(weights)))
        pool.append(HullInstance(M, relations, family, S, conds, measure))
    return pool


def run_hull(lib, inst: HullInstance):
    ts = lib.typespace
    hull = ts.type_hull(inst.M, 1, inst.family)
    report = ts.extreme_points(hull)
    sat = ts.affine_satisfiable(inst.sat_structure, inst.conditions, ("x", "y"))
    if inst.measure is None:
        return hull, report, sat, None, None
    p = ts.barycenter(hull, inst.measure)
    return hull, report, sat, p, ts.keisler_decompose(hull, p)


def check_hull(inst: HullInstance, out) -> None:
    hull, report, sat, p, back = out
    points = checks.check_hull(inst.M, inst.relations, hull)
    checks.check_extreme(points, report)
    tps, gaps = checks.condition_gaps(inst.sat_structure, inst.conditions, ("x", "y"))
    checks.check_satisfiable(tps, gaps, sat)
    if inst.measure is not None:
        w = inst.measure.weights
        mix = tuple(
            sum((x * points[j][c] for j, x in w.items()), start=Fraction(0))
            for c in range(len(inst.relations))
        )
        require(tuple(p.values) == mix, "barycenter is not the weighted mix")
        require(back.weights == w, "keisler_decompose does not return the measure")


def mix_hull(done: list) -> dict:
    nvs = [inst.M.size for inst in done]
    ncs = [len(inst.relations) for inst in done]
    return {
        "vertices_range": [min(nvs), max(nvs)],
        "relations_range": [min(ncs), max(ncs)],
        "first_order": sum(inst.measure is not None for inst in done),
        "conditions": sum(len(inst.conditions) for inst in done),
        "strata": len(HULL_STRATA),
    }


# ---------------------------------------------------------------------------
# checks: validity and distance-axiom checks, dominated by pair scans and
# many 3-row LPs

CHECK_KINDS = ("quotient_S", "quotient", "pra", "random")
# Sizes by kind: quotient classes, algebra atoms, elements.  Each block of 16
# instances holds every (kind, size) cell once, so the heavy cells (an S
# quotient of 12 classes scans 12**4 pairs) keep a fixed share.
CHECK_SIZES = {
    "quotient_S": (4, 6, 8, 12),
    "quotient": (4, 6, 8, 12),
    "pra": (1, 2, 3, 3),      # a 4-atom export takes over a second to validate
    "random": (2, 3, 4, 5),
}
TUPLE_SPACE_CAP = 25  # approachability solves one LP per tuple: arity 2 only if m**2 <= 25
PERTURB_SHIFTS = (Fraction(1, 5), Fraction(1, 7), Fraction(1, 9))


@dataclass
class ChecksInstance:
    kind: str
    M: Any
    n: int
    D: frozenset
    D1: frozenset                # arity-1 set for is_definable_set
    family: Any
    expected: dict               # distance table of D, computed independently
    perturbed: Any = None        # a shifted, non-distance PredicateTable


def _with_s(lib, rng, factors: list, want: bool) -> list:
    """The factors with the binary relation S added or dropped."""
    if ("S" in factors[0].relations) == want:
        return factors
    if not want:
        return [replace(F, relations={k: v for k, v in F.relations.items() if k != "S"})
                for F in factors]
    lam = rng.choice((Fraction(1, 2), ONE))
    return [
        replace(F, relations={**F.relations, "S": lib.model.RelationInterp(
            2, lam, lib.sampling.lipschitz_relation(rng, F.metric, 2, lam, F.size))})
        for F in factors
    ]


def _checks_structure(lib, rng, kind: str, size: int):
    if kind == "pra":
        return lib.pra.build_algebra(lib.sampling.random_positive_weights(rng, size)).to_structure()
    if kind == "random":
        while True:
            M = lib.sampling.random_structure(rng, max_size=size)
            if M.size == size:
                return M
    while True:
        factors = structure_family(lib, rng, 2, 4, size)
        if factors[0].size * factors[1].size == size:
            break
    factors = _with_s(lib, rng, factors, kind == "quotient_S")
    mu = lib.mean.Ultracharge(lib.sampling.random_positive_weights(rng, 2))
    return lib.mean.build_ultramean(factors, mu).structure


def make_checks(lib, rng: random.Random, workdir: Path, count: int) -> list:
    pool = []
    for i in range(count):
        q, j, block = i % 4, (i // 4) % 4, i // 16
        kind = CHECK_KINDS[q]
        perturb = j == (q + block) % 4  # each kind once per block, rotating over sizes
        M = _checks_structure(lib, rng, kind, CHECK_SIZES[kind][j])
        n = 2 if M.size ** 2 <= TUPLE_SPACE_CAP else 1
        D = lib.sampling.random_subset(rng, M, n)
        D1 = D if n == 1 else frozenset((a[0],) for a in D)
        sig = M.signature()
        family = lib.typespace.FormulaFamily(("x",), tuple(
            lib.sampling.random_formula(rng, sig, ("x",), depth=rng.randint(1, 2), quantifiers=1)
            for _ in range(2)
        ))
        expected = checks.distance_table(M, D, n)
        perturbed = None
        if perturb:
            shift = rng.choice(PERTURB_SHIFTS)
            perturbed = lib.definability.PredicateTable(
                n, {a: v + shift for a, v in expected.items()}
            )
        pool.append(ChecksInstance(kind, M, n, D, D1, family, expected, perturbed))
    return pool


def run_checks(lib, inst: ChecksInstance):
    dfn = lib.definability
    valid = lib.model.validate_structure(inst.M)
    P = dfn.distance_predicate(inst.M, inst.D, inst.n)
    Q = P if inst.perturbed is None else inst.perturbed
    axioms = dfn.check_distance_axioms(inst.M, Q)
    try:
        zero = dfn.zeroset_recover(inst.M, Q)
    except dfn.DefinabilityError as exc:
        zero = exc
    definable = dfn.is_definable_set(inst.M, inst.D1, inst.family)
    return valid, P, axioms, zero, definable


def check_checks(inst: ChecksInstance, out) -> None:
    valid, P, axioms, zero, definable = out
    require(valid.ok, f"valid {inst.kind} structure reported invalid: {valid}")
    require(P.values == inst.expected, "distance predicate is wrong")
    if inst.perturbed is None:
        require(axioms.ok, "a distance predicate fails the axioms")
        require(zero == inst.D, "zero set does not recover D")
    else:
        require(axioms.nonnegative.ok and axioms.nonexpansive.ok,
                "shifted predicate should stay nonnegative and nonexpansive")
        require(not axioms.approachable.ok, "shifted predicate reported approachable")
        checks.check_approach_refutation(inst.M, inst.perturbed.values, axioms.approachable.witness)
        require(type(zero).__name__ == "DefinabilityError", "zeroset_recover did not refuse")
    dist1 = checks.distance_table(inst.M, inst.D1, 1)
    require(definable.distance.values == dist1, "is_definable_set distance table is wrong")
    checks.check_definable(inst.M, inst.family, dist1, definable)


def mix_checks(done: list) -> dict:
    sizes = [inst.M.size for inst in done]
    quotients = [inst for inst in done if inst.kind.startswith("quotient")]
    return {
        "kinds": {k: sum(inst.kind == k for inst in done) for k in CHECK_KINDS},
        "size_range": [min(sizes), max(sizes)],
        "tuple_space_range": [min(inst.M.size ** inst.n for inst in done),
                              max(inst.M.size ** inst.n for inst in done)],
        "arity2_share": sum(inst.n == 2 for inst in done) / len(done),
        "quotient_S_share": (sum(inst.kind == "quotient_S" for inst in quotients) / len(quotients)
                             if quotients else 0.0),
        "perturbed_share": sum(inst.perturbed is not None for inst in done) / len(done),
    }


# ---------------------------------------------------------------------------
# means: formula evaluation over ultrameans; no LP, no validation

MEAN_PRODUCT = (12, 24)  # quotient sizes; full-support weights keep every class
MEAN_CELLS = 20000        # table cells per instance, estimated from formula shapes
MEAN_FORMULA_CELLS = MEAN_CELLS // 10  # no filler formulas: at most about 15
MEAN_POINTS = 3           # raw points per formula for the identity


@dataclass
class MeansInstance:
    factors: list
    mu: Any
    sig: Any
    texts: list
    formulas: list   # parsed in set-up, for the checks only
    raws: list


def table_cells(phi, m: int) -> int:
    """Cells eval_table fills for phi: each subformula over its free variables."""
    own = m ** len(checks.free_vars(phi))
    kind = type(phi).__name__
    if kind in ("One", "Apply"):
        return own
    if kind == "Sum":
        return own + table_cells(phi.left, m) + table_cells(phi.right, m)
    return own + table_cells(phi.body, m)


def make_means(lib, rng: random.Random, workdir: Path, count: int) -> list:
    """Each instance gets formulas until their tables hold MEAN_CELLS cells
    (up to 1.5 times that).  Table cells predict eval_table time closely and
    grow as classes**3, so a fixed budget keeps instances of 12 and of 24
    classes at about the same cost, and two seeds at about the same mix."""
    low, high = MEAN_PRODUCT
    pool = []
    for count_k in stratified(rng, [2, 3], count):
        while True:
            factors = structure_family(lib, rng, count_k, 4, high)
            m = math.prod(M.size for M in factors)
            if m >= low:
                break
        mu = lib.mean.Ultracharge(lib.sampling.random_positive_weights(rng, count_k))
        sig = factors[0].signature()
        formulas, cells = [], 0
        while cells < MEAN_CELLS:
            phi = quantified_formula(lib, rng, sig, ("x", "y"), (2, 3))
            size = table_cells(phi, m)
            if MEAN_FORMULA_CELLS <= size and cells + size <= MEAN_CELLS * 3 // 2:
                formulas.append(phi)
                cells += size
        raws = [
            {v: tuple(rng.randrange(M.size) for M in factors) for v in ("x", "y")}
            for _ in range(MEAN_POINTS)
        ]
        texts = [lib.syntax.render(phi) for phi in formulas]
        pool.append(MeansInstance(factors, mu, sig, texts, formulas, raws))
    return pool


def run_means(lib, inst: MeansInstance):
    mean_mod, model = lib.mean, lib.model
    phis = [lib.syntax.parse_formula(text, inst.sig) for text in inst.texts]
    mean = mean_mod.build_ultramean(inst.factors, inst.mu)
    tables = [model.eval_table(mean.structure, phi, ("x", "y")) for phi in phis]
    reports = [
        [mean_mod.check_ultramean_identity(inst.factors, inst.mu, phi, raw, mean=mean)
         for raw in inst.raws]
        for phi in phis
    ]
    return phis, mean, tables, reports


def check_means(inst: MeansInstance, out) -> None:
    phis, mean, tables, reports = out
    Q = mean.structure
    weights = inst.mu.weights
    for phi, table, reps in zip(phis, tables, reports):
        require(len(table) == Q.size ** 2, "eval_table misses cells")
        corner = (Q.size - 1, Q.size - 1)
        for cell in ((0, 0), corner):
            require(table[cell] == checks.formula_value(Q, phi, dict(zip(("x", "y"), cell))),
                    f"eval_table wrong at {cell}")
        for raw, rep in zip(inst.raws, reps):
            integral = sum(
                (w * checks.formula_value(M, phi, {v: raw[v][i] for v in raw})
                 for i, (M, w) in enumerate(zip(inst.factors, weights)) if w > 0),
                start=Fraction(0),
            )
            cell = (checks.class_of(mean, raw["x"]), checks.class_of(mean, raw["y"]))
            require(rep.equal, "ultramean identity reported unequal")
            require(rep.quotient_value == integral == rep.integral_value,
                    "identity sides differ from the weighted factor average")
            require(table[cell] == integral, "eval_table disagrees with the identity")


def mix_means(done: list) -> dict:
    return {
        "factors_range": [min(len(i.factors) for i in done), max(len(i.factors) for i in done)],
        "formulas": sum(len(i.texts) for i in done),
        "formulas_range": [min(len(i.texts) for i in done), max(len(i.texts) for i in done)],
        "identity_points": sum(len(i.texts) * len(i.raws) for i in done),
        "classes_range": [min(math.prod(M.size for M in i.factors) for i in done),
                          max(math.prod(M.size for M in i.factors) for i in done)],
    }


# ---------------------------------------------------------------------------
# cli: a scripted in-process session of cli.main calls on reference files


@dataclass
class Command:
    argv: list
    code: int                       # expected exit code
    check: Callable[[dict], None]   # check of the decoded --json payload


def _session(lib, rng: random.Random, d: Path, i: int) -> list:
    """Session i: the hull size, the algebra's atom count and whether the
    distance predicate is shifted cycle with i, so every seed has one mix."""
    smp, syn, ser = lib.sampling, lib.syntax, lib.serialize
    d.mkdir(parents=True, exist_ok=True)
    S = smp.random_structure(rng, max_size=4)
    sig = S.signature()
    s_path = str(d / "s.json")
    ser.save_structure(S, s_path)
    # argparse reads a leading '-' as an option, so formula arguments avoid it
    while True:
        phi = quantified_formula(lib, rng, sig, ("x", "y"), (1, 3))
        text = syn.render(phi)
        if not text.startswith("-"):
            break
    fv = sorted(checks.free_vars(phi))
    cert = syn.certificate(phi, sig)
    asg = {v: rng.randrange(S.size) for v in ("x", "y")}
    value = checks.formula_value(S, phi, asg)
    session: list[Command] = []  # each command runs without and with --json
    add = session.append

    add(Command(["parse", text, "--structure", s_path], 0, lambda p: require(
        p == {"formula": text, "free_variables": fv}, "parse payload")))
    add(Command(["cert", text, "--structure", s_path], 0, lambda p: require(
        Fraction(p["lam"]) == cert.lam and Fraction(p["bound"]) == cert.bound, "cert payload")))
    add(Command(["eval", text, "--structure", s_path]
                + [f"--assign={v}={S.elements[e]}" for v, e in asg.items()], 0,
                lambda p: require(Fraction(p["value"]) == value, "eval payload")))

    autos = sorted(p for p in itertools.permutations(range(S.size)) if checks.is_automorphism(S, p))
    add(Command(["automorphisms", "--structure", s_path], 0, lambda p: require(
        p["count"] == len(autos) and sorted(map(tuple, p["permutations"])) == autos,
        "automorphisms payload")))

    factors = structure_family(lib, rng, 2, 4, 16)
    f_paths = []
    for k, F in enumerate(factors):
        f_paths.append(str(d / f"f{k}.json"))
        ser.save_structure(F, f_paths[-1])
    weights = smp.random_positive_weights(rng, 2)
    while True:
        psi = quantified_formula(lib, rng, factors[0].signature(), ("x",), (1, 2))
        if not syn.render(psi).startswith("-"):
            break
    raw = tuple(rng.randrange(F.size) for F in factors)
    integral = sum((w * checks.formula_value(F, psi, {"x": r})
                    for F, w, r in zip(factors, weights, raw)), start=Fraction(0))
    add(Command(["ultramean", "verify", syn.render(psi)]
                + [a for p in f_paths for a in ("--structure", p)]
                + ["--mu", ",".join(map(str, weights)), "--assign",
                   "x=" + ",".join(F.elements[r] for F, r in zip(factors, raw))], 0,
                lambda p: require(p["equal"] is True and Fraction(p["quotient"]) == integral
                                  == Fraction(p["integral"]), "ultramean payload")))

    H = smp.random_hull_structure(rng, 8 + i % 5, 3)
    h_path, fam_path = str(d / "h.json"), str(d / "family.txt")
    ser.save_structure(H, h_path)
    Path(fam_path).write_text("R0(x)\nR1(x)\nR2(x)\n")
    points = list(dict.fromkeys(
        tuple(H.relations[f"R{c}"].table[(x,)] for c in range(3)) for x in range(H.size)))

    def check_extreme_payload(p):
        report = SimpleNamespace(
            extreme=[SimpleNamespace(index=e["index"], offset=Fraction(e["offset"]),
                                     coeffs=tuple(map(Fraction, e["coeffs"])))
                     for e in p["extreme"]],
            non_extreme=[SimpleNamespace(index=n["index"],
                                         weights={int(j): Fraction(w) for j, w in n["weights"].items()})
                         for n in p["non_extreme"]],
        )
        checks.check_extreme(points, report)

    add(Command(["types", "extreme", "--structure", h_path, "--family", fam_path], 0,
                check_extreme_payload))

    conds = random_conditions(lib, rng, S, ("x", "y"), 2)
    tps, gaps = checks.condition_gaps(S, conds, ("x", "y"))
    sat = lib.typespace.affine_satisfiable(S, conds, ("x", "y"))

    def check_sat_payload(p):
        if p["satisfiable"]:
            witness = {tuple(S.element_index(e) for e in k.split(",")): Fraction(w)
                       for k, w in p["witness"].items()}
            res = SimpleNamespace(satisfiable=True, witness=witness, farkas=None, margin=None)
        else:
            res = SimpleNamespace(satisfiable=False, witness=None,
                                  farkas=tuple(map(Fraction, p["farkas"])), margin=Fraction(p["margin"]))
        checks.check_satisfiable(tps, gaps, res)

    add(Command(["types", "satisfiable", "--structure", s_path, "--vars", "x,y"]
                + [f"--condition={syn.render_condition(c)}" for c in conds],
                0 if sat.satisfiable else 1, check_sat_payload))

    D = smp.random_subset(rng, S, 1)
    table = checks.distance_table(S, D, 1)
    shifted = i % 4 == 3
    if shifted:
        table = {a: v + PERTURB_SHIFTS[0] for a, v in table.items()}
    p_path = str(d / "p.json")
    ser.save_predicate(lib.definability.PredicateTable(1, table), p_path)
    add(Command(["defcheck", "distance-axioms", "--structure", s_path, "--predicate", p_path],
                1 if shifted else 0, lambda p: require(
                    p["nonnegative"]["ok"] and p["nonexpansive"]["ok"]
                    and p["approachable"]["ok"] is not shifted, "distance-axioms payload")))

    k = 1 + i % 3  # at most 3 atoms: a 4-atom export takes over a second to validate
    atoms = ",".join(map(str, smp.random_positive_weights(rng, k)))
    add(Command(["pra", "build", "--atoms", atoms], 0, lambda p: require(
        p["valid"] is True and p["elements"] == 2 ** k, "pra build payload")))
    values = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(k)]
    upper = "".join("1" if v >= 0 else "0" for v in values)
    lower = "".join("0" if v <= 0 else "1" for v in values)
    best = sum((v for v in values if v > 0), start=Fraction(0))
    add(Command(["pra", "hahn", "--atoms", atoms, "--values=" + ",".join(map(str, values))], 0,
                lambda p: require(p["upper"] == upper and p["lower"] == lower
                                  and Fraction(p["max"]) == best, "pra hahn payload")))
    return session


def make_cli(lib, rng: random.Random, workdir: Path, count: int) -> list:
    return [_session(lib, rng, workdir / f"s{i}", i) for i in range(count)]


def run_cli(lib, session: list):
    out = []
    for cmd in session:
        for extra in ([], ["--json"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = lib.cli.main(cmd.argv + extra)
            out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


def check_cli(session: list, out) -> None:
    require(len(out) == 2 * len(session), "session did not run every command")
    for i, (code, stdout, stderr) in enumerate(out):
        cmd = session[i // 2]
        name = " ".join(cmd.argv[:2])
        require(code == cmd.code, f"{name}: exit code {code}, expected {cmd.code}")
        require(stdout.strip() and not stderr, f"{name}: no output or an error message")
        if i % 2:
            cmd.check(json.loads(stdout))


def mix_cli(done: list) -> dict:
    return {
        "commands_per_session": 2 * len(done[0]),
        "sessions": len(done),
        "refuted_satisfiable": sum(c.code for s in done for c in s
                                   if c.argv[:2] == ["types", "satisfiable"]),
        "shifted_predicates": sum(c.code for s in done for c in s
                                  if c.argv[:2] == ["defcheck", "distance-axioms"]),
    }


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json."""

    name: str
    make: Callable
    run: Callable
    check: Callable
    mix: Callable
    pool: int     # instances generated per set-up; the loop cycles through them
    traced: int   # instances in the traced run, a whole number of strata blocks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hull", make_hull, run_hull, check_hull, mix_hull, pool=160, traced=4 * len(HULL_STRATA)),
        Workload("checks", make_checks, run_checks, check_checks, mix_checks, pool=128, traced=128),
        Workload("means", make_means, run_means, check_means, mix_means, pool=48, traced=48),
        Workload("cli", make_cli, run_cli, check_cli, mix_cli, pool=48, traced=32),
    )
}
