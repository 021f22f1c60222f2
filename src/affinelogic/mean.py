"""Weighted means of finite structures over a common signature.

Given factors M_1, ..., M_k and rational probability weights mu, the mean
structure lives on the product domain modulo the pseudometric
sum_i mu_i * d_i; constants and functions act coordinatewise, relations are
averaged.  The point of the construction: every formula's value at a class
equals the mu-weighted average of its values in the factors, exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import AffineLogicError
from .linalg import fractions_over, int_row
from .model import FiniteStructure, FunctionInterp, RelationInterp, eval_formula
from .syntax import Formula, free_vars

ZERO = Fraction(0)

DEFAULT_CAP = 4096


class MeanError(AffineLogicError, ValueError):
    pass


class SignatureMismatchError(MeanError):
    pass


class CapExceededError(MeanError):
    pass


@dataclass(frozen=True)
class Ultracharge:
    """Rational probability weights over a finite index set."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if not self.weights:
            raise MeanError("an ultracharge needs at least one index")
        if any(w < 0 for w in self.weights):
            raise MeanError("ultracharge weights must be nonnegative")
        if sum(self.weights) != 1:
            raise MeanError("ultracharge weights must sum to 1")

    def __len__(self) -> int:
        return len(self.weights)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)


@dataclass
class MeanStructure:
    """The quotient structure plus the bookkeeping to address raw tuples."""

    structure: FiniteStructure
    factors: tuple[FiniteStructure, ...]
    mu: Ultracharge
    class_reps: tuple[tuple[int, ...], ...]
    _index: dict[tuple[int, ...], int]
    support: tuple[int, ...]

    def class_index(self, raw: Sequence[int]) -> int:
        """Quotient element of a raw product tuple (one index per factor)."""
        raw = tuple(raw)
        if len(raw) != len(self.factors):
            raise MeanError("raw tuple length must equal the factor count")
        for i, (x, f) in enumerate(zip(raw, self.factors)):
            if not 0 <= x < f.size:
                raise MeanError(f"coordinate {i} out of range")
        return self._index[tuple(raw[i] for i in self.support)]


def build_ultramean(
    structures: Sequence[FiniteStructure],
    mu: Ultracharge,
    cap: int = DEFAULT_CAP,
) -> MeanStructure:
    """Construct the mean of the factors under mu.

    Factors must share a signature; the raw product of domain sizes must stay
    within cap.  Zero-weight factors do not affect the quotient: classes are
    keyed by the coordinates in the support of mu.
    """
    if len(structures) != len(mu):
        raise MeanError("factor count must match the ultracharge length")
    sigs = [M.signature() for M in structures]
    for other in sigs[1:]:
        if other != sigs[0]:
            raise SignatureMismatchError("factors must share one signature")
    product = 1
    for M in structures:
        product *= M.size
    if product > cap:
        raise CapExceededError(f"raw product {product} exceeds cap {cap}")

    support = mu.support()
    reps: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for raw in itertools.product(*(range(M.size) for M in structures)):
        key = tuple(raw[i] for i in support)
        if key not in index:
            index[key] = len(reps)
            reps.append(raw)

    # Every stored value is sum_i mu_i * v_i over the support, accumulated
    # from the factors' int forms as an int numerator over wden * lcm(their
    # denominators), with one Fraction per distinct numerator.
    w, wden = int_row([mu.weights[i] for i in support])
    size = len(reps)

    def weighted(forms) -> tuple[list[int], int]:
        """Int multipliers for the support factors' (nums, den) forms, each
        mu_i * wden * lcm(dens) / den_i, and the common denominator
        wden * lcm(dens) of the weighted sums."""
        den = math.lcm(*[d for _, d in forms])
        return [wi * (den // d) for wi, (_, d) in zip(w, forms)], wden * den

    metrics = [structures[i].int_metric for i in support]
    scale, dden = weighted(metrics)
    pairs = list(itertools.combinations(range(size), 2))
    dist = [0] * len(pairs)
    for i, s, (d, _) in zip(support, scale, metrics):
        dist = [
            n + s * d[reps[p][i]][reps[q][i]] for n, (p, q) in zip(dist, pairs)
        ]
    metric = [[ZERO] * size for _ in range(size)]
    for (p, q), dpq in zip(pairs, fractions_over(dist, dden)):
        metric[p][q] = metric[q][p] = dpq

    labels = tuple(
        "[" + ",".join(M.elements[x] for M, x in zip(structures, rep)) + "]"
        for rep in reps
    )

    def cls(raw: tuple[int, ...]) -> int:
        return index[tuple(raw[i] for i in support)]

    constants = {
        name: cls(tuple(M.constants[name] for M in structures))
        for name in sigs[0].constants
    }

    functions: dict[str, FunctionInterp] = {}
    for name, info in sigs[0].functions.items():
        table: dict[tuple[int, ...], int] = {}
        for args in itertools.product(range(size), repeat=info.arity):
            raw_out = tuple(
                structures[i].functions[name].table[tuple(reps[a][i] for a in args)]
                for i in range(len(structures))
            )
            table[args] = cls(raw_out)
        functions[name] = FunctionInterp(info.arity, info.lam, table)

    relations: dict[str, RelationInterp] = {}
    for name, info in sigs[0].relations.items():
        forms = [structures[i].int_relations[name] for i in support]
        scale, rden = weighted(forms)
        keys = list(itertools.product(range(size), repeat=info.arity))
        nums = [0] * len(keys)
        for i, s, (t, _) in zip(support, scale, forms):
            # the factor's row-major index of each key, in key order
            m, coord, idx = structures[i].size, [rep[i] for rep in reps], [0]
            for _ in range(info.arity):
                idx = [j * m + c for j in idx for c in coord]
            nums = [n + s * t[j] for n, j in zip(nums, idx)]
        table_r = dict(zip(keys, fractions_over(nums, rden)))
        relations[name] = RelationInterp(info.arity, info.lam, table_r)

    quotient = FiniteStructure(
        elements=labels,
        metric=tuple(tuple(row) for row in metric),
        constants=constants,
        functions=functions,
        relations=relations,
    )
    return MeanStructure(quotient, tuple(structures), mu, tuple(reps), index, support)


def powermean(M: FiniteStructure, mu: Ultracharge, cap: int = DEFAULT_CAP) -> MeanStructure:
    """Mean of len(mu) copies of the same structure."""
    return build_ultramean([M] * len(mu), mu, cap=cap)


def diagonal_class(mean: MeanStructure, element: int) -> int:
    """Quotient element of the constant tuple (e, e, ..., e)."""
    return mean.class_index((element,) * len(mean.factors))


@dataclass(frozen=True)
class UltrameanReport:
    """Both sides of the mean identity for one formula and assignment."""

    quotient_value: Fraction
    integral_value: Fraction

    @property
    def equal(self) -> bool:
        return self.quotient_value == self.integral_value

    def __bool__(self) -> bool:
        return self.equal


def check_ultramean_identity(
    structures: Sequence[FiniteStructure],
    mu: Ultracharge,
    phi: Formula,
    raw_tuples: Mapping[str, Sequence[int]],
    mean: MeanStructure | None = None,
) -> UltrameanReport:
    """Compare phi at quotient classes against the weighted factor average.

    raw_tuples assigns to each free variable one element index per factor.
    The two values are exact rationals and the identity asserts equality.
    """
    if mean is None:
        mean = build_ultramean(structures, mu)
    fv = free_vars(phi)
    missing = fv - set(raw_tuples)
    if missing:
        raise MeanError(f"raw tuples missing for variables {sorted(missing)}")
    for var, raw in raw_tuples.items():
        if len(raw) != len(structures):
            raise MeanError(f"raw tuple for {var!r} must list one element per factor")

    quotient_asg = {var: mean.class_index(tuple(raw)) for var, raw in raw_tuples.items()}
    quotient_value = eval_formula(mean.structure, phi, quotient_asg)

    integral_value = ZERO
    for i in mean.support:
        asg_i = {var: raw_tuples[var][i] for var in raw_tuples}
        integral_value += mu.weights[i] * eval_formula(structures[i], phi, asg_i)
    return UltrameanReport(quotient_value, integral_value)
