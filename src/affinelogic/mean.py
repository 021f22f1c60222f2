"""Weighted means of finite structures over a common signature.

Given factors M_1, ..., M_k and rational probability weights mu, the mean
structure lives on the product domain modulo the pseudometric
sum_i mu_i * d_i, so a class is a tuple over the support of mu; constants
and functions act coordinatewise, and the metric and every relation are
averaged by one rule.  The point of the construction: every formula's value
at a class equals the mu-weighted average of its values in the factors,
exactly.
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
    within cap.  The classes are the tuples over the support of mu, in
    product order; zero-weight factors do not affect the quotient and their
    tables are never read.  A class is represented by its first raw tuple,
    which has element 0 at every zero-weight coordinate, and labelled by
    that tuple's element labels, "[x,y,...]".
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
    if product == 0:
        raise MeanError("every factor needs at least one element")
    if product > cap:
        raise CapExceededError(f"raw product {product} exceeds cap {cap}")

    support = mu.support()
    factors = [structures[i] for i in support]
    keys = list(itertools.product(*(range(M.size) for M in factors)))
    index = {key: c for c, key in enumerate(keys)}
    # each class's first raw tuple, in the same order: element 0 at every
    # zero-weight coordinate
    reps = list(itertools.product(*(
        range(M.size) if weight else (0,) for M, weight in zip(structures, mu.weights))))
    labels = tuple(
        "[" + ",".join(M.elements[x] for M, x in zip(structures, rep)) + "]"
        for rep in reps
    )
    if len(set(labels)) < len(labels):
        dup = next(label for label in labels if labels.count(label) > 1)
        raise MeanError(f"two classes share the label {dup!r}")

    # Every stored value is sum_i mu_i * v_i over the support, accumulated
    # from the factors' int forms as an int numerator over wden * lcm(their
    # denominators), with one Fraction per distinct numerator.
    w, wden = int_row([mu.weights[i] for i in support])
    size = len(keys)
    gathers: dict[int, list[list[int]]] = {}

    def average(forms, arity: int) -> list[Fraction]:
        """The mean of the support factors' row-major (nums, den) tables at
        every quotient tuple of the arity, in product order."""
        if arity not in gathers:
            # each factor's row-major index of every quotient tuple, built
            # once per arity: the metric and the binary relations share one
            gathers[arity] = []
            for j, M in enumerate(factors):
                m, coord, idx = M.size, [key[j] for key in keys], [0]
                for _ in range(arity):
                    idx = [x * m + c for x in idx for c in coord]
                gathers[arity].append(idx)
        den = math.lcm(*[d for _, d in forms])
        nums = [0] * size ** arity
        for wi, (t, d), idx in zip(w, forms, gathers[arity]):
            s = wi * (den // d)
            nums = [n + s * t[j] for n, j in zip(nums, idx)]
        return fractions_over(nums, wden * den)

    metrics = [M.int_metric for M in factors]
    flat = average([([x for row in d for x in row], D) for d, D in metrics], 2)
    metric = tuple(tuple(flat[r:r + size]) for r in range(0, size * size, size))

    relations = {
        name: RelationInterp(info.arity, info.lam, dict(zip(
            itertools.product(range(size), repeat=info.arity),
            average([M.int_relations[name] for M in factors], info.arity),
        )))
        for name, info in sigs[0].relations.items()
    }

    constants = {
        name: index[tuple(M.constants[name] for M in factors)]
        for name in sigs[0].constants
    }

    functions: dict[str, FunctionInterp] = {}
    for name, info in sigs[0].functions.items():
        tables = [M.functions[name].table for M in factors]
        functions[name] = FunctionInterp(info.arity, info.lam, {
            args: index[tuple(t[tuple(keys[a][j] for a in args)] for j, t in enumerate(tables))]
            for args in itertools.product(range(size), repeat=info.arity)
        })

    quotient = FiniteStructure(
        elements=labels,
        metric=metric,
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
