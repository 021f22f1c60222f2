"""Finite probability algebras: atoms, measure, intervals, Hahn sets, dcl.

An algebra on k atoms with positive rational weights has 2^k elements,
addressed as bitmasks (and serialized as bitmask strings like "101", one
character per atom).  The metric is the measure of the symmetric
difference.  The structure export gives the same algebra as a finite metric
structure with meet/join/complement functions and the measure relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AffineLogicError, InternalError
from .model import FiniteStructure, FunctionInterp, RelationInterp

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_ATOM_CAP = 10


class AlgebraError(AffineLogicError, ValueError):
    pass


class _Internal(InternalError, AlgebraError):
    """A re-check of this module's own result failed."""


@dataclass
class MeasureAlgebra:
    """2^k subsets of k weighted atoms; elements are bitmask ints."""

    weights: tuple[Fraction, ...]

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def size(self) -> int:
        return 1 << self.k

    @property
    def top(self) -> int:
        return self.size - 1

    def elements(self) -> range:
        return range(self.size)

    def mu(self, x: int) -> Fraction:
        total = ZERO
        for i in range(self.k):
            if x >> i & 1:
                total += self.weights[i]
        return total

    def meet(self, x: int, y: int) -> int:
        return x & y

    def join(self, x: int, y: int) -> int:
        return x | y

    def compl(self, x: int) -> int:
        return self.top ^ x

    def leq(self, x: int, y: int) -> bool:
        return x | y == y

    def distance(self, x: int, y: int) -> Fraction:
        return self.mu(x ^ y)

    def label(self, x: int) -> str:
        return "".join("1" if x >> i & 1 else "0" for i in range(self.k))

    def from_label(self, text: str) -> int:
        text = text.strip()
        if len(text) != self.k or any(c not in "01" for c in text):
            raise AlgebraError(f"bitmask string must be {self.k} characters of 0/1")
        return sum(1 << i for i, c in enumerate(text) if c == "1")

    def interval(self, lo: int, hi: int) -> list[int]:
        """All elements x with lo <= x <= hi, empty unless lo <= hi."""
        if not self.leq(lo, hi):
            return []
        free = hi & ~lo
        free_bits = [i for i in range(self.k) if free >> i & 1]
        out = []
        for picks in itertools.product((0, 1), repeat=len(free_bits)):
            x = lo
            for bit, take in zip(free_bits, picks):
                if take:
                    x |= 1 << bit
            out.append(x)
        return sorted(out)

    def to_structure(self) -> FiniteStructure:
        """Export as a finite metric structure (element index == bitmask)."""
        size = self.size
        metric = tuple(
            tuple(self.distance(x, y) for y in range(size)) for x in range(size)
        )
        constants = {"zero": 0, "one": self.top}
        pairs = list(itertools.product(range(size), repeat=2))
        functions = {
            "meet": FunctionInterp(2, ONE, {(x, y): x & y for x, y in pairs}),
            "join": FunctionInterp(2, ONE, {(x, y): x | y for x, y in pairs}),
            "compl": FunctionInterp(1, ONE, {(x,): self.compl(x) for x in range(size)}),
        }
        relations = {
            "mu": RelationInterp(1, ONE, {(x,): self.mu(x) for x in range(size)}),
        }
        return FiniteStructure(
            elements=tuple(self.label(x) for x in range(size)),
            metric=metric,
            constants=constants,
            functions=functions,
            relations=relations,
        )


def build_algebra(weights: Sequence[Fraction], cap: int = DEFAULT_ATOM_CAP) -> MeasureAlgebra:
    """Algebra on the given positive atom weights (must sum to 1)."""
    ws = tuple(Fraction(w) for w in weights)
    if not ws:
        raise AlgebraError("need at least one atom")
    if len(ws) > cap:
        raise AlgebraError(f"atom count {len(ws)} exceeds cap {cap}")
    if any(w <= 0 for w in ws):
        raise AlgebraError("atom weights must be positive")
    if sum(ws) != 1:
        raise AlgebraError("atom weights must sum to 1")
    return MeasureAlgebra(ws)


def check_algebra_axioms(A: MeasureAlgebra) -> bool:
    """Exhaustive check of the measure axioms and the metric definition."""
    if A.mu(0) != 0 or A.mu(A.top) != 1:
        return False
    for x in A.elements():
        for y in A.elements():
            if A.mu(x) > A.mu(x | y):
                return False
            if A.mu(x & y) + A.mu(x | y) != A.mu(x) + A.mu(y):
                return False
            if A.distance(x, y) != A.mu(x ^ y):
                return False
    return True


# ---------------------------------------------------------------------------
# interval distance


def interval_distance(A: MeasureAlgebra, x: int, a: int, b: int) -> Fraction:
    """Distance from x to the order interval [a, b], in closed form.

    Requires a <= b.  The value is mu(x and not b) + mu(a and not x); the
    nearest interval element is a or (b and x).
    """
    if not A.leq(a, b):
        raise AlgebraError("interval needs a <= b")
    return A.mu(x & A.compl(b)) + A.mu(a & A.compl(x))


def interval_projection(A: MeasureAlgebra, x: int, a: int, b: int) -> int:
    """The canonical nearest point of [a, b] to x."""
    if not A.leq(a, b):
        raise AlgebraError("interval needs a <= b")
    return a | (b & x)


# ---------------------------------------------------------------------------
# additive functions and Hahn-style maxima


@dataclass(frozen=True)
class AdditiveFunction:
    """f(x) = sum of atom_values over the atoms of x (signed, additive)."""

    atom_values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "atom_values", tuple(Fraction(v) for v in self.atom_values)
        )

    def value(self, x: int) -> Fraction:
        total = ZERO
        for i, v in enumerate(self.atom_values):
            if x >> i & 1:
                total += v
        return total


@dataclass
class HahnReport:
    """Maximizers of an additive function as an order interval.

    a joins the atoms with value >= 0 and b joins those with value <= 0
    (atoms at exactly 0 go to both); the maximizers are precisely the
    interval [b', a] and the maximum is f(a).
    """

    a: int
    b: int
    lower: int  # complement of b
    upper: int  # a
    max_value: Fraction


def hahn_max_set(A: MeasureAlgebra, f: AdditiveFunction) -> HahnReport:
    if len(f.atom_values) != A.k:
        raise AlgebraError("additive function must give one value per atom")
    a = 0
    b = 0
    for i, v in enumerate(f.atom_values):
        if v >= 0:
            a |= 1 << i
        if v <= 0:
            b |= 1 << i
    return HahnReport(a, b, A.compl(b), a, f.value(a))


# ---------------------------------------------------------------------------
# definable closure and definable sets


def dcl(A: MeasureAlgebra, S: Iterable[int]) -> frozenset[int]:
    """Subalgebra generated by S: all unions of the atom blocks S induces.

    Atoms falling in exactly the same members of S are indistinguishable, so
    the generated subalgebra consists of the unions of those blocks.
    """
    members = list(S)
    blocks: dict[tuple[bool, ...], int] = {}
    for i in range(A.k):
        profile = tuple(bool(s >> i & 1) for s in members)
        blocks[profile] = blocks.get(profile, 0) | (1 << i)
    block_masks = list(blocks.values())
    out = set()
    for picks in itertools.product((0, 1), repeat=len(block_masks)):
        x = 0
        for mask, take in zip(block_masks, picks):
            if take:
                x |= mask
        out.add(x)
    return frozenset(out)


@dataclass
class PraDefinableReport:
    """Is D exactly the order interval of its own bounds?

    On success the closed-form interval distance was cross-checked against
    the brute-force minimum for every element; on failure the witness is an
    interval element missing from D.
    """

    definable: bool
    lower: int
    upper: int
    witness: int | None = None
    cross_checked: bool = False

    def __bool__(self) -> bool:
        return self.definable


def pra_definable_check(A: MeasureAlgebra, D: Iterable[int]) -> PraDefinableReport:
    members = sorted(set(D))
    if not members:
        raise AlgebraError("D must be nonempty")
    lo = members[0]
    hi = members[0]
    for x in members[1:]:
        lo &= x
        hi |= x
    interval = A.interval(lo, hi)
    missing = [x for x in interval if x not in set(members)]
    if missing or len(members) != len(interval):
        witness = missing[0] if missing else None
        return PraDefinableReport(False, lo, hi, witness=witness)
    for x in A.elements():
        direct = min(A.distance(x, y) for y in interval)
        if direct != interval_distance(A, x, lo, hi):
            raise _Internal(
                f"interval distance formula disagrees with the minimum at {x}"
            )
    return PraDefinableReport(True, lo, hi, cross_checked=True)
