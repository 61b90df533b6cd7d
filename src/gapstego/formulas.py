"""Closed-form Frobenius numbers and classical bound checks.

Every formula here is cross-checked against the table construction in the
test suite, over the whole parameter envelope it claims to cover.  Results
are refused rather than silently wrapped when they would leave the 64-bit
range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateProgressionError,
    NegativeInputError,
    NotCoprimeError,
)
from .semigroup import UINT64_MAX


def _require_at_least_two(value: int, name: str) -> None:
    if value < 2:
        raise ValueError(f"{name} must be >= 2, got {value}")


def sylvester(a: int, b: int) -> int:
    """Frobenius number of two coprime generators: a*b - a - b."""
    _require_at_least_two(a, "a")
    _require_at_least_two(b, "b")
    g = math.gcd(a, b)
    if g != 1:
        raise NotCoprimeError(f"gcd({a}, {b}) = {g}, need coprime generators")
    result = a * b - a - b
    if result > UINT64_MAX:
        raise OverflowError(f"frobenius of ({a}, {b}) exceeds the 64-bit range")
    return result


@dataclass(frozen=True)
class ProgressionSpec:
    """Arithmetic progression a, a+d, ..., a+w*d with gcd(a, d) = 1."""

    a: int
    d: int
    w: int

    def __post_init__(self) -> None:
        _require_at_least_two(self.a, "a")
        if self.d < 1:
            raise ValueError(f"step d must be >= 1, got {self.d}")
        if self.w < 1:
            raise ValueError(f"width w must be >= 1, got {self.w}")
        g = math.gcd(self.a, self.d)
        if g != 1:
            raise NotCoprimeError(f"gcd(a, d) = {g}, need gcd(a, d) = 1")

    def generators(self) -> tuple[int, ...]:
        return tuple(self.a + i * self.d for i in range(self.w + 1))


def progression_frobenius(spec: ProgressionSpec) -> int:
    """floor((a-2)/w)*a + d*(a-1) for progressions with at most a-1 steps.

    With w > a-1 the extra terms stop carrying new residues mod a and the
    closed form goes stale, so that region is refused outright.
    """
    if spec.w > spec.a - 1:
        raise DegenerateProgressionError(
            f"closed form needs w <= a-1, got w={spec.w} with a={spec.a}"
        )
    return ((spec.a - 2) // spec.w) * spec.a + spec.d * (spec.a - 1)


def sigma(a: int, b: int, r: int) -> int:
    """Two-variable power sum a^r + a^(r-1)*b + ... + b^r."""
    if a < 1 or b < 1:
        raise ValueError(f"sigma needs a, b >= 1, got ({a}, {b})")
    if r < 0:
        raise NegativeInputError(f"sigma needs r >= 0, got {r}")
    total = sum(a ** (r - i) * b**i for i in range(r + 1))
    if total > UINT64_MAX:
        raise OverflowError(f"sigma({a}, {b}, {r}) = {total} exceeds the 64-bit range")
    return total


@dataclass(frozen=True)
class GeometricSpec:
    """Geometric-power generators a^k, a^(k-1)*b, ..., b^k, coprime a != b."""

    a: int
    b: int
    k: int

    def __post_init__(self) -> None:
        _require_at_least_two(self.a, "a")
        _require_at_least_two(self.b, "b")
        if self.a == self.b:
            raise ValueError("a and b must differ")
        g = math.gcd(self.a, self.b)
        if g != 1:
            raise NotCoprimeError(f"gcd({self.a}, {self.b}) = {g}, need coprime a, b")
        if self.k < 1:
            raise ValueError(f"exponent k must be >= 1, got {self.k}")

    def generators(self) -> tuple[int, ...]:
        return tuple(sorted(self.a ** (self.k - i) * self.b**i for i in range(self.k + 1)))


def geometric_frobenius(spec: GeometricSpec) -> int:
    """sigma(k+1) - sigma(k) - a^(k+1) - b^(k+1) for the geometric family.

    The once-circulated shortcut a*b*(a + b - 1) for k = 2 does not match
    this (nor the actual semigroup: (2, 3) gives 24 against a true
    Frobenius number of 11), so only the power-sum form is offered.
    """
    a, b, k = spec.a, spec.b, spec.k
    high = sigma(a, b, k + 1)
    result = high - sigma(a, b, k) - a ** (k + 1) - b ** (k + 1)
    return result


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check.

    lhs and rhs are kept as exact rationals where possible; rhs_display
    carries a float rendering for irrational right-hand sides.  The
    verdict in `holds` is always decided by exact integer arithmetic.
    """

    name: str
    lhs: Fraction
    rhs_display: float
    holds: bool


def davison_check(a1: int, a2: int, a3: int, frobenius: int) -> BoundReport:
    """Check F + a1 + a2 + a3 >= sqrt(3 * a1 * a2 * a3) for a coprime triple.

    The comparison squares both sides so no floating point enters the
    verdict; frobenius must come from an exact construction.
    """
    for v in (a1, a2, a3):
        _require_at_least_two(v, "generator")
    g = math.gcd(math.gcd(a1, a2), a3)
    if g != 1:
        raise NotCoprimeError(f"gcd of the triple is {g}, must be 1")
    lhs = frobenius + a1 + a2 + a3
    rhs_squared = 3 * a1 * a2 * a3
    holds = lhs >= 0 and lhs * lhs >= rhs_squared
    return BoundReport("davison", Fraction(lhs), math.sqrt(rhs_squared), holds)


def wilf_check(embedding_dim: int, frobenius: int, genus: int) -> BoundReport:
    """Check embedding_dim >= (F + 1) / (F + 1 - genus) by cross-multiplication."""
    if embedding_dim < 1:
        raise ValueError(f"embedding_dim must be >= 1, got {embedding_dim}")
    if frobenius < 1:
        raise ValueError(f"frobenius must be >= 1, got {frobenius}")
    denom = frobenius + 1 - genus
    if denom <= 0:
        raise ValueError("genus may not exceed frobenius")
    rhs = Fraction(frobenius + 1, denom)
    holds = embedding_dim * denom >= frobenius + 1
    return BoundReport("wilf", Fraction(embedding_dim), float(rhs), holds)
