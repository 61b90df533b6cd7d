"""Exception types shared across the package."""

from __future__ import annotations


class GapstegoError(Exception):
    """Base class for every error raised by this package."""


class EmptySetError(GapstegoError, ValueError):
    """No generators were supplied."""


class NonPositiveElementError(GapstegoError, ValueError):
    """A generator was zero or negative."""


class ElementOneError(GapstegoError, ValueError):
    """1 was supplied as a generator, so there would be no gaps at all."""


class GcdNotOneError(GapstegoError, ValueError):
    """Generators share a common factor."""

    def __init__(self, gcd: int) -> None:
        super().__init__(f"generators share the common factor {gcd}; gcd must be 1")
        self.gcd = gcd


class LimitError(GapstegoError, ValueError):
    """Input exceeds the documented table-size or 64-bit envelope."""


class NegativeInputError(GapstegoError, ValueError):
    """Membership queries are defined for non-negative integers only."""


class NotCoprimeError(GapstegoError, ValueError):
    """Arguments were required to be coprime."""


class DegenerateProgressionError(GapstegoError, ValueError):
    """Progression has more steps than the closed form supports (w > a - 1)."""


class EvenFrobeniusError(GapstegoError, ValueError):
    """A symmetric semigroup must have an odd Frobenius number."""


class ViabilityFailure(GapstegoError, RuntimeError):
    """Key generation ran out of attempts before finding a usable key."""


class EmptyClassError(GapstegoError, ValueError):
    """A residue class holds no gaps, so that nibble value cannot be encoded."""

    def __init__(self, residue: int) -> None:
        super().__init__(f"no gap available in residue class {residue}")
        self.residue = residue


class ValueExceedsPeriodError(GapstegoError, ValueError):
    """A stream value is not below the salt period, so salting would lose it."""


class OddLengthError(GapstegoError, ValueError):
    """A stream holds an odd number of values, so its last byte is cut in half."""

    def __init__(self, length: int) -> None:
        super().__init__(f"stream length {length} is odd, expected value pairs")
        self.length = length


class InsufficientSamplesError(GapstegoError, ValueError):
    """Too few stream values for the requested frequency test."""


class FormatError(GapstegoError, ValueError):
    """Key or stream file text does not match the documented format."""
