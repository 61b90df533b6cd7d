"""Byte stream to gap stream codec.

Each payload byte splits into two 4-bit halves, high half first.  A half
with value v is transmitted as a gap of the secret semigroup chosen
uniformly among the gaps congruent to v mod 16, so the receiver recovers
v as a plain residue and never needs the gap list itself.  Checking that
received values really are gaps screens for corruption, not forgery.

A stream is one read-only uint64 array, and each step on it (encode,
decode, verify, salt, de-salt) is an array operation.  The same
functions take a whole stream or one chunk of it.  encode_message and
verify_stream work CHUNK_VALUES values at a time, so their scratch does
not grow with the stream, and salt_stream draws its multipliers in one
call.  A stream encoded and salted a chunk after another, drawing from
one numpy Generator, is the one that a single call on the whole payload
gives.  verify_stream returns a boolean array, True where a value is a
gap.  decode_message and verify_stream de-salt first through
desalt_stream, which returns an unsalted stream as it is.

Optional salting adds k * L to every value for a per-value random
k in [1, k_max], where L is the lcm of two chosen generators.  Adding a
multiple of any member keeps gap-ness intact often enough to audit but
not always, so salted streams are wider-ranged decoys; de-salting is
reduction mod L, which is exact as long as every original value was
below L.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import (
    EmptyClassError,
    LimitError,
    NegativeInputError,
    OddLengthError,
    ValueExceedsPeriodError,
)
from .semigroup import UINT64_MAX, GeneratingSet, SemigroupTable

# Nibble v travels as a gap congruent to v mod 16.
MODULUS = 16
DEFAULT_K_MAX = 64
# Values a step with per-value scratch takes at a time: 256 KiB of uint64.
CHUNK_VALUES = 1 << 15
# Rows that class_counts counts, and build_gap_index indexes, at a time; a
# multiple of MODULUS.
_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True, eq=False)
class GapIndex:
    """Running gap counts per residue class mod 16 over the rows of the table,
    and a rank directory over them, as three read-only arrays.

    classes is one (16, m // gcd(m, 16) + 1) int64 array, and classes[v][i]
    counts the gaps congruent to v in the rows before the i-th that can hold
    any (see class_gaps).  The ranks of class v fall in buckets of
    W = 2**shift[v], the power of two at or above the class's mean row
    length, and rows[v][b] is the last row whose start is <= b * W.

    rows has at most one entry per row of the index, in the narrowest
    unsigned type that holds a row number (at most 32 bits), so it is at
    most half the bytes of classes.  Entries past a class's last bucket are 0.
    """

    multiplicity: int
    classes: np.ndarray
    shift: np.ndarray
    rows: np.ndarray

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(self.classes[:, -1].tolist())

    def _gaps(self, counts: list[int], u: np.ndarray) -> np.ndarray:
        """The gaps numbered u, an int64 array of ranks by class: the first
        counts[0] of class 0, then counts[1] of class 1, and so on.  u is
        overwritten with the gaps."""
        m = self.multiplicity
        g = math.gcd(m, MODULUS)
        c = MODULUS // g
        v = np.arange(MODULUS)

        def per_value(per_class: np.ndarray) -> np.ndarray:
            return np.repeat(per_class, counts)

        # each value's bucket, then the bucket's row in its place
        row = per_value(self.shift)
        np.right_shift(u, row, out=row)
        row += per_value(v * self.rows.shape[1])
        row[:] = self.rows.ravel()[row]
        # as a position in classes.ravel(), where row i of class v is v * (m // g + 1) + i
        first_row = v * self.classes.shape[1]
        row += per_value(first_row)
        # a bucket spans a few rows: step on while the next row starts at or before u
        starts = self.classes.ravel()
        while (step := starts[1:][row] <= u).any():
            row += step
        del step
        # class_gaps(m, v, i, u - classes[v, i]), in place
        u -= starts[row]
        i = row
        i -= per_value(first_row)
        j0 = per_value(v // g)
        j0 -= i
        j0 *= pow(m // g, -1, c)
        j0 &= c - 1  # c is a power of two: j0 mod c
        u *= c
        u += j0
        del j0
        u *= m
        i *= g
        u += i
        u += per_value(v % g)
        return u


def class_gaps(m: int, v: int, i: np.ndarray, k: np.ndarray | int = 0) -> np.ndarray:
    """The k-th gap congruent to v mod 16 in the i-th row that can hold one.

    Row r of a table with multiplicity m holds the gaps r + j*m, j < min_rep[r] // m.
    With g = gcd(m, 16) and c = 16 // g, r + j*m = v (mod 16) needs
    r = v % g + i*g, i < m // g, and then holds for j = j0 + k*c, with j0 < c
    solving j0 * (m // g) = (v - r) // g (mod c).  Callers check j < min_rep[r] // m.
    """
    g = math.gcd(m, MODULUS)
    c = MODULUS // g
    j0 = (v // g - i) * pow(m // g, -1, c) % c
    return v % g + i * g + (j0 + k * c) * m


def class_counts(table: SemigroupTable, v: int) -> Iterator[tuple[int, np.ndarray]]:
    """(i0, counts), _BLOCK_ROWS rows at a time: the (i0 + t)-th row that can hold a
    gap congruent to v mod 16 holds counts[t] = ceil((min_rep[r] // m - j0) / c) of them
    (see class_gaps), and j0 = class_gaps(m, v, i) // m has period c, which divides i0."""
    m = table.multiplicity
    g = math.gcd(m, MODULUS)
    c = MODULUS // g
    rows = table.min_rep[v % g :: g]
    lift = c - 1 - class_gaps(m, v, np.arange(min(len(rows), _BLOCK_ROWS))) // m
    for i0 in range(0, len(rows), _BLOCK_ROWS):
        yield i0, (rows[i0 : i0 + _BLOCK_ROWS] // m + lift[: len(rows) - i0]) // c


@dataclass(frozen=True, eq=False)
class CipherStream:
    """Transmitted integer sequence, possibly salted.

    values is a read-only uint64 array.  Integers in [0, 2**64 - 1] are
    converted, as an array or a sequence; a uint64 array is taken as a
    view, not copied.  A negative value raises NegativeInputError and a
    value past 2**64 - 1 LimitError, both naming the range, and an
    array or sequence that numpy reads as floats, strings, bools or any
    other non-integer type raises TypeError.  salt_period is None for a
    bare gap stream and the salting period L otherwise; it must ride
    along for the receiver to undo the salt.
    """

    values: np.ndarray
    salt_period: int | None = None

    def __post_init__(self) -> None:
        given = self.values
        values = np.asarray(given)
        kind = values.dtype.kind
        # numpy reads Python ints on both sides of int64 as floats, and ints
        # past it as objects: those are converted one by one
        if kind in "fO" and all(isinstance(v, numbers.Integral) for v in given):
            low, high = min(given, default=0), max(given, default=0)
        elif kind == "i":
            low, high = int(values.min(initial=0)), 0
        elif kind == "u":
            low = high = 0
        else:
            raise TypeError(f"stream values must be integers, got dtype {values.dtype}")
        if low < 0:
            raise NegativeInputError(f"stream values must lie in [0, 2**64 - 1], got {low}")
        if high > UINT64_MAX:
            raise LimitError(f"stream values must lie in [0, 2**64 - 1], got {high}")
        values = np.asarray(given if kind in "fO" else values, dtype=np.uint64).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CipherStream):
            return NotImplemented
        return self.salt_period == other.salt_period and np.array_equal(
            self.values, other.values
        )

    @property
    def salted(self) -> bool:
        return self.salt_period is not None

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SaltSpec:
    """Salting parameters: period plus the per-value multiplier range."""

    period: int
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"salt period must be >= 1, got {self.period}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        # the largest salted value, (period - 1) + k_max * period, must fit a stream
        if (self.k_max + 1) * self.period - 1 > UINT64_MAX:
            raise ValueError(f"k_max {self.k_max} with period {self.period} passes 2**64 - 1")

    @classmethod
    def from_generators(
        cls, gens: GeneratingSet, i: int = 0, j: int = 1, k_max: int = DEFAULT_K_MAX
    ) -> SaltSpec:
        """Period = lcm of the i-th and j-th generators."""
        if i == j:
            raise ValueError("salt pair must use two distinct generators")
        return cls(math.lcm(gens[i], gens[j]), k_max)


def build_gap_index(table: SemigroupTable) -> GapIndex:
    """Running gap counts per residue class mod 16, then the rank directory
    over them, each built a block of rows at a time.

    Raises EmptyClassError naming the smallest residue whose class holds
    no gap, since such a key cannot carry that nibble value.
    """
    m = table.multiplicity
    classes = np.zeros((MODULUS, m // math.gcd(m, MODULUS) + 1), dtype=np.int64)
    for v, starts in enumerate(classes):
        for i0, counts in class_counts(table, v):
            starts[i0 + 1 : i0 + 1 + len(counts)] = counts.cumsum() + starts[i0]
        if starts[-1] == 0:
            raise EmptyClassError(v)
    n_rows = classes.shape[1] - 1
    sizes = classes[:, -1].tolist()
    shift = np.array([(-(-size // n_rows) - 1).bit_length() for size in sizes])
    buckets = max(-(-size >> int(s)) for size, s in zip(sizes, shift))
    rows = np.zeros((MODULUS, buckets), dtype=np.min_scalar_type(n_rows))
    for v, (starts, s) in enumerate(zip(classes, shift)):
        # row i holds the ranks [starts[i], starts[i + 1]), so it is the entry
        # of buckets ceil(starts[i] / W) up to ceil(starts[i + 1] / W) - 1
        for i0 in range(0, n_rows, _BLOCK_ROWS):
            first = -(-starts[i0 : i0 + _BLOCK_ROWS + 1] >> s)
            rows[v, first[0] : first[-1]] = np.repeat(
                np.arange(i0, i0 + len(first) - 1, dtype=rows.dtype), np.diff(first)
            )
    for array in (classes, shift, rows):
        array.flags.writeable = False
    return GapIndex(m, classes, shift, rows)


def generator_from(rng: random.Random | np.random.Generator) -> np.random.Generator:
    """The Generator that encode_message and salt_stream draw from: rng
    itself when it is one, else one seeded from the random.Random rng."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng.getrandbits(128))


def encode_message(
    payload: bytes, index: GapIndex, rng: random.Random | np.random.Generator
) -> CipherStream:
    """Encode bytes as gap values, two per byte, high nibble first.

    Each chunk of CHUNK_VALUES // 2 bytes draws the ranks of its values a
    class at a time from generator_from(rng), one call per class in class
    order, and turns them into gaps in one pass through the rank directory.
    """
    gen = generator_from(rng)
    data = np.frombuffer(payload, dtype=np.uint8)
    values = np.empty(2 * len(data), dtype=np.uint64)
    step = CHUNK_VALUES // 2
    sizes = index.class_sizes()
    for i in range(0, len(data), step):
        piece = data[i : i + step]
        nibbles = np.stack((piece >> 4, piece & 0xF), axis=1).ravel()
        # the positions of class 0, then of class 1, ..., each in stream order
        order = np.argsort(nibbles, kind="stable")
        counts = np.bincount(nibbles, minlength=MODULUS).tolist()
        ranks = np.concatenate([gen.integers(size, size=n) for size, n in zip(sizes, counts)])
        out = values[2 * i : 2 * i + len(nibbles)]
        out[order] = index._gaps(counts, ranks).view(np.uint64)
    return CipherStream(values)


def decode_message(stream: CipherStream) -> bytes:
    """Decode a stream back to bytes, de-salted first.

    Residues only, no key needed: value pair (a, b) of the de-salted
    stream gives the byte (a % 16) << 4 | (b % 16).
    """
    stream = desalt_stream(stream)
    vals = stream.values
    if len(vals) % 2:
        raise OddLengthError(len(vals))
    # the low byte of a value keeps its residue mod 16
    nibbles = vals.astype(np.uint8)
    nibbles &= np.uint8(MODULUS - 1)
    return ((nibbles[0::2] << 4) | nibbles[1::2]).tobytes()


def verify_stream(stream: CipherStream, table: SemigroupTable) -> np.ndarray:
    """Corruption screen: a boolean array, True where the value is a gap of our semigroup.

    The stream is de-salted first, so a salted value is judged by its residue mod the period.
    """
    stream = desalt_stream(stream)
    values = stream.values
    gaps = np.empty(len(values), dtype=bool)
    # values run up to 2**64 - 1; every value above F is a member, so clamp
    # to F + 1 before the int64 table lookup
    ceiling = np.uint64(table.frobenius + 1)
    for i in range(0, len(values), CHUNK_VALUES):
        clamped = np.minimum(values[i : i + CHUNK_VALUES], ceiling)
        np.logical_not(table.members(clamped.view(np.int64)), out=gaps[i : i + CHUNK_VALUES])
    return gaps


def salt_stream(
    stream: CipherStream, spec: SaltSpec, rng: random.Random | np.random.Generator
) -> CipherStream:
    """Add k * period to every value, fresh k in [1, k_max] each time.

    The k of all the values are drawn in one call from generator_from(rng).
    """
    if stream.salted:
        raise ValueError("stream already carries a salt period")
    period = np.uint64(spec.period)
    over = stream.values >= period
    if over.any():
        v = stream.values[over.argmax()]
        raise ValueExceedsPeriodError(
            f"value {v} >= salt period {spec.period}; salting would be ambiguous"
        )
    gen = generator_from(rng)
    salted = gen.integers(1, spec.k_max, size=len(stream), dtype=np.uint64, endpoint=True)
    # SaltSpec keeps (period - 1) + k_max * period within 2**64 - 1
    salted *= period
    salted += stream.values
    return CipherStream(salted, spec.period)


def desalt_stream(stream: CipherStream) -> CipherStream:
    """Undo salting by reducing every value mod the carried period; an
    unsalted stream is returned as it is."""
    if not stream.salted:
        return stream
    return CipherStream(stream.values % np.uint64(stream.salt_period))


def measure_salt_gap_preservation(
    table: SemigroupTable, spec: SaltSpec, samples: int, rng: random.Random
) -> Fraction:
    """Fraction of random salted gaps that remain gaps.

    Draws `samples` gaps uniformly, numbered row by row (row i holds i,
    i + m, ..., min_rep[i] - m), salts each with a fresh k, and counts
    how many of the results still avoid the semigroup.  Strictly below 1
    in general: salting trades perfect gap-ness for a wider value range.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    m = table.multiplicity
    starts = np.concatenate(([0], (table.min_rep // m).cumsum()))
    u = generator_from(rng).integers(table.genus, size=samples)
    i = np.searchsorted(starts, u, side="right") - 1
    gaps = (i + (u - starts[i]) * m).tolist()
    salted = (x + rng.randint(1, spec.k_max) * spec.period for x in gaps)
    return Fraction(sum(not table.is_member(x) for x in salted), samples)
