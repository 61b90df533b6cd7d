"""Numerical semigroups: construction, membership, structure tests.

A numerical semigroup S is the set of all non-negative integer combinations
of finitely many generators whose gcd is 1.  Cofinitely many integers belong
to S; the missing ones are the gaps.  The largest gap is the Frobenius
number F, the number of gaps is the genus g.

All queries go through a table of per-residue minima: with m the smallest
generator, min_rep[r] is the least member of S congruent to r mod m, and

    x in S  <=>  x >= min_rep[x % m].

The table comes from one pass that adds the generators in increasing
order, after the round-robin of Boecker & Liptak (Algorithmica 48, 2007),
each by min-plus doubling along its step.  With T the table of the prefix
before generator a, a is redundant iff a >= T[a % m], and the sequence
stays telescopic iff x >= T[x % m] for x = (d_prev // d) * a, with d_prev
and d the gcds of the prefix without and with a.  Every member of
the semigroup of that prefix and a is a multiple of d, so adding a works on
min_rep[::d] alone: a table mod m / d in which a steps by a / d.

build_table runs that pass once per call and stores both verdicts on the
table it returns, where minimal_generators and is_telescopic read them.
brute_force_sieve is the independent referee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ElementOneError,
    EmptySetError,
    GcdNotOneError,
    LimitError,
    NegativeInputError,
    NonPositiveElementError,
)

# One int64 per residue class mod the multiplicity.  The doubling pass on
# min_rep[::d] adds costs below 2 * (m / d) * a <= 2 * 10**7 * 2**31 < 2**56 to
# entries that may hold the unreached sentinel 2**62, so nothing wraps.
MAX_MULTIPLICITY = 10**7
MAX_GENERATOR = 2**31
# The largest value of a stream, a seed or a closed form: one uint64.
UINT64_MAX = 2**64 - 1
_UNREACHED = 2**62
# Residues the doubling pass and the table reductions work on at a time,
# so that their scratch stays a few such blocks whatever the multiplicity.
_BLOCK_RESIDUES = 1 << 15


@dataclass(frozen=True)
class GeneratingSet:
    """Validated generator tuple: strictly increasing, all >= 2, gcd 1.

    Instances come from validate_generators(); building one directly skips
    validation and is only appropriate for already-canonical data.
    """

    elements: tuple[int, ...]

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> int:
        return self.elements[i]


def validate_generators(raw: Iterable[int]) -> GeneratingSet:
    """Canonicalize a raw generator collection: sort, deduplicate, validate.

    Raises EmptySetError, NonPositiveElementError, ElementOneError or
    GcdNotOneError when the input cannot generate a numerical semigroup
    with gaps.
    """
    elems = sorted({int(x) for x in raw})
    if not elems:
        raise EmptySetError("no generators given")
    if elems[0] <= 0:
        raise NonPositiveElementError(f"generators must be positive, got {elems[0]}")
    if elems[0] == 1:
        raise ElementOneError("1 as a generator leaves no gaps to encode into")
    g = math.gcd(*elems)
    if g != 1:
        raise GcdNotOneError(g)
    return GeneratingSet(tuple(elems))


@dataclass(frozen=True, eq=False)
class SemigroupTable:
    """Per-residue minima of a numerical semigroup plus derived constants.

    min_rep has one entry per residue class mod the multiplicity and is
    marked read-only.  minimal is the minimal generating set and
    telescopic the verdict on the generator sequence, both decided by the
    pass that built min_rep.  Equality is identity; compare fields
    explicitly.
    """

    generators: GeneratingSet
    multiplicity: int
    min_rep: np.ndarray
    frobenius: int
    genus: int
    minimal: GeneratingSet
    telescopic: bool

    def is_member(self, x: int) -> bool:
        """Decide x in S in O(1)."""
        if x < 0:
            raise NegativeInputError(f"membership is defined for x >= 0, got {x}")
        return x >= int(self.min_rep[x % self.multiplicity])

    def members(self, xs: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized membership: boolean array for non-negative int64 input."""
        arr = np.asarray(xs, dtype=np.int64)
        if arr.size and int(arr.min()) < 0:
            raise NegativeInputError("membership is defined for x >= 0")
        return arr >= self.min_rep[arr % self.multiplicity]

    def is_symmetric(self) -> bool:
        """True when the gaps fill exactly half of [0, F].

        Symmetry (z in S <=> F - z not in S) is equivalent to the count
        identity 2 * genus == frobenius + 1, which is what gets checked.
        """
        return 2 * self.genus == self.frobenius + 1


def check_limits(elems: Sequence[int]) -> None:
    """Raise LimitError unless a table can be built for these increasing generators."""
    if elems[0] > MAX_MULTIPLICITY:
        raise LimitError(f"multiplicity {elems[0]} exceeds the table limit {MAX_MULTIPLICITY}")
    if elems[-1] > MAX_GENERATOR:
        raise LimitError(f"generator {elems[-1]} exceeds the limit {MAX_GENERATOR}")


def _add_generator(n: np.ndarray, step: int, a: int) -> None:
    """Lower the table n in place to the minima once generator a is added.

    n is min_rep[::d], with d the gcd of the prefix with a: a table mod
    m = len(n) in which a leads from entry r to entry r + step, at a cost
    of a.  The new entry r is the least n[r - j*step] + j*a over j >= 0,
    indices mod m, found by min-plus doubling: doubling t lowers every
    n[r] to n[r - shift] + cost where that is less, with shift = 2^t * step
    mod m and cost = 2^t * a.  This is exact:
    - after doubling t, n[r] is at most the least value over j < 2^(t+1);
    - every value written is a sum of generators, so reading an entry
      already lowered in the same doubling never undershoots;
    - once cost passes the largest entry, no candidate can be lower;
    - j * step mod m repeats after a cycle of m // gcd(step, m) steps, so
      only j below the cycle length can win, and bit_length(cycle - 1)
      doublings reach every such j;
    - cost stays below 2 * m * a <= 2^56 on top of the sentinel 2^62, so
      nothing wraps.
    Row r reads entry r - shift: the first shift rows read the last shift
    entries and the others the entries shift before them, two contiguous
    runs walked _BLOCK_RESIDUES rows at a time.
    """
    m = len(n)
    top = int(n.max())
    shift, cost = step % m, a
    for _ in range((m // math.gcd(step, m) - 1).bit_length()):
        if cost > top:
            break
        for rows, back in ((n[:shift], n[m - shift :]), (n[shift:], n[: m - shift])):
            for i in range(0, len(rows), _BLOCK_RESIDUES):
                block = rows[i : i + _BLOCK_RESIDUES]
                np.minimum(block, back[i : i + _BLOCK_RESIDUES] + cost, out=block)
        shift, cost = 2 * shift % m, 2 * cost


def build_table(gens: GeneratingSet) -> SemigroupTable:
    """Per-residue minima from one pass that adds the generators in turn.

    Before adding generator a, the prefix table T decides that a is
    redundant (a >= T[a % m]), and skipped, and whether the sequence stays
    telescopic (x >= T[x % m], x = (d_prev // d) * a); the table keeps both
    verdicts.  Raises LimitError past either cap.
    """
    elems = gens.elements
    check_limits(elems)
    m = elems[0]
    min_rep = np.full(m, _UNREACHED, dtype=np.int64)
    min_rep[0] = 0
    minimal = [m]
    telescopic = True
    d_prev = m
    for a in elems[1:]:
        d = math.gcd(d_prev, a)
        x = d_prev // d * a
        telescopic = telescopic and x >= int(min_rep[x % m])
        d_prev = d
        if a >= int(min_rep[a % m]):
            continue  # a sum of smaller generators: changes nothing
        minimal.append(a)
        # only multiples of d can be members now: the pass lowers the view
        # min_rep[::d] in place, and the other entries stay unreached
        _add_generator(min_rep[::d], a // d, a)
    min_rep.setflags(write=False)
    frobenius = int(min_rep.max()) - m
    blocks = range(0, m, _BLOCK_RESIDUES)
    genus = sum(int((min_rep[i : i + _BLOCK_RESIDUES] // m).sum()) for i in blocks)
    return SemigroupTable(gens, m, min_rep, frobenius, genus, GeneratingSet(tuple(minimal)), telescopic)


def is_telescopic(table: SemigroupTable) -> bool:
    """The telescopic verdict on the table's increasing generator sequence.

    With d_i the gcd of the first i elements, the sequence is telescopic
    when every quotient a_i / d_i is generated by the prefix divided by
    d_{i-1}.  (The variant without the prefix scaling already rejects
    (4, 6, 9), which any workable definition must accept.)  Telescopic
    sequences always generate symmetric semigroups.
    """
    return table.telescopic


def minimal_generators(table: SemigroupTable) -> GeneratingSet:
    """The table's generators less every one that the others already produce.

    The survivors form the unique minimal generating set of the same
    semigroup; their count is the embedding dimension.
    """
    return table.minimal


def brute_force_sieve(gens: GeneratingSet, bound: int) -> np.ndarray:
    """Read-only boolean array on [0, bound]: entry x is True when x is a sum of generators.

    Kept deliberately independent of build_table so the two can referee
    each other: the array is closed under adding each generator via
    doubling shifts (a, 2a, 4a, ...), which reaches every multiple of a
    up to the bound.
    """
    if bound < 0:
        raise NegativeInputError(f"bound must be >= 0, got {bound}")
    rep = np.zeros(bound + 1, dtype=bool)
    rep[0] = True
    for a in gens:
        step = int(a)
        while step <= bound:
            rep[step:] |= rep[:-step].copy()
            step *= 2
    rep.setflags(write=False)
    return rep
