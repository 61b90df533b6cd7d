"""Numerical semigroups: construction, membership, structure tests.

A numerical semigroup S is the set of all non-negative integer combinations
of finitely many generators whose gcd is 1.  Cofinitely many integers belong
to S; the missing ones are the gaps.  The largest gap is the Frobenius
number F, the number of gaps is the genus g.

All queries go through a table of per-residue minima: with m the smallest
generator, min_rep[r] is the least member of S congruent to r mod m, and

    x in S  <=>  x >= min_rep[x % m].

The table comes from one round-robin pass that adds the generators in
increasing order (Boecker & Liptak, Algorithmica 48, 2007).  With T the
table of the prefix before generator a, a is redundant iff a >= T[a % m],
and the sequence stays telescopic iff x >= T[x % m] for x = (d_prev // d) * a,
with d_prev and d the gcds of the prefix without and with a.  Every member of
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

# One int64 per residue class mod the multiplicity.  The round-robin pass on
# min_rep[::d] subtracts k * a, k < m / d <= m, from entries that may hold the
# unreached sentinel 2**62, and adds up to (m / d) * a to their minimum;
# m * a <= 10**7 * 2**31 is far below it, so nothing wraps.
MAX_MULTIPLICITY = 10**7
MAX_GENERATOR = 2**31
# The largest value of a stream, a seed or a closed form: one uint64.
UINT64_MAX = 2**64 - 1
_UNREACHED = 2**62
# Residues the round-robin pass and the table reductions work on at a time,
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
    m = len(n) in which a leads from entry r to entry r + step, step = a / d,
    at a cost of a.  step splits the entries into g = gcd(step, m) cycles:
    the cycle of r holds the entries congruent to r mod g, a column of
    n.reshape(m // g, g), and step k from row 0 lands on row
    k * (step // g) mod (m // g) of every column.  With W[k] the running
    minimum of n - k*a along a cycle from row 0, its new entry at step k is
    k*a + min(W[k], W[last] + (m // g) * a), the second term being the way
    round the end of the cycle.  The pass walks the cycles in step order,
    _BLOCK_RESIDUES entries at a time, carrying each running minimum from
    one block of steps to the next.  W[last] comes from the first block
    when it holds whole cycles, else from a first pass in row order.
    """
    m = len(n)
    g = math.gcd(step, m)
    steps, q = m // g, step // g
    width = min(g, _BLOCK_RESIDUES)
    depth = min(steps, _BLOCK_RESIDUES // width)
    ka_base = np.arange(0, depth * a, a, dtype=np.int64)[:, None]
    for c0 in range(0, g, width):
        cycles = n.reshape(steps, g)[:, c0 : c0 + width]
        if steps > depth:
            last = np.full(cycles.shape[1], _UNREACHED)
            # row r is reached at step r * q^-1 mod steps
            for r0, k in zip(range(0, steps, depth), _multiples(pow(q, -1, steps), steps, depth)):
                np.minimum(last, (cycles[r0 : r0 + depth] - (k * a)[:, None]).min(axis=0), out=last)
        # a block holds n - (k - k0)*a at steps k0, k0 + 1, ...: its carry is W + k0*a
        for k0, rows in zip(range(0, steps, depth), _multiples(q, steps, depth)):
            ka = ka_base[: len(rows)]
            v = cycles[rows]
            v -= ka
            if k0 == 0:  # a cycle that fits one block is read once, here
                carry = (last if steps > depth else np.minimum.reduce(v)) + steps * a
            _running_min(v, carry)
            carry = v[-1] + depth * a
            v += ka
            cycles[rows] = v


def _multiples(step: int, modulus: int, depth: int) -> Iterator[np.ndarray]:
    """k * step % modulus for k = 0, 1, ..., modulus - 1, depth values at a time."""
    k = np.arange(0, depth * step, step, dtype=np.int64) % modulus
    shift = depth * step % modulus
    for k0 in range(0, modulus, depth):
        if k0:
            k += shift
            np.subtract(k, modulus, out=k, where=k >= modulus)
        yield k[: modulus - k0]


def _running_min(v: np.ndarray, first: np.ndarray) -> None:
    """Running minimum of first, v[0], v[1], ... down the rows of v, in place."""
    np.minimum(v[0], first, out=v[0])
    if len(v) < v.shape[1]:  # few long rows: accumulate costs a call per column
        for i in range(1, len(v)):
            np.minimum(v[i], v[i - 1], out=v[i])
    else:
        np.minimum.accumulate(v, axis=0, out=v)


def build_table(gens: GeneratingSet) -> SemigroupTable:
    """Per-residue minima from one round-robin pass over the generators.

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
