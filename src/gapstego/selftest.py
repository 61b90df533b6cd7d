"""Property checks and the families they run on, defined once.

tests/test_acceptance.py runs these checks on full-size families at
frozen seeds; `gapstego selftest` runs the same checks on small families,
enough to catch a miscompiled or mispackaged install in about a second.
A check raises AssertionError naming its subject at the first
disagreement, also under ``python -O``; the selftest runner reports the
suite name and the seed needed to reproduce it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import codec, formulas, keygen, semigroup

# The numbers of stream values after which check_pair_search counts what is left.
PAIR_SEARCH_AT = (8, 16, 32, 64, 128)


def random_family(rng: random.Random, count: int, max_value: int) -> list:
    """(gens, table) for `count` random sets of 2..6 values in [2, max_value], gcd 1."""
    items = []
    while len(items) < count:
        size = rng.randint(2, 6)
        candidate = sorted(rng.sample(range(2, max_value + 1), size))
        if math.gcd(*candidate) == 1:
            gens = semigroup.validate_generators(candidate)
            items.append((gens, semigroup.build_table(gens)))
    return items


def _table(gens: Iterable[int]) -> semigroup.SemigroupTable:
    return semigroup.build_table(semigroup.validate_generators(gens))


def sylvester_records(limit: int) -> list:
    """(a, b, frobenius, genus) for every coprime pair 2 <= a < b <= limit."""
    records = []
    for a in range(2, limit + 1):
        for b in range(a + 1, limit + 1):
            if math.gcd(a, b) == 1:
                table = _table((a, b))
                records.append((a, b, table.frobenius, table.genus))
    return records


def progression_records(a_max: int, d_max: int) -> list:
    """(a, d, w, frobenius, genus) for a <= a_max, d <= d_max coprime to a, w < a."""
    records = []
    for a in range(2, a_max + 1):
        for d in range(1, d_max + 1):
            if math.gcd(a, d) != 1:
                continue
            for w in range(1, a):
                table = _table(formulas.ProgressionSpec(a, d, w).generators())
                records.append((a, d, w, table.frobenius, table.genus))
    return records


def geometric_family(b_max: int, k_max: int) -> list:
    """(spec, table) for coprime 2 <= a < b <= b_max and 1 <= k <= k_max."""
    items = []
    for a in range(2, b_max + 1):
        for b in range(a + 1, b_max + 1):
            if math.gcd(a, b) == 1:
                for k in range(1, k_max + 1):
                    spec = formulas.GeometricSpec(a, b, k)
                    items.append((spec, _table(spec.generators())))
    return items


def telescopic_family(seeds: Iterable[int]) -> list:
    """(seed, gens, table) for a telescopic-mode key at each seed."""
    items = []
    for seed in seeds:
        gens = keygen.generate_key(keygen.KeygenParams(seed=seed))
        items.append((seed, gens, semigroup.build_table(gens)))
    return items


@dataclass(frozen=True)
class ViableKey:
    gens: semigroup.GeneratingSet
    table: semigroup.SemigroupTable
    index: codec.GapIndex
    salt: codec.SaltSpec | None  # None when no generator pair clears F


def viable_key(seed: int, mode: str) -> ViableKey:
    """A keygen key with its table, gap index and salt."""
    gens = keygen.generate_key(keygen.KeygenParams(seed=seed, mode=mode))
    table = semigroup.build_table(gens)
    pair = keygen.choose_salt_pair(gens, table)
    salt = None if pair is None else codec.SaltSpec.from_generators(gens, *pair)
    return ViableKey(gens, table, codec.build_gap_index(table), salt)


def appendix_c_battery(seeds: Iterable[int]) -> list:
    """(pair, values) for the appendix-c key at each seed: its first two
    generators, and the 128 values that encode Random(1000 + seed).randbytes(64)
    with the draws of Random(2000 + seed)."""
    battery = []
    for seed in seeds:
        key = viable_key(seed, "appendix-c")
        payload = random.Random(1000 + seed).randbytes(64)
        stream = codec.encode_message(payload, key.index, random.Random(2000 + seed))
        battery.append((tuple(key.gens[:2]), stream.values.tolist()))
    return battery


def check_oracle(family: Sequence, rng: random.Random) -> int:
    """Table membership equals brute_force_sieve's on [0, F + 2m], plus 3 scalar spots a set."""
    checks = 0
    for gens, table in family:
        bound = table.frobenius + 2 * table.multiplicity
        sieve = semigroup.brute_force_sieve(gens, bound)
        xs = np.arange(bound + 1, dtype=np.int64)
        if not np.array_equal(table.members(xs), sieve):
            raise AssertionError(f"disagreement on {tuple(gens)}")
        for _ in range(3):
            x = rng.randint(0, bound)
            if table.is_member(x) != bool(sieve[x]):
                raise AssertionError(f"scalar mismatch at {x}")
        checks += len(xs) + 3
    return checks


def check_sylvester(records: Sequence) -> int:
    """sylvester(a, b) is the table's Frobenius number on every pair."""
    for a, b, frobenius, _genus in records:
        got = formulas.sylvester(a, b)
        if got != frobenius:
            raise AssertionError(f"sylvester({a}, {b}) = {got} != {frobenius}")
    return len(records)


def check_progressions(records: Sequence) -> int:
    """progression_frobenius is the table's Frobenius number on every (a, d, w)."""
    for a, d, w, frobenius, _genus in records:
        got = formulas.progression_frobenius(formulas.ProgressionSpec(a, d, w))
        if got != frobenius:
            raise AssertionError(f"progression {(a, d, w)} = {got} != {frobenius}")
    return len(records)


def check_geometric(family: Sequence) -> int:
    """geometric_frobenius is the table's Frobenius number on every spec."""
    for spec, table in family:
        got = formulas.geometric_frobenius(spec)
        if got != table.frobenius:
            raise AssertionError(f"{spec} = {got} != {table.frobenius}")
    return len(family)


def check_geometric_shortcut() -> tuple[int, int]:
    """(shortcut, true F) at (a, b, k) = (2, 3, 2).

    The tempting k = 2 shortcut ab(a+b-1) must disagree with the sieve's
    largest gap, which the power-sum closed form must match.
    """
    spec = formulas.GeometricSpec(2, 3, 2)
    sieve = semigroup.brute_force_sieve(semigroup.validate_generators(spec.generators()), 64)
    true = int(np.flatnonzero(~sieve).max())
    shortcut = spec.a * spec.b * (spec.a + spec.b - 1)
    if formulas.geometric_frobenius(spec) != true:
        raise AssertionError(f"{spec}: closed form != sieve {true}")
    if shortcut == true:
        raise AssertionError(f"shortcut {shortcut} agrees with the sieve")
    return shortcut, true


def check_genus_bound(frobenius: int, genus: int) -> None:
    """At most one of z and F - z is in S, so at least half of [0, F] are gaps."""
    if 2 * genus < frobenius + 1:
        raise AssertionError(f"genus {genus} below (F + 1)/2 at F = {frobenius}")


def check_symmetry(table: semigroup.SemigroupTable) -> bool:
    """genus is the number of gaps the table shows in [0, F], and they fill
    half of it <=> (z in S iff F - z not), the definition, scanned over [0, F].

    Returns is_symmetric, which the genus check ties to that count.
    """
    label = tuple(table.generators)
    check_genus_bound(table.frobenius, table.genus)
    mem = table.members(np.arange(table.frobenius + 1, dtype=np.int64))
    gaps = len(mem) - int(np.count_nonzero(mem))
    if gaps != table.genus:
        raise AssertionError(f"genus {table.genus} but {gaps} gaps in [0, F] on {label}")
    sym = 2 * gaps == len(mem)
    if bool(np.all(mem != mem[::-1])) != sym:
        raise AssertionError(f"pairing scan broke on {label}")
    return sym


def check_telescopic(family: Sequence) -> int:
    """Every telescopic-mode key is telescopic, hence symmetric."""
    for seed, _gens, table in family:
        if not semigroup.is_telescopic(table):
            raise AssertionError(f"seed {seed} not telescopic")
        if not table.is_symmetric():
            raise AssertionError(f"seed {seed} not symmetric")
    return len(family)


def check_round_trip(key: ViableKey, payload: bytes, rng: random.Random, salt: bool = False) -> int:
    """Encode, verify, decode; salted too if asked.  Returns the number of values.

    Every value is a gap carrying its nibble as its residue mod 16, and
    the stream decodes to the payload; salted, it still decodes and
    verifies, and desalts to the plain stream.  Draws from rng as
    encode_message, then salt_stream, do.
    """
    stream = codec.encode_message(payload, key.index, rng)
    if not codec.verify_stream(stream, key.table).all():
        raise AssertionError("member value emitted")
    nibbles = np.frombuffer(payload, dtype=np.uint8)
    expected = np.stack((nibbles >> 4, nibbles & 0xF), axis=1).ravel()
    if not np.array_equal(stream.values % 16, expected):
        raise AssertionError("residue mismatch")
    if codec.decode_message(stream) != payload:
        raise AssertionError(f"{len(payload)} B payload corrupted")
    if salt:
        salted = codec.salt_stream(stream, key.salt, rng)
        if codec.decode_message(salted) != payload:
            raise AssertionError("salted payload corrupted")
        if not codec.verify_stream(salted, key.table).all():
            raise AssertionError("salted stream fails verify")
        if not np.array_equal(codec.desalt_stream(salted).values, stream.values):
            raise AssertionError("desalt did not invert salt")
    return len(stream)


def check_codec(
    keys: Sequence[ViableKey], rng: random.Random, count: int, max_bytes: int
) -> tuple[int, int]:
    """(salted, plain) round trips of `count` payloads up to max_bytes.

    Payload i goes to key i mod len(keys), salted when i is odd and the
    key has a salt pair.
    """
    salted = 0
    for i in range(count):
        key = keys[i % len(keys)]
        payload = rng.randbytes(rng.randint(0, max_bytes))
        salt = bool(i % 2) and key.salt is not None
        check_round_trip(key, payload, rng, salt)
        salted += salt
    return salted, count - salted


def check_bounds(minimal: Sequence[int], frobenius: int, genus: int) -> int:
    """Wilf's bound, and Davison's for three minimal generators; 1 if Davison's ran."""
    if not formulas.wilf_check(len(minimal), frobenius, genus).holds:
        raise AssertionError(f"wilf fails on {tuple(minimal)}")
    if len(minimal) != 3:
        return 0
    if not formulas.davison_check(*sorted(minimal), frobenius).holds:
        raise AssertionError(f"davison fails on {tuple(minimal)}")
    return 1


def check_pair_search(battery: Sequence) -> list[tuple[int, ...]]:
    """Per key, the pairs a keyless search leaves after each of PAIR_SEARCH_AT values.

    An appendix-c key is the semigroup of its coprime pair (a, b), with a and
    b - a in keygen's ranges.  The search keeps each such pair while every
    value x seen is a gap of <a, b>, that is while (x * b^-1 mod a) * b > x.
    The key's own pair is never ruled out.
    """
    params = keygen.KeygenParams(seed=0)
    a, d = np.meshgrid(
        np.arange(params.base_min, params.base_max + 1), np.arange(1, params.spread_max + 1)
    )
    coprime = np.gcd(a, a + d) == 1
    a, b = a[coprime], (a + d)[coprime]
    inverse = np.array([pow(y, -1, x) for x, y in zip(a.tolist(), b.tolist())])
    survivors = []
    for pair, values in battery:
        left = np.arange(len(a))
        counts = []
        for n, x in enumerate(values, 1):
            left = left[(x * inverse[left] % a[left]) * b[left] > x]
            if n in PAIR_SEARCH_AT:
                counts.append(len(left))
        if pair not in zip(a[left].tolist(), b[left].tolist()):
            raise AssertionError(f"appendix-c pair {pair} not left after its {len(values)} values")
        survivors.append(tuple(counts))
    return survivors


def _geometric(rng: random.Random) -> int:
    check_geometric_shortcut()
    return check_geometric(geometric_family(5, 3)) + 1


def _codec(rng: random.Random) -> int:
    keys = [viable_key(rng.getrandbits(63), mode) for mode in keygen.MODES]
    return sum(check_codec(keys, rng, 20, 256))


def _pair_search(rng: random.Random) -> int:
    battery = appendix_c_battery(rng.getrandbits(63) for _ in range(2))
    check_pair_search(battery)
    return sum(len(values) for _, values in battery)


def _bounds(rng: random.Random) -> int:
    family = random_family(rng, 30, 120)
    davison = 0
    for _gens, table in family:
        check_symmetry(table)
        minimal = semigroup.minimal_generators(table)
        davison += check_bounds(minimal, table.frobenius, table.genus)
    return 2 * len(family) + davison  # symmetry and Wilf on every set, Davison on triples


_SUITES: tuple[tuple[str, Callable[[random.Random], int]], ...] = (
    ("oracle-equivalence", lambda rng: check_oracle(random_family(rng, 40, 120), rng)),
    ("sylvester-cross-check", lambda rng: check_sylvester(sylvester_records(40))),
    ("progression-cross-check", lambda rng: check_progressions(progression_records(30, 4))),
    ("geometric-cross-check", _geometric),
    (
        "telescopic-symmetry",
        lambda rng: check_telescopic(telescopic_family(rng.getrandbits(63) for _ in range(8))),
    ),
    ("codec-round-trip", _codec),
    ("bound-checks", _bounds),
    ("appendix-c-pair-search", _pair_search),
)


def run_selftest(seed: int = 0, echo: Callable[[str], object] = print) -> bool:
    """Run every suite; report per-suite counts; True iff all passed."""
    all_ok = True
    for name, suite in _SUITES:
        rng = random.Random(f"{seed}:{name}")
        try:
            count = suite(rng)
        except AssertionError as exc:
            echo(f"FAIL {name} (reproduce with --seed {seed}): {exc}")
            all_ok = False
        else:
            echo(f"ok {name}: {count} checks")
    echo("selftest passed" if all_ok else "selftest FAILED")
    return all_ok
