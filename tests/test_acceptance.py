"""Release gate: one test per acceptance criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines, add ``-s`` for the detail lines (counts, timings,
observed rates).  Every check is exact unless its docstring says
otherwise; statistical criteria run on frozen seeds so the verdicts are
reproducible bit for bit.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from gapstego import (
    GeometricSpec,
    KeygenParams,
    ProgressionSpec,
    SaltSpec,
    brute_force_sieve,
    build_gap_index,
    build_table,
    choose_salt_pair,
    chi_square_uniformity,
    davison_check,
    decode_message,
    desalt_stream,
    encode_message,
    gap_density,
    generate_key,
    geometric_frobenius,
    is_telescopic,
    measure_salt_gap_preservation,
    minimal_generators,
    progression_frobenius,
    residue_histogram,
    salt_stream,
    sylvester,
    validate_generators,
    verify_stream,
    wilf_check,
)

HALF = Fraction(1, 2)


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {label}: {verdict}{suffix}")
    assert ok, f"criterion {number} {label}{suffix}"


def _pairing_symmetric(table) -> bool:
    # definition-level check: z in S iff F - z not in S, for every z in [0, F]
    mem = table.members(np.arange(table.frobenius + 1, dtype=np.int64))
    return bool(np.all(mem != mem[::-1]))


@dataclass
class Timed:
    elapsed: float
    items: list


@pytest.fixture(scope="module")
def random_family() -> Timed:
    """500 random generating sets (2..6 generators <= 500) with tables."""
    rng = random.Random("acceptance:random-family")
    start = time.perf_counter()
    items = []
    while len(items) < 500:
        count = rng.randint(2, 6)
        candidate = sorted(rng.sample(range(2, 501), count))
        if math.gcd(*candidate) != 1:
            continue
        gens = validate_generators(candidate)
        items.append((gens, build_table(gens)))
    return Timed(time.perf_counter() - start, items)


@pytest.fixture(scope="module")
def sylvester_records() -> Timed:
    """(a, b, frobenius, genus) for every coprime pair 2 <= a < b <= 200."""
    start = time.perf_counter()
    records = []
    for a in range(2, 201):
        for b in range(a + 1, 201):
            if math.gcd(a, b) != 1:
                continue
            table = build_table(validate_generators((a, b)))
            records.append((a, b, table.frobenius, table.genus))
    return Timed(time.perf_counter() - start, records)


@pytest.fixture(scope="module")
def progression_records() -> Timed:
    """(a, d, w, frobenius, genus) for every valid progression in range."""
    start = time.perf_counter()
    records = []
    for a in range(2, 101):
        for d in range(1, 11):
            if math.gcd(a, d) != 1:
                continue
            for w in range(1, a):
                gens = validate_generators(ProgressionSpec(a, d, w).generators())
                table = build_table(gens)
                records.append((a, d, w, table.frobenius, table.genus))
    return Timed(time.perf_counter() - start, records)


@pytest.fixture(scope="module")
def geometric_records() -> Timed:
    """(spec, table) for coprime 2 <= a < b <= 7 and 1 <= k <= 4."""
    start = time.perf_counter()
    records = []
    for a in range(2, 8):
        for b in range(a + 1, 8):
            if math.gcd(a, b) != 1:
                continue
            for k in range(1, 5):
                spec = GeometricSpec(a, b, k)
                records.append((spec, build_table(validate_generators(spec.generators()))))
    return Timed(time.perf_counter() - start, records)


@pytest.fixture(scope="module")
def telescopic_family() -> Timed:
    """200 keys from telescopic-mode keygen, seeds 2000..2199, with tables."""
    start = time.perf_counter()
    items = []
    for seed in range(2000, 2200):
        gens = generate_key(KeygenParams(seed=seed))
        items.append((seed, gens, build_table(gens)))
    return Timed(time.perf_counter() - start, items)


@dataclass
class ViableKey:
    gens: object
    table: object
    index: object
    salt: SaltSpec | None


@pytest.fixture(scope="module")
def viable_keys() -> Timed:
    """20 viable keys: 10 per keygen mode, fixed seeds, gap indexes built."""
    start = time.perf_counter()
    items = []
    for mode, base in (("appendix-c", 300), ("telescopic", 400)):
        for seed in range(base, base + 10):
            gens = generate_key(KeygenParams(seed=seed, mode=mode))
            table = build_table(gens)
            pair = choose_salt_pair(gens, table)
            spec = None if pair is None else SaltSpec.from_generators(gens, *pair)
            items.append(ViableKey(gens, table, build_gap_index(table), spec))
    return Timed(time.perf_counter() - start, items)


def test_criterion_01_oracle_equivalence(random_family):
    """is_member vs the independent sieve on [0, F + 2m], 500 sets, < 30 s."""
    rng = random.Random("acceptance:oracle-spot")
    start = time.perf_counter()
    for gens, table in random_family.items:
        bound = table.frobenius + 2 * table.multiplicity
        sieve = brute_force_sieve(gens, bound)
        xs = np.arange(bound + 1, dtype=np.int64)
        if not np.array_equal(table.members(xs), sieve.representable):
            _report(1, "oracle-equivalence", False, f"disagreement on {tuple(gens)}")
        for _ in range(3):
            x = rng.randint(0, bound)
            if table.is_member(x) != sieve.is_member(x):
                _report(1, "oracle-equivalence", False, f"scalar mismatch at {x}")
    elapsed = random_family.elapsed + time.perf_counter() - start
    _report(
        1,
        "oracle-equivalence",
        elapsed < 30.0,
        f"{len(random_family.items)} sets exact, {elapsed:.1f}s",
    )


def test_criterion_02_sylvester_cross_check(sylvester_records):
    """Closed form equals the table Frobenius on every coprime pair, < 30 s."""
    start = time.perf_counter()
    for a, b, frob, _genus in sylvester_records.items:
        if sylvester(a, b) != frob:
            _report(2, "sylvester-cross-check", False, f"mismatch at ({a}, {b})")
    elapsed = sylvester_records.elapsed + time.perf_counter() - start
    _report(
        2,
        "sylvester-cross-check",
        elapsed < 30.0,
        f"{len(sylvester_records.items)} pairs exact, {elapsed:.1f}s",
    )


def test_criterion_03_progression_cross_check(progression_records):
    """Progression closed form equals the table on every valid (a, d, w), < 60 s."""
    start = time.perf_counter()
    for a, d, w, frob, _genus in progression_records.items:
        if progression_frobenius(ProgressionSpec(a, d, w)) != frob:
            _report(3, "progression-cross-check", False, f"mismatch at {(a, d, w)}")
    elapsed = progression_records.elapsed + time.perf_counter() - start
    _report(
        3,
        "progression-cross-check",
        elapsed < 60.0,
        f"{len(progression_records.items)} progressions exact, {elapsed:.1f}s",
    )


def test_criterion_04_geometric_cross_check(geometric_records):
    """Power-sum form equals the table; the ab(a+b-1) shortcut is wrong.

    The shortcut looks plausible for k = 2 but gives 24 at (a, b, k) =
    (2, 3, 2) where the true Frobenius number is 11; the sieve referees.
    """
    for spec, table in geometric_records.items:
        if geometric_frobenius(spec) != table.frobenius:
            _report(4, "geometric-cross-check", False, f"mismatch at {spec}")

    true_value = geometric_frobenius(GeometricSpec(2, 3, 2))
    shortcut = 2 * 3 * (2 + 3 - 1)
    gens = validate_generators(GeometricSpec(2, 3, 2).generators())
    sieve = brute_force_sieve(gens, 64)
    brute = int(np.flatnonzero(~sieve.representable).max())
    ok = true_value == 11 and brute == 11 and shortcut == 24
    _report(
        4,
        "geometric-cross-check",
        ok,
        f"{len(geometric_records.items)} cases exact; shortcut {shortcut} vs true {brute}",
    )


def test_criterion_05_symmetry_identity(
    random_family, sylvester_records, progression_records, geometric_records, telescopic_family
):
    """is_symmetric <=> genus = (F+1)/2 <=> gap density exactly 1/2.

    Live tables additionally get the definition-level pairing scan
    (z in S iff F - z not in S); record-only families are re-scanned on a
    deterministic subsample to keep the run short.
    """
    tables = (
        [(f"random:{tuple(g)}", t) for g, t in random_family.items]
        + [(f"geometric:{s}", t) for s, t in geometric_records.items]
        + [(f"telescopic:{seed}", t) for seed, _g, t in telescopic_family.items]
    )
    scans = 0
    for label, table in tables:
        sym = table.is_symmetric()
        if (2 * table.genus == table.frobenius + 1) != sym:
            _report(5, "symmetry-identity", False, f"genus identity broke on {label}")
        if (gap_density(table) == HALF) != sym:
            _report(5, "symmetry-identity", False, f"density identity broke on {label}")
        if _pairing_symmetric(table) != sym:
            _report(5, "symmetry-identity", False, f"pairing scan broke on {label}")
        scans += 1

    for a, b, frob, genus in sylvester_records.items:
        if (2 * genus == frob + 1) != (Fraction(genus, frob + 1) == HALF):
            _report(5, "symmetry-identity", False, f"identity broke on pair ({a}, {b})")
    for a, d, w, frob, genus in progression_records.items:
        if (2 * genus == frob + 1) != (Fraction(genus, frob + 1) == HALF):
            _report(5, "symmetry-identity", False, f"identity broke at {(a, d, w)}")

    for a, b, _frob, _genus in sylvester_records.items[::50]:
        table = build_table(validate_generators((a, b)))
        if not _pairing_symmetric(table):
            _report(5, "symmetry-identity", False, f"pair ({a}, {b}) not symmetric")
        scans += 1
    for a, d, w, _frob, _genus in progression_records.items[::37]:
        table = build_table(validate_generators(ProgressionSpec(a, d, w).generators()))
        if _pairing_symmetric(table) != table.is_symmetric():
            _report(5, "symmetry-identity", False, f"pairing scan broke at {(a, d, w)}")
        scans += 1

    total = (
        len(tables) + len(sylvester_records.items) + len(progression_records.items)
    )
    _report(5, "symmetry-identity", True, f"{total} tables, {scans} pairing scans")


def test_criterion_06_telescopic_implies_symmetric(telescopic_family):
    """Every telescopic-mode key is telescopic and symmetric, 200 keys."""
    for seed, gens, table in telescopic_family.items:
        if not is_telescopic(gens):
            _report(6, "telescopic-implies-symmetric", False, f"seed {seed} not telescopic")
        if not table.is_symmetric():
            _report(6, "telescopic-implies-symmetric", False, f"seed {seed} not symmetric")
    _report(
        6,
        "telescopic-implies-symmetric",
        True,
        f"{len(telescopic_family.items)} keys",
    )


def test_criterion_07_codec_round_trip(viable_keys):
    """decode(encode(p)) = p, 1000 payloads to 4 KiB, 20 keys, < 60 s."""
    rng = random.Random("acceptance:round-trip")
    start = time.perf_counter()
    salted = unsalted = 0
    for i in range(1000):
        key = viable_keys.items[i % len(viable_keys.items)]
        payload = rng.randbytes(rng.randint(0, 4096))
        stream = encode_message(payload, key.index, rng)
        if i % 2 and key.salt is not None:
            stream = salt_stream(stream, key.salt, rng)
            salted += 1
        else:
            unsalted += 1
        if decode_message(stream) != payload:
            _report(7, "codec-round-trip", False, f"payload {i} corrupted")
    elapsed = viable_keys.elapsed + time.perf_counter() - start
    ok = elapsed < 60.0 and salted > 0 and unsalted > 0
    _report(
        7,
        "codec-round-trip",
        ok,
        f"1000 payloads ({salted} salted, {unsalted} plain), {elapsed:.1f}s",
    )


def test_criterion_08_stealth_residues(viable_keys):
    """Unsalted values are all gaps and carry their nibble as residue mod 16."""
    rng = random.Random("acceptance:stealth")
    checked = 0
    for key in viable_keys.items[::4]:
        for _ in range(10):
            payload = rng.randbytes(512)
            stream = encode_message(payload, key.index, rng)
            if not all(verify_stream(stream, key.table)):
                _report(8, "stealth-residues", False, "member value emitted")
            for pos, byte in enumerate(payload):
                hi, lo = stream.values[2 * pos], stream.values[2 * pos + 1]
                if hi % 16 != byte >> 4 or lo % 16 != byte & 0xF:
                    _report(8, "stealth-residues", False, f"residue mismatch at {pos}")
            checked += len(stream.values)
    _report(8, "stealth-residues", True, f"{checked} values all gaps, residues exact")


def test_criterion_09_chi_square_behavior():
    """Uniform payloads pass the screen >= 95/100; one-class stream scores 1200.

    The battery is frozen: key from appendix-c seed 101, payload seeds
    0..99 (800 random bytes each), encoder seeds 10000 + s.  A stream
    of 80 values in a single class scores (80-5)^2/5 + 15*(0-5)^2/5 = 1200.
    """
    gens = generate_key(KeygenParams(seed=101, mode="appendix-c"))
    index = build_gap_index(build_table(gens))
    passes = 0
    for s in range(100):
        payload = random.Random(s).randbytes(800)
        stream = encode_message(payload, index, random.Random(10_000 + s))
        _stat, reject = chi_square_uniformity(stream, 16)
        passes += not reject
    stat, reject = chi_square_uniformity([16 * j + 3 for j in range(80)], 16)
    ok = passes >= 95 and stat == 1200.0 and reject
    _report(
        9,
        "chi-square-behavior",
        ok,
        f"{passes}/100 uniform streams pass; one-class stat {stat:.1f} rejects",
    )


def test_criterion_10_class_uniformity(telescopic_family):
    """Gap counts mod 16 stay within max/min <= 1.5 for >= 90/100 keys.

    The 1.5 bar is this suite's own reading of "roughly even": gap
    residues are structured rather than iid, so the bar binds on 90 of
    100 keys (F >= 10000 throughout) instead of all of them.
    """
    keys = telescopic_family.items[:100]
    small = [seed for seed, _g, t in keys if t.frobenius < 10_000]
    if small:
        _report(10, "class-uniformity", False, f"F < 10000 for seeds {small}")
    within = 0
    worst = 0.0
    for _seed, _gens, table in keys:
        hist = residue_histogram(table, 16)
        ratio = float(hist.max() / hist.min())
        worst = max(worst, ratio)
        within += ratio <= 1.5
    _report(
        10,
        "class-uniformity",
        within >= 90,
        f"{within}/100 keys within 1.5 (worst {worst:.3f})",
    )


def test_criterion_11_bound_checks(
    random_family, sylvester_records, progression_records, geometric_records, telescopic_family
):
    """Wilf and three-generator lower bounds hold on every constructed table.

    Progressions use embedding dimension w + 1: a relation
    c*a + (sum i)*d = a + k*d with c parts forces d | c - 1, and any
    positive multiple of a already overshoots k <= a - 1, so no element
    is redundant.  A 200-key subsample re-derives that from scratch.
    """
    wilf_count = davison_count = 0

    def check(d, frob, genus, label):
        nonlocal wilf_count
        if not wilf_check(d, frob, genus).holds:
            _report(11, "bound-checks", False, f"wilf failed on {label}")
        wilf_count += 1

    def check_davison(a1, a2, a3, frob, label):
        nonlocal davison_count
        if not davison_check(a1, a2, a3, frob).holds:
            _report(11, "bound-checks", False, f"davison failed on {label}")
        davison_count += 1

    for gens, table in random_family.items:
        minimal = minimal_generators(gens)
        check(len(minimal), table.frobenius, table.genus, tuple(gens))
        if len(minimal) == 3:
            check_davison(*minimal, table.frobenius, tuple(gens))

    for a, b, frob, genus in sylvester_records.items:
        check(2, frob, genus, (a, b))

    for a, d, w, frob, genus in progression_records.items:
        check(w + 1, frob, genus, (a, d, w))
        if w == 2:
            check_davison(a, a + d, a + 2 * d, frob, (a, d, w))
    for a, d, w, _frob, _genus in progression_records.items[::153]:
        gens = validate_generators(ProgressionSpec(a, d, w).generators())
        if tuple(minimal_generators(gens)) != tuple(gens):
            _report(11, "bound-checks", False, f"progression {(a, d, w)} not minimal")

    for spec, table in geometric_records.items:
        gens = validate_generators(spec.generators())
        if tuple(minimal_generators(gens)) != tuple(gens):
            _report(11, "bound-checks", False, f"{spec} not minimal")
        check(len(gens), table.frobenius, table.genus, spec)
        if len(gens) == 3:
            check_davison(*sorted(gens), table.frobenius, spec)

    for seed, gens, table in telescopic_family.items:
        minimal = minimal_generators(gens)
        check(len(minimal), table.frobenius, table.genus, f"seed {seed}")
        if len(minimal) == 3:
            check_davison(*minimal, table.frobenius, f"seed {seed}")

    _report(
        11,
        "bound-checks",
        True,
        f"{wilf_count} wilf checks, {davison_count} davison checks",
    )


def test_criterion_12_salting_audit(viable_keys, telescopic_family):
    """Salting is reversible but does not keep values out of the semigroup.

    desalt(salt(stream)) must be the identity whenever every value is
    below the period.  Gap preservation, though, fails: with the period
    above F every salted value is a member (fraction 0), and a shorter
    period still leaks members.  At least one audited key must come in
    strictly below 1.
    """
    rng = random.Random("acceptance:salting")
    identities = 0
    for key in viable_keys.items:
        if key.salt is None:
            continue
        payload = rng.randbytes(64)
        stream = encode_message(payload, key.index, rng)
        back = desalt_stream(salt_stream(stream, key.salt, rng))
        if not np.array_equal(back.values, stream.values) or decode_message(back) != payload:
            _report(12, "salting-audit", False, "desalt did not invert salt")
        identities += 1

    table = build_table(validate_generators((37, 38)))
    spec = SaltSpec.from_generators(validate_generators((37, 38)), 0, 1)
    frac_wide = measure_salt_gap_preservation(table, spec, 500, rng)

    frac_short = None
    for _seed, gens, table in telescopic_family.items:
        pairs = [
            (i, j)
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
            if math.lcm(gens[i], gens[j]) < table.frobenius
        ]
        if pairs:
            i, j = min(pairs, key=lambda p: math.lcm(gens[p[0]], gens[p[1]]))
            spec = SaltSpec.from_generators(gens, i, j, k_max=8)
            frac_short = measure_salt_gap_preservation(table, spec, 500, rng)
            break

    ok = identities > 0 and frac_wide < 1 and (frac_short is None or frac_short < 1)
    _report(
        12,
        "salting-audit",
        ok,
        f"{identities} exact inversions; preserved fractions {frac_wide}"
        + (f" and {frac_short}" if frac_short is not None else ""),
    )
