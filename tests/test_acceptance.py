"""Release gate: one test per acceptance criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines, add ``-s`` for the detail lines (counts, timings,
observed rates).  Every check is exact unless its docstring says
otherwise; statistical criteria run on frozen seeds so the verdicts are
reproducible bit for bit.

The property checks and the families they run on are defined once in
gapstego.selftest, which `gapstego selftest` runs on small families;
this module fixes the gate's sizes and seeds.
"""

from __future__ import annotations

import contextlib
import math
import random
import time
from dataclasses import dataclass

import pytest

from gapstego import (
    KeygenParams,
    ProgressionSpec,
    SaltSpec,
    build_gap_index,
    build_report,
    build_table,
    encode_message,
    generate_key,
    measure_salt_gap_preservation,
    minimal_generators,
    residue_histogram,
    selftest,
    validate_generators,
)


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {label}: {verdict}{suffix}")
    assert ok, f"criterion {number} {label}{suffix}"


@contextlib.contextmanager
def _reported(number: int, label: str):
    """Report a shared check's AssertionError as this criterion's FAIL line."""
    try:
        yield
    except AssertionError as exc:
        _report(number, label, False, str(exc))


@dataclass
class Timed:
    elapsed: float
    items: list


def _timed(build, *args) -> Timed:
    start = time.perf_counter()
    items = build(*args)
    return Timed(time.perf_counter() - start, items)


@pytest.fixture(scope="module")
def random_family() -> Timed:
    """500 random generating sets (2..6 generators <= 500) with tables."""
    return _timed(selftest.random_family, random.Random("acceptance:random-family"), 500, 500)


@pytest.fixture(scope="module")
def sylvester_records() -> Timed:
    """(a, b, frobenius, genus) for every coprime pair 2 <= a < b <= 200."""
    return _timed(selftest.sylvester_records, 200)


@pytest.fixture(scope="module")
def progression_records() -> Timed:
    """(a, d, w, frobenius, genus) for a <= 100, d <= 10 coprime to a, w < a."""
    return _timed(selftest.progression_records, 100, 10)


@pytest.fixture(scope="module")
def geometric_records() -> Timed:
    """(spec, table) for coprime 2 <= a < b <= 7 and 1 <= k <= 4."""
    return _timed(selftest.geometric_family, 7, 4)


@pytest.fixture(scope="module")
def telescopic_family() -> Timed:
    """200 keys from telescopic-mode keygen, seeds 2000..2199, with tables."""
    return _timed(selftest.telescopic_family, range(2000, 2200))


@pytest.fixture(scope="module")
def viable_keys() -> Timed:
    """20 viable keys: 10 per keygen mode, fixed seeds, gap indexes built."""
    seeds = [(mode, seed) for mode, base in (("appendix-c", 300), ("telescopic", 400))
             for seed in range(base, base + 10)]
    return _timed(lambda: [selftest.viable_key(seed, mode) for mode, seed in seeds])


def test_criterion_01_oracle_equivalence(random_family):
    """is_member vs the independent sieve on [0, F + 2m], 500 sets, < 30 s."""
    start = time.perf_counter()
    with _reported(1, "oracle-equivalence"):
        selftest.check_oracle(random_family.items, random.Random("acceptance:oracle-spot"))
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
    with _reported(2, "sylvester-cross-check"):
        selftest.check_sylvester(sylvester_records.items)
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
    with _reported(3, "progression-cross-check"):
        selftest.check_progressions(progression_records.items)
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
    with _reported(4, "geometric-cross-check"):
        selftest.check_geometric(geometric_records.items)
        shortcut, true = selftest.check_geometric_shortcut()
    _report(
        4,
        "geometric-cross-check",
        (shortcut, true) == (24, 11),
        f"{len(geometric_records.items)} cases exact; shortcut {shortcut} vs true {true}",
    )


def test_criterion_05_symmetry_identity(
    random_family, sylvester_records, progression_records, geometric_records, telescopic_family
):
    """is_symmetric <=> genus = (F+1)/2 <=> gap density exactly 1/2.

    Live tables get these identities and the definition-level pairing
    scan (z in S iff F - z not in S).  Record-only families get the bound
    genus >= (F+1)/2 that every semigroup meets, and are re-scanned on a
    deterministic subsample to keep the run short.
    """
    tables = (
        [t for _g, t in random_family.items]
        + [t for _s, t in geometric_records.items]
        + [t for _seed, _g, t in telescopic_family.items]
    )
    records = sylvester_records.items + progression_records.items
    pairs = sylvester_records.items[::50]
    progressions = progression_records.items[::37]
    with _reported(5, "symmetry-identity"):
        for table in tables:
            selftest.check_symmetry(table)
        for *_, frobenius, genus in records:
            selftest.check_genus_bound(frobenius, genus)
        for a, b, _frob, _genus in pairs:
            symmetric = selftest.check_symmetry(build_table(validate_generators((a, b))))
            assert symmetric, f"pair ({a}, {b}) not symmetric"
        for a, d, w, _frob, _genus in progressions:
            gens = validate_generators(ProgressionSpec(a, d, w).generators())
            selftest.check_symmetry(build_table(gens))
    scans = len(tables) + len(pairs) + len(progressions)
    total = len(tables) + len(records)
    _report(5, "symmetry-identity", True, f"{total} tables, {scans} pairing scans")


def test_criterion_06_telescopic_implies_symmetric(telescopic_family):
    """Every telescopic-mode key is telescopic and symmetric, 200 keys."""
    with _reported(6, "telescopic-implies-symmetric"):
        count = selftest.check_telescopic(telescopic_family.items)
    _report(6, "telescopic-implies-symmetric", True, f"{count} keys")


def test_criterion_07_codec_round_trip(viable_keys):
    """decode(encode(p)) = p, 1000 payloads to 4 KiB, 20 keys, < 60 s.

    Odd payloads are salted too; every stream is also checked for gaps,
    residues and (salted) exact de-salting.
    """
    rng = random.Random("acceptance:round-trip")
    start = time.perf_counter()
    with _reported(7, "codec-round-trip"):
        salted, plain = selftest.check_codec(viable_keys.items, rng, 1000, 4096)
    elapsed = viable_keys.elapsed + time.perf_counter() - start
    ok = elapsed < 60.0 and salted > 0 and plain > 0
    _report(
        7,
        "codec-round-trip",
        ok,
        f"1000 payloads ({salted} salted, {plain} plain), {elapsed:.1f}s",
    )


def test_criterion_08_stealth_residues(viable_keys):
    """Unsalted values are all gaps and carry their nibble as residue mod 16."""
    rng = random.Random("acceptance:stealth")
    with _reported(8, "stealth-residues"):
        checked = sum(
            selftest.check_round_trip(key, rng.randbytes(512), rng)
            for key in viable_keys.items[::4]
            for _ in range(10)
        )
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
        passes += not build_report(stream).reject_uniformity
    one_class = build_report([16 * j + 3 for j in range(80)])
    stat = one_class.chi_square
    ok = passes >= 95 and stat == 1200.0 and one_class.reject_uniformity
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
        hist = residue_histogram(table)
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
    cases = (
        [(minimal_generators(t), t.frobenius, t.genus) for _g, t in random_family.items]
        + [((a, b), frob, genus) for a, b, frob, genus in sylvester_records.items]
        + [
            (ProgressionSpec(a, d, w).generators(), frob, genus)
            for a, d, w, frob, genus in progression_records.items
        ]
        + [(s.generators(), t.frobenius, t.genus) for s, t in geometric_records.items]
        + [(minimal_generators(t), t.frobenius, t.genus) for _s, _g, t in telescopic_family.items]
    )
    specs = [ProgressionSpec(a, d, w) for a, d, w, _f, _g in progression_records.items[::153]]
    with _reported(11, "bound-checks"):
        for spec in specs + [s for s, _t in geometric_records.items]:
            gens = validate_generators(spec.generators())
            assert tuple(minimal_generators(build_table(gens))) == tuple(gens), f"{spec} not minimal"
        davison = sum(selftest.check_bounds(*case) for case in cases)
    _report(
        11,
        "bound-checks",
        True,
        f"{len(cases)} wilf checks, {davison} davison checks",
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
    salted = [key for key in viable_keys.items if key.salt is not None]
    with _reported(12, "salting-audit"):
        for key in salted:
            selftest.check_round_trip(key, rng.randbytes(64), rng, salt=True)
    identities = len(salted)

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


def test_criterion_13_appendix_c_pair_search():
    """A keyless search recovers every appendix-c key of the battery from 128 values.

    An appendix-c key is the semigroup of its coprime pair (a, b), with
    500 <= a <= 1000 and 1 <= b - a <= 200: 61,053 pairs.  The search keeps
    each pair of which every observed value is a gap.  It is exact: the
    key's own pair is never ruled out.  Battery: keygen seeds 0-19, the
    64-byte payload Random(1000 + seed).randbytes(64), encoded with
    Random(2000 + seed).  After 128 values (64 payload bytes) the key's
    pair must be the only one left, for every key.  This is a measured
    weakness of the mode, stated in the README.
    """
    battery = selftest.appendix_c_battery(range(20))
    with _reported(13, "appendix-c-pair-search"):
        survivors = selftest.check_pair_search(battery)
    alone = [sum(counts[k] == 1 for counts in survivors) for k in range(len(selftest.PAIR_SEARCH_AT))]
    _report(
        13,
        "appendix-c-pair-search",
        alone[-1] == len(battery),
        f"keys whose pair is left alone after {'/'.join(map(str, selftest.PAIR_SEARCH_AT))}"
        f" values: {'/'.join(map(str, alone))} of {len(battery)}; most pairs left"
        f" {'/'.join(str(max(column)) for column in zip(*survivors))}",
    )
