"""Reduced-scale property suites runnable from the installed package.

The heavyweight envelope sweeps live in the test suite; this module keeps
just enough of each cross-check to catch a miscompiled or mispackaged
install in a few seconds.  Each suite raises AssertionError on the first
disagreement; the runner reports the suite name and the seed needed to
reproduce it.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np

from . import analysis, codec, formulas, keygen, semigroup


def _random_generating_set(rng: random.Random) -> semigroup.GeneratingSet:
    while True:
        n = rng.randint(2, 5)
        cand = sorted({rng.randint(2, 120) for _ in range(n)})
        if len(cand) >= 2 and math.gcd(*cand) == 1:
            return semigroup.validate_generators(cand)


def _suite_oracle_equivalence(rng: random.Random) -> int:
    checks = 0
    for _ in range(40):
        gens = _random_generating_set(rng)
        table = semigroup.build_table(gens)
        bound = table.frobenius + 2 * table.multiplicity
        sieve = semigroup.brute_force_sieve(gens, bound)
        xs = np.arange(bound + 1, dtype=np.int64)
        agree = table.members(xs) == sieve.representable
        assert bool(agree.all()), f"membership mismatch for {tuple(gens)}"
        checks += int(agree.size)
    return checks


def _suite_sylvester(rng: random.Random) -> int:
    checks = 0
    for a in range(2, 41):
        for b in range(a + 1, 41):
            if math.gcd(a, b) != 1:
                continue
            table = semigroup.build_table(semigroup.validate_generators((a, b)))
            got = formulas.sylvester(a, b)
            assert got == table.frobenius, f"sylvester({a},{b}) = {got} != {table.frobenius}"
            checks += 1
    return checks


def _suite_progression(rng: random.Random) -> int:
    checks = 0
    for a in range(2, 31):
        for d in range(1, 5):
            if math.gcd(a, d) != 1:
                continue
            for w in range(1, a):
                spec = formulas.ProgressionSpec(a, d, w)
                table = semigroup.build_table(
                    semigroup.validate_generators(spec.generators())
                )
                got = formulas.progression_frobenius(spec)
                assert got == table.frobenius, (
                    f"progression({a},{d},{w}) = {got} != {table.frobenius}"
                )
                checks += 1
    return checks


def _suite_geometric(rng: random.Random) -> int:
    checks = 0
    for a, b in ((2, 3), (2, 5), (3, 4), (3, 5)):
        for k in range(1, 4):
            spec = formulas.GeometricSpec(a, b, k)
            table = semigroup.build_table(
                semigroup.validate_generators(spec.generators())
            )
            got = formulas.geometric_frobenius(spec)
            assert got == table.frobenius, (
                f"geometric({a},{b},{k}) = {got} != {table.frobenius}"
            )
            checks += 1
    # the tempting k=2 shortcut ab(a+b-1) must disagree with reality
    assert formulas.geometric_frobenius(formulas.GeometricSpec(2, 3, 2)) == 11
    assert 2 * 3 * (2 + 3 - 1) == 24
    return checks + 1


def _suite_telescopic_symmetry(rng: random.Random) -> int:
    checks = 0
    for _ in range(8):
        params = keygen.KeygenParams(
            seed=rng.getrandbits(63), n_elements=3, base_min=60, base_max=240
        )
        gens = keygen.generate_key(params)
        table = semigroup.build_table(gens)
        assert semigroup.is_telescopic(gens), f"{tuple(gens)} not telescopic"
        assert table.is_symmetric(), f"{tuple(gens)} not symmetric"
        checks += 1
    return checks


def _suite_codec_round_trip(rng: random.Random) -> int:
    checks = 0
    for params in (
        keygen.KeygenParams(seed=rng.getrandbits(63), mode="appendix-c"),
        keygen.KeygenParams(seed=rng.getrandbits(63), n_elements=3, base_min=60, base_max=240),
    ):
        gens = keygen.generate_key(params)
        table = semigroup.build_table(gens)
        index = codec.build_gap_index(table)
        pair = keygen.choose_salt_pair(gens, table)
        for _ in range(10):
            payload = rng.randbytes(rng.randint(0, 256))
            stream = codec.encode_message(payload, index, rng)
            assert codec.decode_message(stream) == payload
            assert codec.verify_stream(stream, table).all()
            if pair is not None:
                spec = codec.SaltSpec.from_generators(gens, *pair)
                salted = codec.salt_stream(stream, spec, rng)
                assert codec.decode_message(salted) == payload
                assert np.array_equal(codec.desalt_stream(salted).values, stream.values)
            checks += 1
    return checks


def _suite_bounds(rng: random.Random) -> int:
    checks = 0
    for _ in range(30):
        gens = _random_generating_set(rng)
        table = semigroup.build_table(gens)
        minimal = semigroup.minimal_generators(gens)
        wilf = formulas.wilf_check(len(minimal), table.frobenius, table.genus)
        assert wilf.holds, f"wilf fails on {tuple(gens)}"
        if len(minimal) == 3:
            a1, a2, a3 = minimal.elements
            dav = formulas.davison_check(a1, a2, a3, table.frobenius)
            assert dav.holds, f"davison fails on {tuple(minimal)}"
        density = analysis.gap_density(table)
        assert (density == 0.5) == table.is_symmetric()
        checks += 1
    return checks


_SUITES: tuple[tuple[str, Callable[[random.Random], int]], ...] = (
    ("oracle-equivalence", _suite_oracle_equivalence),
    ("sylvester-cross-check", _suite_sylvester),
    ("progression-cross-check", _suite_progression),
    ("geometric-cross-check", _suite_geometric),
    ("telescopic-symmetry", _suite_telescopic_symmetry),
    ("codec-round-trip", _suite_codec_round_trip),
    ("bound-checks", _suite_bounds),
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
