"""Salting: wider value ranges bought at the price of gap camouflage.

Raw encoded values never exceed the Frobenius number, which is itself a
fingerprint.  Salting adds k * L to each value for a per-key period L
and a fresh random k, so magnitudes spread out.  Decoding still works
(reduce mod L), but the salted values stop being gaps; the audit at the
end measures exactly how badly that camouflage breaks.
"""

from __future__ import annotations

import random

import numpy as np

from gapstego import (
    KeygenParams,
    SaltSpec,
    build_gap_index,
    build_table,
    choose_salt_pair,
    decode_message,
    desalt_stream,
    encode_message,
    generate_key,
    measure_salt_gap_preservation,
    salt_stream,
    verify_stream,
)


def main() -> None:
    gens = generate_key(KeygenParams(seed=13, mode="telescopic"))
    table = build_table(gens)
    index = build_gap_index(table)
    rng = random.Random(6)

    pair = choose_salt_pair(gens, table)
    assert pair is not None, "this key offers no period above F; pick another seed"
    spec = SaltSpec.from_generators(gens, *pair, k_max=16)
    print(f"generators  : {tuple(gens)}")
    print(f"frobenius   : {table.frobenius}")
    print(f"salt pair   : indices {pair} -> period {spec.period}")

    payload = b"salted caramel"
    plain = encode_message(payload, index, rng)
    salted = salt_stream(plain, spec, rng)
    print()
    print(f"plain  max value: {int(plain.values.max()):>12d}  (never exceeds F)")
    print(f"salted max value: {int(salted.values.max()):>12d}  (up to F + k_max * L)")
    print(f"salted stream records its period: {salted.salt_period}")

    back = desalt_stream(salted)
    print(f"desalt inverts salt exactly: {np.array_equal(back.values, plain.values)}")
    print(f"decode_message(salted) = {decode_message(salted)!r}")

    print()
    print("but are salted values still gaps?")
    verdicts = verify_stream(salted, table)  # verify de-salts first
    print(f"  de-salted values: {verdicts.sum()}/{len(verdicts)} gaps (all, as encoded)")
    salted_gaps = [not table.is_member(v) for v in salted.values.tolist()]
    print(f"  salted values   : {sum(salted_gaps)}/{len(salted_gaps)} gaps")
    print("  the period exceeds F, so every salted value lands in the semigroup")

    print()
    print("audit over random gaps, 400 samples each:")
    frac = measure_salt_gap_preservation(table, spec, 400, random.Random(0))
    print(f"  period {spec.period} (above F): preserved fraction {frac}")
    short = SaltSpec(period=table.frobenius // 40, k_max=16)
    frac = measure_salt_gap_preservation(table, short, 400, random.Random(0))
    print(f"  period {short.period} (below F): preserved fraction {frac}")
    print("  no choice keeps the fraction at 1; salting trades stealth for range")


if __name__ == "__main__":
    main()
