"""Hide a message in gap values, recover it, and catch a corrupted value.

The encoder draws, for each nibble of the payload, a random gap of the
secret semigroup congruent to that nibble mod 16.  Residues mod 16 are
public arithmetic, so decoding needs no key at all; what the key buys
is the ability to check that every value really is a gap.  That check
catches corruption but not forgery: every positive value below the
smallest generator is a gap.
"""

from __future__ import annotations

import random

import numpy as np

from gapstego import (
    CipherStream,
    KeygenParams,
    build_gap_index,
    build_table,
    choose_salt_pair,
    decode_message,
    encode_message,
    generate_key,
    verify_stream,
)

MESSAGE = b"meet at dawn"


def main() -> None:
    params = KeygenParams(seed=7, mode="telescopic")
    gens = generate_key(params)
    table = build_table(gens)
    print(f"secret generators : {tuple(gens)}")
    print(f"frobenius         : {table.frobenius}")
    print(f"genus             : {table.genus} gaps to hide in")
    print(f"salt pair on offer: {choose_salt_pair(gens, table)}")

    index = build_gap_index(table)
    sizes = index.class_sizes()
    print(f"gaps per nibble class mod 16: min {min(sizes)}, max {max(sizes)}")

    rng = random.Random(99)
    stream = encode_message(MESSAGE, index, rng)
    print()
    print(f"payload {MESSAGE!r} becomes {len(stream)} integers:")
    values = stream.values.tolist()  # the stream is one uint64 array
    for pos in range(0, len(values), 8):
        print("  " + " ".join(f"{v:7d}" for v in values[pos : pos + 8]))

    # residues carry the data in plain sight
    nibbles = [v % 16 for v in values]
    rebuilt = bytes((nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2))
    print(f"residues mod 16 pair back into: {rebuilt!r}")
    print(f"decode_message agrees         : {decode_message(stream)!r}")

    print()
    verdicts = verify_stream(stream, table)
    print(f"verify_stream: all {len(verdicts)} values are gaps = {verdicts.all()}")

    # a value swapped for a member with the same residue decodes the same
    corrupted_values = list(values)
    target = corrupted_values[0]
    fake = target + table.multiplicity  # same residue class mod m is wrong on purpose
    while not table.is_member(fake) or fake % 16 != target % 16:
        fake += 1
    corrupted_values[0] = fake
    corrupted = CipherStream(tuple(corrupted_values))
    verdicts = verify_stream(corrupted, table)
    print(f"replacing value 0 with member {fake} (same nibble {fake % 16}):")
    print(f"  decoded text unchanged: {decode_message(corrupted)!r}")
    print(f"  but verify_stream flags position {np.flatnonzero(~verdicts)[0]}")

    forged = CipherStream((1, 2, 3, 4))
    print(f"a keyless forgery {tuple(forged.values.tolist())} decodes to {decode_message(forged)!r}")
    print(f"  and passes verify_stream: {verify_stream(forged, table).all()}")


if __name__ == "__main__":
    main()
