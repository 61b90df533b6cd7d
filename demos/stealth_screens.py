"""What an observer can and cannot see in an emitted stream.

An eavesdropper who suspects gap steganography has a few cheap tests:
residue frequencies mod 16, a chi-square score against uniformity, and
density checks against a candidate key.  This script runs all of them,
first on an honest encoded stream and then on a clumsy one.
"""

from __future__ import annotations

import random

from gapstego import (
    KeygenParams,
    build_gap_index,
    build_report,
    build_table,
    encode_message,
    gap_density,
    generate_key,
    residue_histogram,
)


def main() -> None:
    gens = generate_key(KeygenParams(seed=21, mode="appendix-c"))
    table = build_table(gens)
    index = build_gap_index(table)
    rng = random.Random(4)

    print(f"key generators: {tuple(gens)}   frobenius {table.frobenius}")
    print(f"gap counts by residue mod 16: {residue_histogram(table).tolist()}")

    print()
    print("screen 1: chi-square on an honest stream of random payload bytes")
    payload = rng.randbytes(1000)
    stream = encode_message(payload, index, rng)
    honest = build_report(stream)
    print(f"  {len(stream)} values, statistic {honest.chi_square:.2f},"
          f" reject uniformity: {honest.reject_uniformity}")

    print()
    print("screen 2: the same test on a stream that reuses one class")
    gaps = table.gaps()
    lazy = [int(gaps[gaps % 16 == 3][0])] * 120
    clumsy = build_report(lazy)
    print(f"  {len(lazy)} values, statistic {clumsy.chi_square:.2f},"
          f" reject uniformity: {clumsy.reject_uniformity}")
    print("  a flat statistic needs all 16 residues; repetition lights up instantly")

    print()
    print("screen 3: gap density on [0, F], exact from the key")
    print(f"  {table.genus} of the {table.frobenius + 1} integers in [0, F] are gaps:"
          f" density {gap_density(table)}")
    print("  symmetric keys sit at exactly 1/2, so the values fill half the range;")
    print("  any other key sits above it, with more gaps than members")

    print()
    print("bundled report (what the analyze command prints with --key):")
    report = build_report(stream)
    print(f"  n_values {report.n_values}, chi_square {report.chi_square:.4f},"
          f" df {report.df}, reject {report.reject_uniformity}")
    print(f"  class histogram {list(report.class_histogram)}")
    print(f"  gap_density {gap_density(table)}")


if __name__ == "__main__":
    main()
