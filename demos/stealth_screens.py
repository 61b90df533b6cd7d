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
    chi_square_uniformity,
    encode_message,
    gap_density,
    generate_key,
    residue_histogram,
    window_bernoulli,
)


def main() -> None:
    gens = generate_key(KeygenParams(seed=21, mode="appendix-c"))
    table = build_table(gens)
    index = build_gap_index(table)
    rng = random.Random(4)

    print(f"key generators: {tuple(gens)}   frobenius {table.frobenius}")
    print(f"gap density on [0, F]: {gap_density(table)} (symmetric keys sit at 1/2)")
    print(f"gap counts by residue mod 16: {residue_histogram(table, 16).tolist()}")

    print()
    print("screen 1: chi-square on an honest stream of random payload bytes")
    payload = rng.randbytes(1000)
    stream = encode_message(payload, index, rng)
    stat, reject = chi_square_uniformity(stream, 16)
    print(f"  {len(stream)} values, statistic {stat:.2f}, reject uniformity: {reject}")

    print()
    print("screen 2: the same test on a stream that reuses one class")
    gaps = table.gaps()
    lazy = [int(gaps[gaps % 16 == 3][0])] * 120
    stat, reject = chi_square_uniformity(lazy, 16)
    print(f"  {len(lazy)} values, statistic {stat:.2f}, reject uniformity: {reject}")
    print("  a flat statistic needs all 16 residues; repetition lights up instantly")

    print()
    print("screen 3: gap fraction in random windows of the integer line")
    fractions = window_bernoulli(table, 2048, 6, random.Random(1))
    print(f"  six windows of 2048: {['%.3f' % float(f) for f in fractions]}")
    many = window_bernoulli(table, 2048, 400, random.Random(2))
    mean = sum(many) / len(many)
    print(f"  mean over 400 windows: {float(mean):.4f}")
    print("  single windows swing hard (gaps crowd the low end), but mirror")
    print("  symmetry pins the average at 1/2; a biased key would drift")

    print()
    print("bundled report (what the analyze command prints):")
    report = build_report(stream, modulus=16, table=table)
    print(f"  n_values {report.n_values}, chi_square {report.chi_square:.4f},"
          f" df {report.df}, reject {report.reject_uniformity}")
    print(f"  class histogram {list(report.class_histogram)}")
    print(f"  density {report.gap_density}, windows {[str(f) for f in report.window_fractions]}")


if __name__ == "__main__":
    main()
