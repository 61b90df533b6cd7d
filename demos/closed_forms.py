"""Closed-form Frobenius numbers checked live against the table builder.

Three families have exact formulas: two coprime generators, arithmetic
progressions, and geometric sequences.  Each formula is evaluated next
to the generic table construction so the agreement is visible,
and one tempting simplification is shown to be wrong.
"""

from __future__ import annotations

from gapstego import (
    GeometricSpec,
    ProgressionSpec,
    brute_force_sieve,
    build_table,
    davison_check,
    geometric_frobenius,
    minimal_generators,
    progression_frobenius,
    sylvester,
    validate_generators,
    wilf_check,
)


def main() -> None:
    print("two coprime generators: F = ab - a - b")
    for a, b in ((3, 5), (5, 7), (11, 13), (101, 103)):
        table = build_table(validate_generators((a, b)))
        print(f"  ({a:3d},{b:3d})  formula {sylvester(a, b):6d}   table {table.frobenius:6d}")

    print()
    print("arithmetic progressions a, a+d, ..., a+wd")
    for a, d, w in ((5, 1, 2), (7, 2, 3), (10, 3, 9), (9, 4, 5)):
        spec = ProgressionSpec(a, d, w)
        table = build_table(validate_generators(spec.generators()))
        print(
            f"  a={a:2d} d={d} w={w}:  formula {progression_frobenius(spec):4d}"
            f"   table {table.frobenius:4d}"
        )

    print()
    print("geometric sequences a^k, a^(k-1)b, ..., b^k")
    for a, b, k in ((2, 3, 1), (2, 3, 2), (3, 4, 2), (2, 5, 3)):
        spec = GeometricSpec(a, b, k)
        gens = validate_generators(spec.generators())
        table = build_table(gens)
        print(
            f"  a={a} b={b} k={k}: generators {tuple(gens)}"
            f"  formula {geometric_frobenius(spec)}  table {table.frobenius}"
        )

    print()
    print("a cautionary tale at (a, b, k) = (2, 3, 2)")
    gens = validate_generators(GeometricSpec(2, 3, 2).generators())
    sieve = brute_force_sieve(gens, 64)
    largest_gap = max(x for x in range(65) if not sieve[x])
    print(f"  the tidy-looking product ab(a+b-1) gives {2 * 3 * (2 + 3 - 1)}")
    print(f"  the power-sum formula gives {geometric_frobenius(GeometricSpec(2, 3, 2))}")
    print(f"  brute force over {tuple(gens)} says the largest gap is {largest_gap}")
    print("  24 is not even a gap here (24 = 12 + 12), so the shortcut is wrong")

    print()
    print("two inequalities every semigroup here must satisfy")
    gens = validate_generators((4, 6, 9))
    table = build_table(gens)
    minimal = minimal_generators(table)
    dav = davison_check(*minimal, table.frobenius)
    wil = wilf_check(len(minimal), table.frobenius, table.genus)
    print(f"  on {tuple(gens)} with F = {table.frobenius}, genus {table.genus}:")
    print(f"  three-generator lower bound holds: {dav.holds}"
          f"  (F + a + b + c = {int(dav.lhs)} vs sqrt(3abc) = {dav.rhs_display:.2f})")
    print(f"  embedding-dimension inequality holds: {wil.holds}"
          f"  (d * (F + 1 - g) = {3 * (table.frobenius + 1 - table.genus)}"
          f" vs F + 1 = {table.frobenius + 1})")


if __name__ == "__main__":
    main()
