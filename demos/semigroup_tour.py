"""Tour of the structural core: tables, gaps, symmetry, telescopic chains.

Everything downstream (keys, encoding, statistics) sits on the object
built here, so this script walks the invariants one by one on a small
semigroup where every number can be eyeballed.
"""

from __future__ import annotations

import numpy as np

from gapstego import (
    brute_force_sieve,
    build_table,
    is_telescopic,
    minimal_generators,
    validate_generators,
)


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def main() -> None:
    gens = validate_generators((4, 6, 9))
    table = build_table(gens)

    banner(f"the numerical semigroup generated by {tuple(gens)}")
    print(f"multiplicity (smallest member) : {table.multiplicity}")
    print(f"frobenius (largest gap)        : {table.frobenius}")
    print(f"genus (number of gaps)         : {table.genus}")
    # the gap list, read off the independent sieve below: the table never lists it
    gaps = np.flatnonzero(~brute_force_sieve(gens, table.frobenius))
    print(f"gaps                           : {gaps.tolist()}")

    banner("membership is a single residue lookup")
    # min_rep[r] is the smallest member congruent to r mod the multiplicity;
    # x belongs iff it reaches that representative
    for r, rep in enumerate(table.min_rep):
        print(f"residue {r}: smallest member {int(rep)}")
    xs = np.arange(14)
    marks = ["x" if m else "." for m in table.members(xs)]
    print("0..13 as member/gap            : " + " ".join(marks))

    banner("an independent referee agrees")
    sieve = brute_force_sieve(gens, table.frobenius + 2 * table.multiplicity)
    same = np.array_equal(table.members(np.arange(len(sieve))), sieve)
    print(f"dynamic-programming sieve matches the table on [0, {len(sieve) - 1}]: {same}")

    banner("symmetry pairs every gap with a member")
    frob = table.frobenius
    for z in range(frob + 1):
        partner = frob - z
        left = "member" if table.is_member(z) else "gap   "
        right = "member" if table.is_member(partner) else "gap"
        if z < partner:
            print(f"  {z:2d} is {left}  <->  {partner:2d} is {right}")
    print(f"is_symmetric: {table.is_symmetric()}  (genus doubles to frobenius + 1)")

    banner("telescopic chains certify symmetry without scanning")
    for cand in ((4, 6, 9), (5, 7), (3, 5, 7), (5, 6, 7)):
        flag = is_telescopic(build_table(validate_generators(cand)))
        print(f"  {cand}: telescopic = {flag}")

    banner("redundant generators are detected and dropped")
    fat = validate_generators((5, 7, 12, 17))
    print(f"  {tuple(fat)} minimally: {tuple(minimal_generators(build_table(fat)))}")
    print("  (12 = 5 + 7 and 17 = 5 + 12, so two generators carry the set)")


if __name__ == "__main__":
    main()
