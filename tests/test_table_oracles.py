"""The doubling pass of build_table against oracles that share none of its code.

build_table must equal the Dijkstra reference and the brute-force sieve;
minimal_generators and is_telescopic must equal their definitions, each
decided by the sieve on the generators themselves.  A telescopic key's
table must also equal what the free-semigroup form of its elements gives.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dijkstra_reference import dijkstra_min_rep
from gapstego import (
    GeneratingSet,
    KeygenParams,
    brute_force_sieve,
    build_table,
    generate_key,
    is_telescopic,
    minimal_generators,
    semigroup,
    validate_generators,
)
from gapstego.keygen import MODES

BIGKEY = (
    160000, 400000, 920000, 1072000, 1140000, 1263000,
    1271200, 1271640, 1278984, 1279492, 1279746, 1279873,
)
# generate_key(KeygenParams(seed=1, base_min=5 * 10**5, base_max=10**6)): m = 915,795
LARGE_BASE_KEY = (915795, 2564226, 4640028, 5919462, 6969925)


def _generated(elems, x):
    # x in the monoid of elems, any gcd; elems may contain 1
    return bool(brute_force_sieve(GeneratingSet(tuple(elems)), x)[x])


def redundant_by_definition(elems):
    """Per generator: is it a sum of the other generators?"""
    return [_generated(elems[:i] + elems[i + 1 :], a) for i, a in enumerate(elems)]


def telescopic_by_definition(elems):
    """Every a_i / d_i is generated by the prefix divided by d_{i-1}."""
    d_prev = elems[0]
    for i in range(1, len(elems)):
        d = math.gcd(d_prev, elems[i])
        if not _generated([a // d_prev for a in elems[:i]], elems[i] // d):
            return False
        d_prev = d
    return True


random_sets = (
    st.lists(st.integers(2, 150), min_size=2, max_size=5)
    .map(lambda xs: sorted(set(xs)))
    .filter(lambda xs: len(xs) >= 2 and math.gcd(*xs) == 1)
)


@st.composite
def shared_factor_sets(draw):
    """Sets whose smaller elements share a factor, so a prefix has gcd > 1."""
    d = draw(st.integers(2, 6))
    low = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    high = draw(st.lists(st.integers(121, 240), min_size=1, max_size=3))
    xs = sorted({d * x for x in low} | set(high))
    assume(len(xs) >= 2 and math.gcd(*xs) == 1)
    return xs


# small telescopic keys: divisor chains with gcd > 1 prefixes by construction
small_keys = st.tuples(st.integers(0, 2**16), st.integers(3, 4)).map(
    lambda sn: list(
        generate_key(KeygenParams(seed=sn[0], n_elements=sn[1], base_min=24, base_max=96))
    )
)

any_sets = st.one_of(random_sets, shared_factor_sets(), small_keys)


@given(any_sets)
@settings(max_examples=150)
def test_table_matches_dijkstra_and_sieve(elems):
    t = build_table(validate_generators(elems))
    reference = dijkstra_min_rep(elems)
    assert np.array_equal(t.min_rep, reference)

    m = t.multiplicity
    bound = int(reference.max())
    rep = brute_force_sieve(t.generators, bound)
    sieve_min_rep = [r + m * int(np.argmax(rep[r::m])) for r in range(m)]
    assert t.min_rep.tolist() == sieve_min_rep
    assert (t.members(np.arange(bound + 1)) == rep).all()


@given(any_sets)
@settings(max_examples=150)
def test_structure_matches_sieve_definitions(elems):
    t = build_table(validate_generators(elems))
    redundant = redundant_by_definition(elems)
    assert minimal_generators(t).elements == tuple(
        a for a, r in zip(elems, redundant) if not r
    )
    assert is_telescopic(t) == telescopic_by_definition(elems)


@given(any_sets, st.integers(1, 6))
# gcd(a, m) for a past m: 1 for (7, 11), m/2 for (10, 15, 17), 4 of 12 for (12, 20, 23)
@example([7, 11], 2)
@example([10, 15, 17], 2)
@example([12, 20, 23], 3)
# prefix gcds 12, 6, 3, 1 and 20, 10, 5, 1: each pass runs on a strided view of the table
@example([12, 18, 27, 40], 2)
@example([20, 30, 45, 67], 3)
@settings(max_examples=150)
def test_blocks_of_a_few_residues_match_the_oracles(elems, block):
    # the cycles of each generator span several blocks of steps and of cycles
    gens = validate_generators(elems)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "_BLOCK_RESIDUES", block)
        t = build_table(gens)

    reference = dijkstra_min_rep(elems)
    assert np.array_equal(t.min_rep, reference)
    m = t.multiplicity
    rep = brute_force_sieve(gens, int(reference.max()))
    assert t.min_rep.tolist() == [r + m * int(np.argmax(rep[r::m])) for r in range(m)]
    assert t.genus == int((reference // m).sum())
    assert minimal_generators(t).elements == tuple(
        a for a, r in zip(elems, redundant_by_definition(elems)) if not r
    )
    assert is_telescopic(t) == telescopic_by_definition(elems)


def test_small_keys_reach_both_verdicts():
    # the strategies above must exercise telescopic and non-telescopic sets,
    # and sets with and without redundant generators
    keys = [
        list(generate_key(KeygenParams(seed=s, n_elements=4, base_min=24, base_max=96)))
        for s in range(20)
    ]
    assert all(telescopic_by_definition(k) for k in keys)
    assert all(is_telescopic(build_table(validate_generators(k))) for k in keys)
    assert not telescopic_by_definition([6, 10, 14, 15])
    assert redundant_by_definition([5, 7, 12, 17]) == [False, False, True, True]


def residues_handed_to_the_pass(elems):
    """len(n) of each table the pass lowers while building elems' table."""
    add = semigroup._add_generator
    sizes = []

    def recorded(n, *rest):
        sizes.append(len(n))
        add(n, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "_add_generator", recorded)
        build_table(validate_generators(elems))
    return sizes


def test_the_pass_works_on_the_residues_the_prefix_reaches():
    # BIGKEY's prefix gcds fall 160,000 -> 80,000 -> ... -> 1: generator a is
    # added on the m / d residues that are multiples of d, not on all m of them
    assert sum(residues_handed_to_the_pass(BIGKEY)) == 305_026
    # at gcd 1 from the second generator on, every added generator takes all m
    m = 1000
    assert residues_handed_to_the_pass((m, m + 1, m + 7, 2 * m + 3, 3 * m + 11)) == [m] * 4


def test_bigkey_matches_dijkstra():
    t = build_table(validate_generators(BIGKEY))
    assert t.genus == 14_751_704
    assert np.array_equal(t.min_rep, dijkstra_min_rep(BIGKEY))
    assert minimal_generators(t).elements == BIGKEY
    assert is_telescopic(t)


# A telescopic sequence a_1 < ... < a_k generates a free semigroup: with
# d_i = gcd(a_1, ..., a_i) and c_i = d_{i-1} / d_i, each integer is
# sum(lambda_i * a_i) for exactly one choice of 0 <= lambda_i < c_i
# (i >= 2) and an integer lambda_1, and it is in S when lambda_1 >= 0.


def quotients(elems):
    """The prefix gcds d_1, ..., d_k and the quotients c_2, ..., c_k."""
    d = list(itertools.accumulate(elems, math.gcd))
    return d, [before // here for before, here in zip(d, d[1:])]


def free_apery(elems):
    """Every sum(lambda_i * a_i) over 0 <= lambda_i < c_i, i >= 2."""
    sums = np.zeros(1, dtype=np.int64)
    for a, c in zip(elems[1:], quotients(elems)[1]):
        sums = (sums[:, None] + a * np.arange(c, dtype=np.int64)).ravel()
    return sums


def free_frobenius(elems):
    return sum((c - 1) * a for a, c in zip(elems[1:], quotients(elems)[1])) - elems[0]


def peeled_member(elems, x):
    """x in S, read off lambda_k, ..., lambda_2 in turn and then lambda_1's sign."""
    d, c = quotients(elems)
    for i in range(len(elems) - 1, 0, -1):
        # x is a multiple of d_i: the one lambda_i < c_i leaves a multiple of d_{i-1}
        x -= x // d[i] * pow(elems[i] // d[i], -1, c[i - 1]) % c[i - 1] * elems[i]
    return x >= 0


keygen_keys = st.tuples(st.integers(0, 2**16), st.sampled_from(MODES)).map(
    lambda key: generate_key(KeygenParams(seed=key[0], mode=key[1])).elements
)


@given(keygen_keys)
@example(BIGKEY)
@example(LARGE_BASE_KEY)
@example((5, 7))
@example((37, 38))
@example((4, 6, 9))
@settings(max_examples=40)
def test_telescopic_keys_match_the_free_semigroup(elems):
    assert telescopic_by_definition(list(elems))
    t = build_table(validate_generators(elems))
    m = t.multiplicity
    sums = free_apery(elems)
    assert len(sums) == m
    placed = np.full(m, -1, dtype=np.int64)
    placed[sums % m] = sums
    assert np.array_equal(placed, t.min_rep)
    assert t.frobenius == free_frobenius(elems)

    # every x up to 3000, and 3000 drawn from all of [0, F + 2m)
    end = t.frobenius + 2 * m
    drawn = np.random.default_rng(m).integers(end, size=3000).tolist()
    xs = [*range(min(end, 3000) + 1), *drawn, t.frobenius, t.frobenius + 1]
    assert [peeled_member(elems, x) for x in xs] == t.members(xs).tolist()


def test_free_semigroup_oracle_needs_a_telescopic_key():
    # 7 is not a sum of 3 and 5, so (3, 5, 7) is not telescopic and the free
    # form, which gives {0, 5, 10}, misses its Apery element 7
    assert not telescopic_by_definition([3, 5, 7])
    t = build_table(validate_generators((3, 5, 7)))
    assert not is_telescopic(t)
    assert sorted(free_apery((3, 5, 7)).tolist()) == [0, 5, 10]
    assert sorted(t.min_rep.tolist()) == [0, 5, 7]
