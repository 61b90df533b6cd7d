from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapstego import (
    ElementOneError,
    EmptySetError,
    GcdNotOneError,
    LimitError,
    NegativeInputError,
    NonPositiveElementError,
    brute_force_sieve,
    build_table,
    is_telescopic,
    minimal_generators,
    validate_generators,
)
from gapstego.semigroup import _round_robin


def generating_sets(max_value=200, max_count=5):
    """Strategy for valid generator lists (>= 2 elements, gcd 1)."""
    return (
        st.lists(st.integers(2, max_value), min_size=2, max_size=max_count)
        .filter(lambda xs: len(set(xs)) >= 2)
        .filter(lambda xs: math.gcd(*xs) == 1)
    )


class TestValidate:
    def test_sorts_and_dedupes(self):
        gens = validate_generators([9, 4, 6, 9, 4])
        assert gens.elements == (4, 6, 9)

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            validate_generators([])

    @pytest.mark.parametrize("bad", [0, -3])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(NonPositiveElementError):
            validate_generators([bad, 5])

    def test_one_rejected(self):
        with pytest.raises(ElementOneError):
            validate_generators([1, 5])

    def test_common_factor_rejected(self):
        with pytest.raises(GcdNotOneError) as exc:
            validate_generators([4, 6])
        assert exc.value.gcd == 2

    def test_single_element_never_coprime(self):
        with pytest.raises(GcdNotOneError):
            validate_generators([7])


class TestBuildTable:
    def test_worked_example(self, table57):
        assert table57.multiplicity == 5
        assert table57.min_rep.tolist() == [0, 21, 7, 28, 14]
        assert table57.frobenius == 23
        assert table57.genus == 12

    def test_two_three(self):
        t = build_table(validate_generators((2, 3)))
        assert t.frobenius == 1
        assert t.genus == 1
        assert t.gaps().tolist() == [1]

    def test_4_6_9(self, table469):
        assert table469.frobenius == 11
        assert table469.genus == 6
        assert table469.gaps().tolist() == [1, 2, 3, 5, 7, 11]

    def test_6_10_15(self):
        t = build_table(validate_generators((6, 10, 15)))
        assert t.frobenius == 29
        assert t.genus == 15

    def test_min_rep_is_readonly(self, table57):
        with pytest.raises(ValueError):
            table57.min_rep[0] = 99

    def test_one_pass_per_key(self):
        gens = validate_generators((6, 10, 15))
        _round_robin.cache_clear()
        table = build_table(gens)
        assert tuple(minimal_generators(gens)) == (6, 10, 15)
        assert is_telescopic(gens)
        assert build_table(gens).min_rep is table.min_rep
        assert _round_robin.cache_info().misses == 1
        assert not table.min_rep.flags.writeable

    def test_build_scratch_is_a_few_blocks(self):
        # the pass keeps no full-size temporary: its peak is the table plus blocks
        m = 10**6
        gens = validate_generators((m, m + 1, m + 7, 2 * m + 3, 3 * m + 11))
        _round_robin.cache_clear()
        tracemalloc.start()
        try:
            table = build_table(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        min_rep = table.min_rep
        _round_robin.cache_clear()
        assert peak <= min_rep.nbytes + 4 * 2**20
        assert table.genus == int((min_rep // m).sum())
        assert table.frobenius == int(min_rep.max()) - m

    def test_multiplicity_limit(self):
        with pytest.raises(LimitError):
            build_table(validate_generators((10**7 + 1, 10**7 + 2)))

    def test_generator_limit(self):
        with pytest.raises(LimitError):
            build_table(validate_generators((5, 2**31 + 1)))


class TestMembership:
    def test_scalars(self, table57):
        assert table57.is_member(0)
        assert table57.is_member(5)
        assert table57.is_member(12)
        assert not table57.is_member(23)
        assert not table57.is_member(11)
        assert table57.is_member(24)
        assert table57.is_member(10**9)

    def test_negative_rejected(self, table57):
        with pytest.raises(NegativeInputError):
            table57.is_member(-1)
        with pytest.raises(NegativeInputError):
            table57.members([3, -2])

    def test_vector_matches_scalar(self, table57):
        xs = np.arange(0, 60)
        vec = table57.members(xs)
        assert vec.tolist() == [table57.is_member(int(x)) for x in xs]

    @given(generating_sets())
    def test_conductor_property(self, raw):
        t = build_table(validate_generators(raw))
        xs = np.arange(t.frobenius + 1, t.frobenius + 3 * t.multiplicity + 1)
        assert t.members(xs).all()
        if t.frobenius >= 0:
            assert not t.is_member(t.frobenius)

    @given(generating_sets())
    def test_apery_residues(self, raw):
        t = build_table(validate_generators(raw))
        m = t.multiplicity
        assert len(t.min_rep) == m
        assert (t.min_rep % m == np.arange(m)).all()
        # every apery value is a member, and value - m is not
        for r, v in enumerate(t.min_rep.tolist()):
            assert t.is_member(v)
            if v >= m:
                assert not t.is_member(v - m)


class TestGaps:
    def test_gap_list(self, table57):
        assert table57.gaps().tolist() == [1, 2, 3, 4, 6, 8, 9, 11, 13, 16, 18, 23]

    @given(generating_sets())
    def test_gaps_consistent(self, raw):
        t = build_table(validate_generators(raw))
        gaps = t.gaps()
        assert len(gaps) == t.genus
        assert (np.diff(gaps) > 0).all()
        if t.genus:
            assert int(gaps[-1]) == t.frobenius
        assert not t.members(gaps).any()

    @given(generating_sets(max_value=80, max_count=4))
    def test_gaps_match_sieve_complement(self, raw):
        t = build_table(validate_generators(raw))
        sieve = brute_force_sieve(t.generators, t.frobenius + 1)
        expected = np.flatnonzero(~sieve.representable)
        assert t.gaps().tolist() == expected.tolist()


class TestSymmetry:
    def test_worked_examples(self, table57, table469):
        assert table57.is_symmetric()
        assert table469.is_symmetric()
        assert not build_table(validate_generators((3, 5, 7))).is_symmetric()

    @given(generating_sets(max_value=100, max_count=4))
    def test_pairing_definition(self, raw):
        # z in S <=> F - z not in S, checked directly on [0, F]
        t = build_table(validate_generators(raw))
        xs = np.arange(0, t.frobenius + 1)
        mem = t.members(xs)
        pairing_symmetric = bool((mem != mem[::-1]).all())
        assert t.is_symmetric() == pairing_symmetric


class TestTelescopic:
    def test_examples(self):
        assert is_telescopic(validate_generators((4, 6, 9)))
        assert is_telescopic(validate_generators((5, 7)))
        assert is_telescopic(validate_generators((6, 10, 15)))
        assert not is_telescopic(validate_generators((3, 5, 7)))
        assert not is_telescopic(validate_generators((5, 6, 7)))

    @given(st.integers(2, 60), st.integers(2, 60))
    def test_coprime_pairs_always_telescopic(self, a, b):
        if a == b or math.gcd(a, b) != 1:
            return
        assert is_telescopic(validate_generators((a, b)))

    @given(generating_sets(max_value=60, max_count=4))
    @settings(max_examples=60)
    def test_telescopic_implies_symmetric(self, raw):
        gens = validate_generators(raw)
        if is_telescopic(gens):
            assert build_table(gens).is_symmetric()


class TestMinimalGenerators:
    def test_redundant_dropped(self):
        gens = validate_generators((5, 7, 12, 17))
        assert minimal_generators(gens).elements == (5, 7)

    def test_already_minimal(self, table469):
        assert minimal_generators(table469.generators).elements == (4, 6, 9)

    @given(generating_sets(max_value=120, max_count=5))
    def test_same_semigroup(self, raw):
        gens = validate_generators(raw)
        minimal = minimal_generators(gens)
        t_full = build_table(gens)
        t_min = build_table(minimal)
        assert np.array_equal(t_full.min_rep, t_min.min_rep)
        assert t_full.frobenius == t_min.frobenius
        assert t_full.genus == t_min.genus

    @given(generating_sets(max_value=120, max_count=5))
    def test_no_survivor_redundant(self, raw):
        minimal = minimal_generators(validate_generators(raw))
        # dropping any one survivor either breaks gcd or shrinks the semigroup
        for i in range(len(minimal)):
            rest = minimal.elements[:i] + minimal.elements[i + 1 :]
            if len(rest) < 2 or math.gcd(*rest) != 1:
                continue
            assert not build_table(validate_generators(rest)).is_member(minimal[i])


class TestSieve:
    def test_small_examples(self):
        sieve = brute_force_sieve(validate_generators((5, 7)), 10)
        members = [x for x in range(11) if sieve.is_member(x)]
        assert members == [0, 5, 7, 10]

        sieve = brute_force_sieve(validate_generators((2, 3)), 5)
        members = [x for x in range(6) if sieve.is_member(x)]
        assert members == [0, 2, 3, 4, 5]

    def test_bounds_enforced(self):
        sieve = brute_force_sieve(validate_generators((5, 7)), 10)
        with pytest.raises(ValueError):
            sieve.is_member(11)
        with pytest.raises(NegativeInputError):
            sieve.is_member(-1)
        with pytest.raises(NegativeInputError):
            brute_force_sieve(validate_generators((5, 7)), -1)

    def test_6_10_15_frobenius(self):
        sieve = brute_force_sieve(validate_generators((6, 10, 15)), 30)
        assert not sieve.is_member(29)
        assert all(sieve.is_member(x) for x in (24, 25, 26, 27, 28, 30))

    @given(generating_sets(max_value=90, max_count=5))
    def test_agrees_with_table(self, raw):
        gens = validate_generators(raw)
        t = build_table(gens)
        bound = t.frobenius + 2 * t.multiplicity
        sieve = brute_force_sieve(gens, bound)
        xs = np.arange(bound + 1)
        assert (t.members(xs) == sieve.representable).all()
