from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapstego import (
    CipherStream,
    analysis,
    InsufficientSamplesError,
    KeygenParams,
    LimitError,
    NegativeInputError,
    ResidueTally,
    build_gap_index,
    build_report,
    build_table,
    encode_message,
    gap_density,
    generate_key,
    residue_histogram,
    validate_generators,
    verify_stream,
)
from conftest import sieve_gaps

def small_sets():
    return (
        st.lists(st.integers(2, 90), min_size=2, max_size=4)
        .filter(lambda xs: len(set(xs)) >= 2)
        .filter(lambda xs: math.gcd(*xs) == 1)
    )


class TestGapDensity:
    def test_symmetric_is_half(self, table57, table469):
        assert gap_density(table57) == Fraction(1, 2)
        assert gap_density(table469) == Fraction(1, 2)

    def test_asymmetric_is_not(self):
        t = build_table(validate_generators((3, 5, 7)))
        assert gap_density(t) == Fraction(3, 5)

    @given(small_sets())
    def test_matches_definition(self, raw):
        t = build_table(validate_generators(raw))
        assert gap_density(t) == Fraction(t.genus, t.frobenius + 1)


class TestResidueHistogram:
    def test_mod4_example(self, table57):
        # the mod-16 counts fold onto mod 4
        h = residue_histogram(table57)
        assert h.reshape(4, 4).sum(axis=0).tolist() == [3, 3, 3, 3]

    def test_mod16_example(self, table57):
        h = residue_histogram(table57)
        assert h.tolist() == [1, 1, 2, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0]

    def test_mod1_is_genus(self, table57):
        assert int(residue_histogram(table57).sum()) == 12

    def test_modulus_checked(self, table57):
        # the classes are the encoder's 16; no other modulus is taken
        with pytest.raises(TypeError):
            residue_histogram(table57, 4)

    @given(small_sets())
    @example([37, 38])  # gcd(m, 16) = 1
    @example([34, 35])  # gcd 2
    @example([36, 37])  # gcd 4
    @example([40, 41])  # gcd 8
    @example([32, 33])  # gcd 16
    def test_matches_direct_bincount(self, raw):
        # the cycle-arithmetic fast path must agree with counting the gaps
        t = build_table(validate_generators(raw))
        h = residue_histogram(t)
        direct = np.bincount(sieve_gaps(t) % 16, minlength=16)
        assert h.tolist() == direct.tolist()
        assert int(h.sum()) == t.genus


class TestChiSquare:
    def test_critical_values(self):
        # the upper 5% point at df 15, the one critical value a screen mod 16 needs
        assert analysis._CHI2_CRIT_05 == 24.996

    def test_concentrated_stream_statistic_exact(self):
        # 80 values all in one class: (80-5)^2/5 + 15*(0-5)^2/5 = 1200
        report = build_report(CipherStream(tuple([3] * 80)))
        assert report.chi_square == 1200.0
        assert report.reject_uniformity

    def test_perfectly_uniform(self):
        values = tuple(range(16)) * 5
        report = build_report(CipherStream(values))
        assert report.chi_square == 0.0
        assert not report.reject_uniformity

    def test_sample_floor(self):
        with pytest.raises(InsufficientSamplesError):
            build_report(CipherStream(tuple(range(79))))

    def test_accepts_plain_sequences(self):
        assert build_report(list(range(16)) * 5).chi_square == 0.0

    def test_negative_value_refused(self):
        with pytest.raises(NegativeInputError):
            build_report([-1] * 80)

    def test_residues_beyond_modulus_fold(self):
        values = tuple(16 + v for v in range(16)) * 5
        assert build_report(CipherStream(values)).chi_square == 0.0

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=80, max_size=120), st.integers(1, 9))
    def test_tally_chunk_after_chunk(self, values, step):
        tally = ResidueTally()
        for i in range(0, len(values), step):
            tally.add(CipherStream(values[i : i + step]).values)
        assert build_report(tally) == build_report(CipherStream(values))

    @pytest.mark.parametrize("bits", [2, 64])
    def test_tally_counts_at_the_table_ends(self, bits):
        # both ends of a 2-bit and of the 64-bit value range; at 64 bits the
        # values fill the first and the last of the 16 classes
        values = [0, 1, 2**bits - 2, 2**bits - 1]
        tally = ResidueTally()
        tally.add(values)
        assert tally.n_values == 4
        assert tally.counts.tolist() == [sum(v % 16 == c for v in values) for c in range(16)]

    def test_modulus_checked(self):
        # the screen counts the encoder's 16 classes; no other modulus is taken
        with pytest.raises(TypeError):
            ResidueTally(16)
        with pytest.raises(TypeError):
            build_report(list(range(16)) * 5, 16)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=80, max_size=120))
    def test_counts_in_chunks(self, values):
        with mock.patch.object(analysis, "CHUNK_VALUES", 4):
            report = build_report(CipherStream(values))
        assert report.class_histogram == tuple(sum(v % 16 == c for v in values) for c in range(16))


def _stream_counts(values):
    residues = CipherStream(values).values % np.uint64(16)
    return tuple(np.bincount(residues.astype(np.int64), minlength=16).tolist())


def _tally_counts(values):
    tally = ResidueTally()
    tally.add(values)
    return tuple(tally.counts.tolist())


# each entry point that takes stream values, as the counts mod 16 of what it takes in
STREAM_ENTRY_POINTS = {
    "CipherStream": _stream_counts,
    "ResidueTally.add": _tally_counts,
    "build_report": lambda values: build_report(values).class_histogram,
}
# each side of 2**63 and both ends of the range, in classes 0, 15, 0 and 15 mod 16;
# 80 values pass the sample floor
EDGE_VALUES = [0, 2**63 - 1, 2**63, 2**64 - 1] * 20


class TestStreamValueRule:
    """Every entry point takes the same stream values and refuses the same others."""

    @pytest.mark.parametrize("entry", STREAM_ENTRY_POINTS.values(), ids=STREAM_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "values",
        [EDGE_VALUES, tuple(EDGE_VALUES), np.array(EDGE_VALUES, dtype=np.uint64)],
        ids=["list", "tuple", "uint64"],
    )
    def test_same_values_accepted(self, entry, values):
        assert entry(values) == tuple(sum(v % 16 == c for v in EDGE_VALUES) for c in range(16))

    @pytest.mark.parametrize("entry", STREAM_ENTRY_POINTS.values(), ids=STREAM_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "values, error",
        [
            (np.array([-1, 5] * 40), NegativeInputError),
            (np.array([5, -(2**63)] * 40), NegativeInputError),
            # numpy reads these Python ints as float64, but they are ints
            ([-1, 2**64 - 1] * 40, NegativeInputError),
            # numpy reads Python ints past 2**64 - 1 as objects
            ([2**64] * 80, LimitError),
            ([5, 2**64 + 7] * 40, LimitError),
            (np.array([0, 2**70] * 40, dtype=object), LimitError),
            (np.array([-1.0, 2.0] * 40), TypeError),
            (np.array([1.5, 2.0] * 40), TypeError),
            ([1.5, 2] * 40, TypeError),
            ([-1.0, 2.5] * 40, TypeError),
            (["12"] * 80, TypeError),
            (np.array(["12"] * 80), TypeError),
            (np.array([b"12"] * 80), TypeError),
            ([True, False] * 40, TypeError),
            (np.array([1 + 0j] * 80), TypeError),
        ],
        ids=["int64", "int64-min", "mixed-ints", "past-u64", "past-u64-mixed", "past-u64-objects",
             "neg-float", "fraction", "float-list", "neg-float-list", "str-list", "str-array",
             "bytes-array", "bools", "complex"],
    )
    def test_same_values_refused(self, entry, values, error):
        with pytest.raises(error) as exc:
            entry(values)
        if error is TypeError:
            assert str(exc.value).startswith("stream values must be integers, got dtype ")
        else:
            assert str(exc.value).startswith("stream values must lie in [0, 2**64 - 1], got ")


class TestWindows:
    def test_full_interval_of_symmetric_key(self, table57):
        # the window [0, F] of a symmetric key holds as many gaps as members
        window = np.arange(table57.frobenius + 1)
        n_gaps = int(np.count_nonzero(~table57.members(window)))
        assert Fraction(n_gaps, len(window)) == Fraction(1, 2) == gap_density(table57)


class TestBuildReport:
    def test_stream_only(self):
        values = tuple(range(16)) * 10
        report = build_report(CipherStream(values))
        assert report.n_values == 160
        assert report.modulus == 16
        assert report.class_histogram == (10,) * 16
        assert report.chi_square == 0.0
        assert report.df == 15
        assert not report.reject_uniformity

    def test_with_table(self, table3738):
        # every byte once: each nibble class is drawn 32 times, whatever the key
        payload = bytes(range(256))
        index = build_gap_index(table3738)
        stream = encode_message(payload, index, random.Random(3))
        assert verify_stream(stream, table3738).all()
        report = build_report(stream)
        assert report.class_histogram == (32,) * 16
        assert report.chi_square == 0.0
        again = encode_message(payload, index, random.Random(3))
        assert build_report(again) == report

    def test_insufficient_samples_bubble_up(self):
        with pytest.raises(InsufficientSamplesError):
            build_report(CipherStream((1, 2, 3)))


# the abstract of the source paper, as PAPER.md gives it: 767 bytes of English text
ABSTRACT = (
    b"We introduce a steganographic information hiding scheme based on structural properties"
    b" of numerical semigroups arising from the Frobenius coin problem. Instead of encoding "
    b"data through representable integers, the proposed protocol embeds information into the"
    b" gap structure of carefully chosen symmetric numerical semigroups. Symmetry guarantees"
    b" a balanced gap density, ensuring that encoded values are statistically "
    b"indistinguishable from uniform numerical noise to an observer lacking the private "
    b"generating set. The security of the scheme relies on the assumed average-case hardness"
    b" of numerical semigroup membership inference for hidden generators, offering a novel "
    b"number-theoretic primitive for covert communication and post-quantum resilient "
    b"information hiding."
)

# keys that carry every nibble: the README's, and that of keygen --mode appendix-c --seed 21
SCREEN_KEYS = {
    "readme": (568, 3692, 4084, 4314, 4483),
    "appendix-c-21": (853, 961, 4481, 6187, 20267),
}


def nibble_counts(payload):
    data = np.frombuffer(payload, dtype=np.uint8)
    return tuple(np.bincount(np.concatenate((data >> 4, data & 0xF)), minlength=16).tolist())


class TestResidueScreenReadsThePayload:
    """A value's residue mod 16 is its nibble, so the screen's histogram is the
    payload's nibble histogram, whatever the key or the seed: it passes only
    payloads whose nibbles are near uniform."""

    @given(
        # every element above 16: the gaps 1, ..., 16 fill every class mod 16
        st.lists(st.integers(17, 90), min_size=2, max_size=4).filter(lambda xs: math.gcd(*xs) == 1),
        st.binary(min_size=40, max_size=200),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60)
    def test_histogram_is_the_payload_nibbles(self, gens, payload, seed):
        index = build_gap_index(build_table(validate_generators(gens)))
        report = build_report(encode_message(payload, index, random.Random(seed)))
        assert report.class_histogram == nibble_counts(payload)

    @pytest.mark.parametrize("key", SCREEN_KEYS)
    @pytest.mark.parametrize("size,chi_square", [
        (40, 131.2),  # 80 values, the fewest the screen takes
        (64, 215.25),
        (256, 727.375),
        (767, 2187.6584),
    ])
    def test_english_text_is_rejected(self, key, size, chi_square):
        assert len(ABSTRACT) == 767
        index = build_gap_index(build_table(validate_generators(SCREEN_KEYS[key])))
        report = build_report(encode_message(ABSTRACT[:size], index, random.Random(7)))
        assert report.class_histogram == nibble_counts(ABSTRACT[:size])
        assert round(report.chi_square, 4) == chi_square
        assert report.reject_uniformity  # against the critical value 24.996


def emission_divergence(table):
    """KL(P || U[0, F]) in bits, where P is the encoder's law on a random payload:
    gap x of class v is sent with probability 1 / (16 * G[v]), G = residue_histogram."""
    histogram = residue_histogram(table)
    return math.log2(table.frobenius + 1) - 4 - float(np.log2(histogram).mean())


def emission_divergence_by_gap(table):
    """The same divergence summed over every gap, in O(genus)."""
    p = 1 / (16 * residue_histogram(table)[sieve_gaps(table) % 16])
    assert p.sum() == pytest.approx(1)
    return float((p * np.log2(p * (table.frobenius + 1))).sum())


class TestEmissionLaw:
    """To a warden who expects values uniform on [0, F], each value leaks
    KL(P || U[0, F]) bits (Cachin 1998).  No law on the gaps leaks less than
    the uniform one, log2((F + 1) / genus): 1 bit on a symmetric key.  The
    encoder's excess over that floor is log2 of the mean class size less the
    mean of its log2, so it is small when the 16 classes are near equal."""

    @given(st.lists(st.integers(17, 90), min_size=2, max_size=4).filter(lambda xs: math.gcd(*xs) == 1))
    @settings(max_examples=60)
    def test_closed_form_on_small_keys(self, gens):
        table = build_table(validate_generators(gens))
        divergence = emission_divergence(table)
        assert divergence == pytest.approx(emission_divergence_by_gap(table), abs=1e-9)
        assert divergence >= math.log2((table.frobenius + 1) / table.genus) - 1e-12

    # seed 1 gives the README key
    @pytest.mark.parametrize("seed,excess", [
        (0, 0.021905), (1, 0.000315), (3, 0.000005), (7, 0.001627), (42, 0.001180)])
    def test_telescopic_excess_over_the_floor(self, seed, excess):
        table = build_table(generate_key(KeygenParams(seed=seed, mode="telescopic")))
        assert table.is_symmetric()
        assert math.log2((table.frobenius + 1) / table.genus) == 1
        divergence = emission_divergence(table)
        assert round(divergence - 1, 6) == excess
        assert divergence == pytest.approx(emission_divergence_by_gap(table), abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 3, 7, 42])
    def test_appendix_c_excess_over_the_floor(self, seed):
        table = build_table(generate_key(KeygenParams(seed=seed, mode="appendix-c")))
        floor = math.log2((table.frobenius + 1) / table.genus)
        assert 0 <= round(emission_divergence(table) - floor, 6) <= 0.000124
