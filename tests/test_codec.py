from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gap_index_reference
from conftest import sieve_gaps
from keyless_attack import certified_gaps, estimated_apery, estimated_multiplicity

from gapstego import (
    CipherStream,
    codec,
    EmptyClassError,
    NegativeInputError,
    OddLengthError,
    SaltSpec,
    SemigroupTable,
    ValueExceedsPeriodError,
    build_gap_index,
    build_table,
    decode_message,
    desalt_stream,
    encode_message,
    generator_from,
    measure_salt_gap_preservation,
    minimal_generators,
    residue_histogram,
    salt_stream,
    validate_generators,
    verify_stream,
)


@pytest.fixture(scope="module")
def index3738(table3738):
    return build_gap_index(table3738)


small_keys = (
    st.lists(st.integers(2, 40), min_size=2, max_size=4)
    .filter(lambda xs: math.gcd(*xs) == 1)
    .map(validate_generators)
)


def classes_by_gap_list(table):
    gaps = sieve_gaps(table)
    return [gaps[gaps % 16 == v].tolist() for v in range(16)]


def numbered(idx, v, u):
    """The gaps of class v numbered u row by row, through the lookup encode_message uses."""
    u = np.array(u, dtype=np.int64)
    return idx._gaps([u.size if w == v else 0 for w in range(16)], u)


class TestGapIndex:
    def test_mod16_partition(self):
        # (3, 17), min_rep (0, 34, 17): row 1 holds 1, 4, 7, ..., 31 and row 2
        # holds 2, 5, 8, 11, 14, 16 gaps in all, one in each class mod 16
        idx = build_gap_index(build_table(validate_generators((3, 17))))
        assert idx.class_sizes() == (1,) * 16
        row = [1 if v in (0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15) else 2 for v in range(16)]
        assert [c.tolist() for c in idx.classes] == [[0] * (r + 1) + [1] * (3 - r) for r in row]
        first = [int(numbered(idx, v, [0])[0]) for v in range(16)]
        assert first == [16, 1, 2, 19, 4, 5, 22, 7, 8, 25, 10, 11, 28, 13, 14, 31]

    @given(gens=small_keys, block=st.sampled_from([16, 32, 1 << 15]))
    @example(gens=validate_generators((5, 7)), block=16)
    @example(gens=validate_generators((37, 38)), block=16)  # gcd(m, 16) = 1
    @example(gens=validate_generators((34, 35)), block=16)  # gcd 2
    @example(gens=validate_generators((36, 37)), block=16)  # gcd 4
    @example(gens=validate_generators((40, 41)), block=16)  # gcd 8
    @example(gens=validate_generators((32, 33)), block=16)  # gcd 16
    @settings(max_examples=200)
    def test_numbering_is_a_bijection_onto_each_class(self, gens, block):
        # the index numbers the class-v gaps row by row; sorted, the numbered
        # gaps must be exactly the class-v gaps of the gap list, whatever
        # the number of rows build_gap_index takes at a time
        table = build_table(gens)
        expected = classes_by_gap_list(table)
        if not all(expected):
            return  # build_gap_index refuses the key (see below)
        with mock.patch.object(codec, "_BLOCK_ROWS", block):
            idx = build_gap_index(table)
        assert len(idx.classes) == 16
        for v, size in enumerate(idx.class_sizes()):
            assert sorted(numbered(idx, v, np.arange(size)).tolist()) == expected[v]

    @given(gens=small_keys)
    @example(gens=validate_generators((37, 38)))
    @settings(max_examples=200)
    def test_sizes_match_histogram(self, gens):
        table = build_table(gens)
        hist = residue_histogram(table).tolist()
        if min(hist) > 0:
            assert list(build_gap_index(table).class_sizes()) == hist

    @given(gens=small_keys)
    @settings(max_examples=200)
    def test_empty_class_names_smallest_residue(self, gens):
        table = build_table(gens)
        empty = [v for v, cls in enumerate(classes_by_gap_list(table)) if not cls]
        if not empty:
            build_gap_index(table)
            return
        with pytest.raises(EmptyClassError) as exc:
            build_gap_index(table)
        assert exc.value.residue == empty[0]

    def test_empty_class_reported(self, table57):
        with pytest.raises(EmptyClassError) as exc:
            build_gap_index(table57)
        assert exc.value.residue == 5

    def test_odd_multiplicity_scratch_is_a_few_blocks(self):
        # at odd m every row holds gaps of all 16 classes; the counts and the
        # directory take a block of rows at a time, so past the index itself
        # (16 * (m + 1) int64 counts and the directory) and the histogram
        # there is no m-sized temporary
        m = 10**6 - 1
        table = build_table(validate_generators((m, m + 1, m + 7, 2 * m + 3, 3 * m + 11)))
        tracemalloc.start()
        try:
            hist = residue_histogram(table)
            hist_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            idx = build_gap_index(table)
            index_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        index_bytes = sum(c.nbytes for c in idx.classes)
        assert index_bytes == 16 * (m + 1) * 8
        assert hist_peak <= 4 * 2**20
        assert index_peak <= index_bytes + idx.shift.nbytes + idx.rows.nbytes + 4 * 2**20
        assert idx.class_sizes() == tuple(hist.tolist())
        assert int(hist.sum()) == table.genus


def gcd_examples(**fixed):
    """Explicit examples at each gcd(m, 16), and at (33, 34), whose buckets step
    over the most rows (up to 8, most of them empty for the class) of the
    coprime pairs below 41."""
    keys = [(37, 38), (34, 35), (36, 37), (40, 41), (32, 33), (33, 34)]

    def wrap(test):
        for gens in keys:
            test = example(gens=validate_generators(gens), **fixed)(test)
        return test

    return wrap


class TestRankDirectory:
    @given(gens=small_keys, block=st.sampled_from([16, 1 << 15]))
    @gcd_examples(block=16)
    @example(gens=validate_generators((568, 3692, 4084, 4314, 4483)), block=16)
    @settings(max_examples=200)
    def test_entry_is_last_row_starting_at_or_before_its_bucket(self, gens, block):
        try:
            with mock.patch.object(codec, "_BLOCK_ROWS", block):
                idx = build_gap_index(build_table(gens))
        except EmptyClassError:
            return
        shift, rows = idx.shift, idx.rows
        n_rows = idx.classes.shape[1] - 1
        assert rows.nbytes <= idx.classes.nbytes // 2
        for v, starts in enumerate(idx.classes):
            size, w = int(starts[-1]), 1 << int(shift[v])
            # W is the power of two at or above the mean row length
            assert w * n_rows >= size and (w == 1 or w // 2 * n_rows < size)
            buckets = -(-size // w)
            assert buckets <= rows.shape[1] <= n_rows
            last = [max(i for i in range(n_rows) if starts[i] <= b * w) for b in range(buckets)]
            assert rows[v, :buckets].tolist() == last

    def test_built_whole_and_read_only(self, table3738):
        idx = build_gap_index(table3738)
        assert [f.name for f in dataclasses.fields(idx)] == ["multiplicity", "classes", "shift", "rows"]
        for array in (idx.classes, idx.shift, idx.rows):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            idx.rows[:] = idx.rows.max()
        before = dict(vars(idx))
        encode_message(bytes(range(256)), idx, random.Random(0))
        assert vars(idx).keys() == before.keys()
        assert all(vars(idx)[name] is value for name, value in before.items())


class TestEncodeMessage:
    @given(gens=small_keys, payload=st.binary(max_size=40),
           chunk=st.sampled_from([2, 4, 6, 8, 10]), seed=st.integers(0, 2**32))
    @gcd_examples(payload=bytes(range(256)), chunk=10, seed=1)
    @settings(max_examples=200)
    def test_matches_reference(self, gens, payload, chunk, seed):
        # the one-pass chunk gives the values of the class-by-class binary search
        with (mock.patch.object(codec, "CHUNK_VALUES", chunk),
              mock.patch.object(codec, "_BLOCK_ROWS", 16)):
            try:
                idx = build_gap_index(build_table(gens))
            except EmptyClassError:
                return
            expected = gap_index_reference.encode_message(payload, idx, random.Random(seed))
            got = encode_message(payload, idx, random.Random(seed)).values
        assert np.array_equal(got, expected)

    @given(m=st.integers(17, 1500), payload=st.binary(max_size=200),
           chunk=st.sampled_from([2, 6, 64]), seed=st.integers(0, 2**32))
    @example(m=1009, payload=bytes(range(256)), chunk=64, seed=1)
    @example(m=1497, payload=bytes(range(256)), chunk=64, seed=1)
    @settings(max_examples=100)
    def test_long_buckets_match_reference(self, m, payload, chunk, seed):
        # a bucket of this shape spans up to 31 rows at m = 1009 and 39 at
        # m = 1497, where small_keys reach 8; every rank of every class, not
        # only the drawn ones, is numbered as the reference numbers it
        gens = validate_generators((m, m + 1, m + 7, 2 * m + 3, 3 * m + 11))
        with (mock.patch.object(codec, "CHUNK_VALUES", chunk),
              mock.patch.object(codec, "_BLOCK_ROWS", 16)):
            idx = build_gap_index(build_table(gens))
            expected = gap_index_reference.encode_message(payload, idx, random.Random(seed))
            got = encode_message(payload, idx, random.Random(seed)).values
        assert np.array_equal(got, expected)
        for v, size in enumerate(idx.class_sizes()):
            ranks = np.arange(size)
            assert np.array_equal(numbered(idx, v, ranks),
                                  gap_index_reference.numbered_gaps(idx, v, ranks))

    def test_two_values_per_byte_high_first(self, index3738):
        stream = encode_message(b"\x4a", index3738, random.Random(0))
        assert len(stream.values) == 2
        assert stream.values[0] % 16 == 0x4
        assert stream.values[1] % 16 == 0xA
        assert not stream.salted

    def test_lands_in_class(self, table3738, index3738):
        payload = bytes(range(256))
        stream = encode_message(payload, index3738, random.Random(1))
        nibbles = [n for byte in payload for n in (byte >> 4, byte & 0xF)]
        assert [x % 16 for x in stream.values.tolist()] == nibbles
        assert not table3738.members(stream.values).any()

    def test_eventually_uses_every_gap(self, table3738, index3738):
        stream = encode_message(b"\x22" * 1000, index3738, random.Random(7))
        assert set(stream.values.tolist()) == set(classes_by_gap_list(table3738)[2])

    def test_empty_payload(self, index3738):
        stream = encode_message(b"", index3738, random.Random(0))
        assert np.array_equal(stream.values, ())

    def test_deterministic(self, index3738):
        a = encode_message(b"BONJOUR", index3738, random.Random(3))
        b = encode_message(b"BONJOUR", index3738, random.Random(3))
        assert np.array_equal(a.values, b.values)
        assert len(a.values) == 14

    def test_range_checked(self, table3738, index3738):
        stream = encode_message(random.Random(0).randbytes(500), index3738, random.Random(0))
        assert 1 <= min(stream.values) and max(stream.values) <= table3738.frobenius

    @given(payload=st.binary(max_size=60), step=st.sampled_from([2, 4, 6, 10]),
           seed=st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_chunk_after_chunk(self, index3738, payload, step, seed):
        # chunks of CHUNK_VALUES // 2 bytes, each drawn from one Generator,
        # give the values of one call on the whole payload
        with mock.patch.object(codec, "CHUNK_VALUES", step):
            whole = encode_message(payload, index3738, random.Random(seed))
            gen = generator_from(random.Random(seed))
            pieces = [encode_message(payload[i : i + step // 2], index3738, gen).values
                      for i in range(0, len(payload), step // 2)]
        assert np.array_equal(np.concatenate([np.zeros(0, np.uint64), *pieces]), whole.values)
        assert decode_message(whole) == payload

    def test_one_chunk_draws_as_one_call(self, index3738):
        # a payload of at most CHUNK_VALUES // 2 bytes draws each class once
        payload = random.Random(4).randbytes(300)
        gen = np.random.default_rng(random.Random(9).getrandbits(128))
        nibbles = np.frombuffer(payload, dtype=np.uint8)
        nibbles = np.stack((nibbles >> 4, nibbles & 0xF), axis=1).ravel()
        values = np.empty(len(nibbles), dtype=np.uint64)
        for v, size in enumerate(index3738.class_sizes()):
            at = np.flatnonzero(nibbles == v)
            values[at] = numbered(index3738, v, gen.integers(size, size=len(at)))
        assert np.array_equal(encode_message(payload, index3738, random.Random(9)).values, values)


def decode_pair(n1, n2):
    return decode_message(CipherStream((n1, n2)))


class TestDecode:
    def test_decode_pairs(self):
        assert decode_pair(17, 2) == b"\x12"
        assert decode_pair(0, 0) == b"\x00"
        assert decode_pair(31, 31) == b"\xff"
        # only residues matter
        assert decode_pair(17 + 16 * 9, 2 + 16 * 4) == b"\x12"
        assert decode_pair(2**64 - 16 + 1, 2**63 + 2) == b"\x12"

    def test_decode_guards(self):
        with pytest.raises(NegativeInputError):
            decode_pair(-1, 2)
        with pytest.raises(NegativeInputError):
            decode_message(CipherStream(np.array([-1, 2])))

    def test_one_array_per_stream(self):
        stream = CipherStream([3, 2**64 - 1])
        assert stream.values.dtype == np.uint64
        assert not stream.values.flags.writeable
        assert stream == CipherStream(np.array([3, 2**64 - 1], dtype=np.uint64))
        assert stream != CipherStream([3, 2**64 - 1], salt_period=35)
        assert stream != CipherStream([3])

    def test_odd_stream_rejected(self):
        with pytest.raises(ValueError):
            decode_message(CipherStream((1, 2, 3)))
        with pytest.raises(OddLengthError, match="^stream length 3 is odd, expected value pairs$"):
            decode_message(CipherStream((1, 2, 3), salt_period=35))

    @given(payload=st.binary(max_size=300))
    @settings(max_examples=50)
    def test_round_trip(self, index3738, payload):
        rng = random.Random(99)
        stream = encode_message(payload, index3738, rng)
        assert decode_message(stream) == payload


class TestVerify:
    def test_all_gaps_for_encoder_output(self, table3738, index3738):
        stream = encode_message(b"attack at dawn", index3738, random.Random(5))
        assert verify_stream(stream, table3738).all()

    def test_member_flagged(self, table57):
        assert verify_stream(CipherStream((12,)), table57).tolist() == [False]
        assert verify_stream(CipherStream((11,)), table57).tolist() == [True]
        assert verify_stream(CipherStream(()), table57).tolist() == []

    def test_salted_verdicts(self, table57):
        # mod 35 the values are 1 and 2, gaps of (5, 7), and 0, a member
        stream = CipherStream((36, 37, 70), salt_period=35)
        assert verify_stream(stream, table57).tolist() == [True, True, False]

    @given(st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 30), max_size=40))
    def test_chunks_agree_with_membership(self, table57, values):
        with mock.patch.object(codec, "CHUNK_VALUES", 3):
            got = verify_stream(CipherStream(values), table57).tolist()
        assert got == [not table57.is_member(v) for v in values]


class TestKeylessRecovery:
    """keyless_attack.py on bare streams of the README key, which it never reads.

    Frozen battery: payload random.Random(1000 + s).randbytes(2**(k - 1)),
    encoder random.Random(2000 + s), s = 0..3, so 2**k values a stream.
    m̂ is exact on every stream.  A row is short while its top gap is
    unseen: 18, 17, 14 and 22 rows at 2**19 values, 3, 0, 1 and 0 at 2**20,
    none at 2**21 (1 MiB of payload).  An exact estimate gives back the
    key's minimal generators, so the hardness assumption of the abstract
    does not hold at the default sizes.
    """

    GENS = (568, 3692, 4084, 4314, 4483)
    SEEDS = range(4)

    @pytest.fixture(scope="class")
    def key(self):
        table = build_table(validate_generators(self.GENS))
        return table, build_gap_index(table)

    def values(self, index, k, s):
        payload = random.Random(1000 + s).randbytes(2 ** (k - 1))
        return encode_message(payload, index, random.Random(2000 + s)).values

    @pytest.mark.parametrize(
        "k, short", [(19, [18, 17, 14, 22]), (20, [3, 0, 1, 0]), (21, [0, 0, 0, 0])]
    )
    def test_short_rows_and_recovered_key(self, key, k, short):
        table, index = key
        found = []
        for s in self.SEEDS:
            values = self.values(index, k, s)
            m = estimated_multiplicity(values)
            assert m == table.multiplicity
            apery = estimated_apery(values, m)
            assert (apery <= table.min_rep).all()
            found.append(int((apery < table.min_rep).sum()))
            if found[-1] == 0:
                recovered = build_table(validate_generators([m, *apery[1:].tolist()]))
                assert minimal_generators(recovered).elements == self.GENS
        assert found == short

    @pytest.mark.parametrize("s", SEEDS)
    def test_row_descent_certifies_gaps_below_every_observed_one(self, key, s):
        # g - k*m̂ is a gap for every observed g, so a key that sent only gaps >= m
        # would still give away every gap below m
        table, index = key
        values = self.values(index, 19, s)
        gaps = certified_gaps(estimated_apery(values, estimated_multiplicity(values)))
        assert verify_stream(CipherStream(gaps.astype(np.uint64)), table).all()
        assert int((gaps < table.multiplicity).sum()) == table.multiplicity - 1


class TestSalting:
    def test_salt_round_trip(self, table3738, index3738):
        gens = table3738.generators
        spec = SaltSpec.from_generators(gens, 0, 1)
        assert spec.period == math.lcm(37, 38)
        rng = random.Random(11)
        stream = encode_message(b"covert", index3738, rng)
        salted = salt_stream(stream, spec, rng)
        assert salted.salted
        assert salted.salt_period == spec.period
        for before, after in zip(stream.values.tolist(), salted.values.tolist()):
            k, r = divmod(after - before, spec.period)
            assert r == 0 and 1 <= k <= spec.k_max
        assert np.array_equal(desalt_stream(salted).values, stream.values)
        assert decode_message(salted) == b"covert"

    @given(st.lists(st.integers(0, 1400), max_size=40), st.integers(1, 9), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_chunk_after_chunk(self, values, step, seed):
        spec = SaltSpec(1406, k_max=5)
        with mock.patch.object(codec, "CHUNK_VALUES", step):
            whole = salt_stream(CipherStream(values), spec, random.Random(seed))
            gen = generator_from(random.Random(seed))
            pieces = [salt_stream(CipherStream(values[i : i + step]), spec, gen).values
                      for i in range(0, len(values), step)]
        assert np.array_equal(np.concatenate([np.zeros(0, np.uint64), *pieces]), whole.values)
        assert np.array_equal(desalt_stream(whole).values, values)

    def test_value_at_period_refused(self):
        spec = SaltSpec(period=35)
        with pytest.raises(ValueExceedsPeriodError):
            salt_stream(CipherStream((35,)), spec, random.Random(0))
        with pytest.raises(ValueExceedsPeriodError, match="^value 36 >= salt period 35;"):
            salt_stream(CipherStream((1, 36, 2**64 - 1)), spec, random.Random(0))

    def test_double_salt_refused(self):
        spec = SaltSpec(period=35)
        with pytest.raises(ValueError):
            salt_stream(CipherStream((1,), salt_period=35), spec, random.Random(0))

    def test_desalt_passes_unsalted_through(self):
        stream = CipherStream((1, 2))
        assert desalt_stream(stream) is stream

    @given(
        st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 30), max_size=40),
        st.integers(1, 60) | st.integers(1, 2**64 - 1),
    )
    def test_readers_desalt_first(self, table57, values, period):
        salted = CipherStream(values, salt_period=period)
        plain = desalt_stream(salted)
        assert not plain.salted
        assert np.array_equal(verify_stream(salted, table57), verify_stream(plain, table57))
        if len(values) % 2:
            with pytest.raises(OddLengthError):
                decode_message(salted)
        else:
            assert decode_message(salted) == decode_message(plain)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SaltSpec(period=0)
        with pytest.raises(ValueError):
            SaltSpec(period=35, k_max=0)
        with pytest.raises(ValueError):
            SaltSpec.from_generators(validate_generators((5, 7)), 1, 1)

    def test_spec_keeps_salted_values_in_u64(self):
        # the largest salted value is (period - 1) + k_max * period
        period = 4314 * 4483
        top = (2**64 - period) // period
        assert SaltSpec(period, k_max=top).k_max == top
        with pytest.raises(ValueError):
            SaltSpec(period, k_max=top + 1)
        with pytest.raises(ValueError):
            SaltSpec(period=2**64)

    @given(
        st.lists(st.integers(0, 10**6), max_size=40),
        st.integers(1, 10**6),
        st.integers(1, 64),
        st.integers(0, 2**32),
    )
    @settings(max_examples=80)
    def test_desalt_inverts_salt(self, values, period_pad, k_max, seed):
        values = tuple(values)
        period = max(values, default=0) + period_pad
        spec = SaltSpec(period=period, k_max=k_max)
        stream = CipherStream(values)
        salted = salt_stream(stream, spec, random.Random(seed))
        assert np.array_equal(desalt_stream(salted).values, values)


class TestSaltAudit:
    def test_period_above_frobenius_never_preserves(self, table57):
        # every salted value exceeds F, so none can stay a gap
        spec = SaltSpec.from_generators(table57.generators, 0, 1)
        frac = measure_salt_gap_preservation(table57, spec, 200, random.Random(0))
        assert frac == 0

    def test_small_period_preserves_some(self, table3738):
        # period far below F leaves room for salted values to stay gaps
        spec = SaltSpec(period=74, k_max=4)
        frac = measure_salt_gap_preservation(table3738, spec, 500, random.Random(1))
        assert 0 < frac < 1
        assert isinstance(frac, Fraction)

    def test_draws_gaps_by_row_major_rank(self, table57):
        # draw u is the u-th gap listed row by row, r, r + 5, ..., min_rep[r] - 5
        spec = SaltSpec(1000, k_max=1)
        drawn = []
        is_member = SemigroupTable.is_member

        def record(table, x):
            drawn.append(x - spec.period)
            return is_member(table, x)

        with mock.patch.object(SemigroupTable, "is_member", record):
            measure_salt_gap_preservation(table57, spec, 500, random.Random(3))
        ranked = [x for r, top in enumerate(table57.min_rep.tolist()) for x in range(r, top, 5)]
        u = generator_from(random.Random(3)).integers(table57.genus, size=500)
        assert drawn == np.array(ranked)[u].tolist()
        assert sorted(set(drawn)) == sieve_gaps(table57).tolist()

    def test_sample_count_checked(self, table57):
        spec = SaltSpec(period=35)
        with pytest.raises(ValueError):
            measure_salt_gap_preservation(table57, spec, 0, random.Random(0))
