from __future__ import annotations

import contextlib
import io
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stream_reference
from gapstego import (
    CipherStream,
    FormatError,
    KeyFile,
    build_gap_index,
    build_table,
    encode_message,
    formats,
    parse_key,
    parse_stream,
    serialize_key,
    serialize_stream,
    validate_generators,
    verify_stream,
)
from gapstego.codec import CHUNK_VALUES


def key_fixture(salt_pair=None):
    return KeyFile(validate_generators((5, 7)), "appendix-c", 42, salt_pair)


class TestKeyFormat:
    def test_serialize_shape(self):
        text = serialize_key(key_fixture())
        assert text == "frobkey/1\nmode appendix-c\nseed 42\n5\n7\n"

    def test_salt_pair_line(self):
        text = serialize_key(key_fixture(salt_pair=(0, 1)))
        assert "salt-pair 0 1\n" in text
        assert text.index("seed") < text.index("salt-pair")

    def test_round_trip(self):
        for key in (key_fixture(), key_fixture(salt_pair=(0, 1))):
            assert parse_key(serialize_key(key)) == key

    def test_round_trip_byte_identical(self):
        text = serialize_key(key_fixture(salt_pair=(0, 1)))
        assert serialize_key(parse_key(text)) == text

    def test_blank_lines_tolerated(self):
        key = parse_key("frobkey/1\n\nmode telescopic\nseed 0\n\n4\n6\n9\n")
        assert key.generators.elements == (4, 6, 9)
        assert key.mode == "telescopic"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "frobkey/2\nmode telescopic\nseed 0\n5\n7\n",
            "mode telescopic\nseed 0\n5\n7\n",
            "frobkey/1\nmode sideways\nseed 0\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed x\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed -3\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed 0\n",
            "frobkey/1\nmode telescopic\nseed 0\n5\n7\nbananas\n",
            "frobkey/1\nmode telescopic\nseed 0\n7\n5\n",
            "frobkey/1\nmode telescopic\nseed 0\n5\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed 0\n4\n6\n",
            "frobkey/1\nmode telescopic\nseed 0\nsalt-pair 0\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed 0\nsalt-pair 0 5\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed 0\nsalt-pair 1 1\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed 0\nsalt-pairs 0 1\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed 0\nsalt-pair-x 0 1\n5\n7\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_key(text)

    @pytest.mark.parametrize("token", ["+1_0", "+5", "1_0", "\u0663"])
    def test_seed_token_is_ascii_digits(self, token):
        with pytest.raises(FormatError, match="seed: expected a decimal integer"):
            parse_key(f"frobkey/1\nmode telescopic\nseed {token}\n5\n7\n")

    def test_seed_u64_cap(self):
        big = 2**64
        with pytest.raises(FormatError):
            parse_key(f"frobkey/1\nmode telescopic\nseed {big}\n5\n7\n")

    def test_numbers_longer_than_int_reads(self):
        # int reads at most 4,300 digits
        key = parse_key(f"frobkey/1\nmode telescopic\nseed {'0' * 5000}9\n5\n7\n")
        assert key.seed == 9
        with pytest.raises(FormatError, match=f"^seed: {'9' * 5000} outside"):
            parse_key(f"frobkey/1\nmode telescopic\nseed {'9' * 5000}\n5\n7\n")

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("blank", [" ", "\t", " \t "])
    def test_stream_line_grammar_accepted(self, brk, blank):
        lines = ["frobkey/1", f"mode{blank}appendix-c", f"seed{blank}42", f"{blank}5{blank}", "7"]
        assert parse_key(brk.join(lines) + brk) == key_fixture()

    # lines break at \n, \r\n or \r only and blanks are space and tab, as in a stream
    @pytest.mark.parametrize(
        "text",
        [
            "frobkey/1\nmode telescopic\nseed 0\n5\x0c7\n",
            "frobkey/1\nmode telescopic\nseed\u30001\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed 0\n\xa05\n7\n",
            "frobkey/1\nmode telescopic\nseed 0\n5\x1c7\n",
            "frobkey/1\nmode\x0btelescopic\nseed 0\n5\n7\n",
            "frobkey/1\nmode telescopic\nseed 0\n5\n7\x85",
            "frobkey/1\u2028mode telescopic\nseed 0\n5\n7\n",
        ],
    )
    def test_other_space_refused(self, text):
        with pytest.raises(FormatError):
            parse_key(text)

    def test_table_limit_refused(self):
        with pytest.raises(FormatError, match="multiplicity 20000001 exceeds the table limit"):
            parse_key("frobkey/1\nmode telescopic\nseed 0\n20000001\n20000003\n")


class TestStreamFormat:
    def test_unsalted(self):
        text = serialize_stream(CipherStream((23, 1, 16)))
        assert text == b"23\n1\n16\n"
        assert parse_stream(text) == CipherStream((23, 1, 16))

    def test_salted(self):
        stream = CipherStream((36, 71), salt_period=35)
        text = serialize_stream(stream)
        assert text == b"salt 35\n36\n71\n"
        assert parse_stream(text) == stream

    def test_empty(self):
        assert serialize_stream(CipherStream(())) == b""
        assert parse_stream("") == CipherStream(())

    def test_round_trip_byte_identical(self):
        for stream in (CipherStream(()), CipherStream((5,)), CipherStream((1, 2), 35)):
            text = serialize_stream(stream)
            assert serialize_stream(parse_stream(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "salt\n1\n2\n",
            "salt x\n1\n2\n",
            "salt 0\n1\n2\n",
            "1\n-2\n",
            "1\ntwo\n",
            f"{2**64}\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_stream(text)

    @given(
        st.lists(st.integers(0, 2**64 - 1), max_size=30),
        st.one_of(st.none(), st.integers(1, 2**32)),
    )
    def test_round_trip_property(self, values, period):
        stream = CipherStream(tuple(values), period)
        assert parse_stream(serialize_stream(stream)) == stream

    def test_line_breaks_and_blanks(self):
        text = "salt 35\r\n\t1 \r\r\n 2\t\n\n  \n3"
        assert parse_stream(text) == CipherStream((1, 2, 3), salt_period=35)

    def test_zero_padded_tokens(self):
        text = f"{'0' * 30}\n{'0' * 10}{2**64 - 1}\n007\n"
        assert parse_stream(text) == CipherStream((0, 2**64 - 1, 7))
        with pytest.raises(FormatError, match=f"^stream value: {2**64} outside"):
            parse_stream(f"{'0' * 10}{2**64}\n")

    def test_tokens_longer_than_int_reads(self):
        # int reads at most 4,300 digits: a zero-padded good line of more is
        # still read, and a larger number is named as out of range
        token = "0" * 5000 + "7"
        assert parse_stream(f"{token}\n8\n") == CipherStream((7, 8))
        with pytest.raises(FormatError, match="^stream value: expected a decimal integer, got 'x'$"):
            parse_stream(f"{token}\nx\n")
        with pytest.raises(FormatError) as exc:
            parse_stream(f"1\n{'9' * 5000}\n")
        assert str(exc.value) == f"stream value: {'9' * 5000} outside [0, {2**64 - 1}]"

    @pytest.mark.parametrize(
        "line",
        [
            "+5",  # sign
            "-2",
            "1_0",  # digit grouping
            "\u0663",  # ARABIC-INDIC DIGIT THREE
            "\uff15",  # FULLWIDTH DIGIT FIVE
            "\u00b2",  # SUPERSCRIPT TWO
            "1 2",  # two tokens on a line
            "1\x0c2",  # form feed no longer ends a line
            "1\u20282",  # nor does LINE SEPARATOR
            "0x1f",
            "\ud800",  # lone surrogate
        ],
    )
    def test_token_is_ascii_digits(self, line):
        # the first bad line is named, whatever follows it
        text = f"7\n\t{line} \n-1\nx\n"
        with pytest.raises(FormatError) as exc:
            parse_stream(text)
        assert str(exc.value) == f"stream value: expected a decimal integer, got {line!r}"


# stream texts from pieces that make good and bad tokens, line breaks and headers
stream_pieces = st.sampled_from(
    list("0123456789 \t\r\n+_-")
    + ["salt ", "salt 1\n", str(2**64 - 1), str(2**64), "\n\n", "\r\n"]
)
stream_texts = st.lists(stream_pieces, max_size=40).map("".join)


class TestStreamReference:
    @given(stream_texts)
    @example("salt 5\n1\n")
    @example(" salt\t5 \r\n\r 1 \n")
    @example(f"{2**64 - 1}\n0000{2**64 - 1}")
    @example(f"1\n{2**64}\n+1")
    @example("1\n2 3\n+1")
    @example("salt 0\n")
    @example("salty 5\n1")
    @example("\n\n 5 salt")
    @settings(max_examples=500)
    def test_parse_matches_reference(self, text):
        check_parse(text)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0, 9, 10, 10**19 - 1, 10**19, 2**64 - 1]),
                st.integers(0, 2**64 - 1),
            ),
            max_size=30,
        ),
        st.one_of(st.none(), st.integers(1, 2**64 - 1)),
    )
    @example([], None)
    @example([], 35)
    @example([0, 9, 10, 10**19 - 1, 10**19, 2**64 - 1], None)
    def test_serialize_matches_str(self, values, period):
        check_serialize(values, period)


class TestFormatBoundaries:
    """A chunk's digits are computed in the narrowest type that holds its largest
    value, so each type's edges and each digit count's edges are checked."""

    @pytest.mark.parametrize("top", [0, 9, 10, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32,
                                     10**19, 2**64 - 1])
    def test_serialize_matches_str(self, top):
        rng = random.Random(top)
        below = [0, 1, 9, 10, 99, 100, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32,
                 10**19 - 1, 10**19]
        below += [10**k - 1 for k in range(1, 20)] + [10**k for k in range(20)]
        below += [rng.randrange(top + 1) for _ in range(40)]
        for values in ([top], [v for v in below if v <= top] + [top], [top, 0, top]):
            text = "".join(f"{v}\n" for v in values).encode()
            assert serialize_stream(CipherStream(np.array(values, dtype=np.uint64))) == text


def check_parse(text):
    """parse_stream on text, and on its bytes, gives the reference's values and
    salt period, or its FormatError message."""
    try:
        values, period = stream_reference.parse_stream(text)
    except FormatError as exc:
        for data in (text, text.encode("utf-8", "surrogatepass")):
            with pytest.raises(FormatError) as got:
                parse_stream(data)
            assert str(got.value) == str(exc)
        return
    for data in (text, text.encode("utf-8", "surrogatepass")):
        stream = parse_stream(data)
        assert stream.values.dtype == np.uint64
        assert stream.values.tolist() == values
        assert stream.salt_period == period


def check_parse_chunks(text):
    """read_stream gives the values and salt period of parse_stream on the whole text."""
    data = text.encode("utf-8", "surrogatepass")
    try:
        whole = parse_stream(data)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            list(formats.read_stream(io.BytesIO(data)))
        assert str(got.value) == str(exc)
        return
    chunks = list(formats.read_stream(io.BytesIO(data)))
    assert all(c.salt_period == whole.salt_period for c in chunks)
    values = np.concatenate([c.values for c in chunks]) if chunks else np.zeros(0, np.uint64)
    assert np.array_equal(values, whole.values)


def check_serialize(values, period):
    """serialize_stream writes the ASCII of str() of each value a line, after the header."""
    stream = CipherStream(values, period)
    lines = ([f"salt {period}"] if period else []) + list(map(str, stream.values.tolist()))
    expected = "\n".join(lines) + "\n" if lines else ""
    assert serialize_stream(stream) == expected.encode()
    assert parse_stream(expected) == stream


@contextlib.contextmanager
def chunks(size):
    """Parse streams `size` bytes and format them `size` values at a time."""
    with mock.patch.object(formats, "CHUNK_BYTES", size):
        with mock.patch.object(formats, "CHUNK_VALUES", size):
            yield


chunk_sizes = st.sampled_from([1, 2, 3, 5, 8])


class TestStreamChunks:
    """Streams cut into chunks of a few bytes, refereed by the reference parser."""

    @given(stream_texts, chunk_sizes)
    @example("12\n345\n6\n", 3)  # tokens that end at a chunk boundary
    @example("1234\n56", 4)
    @example("1\r\n2\r\n34\r\n5\r6", 2)  # \r and \n in different chunks
    @example("1\r\n2\r\n34\r\n5\r6", 3)
    @example(f"salt 7\n{'0' * 30}{2**64 - 1}\n{'0' * 9}8\n9", 4)  # lines longer than a chunk
    @example(f"{'0' * 30}{2**64}\n", 4)
    @example("1\n2\n3\n4\n5 6\n+7\n", 2)  # the first fault lies in a later chunk
    @example("1\n22\n333\n4444\n\t+5\n-6", 3)
    @settings(max_examples=300)
    def test_parse_matches_reference(self, text, chunk):
        with chunks(chunk):
            check_parse(text)

    @given(
        st.lists(st.integers(0, 2**64 - 1), max_size=30),
        st.one_of(st.none(), st.integers(1, 2**64 - 1)),
        chunk_sizes,
    )
    @example([], None, 1)
    @example([0, 9, 10, 10**19 - 1, 10**19, 2**64 - 1], 35, 2)
    def test_round_trip_property(self, values, period, chunk):
        with chunks(chunk):
            check_serialize(values, period)

    @given(stream_texts, chunk_sizes)
    @example("salt 5\n1\n2\n3\n", 2)
    @example("\n\n\r\n \n\t salt 7\n1\n", 2)  # blank lines before the header
    @example("\n\n\n\nsalt 7", 1)
    @example("1\n2\nsalt 7\n", 2)  # a header line after the first chunk is a bad value
    @example("0\n\nsalt 1\n", 1)  # ... also after a chunk of blank lines
    @example("0\n\nsalt ", 1)
    @example("\n\n\r\n\nsalt 7\n1\n\n2\n", 1)  # a header after several blank chunks
    @example("1\n\n\n\n\n+5\n", 3)
    @settings(max_examples=300)
    def test_chunk_after_chunk(self, text, chunk):
        with chunks(chunk):
            check_parse_chunks(text)

    @given(
        st.lists(st.integers(0, 2**64 - 1), max_size=30),
        st.one_of(st.none(), st.integers(1, 2**64 - 1)),
        st.integers(1, 7),
    )
    def test_serialize_chunk_after_chunk(self, values, period, step):
        stream = CipherStream(values, period)
        pieces = [CipherStream(stream.values[i : i + step], period)
                  for i in range(0, max(len(values), 1), step)]
        text = b"".join(serialize_stream(c, after=pieces[k - 1] if k else None)
                       for k, c in enumerate(pieces))
        assert text == serialize_stream(stream)

    def test_line_longer_than_chunk_taken_whole(self):
        text = f"{'0' * 100}7\n8\n9\n".encode()
        with chunks(4):
            pieces = list(formats._line_chunks(io.BytesIO(text)))
            assert pieces[0].startswith(text[:102])
            assert all(p.endswith(b"\n") and len(p) <= 4 for p in pieces[1:])
            assert b"".join(pieces) == text
            assert parse_stream(text) == CipherStream((7, 8, 9))

    @pytest.mark.parametrize("data", [b"1\n2\n3\xff4\n5\n", b"1\n2\n\t3\xff4 \r\n\xff\n"])
    @pytest.mark.parametrize("chunk", [2, formats.CHUNK_BYTES])
    def test_non_utf8_line_named(self, data, chunk):
        with chunks(chunk), pytest.raises(FormatError) as exc:
            parse_stream(data)
        assert str(exc.value) == "stream value: not UTF-8 text, got '3\\xff4'"

    def test_non_utf8_header_named(self):
        with pytest.raises(FormatError, match=r"^salt header: not UTF-8 text, got 'salt 3\\xff'$"):
            parse_stream(b"salt 3\xff\n1\n")


# tokens of 19 to 25 digits, zero-padded or not, on either side of 2**64 - 1
wide_tokens = st.builds(
    lambda value, pad: "0" * pad + str(value),
    st.one_of(st.integers(2**64 - 3, 2**64 + 2), st.integers(10**18, 10**25 - 1)),
    st.integers(0, 6),
).filter(lambda token: 19 <= len(token) <= 25)


class TestWideTokens:
    """Tokens at the edge of the uint64 range, refereed by the reference parser."""

    @given(st.lists(st.tuples(wide_tokens, st.sampled_from(["\n", "\r\n", " \n", "\r"])),
                    max_size=12),
           st.sampled_from([None, 5, 8, 21, 22, 64]))
    @example([(f"{2**64 - 1}", "\n"), (f"00000{2**64 - 1}", "\n")], None)
    @example([(f"00000{2**64 - 1}", "\n"), (f"00000{2**64}", "\n")], 22)
    @example([(f"1{'0' * 19}", "\n"), (f"{'0' * 5}{2**64 - 1}", "\n")], 21)
    @example([("0" * 24 + "1", "\n")], None)
    @settings(max_examples=300)
    def test_parse_matches_reference(self, lines, chunk):
        text = "".join(token + end for token, end in lines)
        with chunks(chunk) if chunk else contextlib.nullcontext():
            check_parse(text)
            check_parse_chunks(text)


# tokens of every length from 1 to 20 digits, the values at the edges of each digit
# count and of each accumulator type, and those zero-padded, past 20 digits too
edge_values = [10**k + d for k in range(1, 20) for d in (-1, 0)] + [2**32 - 1, 2**32, 2**64 - 1]
column_tokens = st.one_of(
    st.integers(1, 20).flatmap(lambda n: st.integers(10 ** (n - 1) if n > 1 else 0, 10**n - 1)).map(str),
    st.sampled_from(edge_values).map(str),
    st.builds(lambda v, pad: "0" * pad + str(v), st.sampled_from(edge_values), st.integers(1, 25)),
)


class TestDigitColumns:
    """A chunk's digits are read a column at a time, into the narrowest type that
    holds its widest token, and two words on a line are looked for only in a chunk
    that holds a blank: each column's mask, each type's edges and both kinds of
    chunk, refereed by the reference parser."""

    @given(st.lists(column_tokens, min_size=1, max_size=24),
           st.sampled_from(["\n", "\r\n", "\r"]),
           # a line with no blank, one with a blank, or two words on a line
           st.sampled_from(["", " 7\t", "\t \n", "1 2", "1\t2"]),
           st.integers(0, 24))
    @example(["1", str(2**32)], "\n", "", 0)
    @example(["9", str(10**9 - 1), "12"], "\n", "", 1)
    @example(["5", "10", "7"], "\n", "1 2", 1)
    @example(["5", "10", "7"], "\r\n", "1\t2", 3)
    @settings(max_examples=400)
    def test_parse_matches_reference(self, tokens, end, extra, at):
        lines = [*tokens]
        if extra:
            lines.insert(at % (len(lines) + 1), extra)
        check_parse("".join(line + end for line in lines))


class TestStreamMemory:
    """Peak traced memory of the stream layer on about 256K values.

    numpy reports its buffers to tracemalloc, so a whole-stream
    temporary (a copy of the text, a per-value int64 array or digit
    matrix) shows here: each peak is what the call returns or takes as
    its input, plus a few chunks of scratch.
    """

    # a few chunks: 3 MiB is twelve of 256 KiB, while whole-buffer scratch
    # for this stream runs to 15-20 MB
    SCRATCH = 3 << 20

    @pytest.fixture(scope="class")
    def table(self):
        return build_table(validate_generators((568, 3692, 4084, 4314, 4483)))

    @pytest.fixture(scope="class")
    def stream(self, table):
        payload = random.Random(1).randbytes(1 << 17)
        return encode_message(payload, build_gap_index(table), random.Random(2))

    @staticmethod
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def read(data):
        return list(formats.read_stream(io.BytesIO(data)))

    def test_read(self, stream):
        data = serialize_stream(stream)
        # the values, 8 bytes each, and a few chunks
        assert self.peak(self.read, data) < 8 * len(stream) + self.SCRATCH

    def test_read_blank_lines(self):
        data = b"\n" * (16 << 20) + b"1\n2\n"
        # a chunk of text at a time, and no value slot per blank line
        assert self.peak(self.read, data) < self.SCRATCH

    @pytest.mark.parametrize("size", [4 << 20, 8 << 20])
    def test_read_line_longer_than_a_chunk(self, size):
        data = b"0" * size + b"16\n1\n"
        assert [c.values.tolist() for c in self.read(data)] == [[16, 1]]
        # the joined line, its padded copy to parse and three masks of a byte a byte
        assert self.peak(self.read, data) < 5 * size + self.SCRATCH

    def test_serialize(self, stream):
        size = len(serialize_stream(stream))
        # the returned bytes and the buffer they are copied from
        assert self.peak(serialize_stream, stream) < 2 * size + self.SCRATCH

    def test_verify(self, stream, table):
        # one bool a value
        assert self.peak(verify_stream, stream, table) < len(stream) + self.SCRATCH
