from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapstego import (
    KeyFile,
    KeygenParams,
    SaltSpec,
    analysis,
    brute_force_sieve,
    build_gap_index,
    build_table,
    cli,
    codec,
    encode_message,
    formats,
    formulas,
    generate_key,
    keygen,
    parse_key,
    parse_stream,
    salt_stream,
    semigroup,
    serialize_key,
    serialize_stream,
    validate_generators,
)
from gapstego.cli import main
from gapstego.selftest import check_symmetry, run_selftest


def write_key(tmp_path, gens, mode="telescopic", seed=0, salt_pair=None, name="k.key"):
    path = tmp_path / name
    path.write_bytes(serialize_key(KeyFile(validate_generators(gens), mode, seed, salt_pair)))
    return path


@pytest.fixture
def viable_key(tmp_path):
    # (37, 38) is coprime, viable mod 16, and lcm(37,38) > F = 1331
    return write_key(tmp_path, (37, 38), mode="appendix-c", salt_pair=(0, 1))


# the key of `gapstego keygen --seed 1`, the README's example
README_GENS = (568, 3692, 4084, 4314, 4483)


@pytest.fixture
def readme_key(tmp_path):
    return write_key(tmp_path, README_GENS, seed=1, salt_pair=(3, 4), name="demo.key")


class TestKeygen:
    def test_writes_valid_key_and_summary(self, tmp_path, capsys):
        out = tmp_path / "a.key"
        assert main(["keygen", "--seed", "1", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("generators=")
        for field in ("frobenius=", "genus=", "symmetric=", "telescopic=", "seed=1"):
            assert field in line
        key = parse_key(out.read_bytes())
        assert key.seed == 1
        assert key.mode == "telescopic"

    def test_key_on_stdout_reads_back(self, tmp_path, capsys):
        out = tmp_path / "a.key"
        assert main(["keygen", "--seed", "1", "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert main(["keygen", "--seed", "1", "--out", "-"]) == 0
        captured = capsys.readouterr()
        # the summary goes to stderr, so stdout holds the key file alone
        assert captured.out == out.read_text()
        assert captured.err == summary
        assert parse_key(captured.out.encode()).seed == 1

    @pytest.mark.parametrize("seed", [-5, -1, 2**64])
    @pytest.mark.parametrize("command", ["keygen", "encode"])
    def test_seed_outside_u64_refused(self, tmp_path, readme_key, capsys, command, seed):
        src, out = tmp_path / "p.bin", tmp_path / "out.txt"
        src.write_bytes(b"hi")
        args = {"keygen": ["keygen"], "encode": ["encode", "--key", str(readme_key), "--in", str(src)]}
        assert main([*args[command], "--out", str(out), "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == f"error: --seed {seed} outside [0, {2**64 - 1}]\n"
        assert not out.exists()

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.key", tmp_path / "b.key"
        assert main(["keygen", "--seed", "9", "--out", str(a)]) == 0
        assert main(["keygen", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_appendix_c_mode(self, tmp_path):
        out = tmp_path / "c.key"
        assert main(["keygen", "--mode", "appendix-c", "--seed", "3", "--out", str(out)]) == 0
        key = parse_key(out.read_bytes())
        assert len(key.generators) == 5
        assert 500 <= key.generators[0] <= 1000

    def test_appendix_c_padding_within_limit(self, tmp_path, capsys):
        # this seed's first coprime pair pads past 2**31 at 16 elements: it is drawn again
        out = tmp_path / "c.key"
        argv = ["--mode", "appendix-c", "--n-elements", "16", "--seed", "860"]
        assert main(["keygen", *argv, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split()[0].removeprefix("generators=").split(",")
        assert [int(g) for g in printed] == list(parse_key(out.read_bytes()).generators)
        assert len(printed) == 16 and max(map(int, printed)) <= semigroup.MAX_GENERATOR

    def test_n_elements_1_is_usage_error(self, tmp_path, capsys):
        rc = main(["keygen", "--n-elements", "1", "--out", str(tmp_path / "x.key")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_entropy_seed_recorded(self, tmp_path):
        out = tmp_path / "e.key"
        assert main(["keygen", "--out", str(out), "--n-elements", "2"]) == 0
        key = parse_key(out.read_bytes())
        assert 0 <= key.seed < 2**64

    @pytest.mark.parametrize(
        "argv", [["--seed", "1"], ["--seed", "7", "--mode", "appendix-c"], ["--n-elements", "3"]]
    )
    def test_file_reproduces_its_generators(self, tmp_path, argv):
        out = tmp_path / "r.key"
        assert main(["keygen", *argv, "--out", str(out)]) == 0
        key = parse_key(out.read_bytes())
        params = KeygenParams(seed=key.seed, mode=key.mode, n_elements=len(key.generators))
        assert generate_key(params) == key.generators


class TestRemovedOptions:
    """Options that are gone: argparse refuses them before any file is read or written."""

    @pytest.mark.parametrize("argv, option", [
        (["keygen", "--seed", "1", "--modulus", "100000", "--out", "out.txt"], "--modulus"),
        # inspect reports the encoder's 16 classes, and analyze screens them
        (["inspect", "--key", "demo.key", "--modulus", "16"], "--modulus"),
        (["analyze", "--in", "in.txt", "--key", "demo.key", "--modulus", "16"], "--modulus"),
        # encode --salt draws k in [1, 64]
        (["encode", "--key", "demo.key", "--in", "in.txt", "--out", "out.txt", "--salt",
          "--k-max", "64"], "--k-max"),
    ], ids=["keygen", "inspect", "analyze", "encode"])
    def test_refused_by_argparse(self, tmp_path, readme_key, capsys, argv, option):
        (tmp_path / "in.txt").write_text("1\n2\n" * 40)
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / a) if a.endswith((".key", ".txt")) else a for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err
        assert not (tmp_path / "out.txt").exists()


class TestInspect:
    def test_4_6_9_report(self, tmp_path, capsys):
        key = write_key(tmp_path, (4, 6, 9))
        assert main(["inspect", "--key", str(key)]) == 0
        out = capsys.readouterr().out
        lines = dict(
            ln.split(" ", 1) for ln in out.strip().splitlines() if " " in ln
        )
        assert lines["multiplicity"] == "4"
        assert lines["frobenius"] == "11"
        assert lines["genus"] == "6"
        assert lines["gap_density"] == "1/2"
        assert lines["symmetric"] == "true"
        assert lines["telescopic"] == "true"
        assert lines["minimal_generators"] == "4,6,9"
        assert lines["apery"] == "0,9,6,15"
        assert lines["wilf"].startswith("holds (18 >= 12)")
        assert lines["davison"].startswith("holds")

    def test_5_7_report(self, tmp_path, capsys):
        key = write_key(tmp_path, (5, 7))
        assert main(["inspect", "--key", str(key)]) == 0
        out = capsys.readouterr().out
        assert "frobenius 23" in out
        assert "genus 12" in out
        assert "symmetric true" in out
        # 2 minimal generators, so no davison line
        assert "davison" not in out

    def test_apery_truncation(self, tmp_path, capsys):
        key = write_key(tmp_path, (101, 102), mode="appendix-c")
        assert main(["inspect", "--key", str(key)]) == 0
        out = capsys.readouterr().out
        apery_line = next(ln for ln in out.splitlines() if ln.startswith("apery"))
        assert "(+37 more)" in apery_line
        assert len(apery_line.split(" ")[1].split(",")) == 64

    def test_corrupt_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.key"
        bad.write_text("not a key\n")
        assert main(["inspect", "--key", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["inspect", "--key", str(tmp_path / "nope.key")]) == 2

    @pytest.mark.parametrize("modulus", ["65", "1000000", str(2**64)])
    def test_modulus_past_the_table_refused_before_the_table(self, tmp_path, capsys,
                                                             monkeypatch, modulus):
        key = write_key(tmp_path, (5, 7))
        monkeypatch.setattr(cli, "build_table", mock.Mock(side_effect=AssertionError))
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "--key", str(key), "--modulus", modulus])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--modulus" in captured.err

    def test_viable_line_is_the_encoders_verdict(self, tmp_path, capsys):
        # (5, 7) leaves class 5 mod 16 empty: inspect says so, and encode refuses
        key = write_key(tmp_path, (5, 7))
        assert main(["inspect", "--key", str(key)]) == 0
        lines = dict(ln.split(" ", 1) for ln in capsys.readouterr().out.splitlines())
        assert lines["class_counts"] == "1,1,2,1,1,0,1,1,1,1,0,1,0,1,0,0"
        assert lines["viable"] == "false"
        payload, stream = tmp_path / "p.bin", tmp_path / "s.txt"
        payload.write_bytes(b"hi")
        assert main(["encode", "--key", str(key), "--in", str(payload), "--out", str(stream)]) == 2
        assert "residue class 5" in capsys.readouterr().err
        assert not stream.exists()


class TestEncodeDecode:
    def round_trip(self, tmp_path, key_path, payload, salt=False, seed="5"):
        src = tmp_path / "payload.bin"
        src.write_bytes(payload)
        stream = tmp_path / "stream.txt"
        out = tmp_path / "out.bin"
        encode = ["encode", "--key", str(key_path), "--in", str(src), "--out", str(stream), "--seed", seed]
        if salt:
            encode.append("--salt")
        assert main(encode) == 0
        assert main(["decode", "--key", str(key_path), "--in", str(stream), "--out", str(out), "--verify"]) == 0
        return stream, out.read_bytes()

    def test_seven_bytes_fourteen_values(self, tmp_path, viable_key):
        stream, recovered = self.round_trip(tmp_path, viable_key, b"BONJOUR")
        assert recovered == b"BONJOUR"
        values = parse_stream(stream.read_bytes())
        assert len(values.values) == 14
        assert not values.salted

    def test_empty_payload(self, tmp_path, viable_key):
        stream, recovered = self.round_trip(tmp_path, viable_key, b"")
        assert recovered == b""
        assert stream.read_text() == ""

    def test_binary_payload_salted(self, tmp_path, viable_key):
        payload = bytes(random.Random(2).randbytes(257))
        stream, recovered = self.round_trip(tmp_path, viable_key, payload, salt=True)
        assert recovered == payload
        parsed = parse_stream(stream.read_bytes())
        assert parsed.salted
        assert parsed.salt_period == 37 * 38

    def test_encode_deterministic(self, tmp_path, viable_key):
        s1, _ = self.round_trip(tmp_path, viable_key, b"hello")
        first = s1.read_text()
        s2, _ = self.round_trip(tmp_path, viable_key, b"hello")
        assert s2.read_text() == first

    def test_payload_file_is_not_the_stream_file(self, tmp_path, viable_key, capsys):
        src = tmp_path / "p.bin"
        src.write_bytes(b"keep me")
        rc = main(["encode", "--key", str(viable_key), "--in", str(src), "--out", str(src)])
        assert rc == 2
        assert src.read_bytes() == b"keep me"
        assert "same file" in capsys.readouterr().err

    def test_unviable_key_refused(self, tmp_path, capsys):
        key = write_key(tmp_path, (5, 7))  # class 5 mod 16 is empty
        src = tmp_path / "p.bin"
        src.write_bytes(b"x")
        rc = main(["encode", "--key", str(key), "--in", str(src), "--out", str(tmp_path / "s.txt")])
        assert rc == 2
        assert "class 5" in capsys.readouterr().err

    def test_verify_flags_member_value(self, tmp_path, viable_key, capsys):
        stream = tmp_path / "stream.txt"
        src = tmp_path / "p.bin"
        src.write_bytes(b"hi")
        assert main(["encode", "--key", str(viable_key), "--in", str(src), "--out", str(stream), "--seed", "1"]) == 0
        values = parse_stream(stream.read_bytes()).values.tolist()
        tampered = values + [37 + 38, 2 * 37 + 38]  # both members, so both flagged
        stream.write_text("".join(f"{v}\n" for v in tampered))
        rc = main(["decode", "--key", str(viable_key), "--in", str(stream), "--out", str(tmp_path / "o.bin"), "--verify"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "positions" in err
        assert f"{len(values)},{len(values) + 1}" in err

    def test_verify_flags_value_past_int64(self, tmp_path, viable_key, capsys):
        # the stream format allows values up to 2**64 - 1; above F none is a gap
        stream = tmp_path / "stream.txt"
        stream.write_text(f"1\n{2**63}\n2\n{2**64 - 1}\n")
        rc = main(["decode", "--key", str(viable_key), "--in", str(stream), "--out", str(tmp_path / "o.bin"), "--verify"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2 stream value(s) are not gaps (positions 1,3)" in captured.err

    @pytest.mark.parametrize("command", [["decode", "--verify"], ["analyze"]])
    def test_non_utf8_line_named(self, tmp_path, viable_key, capsys, command):
        stream = tmp_path / "stream.txt"
        stream.write_bytes(b"".join(b"%d\n" % v for v in range(100)) + b"3\xff4\r\n\xfe\n")
        rc = main([*command, "--key", str(viable_key), "--in", str(stream)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: stream value: not UTF-8 text, got '3\\xff4'\n"

    def test_odd_stream_is_input_error(self, tmp_path, viable_key, capsys):
        stream = tmp_path / "odd.txt"
        stream.write_text("1\n2\n3\n")
        rc = main(["decode", "--key", str(viable_key), "--in", str(stream), "--out", str(tmp_path / "o.bin")])
        assert rc == 2
        assert "odd" in capsys.readouterr().err


class TestSaltBound:
    # salted values reach (L - 1) + 64 * L, which the stream format caps at
    # 2**64 - 1, so encode --salt refuses a salt pair whose 65 * L passes 2**64
    def encode(self, tmp_path, gens, payload):
        key = write_key(tmp_path, gens, salt_pair=(1, 2))
        src, out = tmp_path / "p.bin", tmp_path / "salted.txt"
        src.write_bytes(payload)
        args = ["encode", "--key", str(key), "--in", str(src), "--out", str(out)]
        return main(args + ["--salt", "--seed", "1"]), key, out

    def test_k_max_at_bound_round_trips(self, tmp_path):
        period = math.lcm(100000007, 2147483647)
        assert period == 214748379732385529 and 65 * period < 2**64
        payload = random.Random(0).randbytes(2000)
        rc, key, stream = self.encode(tmp_path, (5, 100000007, 2147483647), payload)
        assert rc == 0
        text = stream.read_bytes()
        assert parse_stream(text).salt_period == period
        # k = 47..64 push values past 10**19, whose text takes 20 digits
        assert sum(len(line) == 20 for line in text.splitlines()) == 1100
        out = tmp_path / "o.bin"
        args = ["decode", "--key", str(key), "--in", str(stream), "--out", str(out)]
        assert main(args + ["--verify"]) == 0
        assert out.read_bytes() == payload

    def test_k_max_past_bound_refused(self, tmp_path, capsys):
        rc, _, stream = self.encode(tmp_path, (5, 2147483646, 2147483647), b"gap codes")
        assert rc == 2
        assert not stream.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: k_max 64 with period 4611686011984936962 passes 2**64 - 1\n")


class TestOutOfMemory:
    # an index of 16 * (m + 1) integers at odd m can pass a small machine's memory
    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 1.19 GiB")])
    def test_reported_as_input_error(self, tmp_path, viable_key, capsys, monkeypatch, error):
        monkeypatch.setattr(cli, "build_gap_index", mock.Mock(side_effect=error))
        src, stream = tmp_path / "p.bin", tmp_path / "s.txt"
        src.write_bytes(b"payload")
        args = ["encode", "--key", str(viable_key), "--in", str(src), "--out", str(stream)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {str(error) or 'out of memory'}\n"
        assert "Traceback" not in captured.err
        assert not stream.exists()


class TestSaltPeriod:
    # the README key without its salt pair salts with lcm(568, 3692) = 7384,
    # far below F = 297801: some gaps cannot be salted unambiguously
    PERIOD, FROBENIUS = 7384, 297801

    @pytest.fixture
    def key(self, tmp_path):
        return write_key(tmp_path, README_GENS, seed=1, name="nopair.key")

    @pytest.mark.parametrize("seed", ["1", "5", "77"])
    @pytest.mark.parametrize("out", ["file", "-"])
    def test_period_not_above_frobenius_refused(self, tmp_path, key, capsys, seed, out):
        assert math.lcm(*README_GENS[:2]) == self.PERIOD
        assert build_table(validate_generators(README_GENS)).frobenius == self.FROBENIUS
        src = tmp_path / "p.bin"
        src.write_bytes(b"\x00")  # two values, both below the period
        stream = tmp_path / "s.txt"
        dest = str(stream) if out == "file" else "-"
        args = ["encode", "--key", str(key), "--in", str(src), "--out", dest, "--salt", "--seed", seed]
        assert main(args) == 2
        assert not stream.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: salt period {self.PERIOD} is not above the Frobenius number"
            f" {self.FROBENIUS}; salting would be ambiguous\n"
        )

    def test_unsalted_encode_unaffected(self, tmp_path, key):
        src = tmp_path / "p.bin"
        src.write_bytes(b"\x00")
        assert main(["encode", "--key", str(key), "--in", str(src), "--out", str(tmp_path / "s.txt")]) == 0


BIGKEY_GENS = (
    160000, 400000, 920000, 1072000, 1140000, 1263000,
    1271200, 1271640, 1278984, 1279492, 1279746, 1279873,
)


class TestPinnedStreams:
    """encode --seed 5 of a 4 KiB payload, one chunk of values, stays byte for byte
    what it was before encode streamed its output (SHA-256 of the stream file)."""

    PINS = {
        ("readme", False): "6042a918c2002554e4eb970a9fab1e7441b4b0895ad0a3c2fa95b7bec7241528",
        ("readme", True): "61e006abb8483ce0d29ff31282b5e09033f7d4170ed312ab9eb8c377360e9157",
        ("bigkey", False): "78c3e76d783d7b83ce1f0ad45a1421f71778ac055c2934ef533ed5f415ef5144",
        ("bigkey", True): "a897349ecd129c8c7af24f8da854df6e3e1f0d53c302d670ad7d9c20a5458740",
    }

    @pytest.mark.parametrize("name,gens,pair", [
        ("readme", README_GENS, (3, 4)), ("bigkey", BIGKEY_GENS, (10, 11))])
    def test_stream_unchanged(self, tmp_path, name, gens, pair):
        key = write_key(tmp_path, gens, seed=1, salt_pair=pair)
        src = tmp_path / "p.bin"
        src.write_bytes(random.Random(0).randbytes(4096))
        for salt in (False, True):
            stream = tmp_path / "s.txt"
            args = ["encode", "--key", str(key), "--in", str(src), "--out", str(stream), "--seed", "5"]
            assert main(args + ["--salt"] * salt) == 0
            assert hashlib.sha256(stream.read_bytes()).hexdigest() == self.PINS[name, salt]

    # encode --seed 5 of a 40 KiB payload: 81,920 values, so the stream crosses
    # two chunk boundaries, pinned before the encoder drew a chunk in one pass
    MULTI_CHUNK_PINS = {
        ("readme", False): "dc15942191a467720f25b6615a61d047939c8cf95f64059345157b38366c7527",
        ("readme", True): "2890731e2fa7a61b375aed61b0959434a0a8890b78cf426ce188d230f7d0ad7e",
        ("bigkey", False): "9ab03fd73451440be0f5726ba45b9f0b4d84e51ce52e4fe19d646e7378c12857",
        ("bigkey", True): "3cb16efc677507a059e413b97b6c9bcc68f99aad78314dd7a429cdf8956148f7",
    }

    @pytest.mark.parametrize("name,gens,pair", [
        ("readme", README_GENS, (3, 4)), ("bigkey", BIGKEY_GENS, (10, 11))])
    def test_multi_chunk_stream_unchanged(self, tmp_path, name, gens, pair):
        key = write_key(tmp_path, gens, seed=1, salt_pair=pair)
        src = tmp_path / "p.bin"
        src.write_bytes(random.Random(0).randbytes(40 * 1024))
        assert 2 * 40 * 1024 > 2 * codec.CHUNK_VALUES
        for salt in (False, True):
            stream = tmp_path / "s.txt"
            args = ["encode", "--key", str(key), "--in", str(src), "--out", str(stream), "--seed", "5"]
            assert main(args + ["--salt"] * salt) == 0
            digest = hashlib.sha256(stream.read_bytes()).hexdigest()
            assert digest == self.MULTI_CHUNK_PINS[name, salt]


@contextlib.contextmanager
def chunk_sizes(values, text_bytes):
    """Streams handled `values` values and `text_bytes` bytes of text at a time."""
    with contextlib.ExitStack() as stack:
        for module in (codec, cli, formats, analysis):
            stack.enter_context(mock.patch.object(module, "CHUNK_VALUES", values))
        stack.enter_context(mock.patch.object(formats, "CHUNK_BYTES", text_bytes))
        yield


class TestStreamChunks:
    """encode, decode and analyze on streams of many chunks."""

    def encode(self, tmp_path, key, payload, salt):
        src, stream = tmp_path / "p.bin", tmp_path / "s.txt"
        src.write_bytes(payload)
        args = ["encode", "--key", str(key), "--in", str(src), "--out", str(stream), "--seed", "3"]
        assert main(args + ["--salt"] * salt) == 0
        return stream

    def expected(self, payload, salt):
        """The stream bytes of the library's whole-array calls at the same seed."""
        rng = random.Random(3)
        stream = encode_message(payload, build_gap_index(build_table(validate_generators(README_GENS))), rng)
        if salt:
            stream = salt_stream(stream, SaltSpec(math.lcm(4314, 4483)), rng)
        return serialize_stream(stream)

    @pytest.mark.parametrize("salt", [False, True])
    @pytest.mark.parametrize("sizes,payload_bytes", [
        (None, 40_000),  # the real chunks: 80,000 values
        ((6, 16), 101),  # odd chunks of text, values split across them
        ((2, 3), 47),
    ])
    def test_encode_is_library_stream_and_decodes(self, tmp_path, readme_key, capsys, salt, sizes,
                                                  payload_bytes):
        payload = random.Random(payload_bytes).randbytes(payload_bytes)
        with chunk_sizes(*sizes) if sizes else contextlib.nullcontext():
            stream = self.encode(tmp_path, readme_key, payload, salt)
            assert stream.read_bytes() == self.expected(payload, salt)
            out = tmp_path / "o.bin"
            args = ["--key", str(readme_key), "--in", str(stream)]
            assert main(["decode", *args, "--out", str(out), "--verify"]) == 0
            assert out.read_bytes() == payload
            assert main(["analyze", *args]) == 0
        n = 2 * payload_bytes
        report = capsys.readouterr().out
        assert f"n_values {n}\n" in report
        histogram = analysis.build_report(parse_stream(stream.read_bytes())).class_histogram
        assert f"class_histogram {','.join(map(str, histogram))}\n" in report

    @pytest.mark.parametrize("out", ["file", "-"])
    @pytest.mark.parametrize("bad", [b"+5", b"1 2", b"3\xff4", str(2**64).encode()])
    def test_bad_last_line_writes_nothing(self, tmp_path, readme_key, capsys, out, bad):
        stream = self.encode(tmp_path, readme_key, random.Random(1).randbytes(50_000), False)
        data = stream.read_bytes()
        assert len(data) > 2 * formats.CHUNK_BYTES
        stream.write_bytes(data + bad + b"\n")
        dest = tmp_path / "o.bin"
        args = ["decode", "--verify", "--key", str(readme_key), "--in", str(stream)]
        assert main(args + ["--out", str(dest) if out == "file" else "-"]) == 2
        assert not dest.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: stream value: ")

    def test_verify_positions_across_chunks(self, tmp_path, readme_key, capsys):
        values = [1, 2] * 30
        for at in (0, 7, 8, 41, 59):
            values[at] = README_GENS[1]
        stream = tmp_path / "s.txt"
        stream.write_text("".join(f"{v}\n" for v in values))
        with chunk_sizes(4, 8):
            rc = main(["decode", "--verify", "--key", str(readme_key), "--in", str(stream)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "5 stream value(s) are not gaps (positions 0,7,8,41,59)" in captured.err

    @pytest.mark.parametrize("n", [3, 61])
    def test_odd_stream_named_by_length(self, tmp_path, viable_key, capsys, n):
        stream = tmp_path / "odd.txt"
        stream.write_text("1\n" * n)
        with chunk_sizes(4, 6):
            assert main(["decode", "--key", str(viable_key), "--in", str(stream)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: stream length {n} is odd, expected value pairs\n"


class TestDecodeSpool:
    """decode spools its bytes to an anonymous temporary file and copies them
    to --out once every check has passed: a failing decode leaves neither an
    --out file nor a temporary file, and closes what it opened."""

    @pytest.fixture
    def spool_dir(self, tmp_path, monkeypatch):
        spool = tmp_path / "spool"
        spool.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        return spool

    @pytest.fixture
    def stream(self, tmp_path, readme_key):
        """A stream of two reader chunks, and the payload it holds."""
        src, stream = tmp_path / "p.bin", tmp_path / "s.txt"
        src.write_bytes(random.Random(4).randbytes(10_000))
        args = ["encode", "--key", str(readme_key), "--in", str(src), "--out", str(stream), "--seed", "4"]
        assert main(args) == 0
        assert formats.CHUNK_BYTES < stream.stat().st_size < 2 * formats.CHUNK_BYTES
        return stream, src.read_bytes()

    def decode(self, readme_key, stream, out):
        args = ["decode", "--verify", "--key", str(readme_key), "--in", str(stream), "--out", out]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(args)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        return rc

    @pytest.mark.parametrize("out", ["file", "-"])
    @pytest.mark.parametrize("edit,rc,err", [
        # the first value replaced by 568, a member of the key
        (lambda data: b"568" + data[data.index(b"\n"):], 3, "verification failed: 1 stream"),
        (lambda data: data + b"1\n", 2, "error: stream length 20001 is odd"),
        # the bad line is the last, in the second chunk
        (lambda data: data + b"1 2\n", 2, "error: stream value: "),
    ], ids=["tampered", "odd", "bad-line-in-second-chunk"])
    def test_failing_decode_leaves_nothing(self, tmp_path, readme_key, spool_dir, stream, capsys,
                                           out, edit, rc, err):
        path, _ = stream
        path.write_bytes(edit(path.read_bytes()))
        dest = tmp_path / "o.bin"
        assert self.decode(readme_key, path, str(dest) if out == "file" else "-") == rc
        assert not dest.exists()
        assert list(spool_dir.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err)

    def test_passing_decode_leaves_its_output_only(self, tmp_path, readme_key, spool_dir, stream):
        path, payload = stream
        dest = tmp_path / "o.bin"
        assert self.decode(readme_key, path, str(dest)) == 0
        assert dest.read_bytes() == payload
        assert list(spool_dir.iterdir()) == []

    def test_out_through_a_symlink(self, tmp_path, readme_key, stream):
        path, payload = stream
        target, link = tmp_path / "target.bin", tmp_path / "link.bin"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert self.decode(readme_key, path, str(link)) == 0
        assert link.is_symlink()
        assert target.read_bytes() == payload

    def test_missing_temporary_directory(self, tmp_path, readme_key, stream, monkeypatch, capsys):
        path, _ = stream
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        dest = tmp_path / "o.bin"
        assert self.decode(readme_key, path, str(dest)) == 2
        assert not dest.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestCommandMemory:
    """Peak traced memory of encode, decode --verify and analyze --key, in
    process, on a 256 KiB and a 1 MiB payload: none grows with the stream,
    as decode spools the bytes it decodes to a temporary file."""

    SIZES = (1 << 18, 1 << 20)

    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("memory")
        key = write_key(work, README_GENS, seed=1, salt_pair=(3, 4))
        peaks = {}
        for size in self.SIZES:
            src, stream = work / "p.bin", work / "s.txt"
            src.write_bytes(random.Random(size).randbytes(size))
            for command, args in [
                ("encode", ["encode", "--in", src, "--out", stream, "--seed", 1]),
                ("decode", ["decode", "--verify", "--in", stream, "--out", work / "o.bin"]),
                ("analyze", ["analyze", "--in", stream]),
            ]:
                tracemalloc.start()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        assert main([*map(str, args), "--key", str(key)]) == 0
                    peaks[command, size] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert (work / "o.bin").read_bytes() == src.read_bytes()
        return peaks

    @pytest.mark.parametrize("command", ["encode", "decode", "analyze"])
    def test_flat(self, peaks, command):
        small, large = (peaks[command, size] for size in self.SIZES)
        assert abs(large - small) < 1 << 20

    def test_decode_holds_the_bytes_only(self, peaks):
        small, large = (peaks["decode", size] for size in self.SIZES)
        values = 2 * (self.SIZES[1] - self.SIZES[0])
        # the bound of a decode that held its bytes: half a byte a value, with slack
        assert large - small <= 0.6 * values

    def test_blank_lines_before_the_header(self, tmp_path, readme_key):
        """8 MiB of blank lines, then a salted stream: read CHUNK_BYTES at a time."""
        src, stream, out = tmp_path / "p.bin", tmp_path / "s.txt", tmp_path / "o.bin"
        src.write_bytes(random.Random(0).randbytes(50))
        key = ["--key", str(readme_key)]
        assert main(["encode", *key, "--in", str(src), "--out", str(stream), "--salt"]) == 0
        stream.write_bytes(b"\n" * (8 << 20) + stream.read_bytes())
        for args in (["decode", "--verify", "--out", str(out)], ["analyze"]):
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()) as report:
                    assert main([*args, *key, "--in", str(stream)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a few chunks, where holding the blank lines takes 8 MiB and more
            assert peak < 3 << 20
        assert out.read_bytes() == src.read_bytes()
        assert "n_values 100\n" in report.getvalue()


class TestForgery:
    def test_small_values_pass_verify(self, tmp_path, readme_key):
        # every positive value below the smallest generator (568) is a gap,
        # so --verify screens for corruption only
        stream = tmp_path / "forged.txt"
        stream.write_text("1\n2\n3\n4\n")
        out = tmp_path / "o.bin"
        args = ["decode", "--key", str(readme_key), "--in", str(stream), "--out", str(out)]
        assert main(args + ["--verify"]) == 0
        assert out.read_bytes() == b"\x12\x34"

    def test_observed_residues_replay_any_message(self, tmp_path, readme_key):
        # a stream that shows all 16 residues holds a gap for every nibble:
        # reordered, its values carry any message, and each still passes --verify
        src, stream, forged, out = (tmp_path / n for n in ("p.bin", "s.txt", "f.txt", "o.bin"))
        src.write_bytes(bytes.fromhex("0123456789abcdef"))
        key = ["--key", str(readme_key)]
        assert main(["encode", *key, "--in", str(src), "--out", str(stream), "--seed", "3"]) == 0
        seen = {v % 16: v for v in parse_stream(stream.read_bytes()).values.tolist()}
        assert len(seen) == 16
        message = b"attack at dawn"
        nibbles = [n for byte in message for n in (byte >> 4, byte & 0xF)]
        forged.write_bytes(b"".join(b"%d\n" % seen[n] for n in nibbles))
        assert main(["decode", *key, "--in", str(forged), "--out", str(out), "--verify"]) == 0
        assert out.read_bytes() == message


class TestKeyCost:
    def test_commands_never_list_the_gaps(self, tmp_path):
        # bigkey has 14,751,704 gaps: a list of them takes a byte a gap at least,
        # and no command's traced peak comes near that
        genus = build_table(validate_generators(BIGKEY_GENS)).genus
        key = ["--key", str(write_key(tmp_path, BIGKEY_GENS, seed=1, salt_pair=(10, 11)))]
        src, stream, salted = tmp_path / "p.bin", tmp_path / "s.txt", tmp_path / "salted.txt"
        src.write_bytes(random.Random(0).randbytes(100))
        out = str(tmp_path / "o.bin")
        for argv in (
            ["encode", *key, "--in", str(src), "--out", str(stream)],
            ["encode", *key, "--in", str(src), "--out", str(salted), "--salt"],
            ["inspect", *key],
            ["decode", *key, "--in", str(salted), "--out", out, "--verify"],
            ["analyze", *key, "--in", str(stream)],
        ):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < genus, argv[0]

    def test_inspect_runs_one_pass(self, readme_key, monkeypatch):
        # inspect reads the minimal generators and the telescopic verdict off
        # the one table it builds
        calls = []

        def counted(build):
            def build_and_count(gens):
                calls.append(tuple(gens))
                return build(gens)

            return build_and_count

        for module in (cli, keygen, semigroup):
            monkeypatch.setattr(module, "build_table", counted(module.build_table))
        assert main(["inspect", "--key", str(readme_key)]) == 0
        assert calls == [README_GENS]


class TestAnalyze:
    def test_report_lines(self, tmp_path, viable_key, capsys):
        src = tmp_path / "p.bin"
        src.write_bytes(random.Random(0).randbytes(200))
        stream = tmp_path / "s.txt"
        assert main(["encode", "--key", str(viable_key), "--in", str(src), "--out", str(stream), "--seed", "8"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(stream), "--key", str(viable_key)]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert names == ["n_values", "modulus", "class_histogram", "chi_square", "df",
                         "reject_uniformity", "gap_density"]

    def test_report_contents(self, tmp_path, viable_key, capsys):
        stream = tmp_path / "s.txt"
        stream.write_text("".join(f"{v % 16}\n" for v in range(160)))
        assert main(["analyze", "--in", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "n_values 160" in out
        assert "chi_square 0.0000" in out
        assert "reject_uniformity false" in out
        assert "gap_density" not in out

    def test_values_past_int64(self, tmp_path, capsys):
        stream = tmp_path / "s.txt"
        values = [2**64 - 16 + v % 16 for v in range(160)]
        values[15] = 2**63  # class 0 instead of 15
        stream.write_text("".join(f"{v}\n" for v in values))
        assert main(["analyze", "--in", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "n_values 160" in out
        assert "class_histogram 11,10,10,10,10,10,10,10,10,10,10,10,10,10,10,9" in out

    def test_short_stream_rejected(self, tmp_path, capsys):
        stream = tmp_path / "s.txt"
        stream.write_text("1\n2\n")
        assert main(["analyze", "--in", str(stream)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "decode"])
    def test_missing_key_reported_before_bad_stream(self, tmp_path, capsys, command):
        stream = tmp_path / "bad.txt"
        stream.write_text("1\nnot a value\n")
        missing = tmp_path / "missing.key"
        assert main([command, "--in", str(stream), "--key", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err
        assert "not a value" not in err

    @pytest.mark.parametrize("command", [["analyze"], ["decode"], ["decode", "--verify"]])
    def test_key_past_table_limit_reported_before_bad_stream(self, tmp_path, capsys, command):
        key = write_key(tmp_path, (20000001, 20000003))
        stream = tmp_path / "bad.txt"
        stream.write_text("1\nx\n")
        assert main([*command, "--in", str(stream), "--key", str(key)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "multiplicity 20000001 exceeds the table limit 10000000" in captured.err
        assert "'x'" not in captured.err


class TestKeyOnStdin:
    @pytest.mark.parametrize("command", [
        ["encode", "--seed", "1", "--out", "out"],
        ["encode", "--seed", "1", "--salt", "--out", "out"],
        ["decode", "--out", "out"],
        ["decode", "--verify", "--in", "-", "--out", "out"],
        ["analyze", "--in", "-"],
    ], ids=["encode", "encode-salt", "decode", "decode-verify", "analyze"])
    def test_key_and_input_both_on_stdin_refused(self, tmp_path, readme_key, capsys, command):
        out = tmp_path / "out"
        stdin = io.TextIOWrapper(io.BytesIO(readme_key.read_bytes()), encoding="utf-8")
        with mock.patch.object(sys, "stdin", stdin):
            code = main([str(out) if a == "out" else a for a in command] + ["--key", "-"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--key - and --in - both read stdin" in captured.err
        assert stdin.buffer.tell() == 0
        assert not out.exists()


class TestNonUtf8Key:
    """A key that is not UTF-8 text is refused by every command that reads one,
    naming its first such line, before the payload or stream is read."""

    @pytest.mark.parametrize("command", [
        ["inspect"],
        ["encode", "--in", "p.bin", "--out", "out"],
        ["decode", "--verify", "--in", "s.txt", "--out", "out"],
        ["analyze", "--in", "s.txt"],
    ], ids=["inspect", "encode", "decode-verify", "analyze"])
    @pytest.mark.parametrize("key_from", ["file", "stdin"])
    def test_first_bad_line_named(self, tmp_path, capsys, command, key_from):
        text = serialize_key(KeyFile(validate_generators(README_GENS), "telescopic", 1))
        key = tmp_path / "bad.key"
        key.write_bytes(text.replace(b"\n3692\n", b"\n3692\xff\n"))
        (tmp_path / "p.bin").write_bytes(b"hi")
        (tmp_path / "s.txt").write_bytes(b"1\n2\n" * 40)
        out = tmp_path / "out"
        argv = [str(tmp_path / a) if a in ("p.bin", "s.txt", "out") else a for a in command]
        stdin = io.TextIOWrapper(io.BytesIO(key.read_bytes()), encoding="utf-8")
        with mock.patch.object(sys, "stdin", stdin):
            code = main([*argv, "--key", str(key) if key_from == "file" else "-"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: key file: not UTF-8 text, got '3692\\xff'\n"
        assert not out.exists()


class TestBinaryStdio:
    """Keys and streams on stdin and stdout are the bytes of their files, whatever
    text encoding Python is told to give its standard streams."""

    @staticmethod
    def run(*args, stdin=b""):
        env = dict(os.environ, PYTHONIOENCODING="utf-16",
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        return subprocess.run([sys.executable, "-m", "gapstego.cli", *map(str, args)], env=env,
                              input=stdin, capture_output=True, timeout=60)

    def test_keygen_to_stdout_is_key_file(self, tmp_path):
        key = tmp_path / "k.key"
        assert self.run("keygen", "--seed", "1", "--out", key).returncode == 0
        done = self.run("keygen", "--seed", "1", "--out", "-")
        assert done.returncode == 0
        assert done.stdout == key.read_bytes()
        assert parse_key(done.stdout).generators.elements == README_GENS

    @pytest.mark.parametrize("salt", [[], ["--salt"]], ids=["plain", "salt"])
    def test_encode_to_stdout_is_stream_file(self, tmp_path, readme_key, salt):
        src, stream = tmp_path / "p.bin", tmp_path / "s.txt"
        src.write_bytes(random.Random(5).randbytes(300))
        args = ["encode", "--key", readme_key, "--in", src, "--seed", "5", *salt]
        assert self.run(*args, "--out", stream).returncode == 0
        done = self.run(*args, "--out", "-")
        assert done.returncode == 0
        assert done.stdout == stream.read_bytes()
        decoded = self.run("decode", "--key", readme_key, "--verify", stdin=done.stdout)
        assert (decoded.returncode, decoded.stdout) == (0, src.read_bytes())

    @pytest.mark.parametrize("command", [["inspect"], ["decode", "--in", "s.txt", "--verify"]],
                             ids=["inspect", "decode"])
    def test_key_from_stdin_is_key_file(self, tmp_path, readme_key, command):
        src, stream = tmp_path / "p.bin", tmp_path / "s.txt"
        src.write_bytes(b"hidden")
        assert main(["encode", "--key", str(readme_key), "--in", str(src), "--out", str(stream)]) == 0
        argv = [stream if a == "s.txt" else a for a in command]
        from_file = self.run(*argv, "--key", readme_key)
        from_stdin = self.run(*argv, "--key", "-", stdin=readme_key.read_bytes())
        assert from_file.returncode == 0
        if command == ["inspect"]:  # a report is text, in the encoding Python is given
            assert from_file.stdout.decode("utf-16").startswith("generators 568,3692,")
        else:
            assert from_file.stdout == b"hidden"
        assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == (
            from_file.returncode, from_file.stdout, from_file.stderr)


# stream texts: good, malformed and extreme values, with and without a salt header
fuzz_values = st.one_of(
    st.integers(0, 40),
    st.sampled_from([568, 2**63 - 1, 2**63, 2**64 - 1]),
    st.integers(0, 2**64 - 1),
).map(str)
fuzz_lines = st.one_of(
    fuzz_values,
    fuzz_values.map(lambda v: f" \t{v}\t "),
    st.sampled_from(["", "+5", "1_0", "\u0663", "1 2", "salt", "salt 0", "x", str(2**64)]),
    st.integers(-(2**70), 2**70).map(str),
).map(str.encode)
# raw bytes that are not UTF-8 text, or not printable
fuzz_raw_lines = st.one_of(
    st.sampled_from([b"\x00", b"\xff", b"7\xff", b"\xff\xfe1", b"\xed\xa0\x80", b"1\x002"]),
    st.binary(max_size=6),
)
fuzz_streams = st.tuples(
    st.sampled_from([b"", b"salt 1\n", b"salt 35\n", f"salt {2**64 - 1}\n".encode(), b"salt -1\n",
                     b"salt \xff\n"]),
    st.one_of(
        st.lists(fuzz_lines | fuzz_raw_lines, max_size=100),
        st.lists(fuzz_values.map(str.encode), min_size=80, max_size=400),
    ),
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
).map(lambda t: t[0] + t[2].join(t[1]))
fuzz_commands = st.sampled_from([["decode"], ["decode", "--verify"], ["analyze"]])


class TestStreamReadersFuzz:
    @pytest.fixture(scope="class")
    def key(self, tmp_path_factory):
        return write_key(tmp_path_factory.mktemp("fuzz"), README_GENS, seed=1, salt_pair=(3, 4))

    @given(data=fuzz_streams, command=fuzz_commands)
    @example(data=b"\n".join([b"1", b"2"] * 40), command=["analyze"])
    @example(data=b"\n".join([str(2**64 - 1).encode()] * 80), command=["analyze"])
    @example(data=f"1\n{2**63}\n2\n{2**64 - 1}".encode(), command=["decode", "--verify"])
    @example(data=f"salt {2**64 - 1}\n{2**64 - 2}\n3".encode(), command=["decode"])
    @example(data=b"1\r\n2\r\n\x00\r\n\xff", command=["decode"])
    @settings(max_examples=150)
    def test_exit_codes_and_output(self, key, data, command):
        stream = key.parent / "fuzz.txt"
        stream.write_bytes(data)
        argv = [*command, "--in", str(stream)]
        if command[0] == "decode":
            argv += ["--key", str(key)]
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out.flush()
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code:
            assert out.buffer.getvalue() == b""
            assert err.getvalue()


# integers for every numeric flag and key field: small, negative and past each limit
# (a generator above 2**31, a multiplicity above 10**7, 2**64)
fuzz_ints = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([2**31 + 1, 10**7 + 1, 2**63, 2**64, -(2**64)]),
)


def _key_text(gens, pair=None, mode="telescopic", seed="1"):
    lines = ["frobkey/1", f"mode {mode}", f"seed {seed}"]
    lines += [f"salt-pair {pair}"] if pair else []
    return "\n".join([*lines, *map(str, gens)]) + "\n"


fuzz_key_texts = st.one_of(
    st.sampled_from([
        _key_text(README_GENS, "3 4"),
        _key_text(README_GENS),
        _key_text((37, 38), "0 1", "appendix-c"),
        _key_text((5, 7)),  # class 5 mod 16 holds no gap
        _key_text((37, 38), "0 9"),
        _key_text((37, 38), "1 1"),
        _key_text((37, 38), mode="sideways"),
        _key_text((37, 38), seed=-1),
        _key_text((37, 38), seed=2**64),
        _key_text((37, 38), "0 1").replace("salt-pair", "salt-pairs"),
        _key_text((37, 38), "0 1").replace("salt-pair", "salt-pair-x"),
    ]),
    st.lists(fuzz_ints, min_size=1, max_size=3).map(_key_text),
    st.text(max_size=40),
)


def _flag(name, values=fuzz_ints):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


# placeholders for the paths of the key, the input and the output
KEY, IN, OUT = "<key>", "<in>", "<out>"
fuzz_in = st.sampled_from([IN, "-"])
fuzz_out = st.sampled_from([OUT, "-"])
cli_commands = st.one_of(
    _argv(st.just(["keygen", "--out"]), fuzz_out.map(lambda p: [p]), _flag("--seed"),
          _flag("--n-elements"), _flag("--mode", st.sampled_from(["telescopic", "appendix-c", "x"]))),
    st.just(["inspect", "--key", KEY]),
    _argv(st.just(["encode", "--key", KEY]), _flag("--in", fuzz_in), _flag("--out", fuzz_out),
          _flag("--seed"), st.sampled_from([[], ["--salt"]])),
    _argv(st.just(["decode", "--key", KEY]), _flag("--in", fuzz_in), _flag("--out", fuzz_out),
          st.sampled_from([[], ["--verify"]])),
    _argv(st.just(["analyze", "--in"]), fuzz_in.map(lambda p: [p]), _flag("--key", st.just(KEY))),
)
# the last word may be one that argparse refuses
cli_argvs = _argv(cli_commands, st.sampled_from([[]] * 6 + [["--bogus"], ["--seed"]]))


class TestCliFuzz:
    """Every command and flag: documented exit codes, no traceback, no partial output.

    selftest, at 0.2 s a run, takes its extreme seeds as explicit examples.
    """

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli-fuzz")

    @given(
        argv=cli_argvs,
        # the key may also come from stdin or name a file that is not there
        key_path=st.sampled_from(["k.key", "k.key", "-", "missing.key"]),
        key_text=fuzz_key_texts,
        # payloads, stream texts, and short streams of values that are often gaps of (37, 38)
        data=st.one_of(
            st.binary(max_size=64),
            fuzz_streams,
            st.lists(st.integers(0, 1400), max_size=20).map(
                lambda vs: "".join(f"{v}\n" for v in vs).encode()),
        ),
    )
    @example(argv=["selftest", "--seed", "-1"], key_path="k.key", key_text="", data=b"")
    @example(argv=["selftest", "--seed", str(2**64)], key_path="k.key", key_text="", data=b"")
    @example(argv=["selftest", "--seed"], key_path="k.key", key_text="", data=b"")
    @example(argv=["inspect", "--key", KEY], key_path="k.key",
             key_text=_key_text((2**31 + 1, 2**31 + 2)), data=b"")
    @example(argv=["analyze", "--in", IN, "--key", KEY], key_path="k.key",
             key_text=_key_text((10**7 + 1, 10**7 + 2)), data=b"1\n2\n" * 40)
    @example(argv=["encode", "--key", KEY, "--in", "-", "--out", "-"], key_path="-",
             key_text=_key_text((5, 7)), data=b"")
    @example(argv=["encode", "--key", KEY, "--in", IN, "--out", OUT, "--salt"], key_path="k.key",
             key_text=_key_text(README_GENS, "3 4"), data=b"payload")
    @example(argv=["decode", "--key", KEY, "--in", "-", "--out", OUT, "--verify"], key_path="k.key",
             key_text=_key_text((37, 38)), data=b"1\n2\n")
    @example(argv=["decode", "--key", KEY, "--in", IN, "--out", OUT, "--verify"], key_path="k.key",
             key_text=_key_text((37, 38)), data=b"1\n74\n")  # 74 = 2 * 37 is no gap
    @example(argv=["analyze", "--in", "-", "--key", KEY], key_path="k.key",
             key_text=_key_text(README_GENS), data=b"1\n2\n" * 5)
    @settings(max_examples=400)
    def test_exit_codes_and_output(self, workdir, argv, key_path, key_text, data):
        key, src, dst = workdir / "k.key", workdir / "in.bin", workdir / "out.txt"
        key.write_text(key_text, encoding="utf-8")
        src.write_bytes(data)
        dst.unlink(missing_ok=True)
        names = {KEY: key_path if key_path == "-" else str(workdir / key_path),
                 IN: str(src), OUT: str(dst)}
        argv = [names.get(a, a) for a in argv]
        stdin = key_text.encode() if key_path == "-" else data
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with (
            mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
        out.flush()
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue()
            assert out.buffer.getvalue() == b""
            assert not dst.exists()


# one fault per selftest suite, in a subject that no other suite calls
SUITE_FAULTS = [
    ("oracle-equivalence", semigroup, "brute_force_sieve",
     lambda gens, bound: brute_force_sieve(gens, bound + 1)),
    ("sylvester-cross-check", formulas, "sylvester", lambda a, b: 0),
    ("progression-cross-check", formulas, "progression_frobenius", lambda spec: 0),
    ("geometric-cross-check", formulas, "geometric_frobenius", lambda spec: 0),
    ("telescopic-symmetry", semigroup, "is_telescopic", lambda table: False),
    ("codec-round-trip", codec, "decode_message", lambda stream: b"?"),
    ("bound-checks", formulas, "wilf_check", lambda *args: mock.Mock(holds=False)),
    # an appendix-c key outside keygen's ranges, which the codec suite takes as any other
    ("appendix-c-pair-search", keygen, "_draw_appendix_c", lambda rng, params: [1201, 1301]),
]


class TestSelftest:
    def test_symmetry_check_counts_the_gaps(self):
        # (3, 5, 7) has gaps 1, 2, 4: a genus of 4 meets the bound and leaves the
        # table non-symmetric, as the pairing scan finds, so only the count sees it
        table = build_table(validate_generators((3, 5, 7)))
        assert check_symmetry(table) is False
        with pytest.raises(AssertionError, match=r"genus 4 but 3 gaps"):
            check_symmetry(dataclasses.replace(table, genus=4))

    def test_cli_passes(self, capsys):
        assert main(["selftest", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert out.count("ok ") == 8

    def test_deterministic_output(self, capsys):
        main(["selftest", "--seed", "42"])
        first = capsys.readouterr().out
        main(["selftest", "--seed", "42"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "suite, module, name, fault", SUITE_FAULTS, ids=[f[0] for f in SUITE_FAULTS]
    )
    def test_injected_fault_names_suite(self, monkeypatch, suite, module, name, fault):
        monkeypatch.setattr(module, name, fault)
        lines = []
        assert run_selftest(seed=0, echo=lines.append) is False
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith(f"FAIL {suite} (reproduce with --seed 0)")
        assert lines[-1] == "selftest FAILED"

    def test_fault_caught_without_asserts(self):
        code = (
            "import sys, gapstego.formulas as f; f.sylvester = lambda a, b: 0;"
            " from gapstego.cli import main; sys.exit(main(['selftest']))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 1
        assert "FAIL sylvester-cross-check" in done.stdout
