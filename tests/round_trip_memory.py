"""A 16 MiB round trip through the CLI, in memory that does not grow with the stream.

Run from the repository root:

    python tests/round_trip_memory.py

It runs `encode` and then `decode --verify`, and `encode --salt` and
then `decode`, on a random payload of 256 KiB and of 16 MiB with the
README key, each command as a child process, checks that the decoded
bytes are the payload, and prints the peak RSS of each child
(os.wait4's ru_maxrss).  A third round trip runs `encode` with its
stdout on the stream file and `decode --verify` with its stdin on it and
its stdout on the output file, both with PYTHONIOENCODING=utf-16, which
must not change a byte.  Then it runs
`decode --verify` and `analyze` on 64 MiB of blank lines followed by a
salted stream of 100 values, and checks the decoded bytes again.  It
exits 1 unless each command's peak on 16 MiB is within 2x of its peak
on 256 KiB, and each peak on the blank lines is within 2x of the
256 KiB `decode --verify`.

A child's ru_maxrss counts the memory of the process that started it,
so this script holds no payload or stream: it writes and compares them
1 MiB at a time, by SHA-256.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# `gapstego keygen --seed 1`, the key of the README
KEY = "frobkey/1\nmode telescopic\nseed 1\nsalt-pair 3 4\n568\n3692\n4084\n4314\n4483\n"
CLI = ["-m", "gapstego.cli"]
SIZES = (1 << 18, 1 << 24)
GROWTH = 2.0
# (encode, decode) commands of each round trip: plain and verified, salted and plain
ROUND_TRIPS = ((["encode"], ["decode", "--verify"]), (["encode", "--salt"], ["decode"]))
# the round trip through stdin and stdout, with UTF-16 asked of the text layer
STDIO = ("encode >stdout", "decode --verify <stdin")
UTF16 = {"PYTHONIOENCODING": "utf-16"}
PIECE = 1 << 20
# blank lines in front of the header of a stream of 100 values
BLANK = 1 << 26


def peak_mb(args: list, stdin=None, stdout=subprocess.DEVNULL, env=None) -> float:
    """Run Python with args and src on its path, stdin and stdout on the given
    files and env added to its environment; its peak RSS in MB, or exit 1 when it fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    proc = subprocess.Popen([sys.executable, *map(str, args)], env=env, stdin=stdin, stdout=stdout)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status):
        sys.exit(f"python {' '.join(map(str, args))} failed")
    return usage.ru_maxrss / 1024


def write_payload(path: Path, size: int) -> str:
    """Write `size` random bytes to path; their SHA-256."""
    rng, digest = random.Random(size), hashlib.sha256()
    with open(path, "wb") as out:
        for i in range(0, size, PIECE):
            piece = rng.randbytes(min(PIECE, size - i))
            digest.update(piece)
            out.write(piece)
    return digest.hexdigest()


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as src:
        while piece := src.read(PIECE):
            digest.update(piece)
    return digest.hexdigest()


def main() -> int:
    peaks = {" ".join(command): [] for pair in ROUND_TRIPS for command in pair}
    peaks.update({command: [] for command in STDIO})
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        key = work / "demo.key"
        key.write_text(KEY)
        for size in SIZES:
            payload = write_payload(work / "payload.bin", size)
            stream, out = work / "stream.txt", work / "out.bin"
            for encode, decode in ROUND_TRIPS:
                peaks[" ".join(encode)].append(peak_mb(
                    [*CLI, *encode, "--key", key, "--in", work / "payload.bin", "--out", stream,
                     "--seed", 1]))
                peaks[" ".join(decode)].append(peak_mb(
                    [*CLI, *decode, "--key", key, "--in", stream, "--out", out]))
                if sha256(out) != payload:
                    sys.exit(f"{' '.join(decode)}: decoded bytes differ from the {size}-byte payload")
                print(f"{size} bytes, {' '.join(encode)}: {stream.stat().st_size} bytes of stream,"
                      " round trip exact")
            with open(stream, "wb") as dst:
                peaks[STDIO[0]].append(peak_mb(
                    [*CLI, "encode", "--key", key, "--in", work / "payload.bin", "--seed", 1],
                    stdout=dst, env=UTF16))
            with open(stream, "rb") as src, open(out, "wb") as dst:
                peaks[STDIO[1]].append(peak_mb(
                    [*CLI, "decode", "--verify", "--key", key], stdin=src, stdout=dst, env=UTF16))
            if sha256(out) != payload:
                sys.exit(f"{STDIO[1]}: decoded bytes differ from the {size}-byte payload")
            print(f"{size} bytes, {' / '.join(STDIO)} with UTF-16 text streams:"
                  f" {stream.stat().st_size} bytes of stream, round trip exact")

        payload = write_payload(work / "payload.bin", 50)
        short, stream, out = work / "short.txt", work / "blank.txt", work / "out.bin"
        peak_mb([*CLI, "encode", "--key", key, "--in", work / "payload.bin", "--out", short,
                 "--seed", 1, "--salt"])
        with open(stream, "wb") as dst:
            for _ in range(0, BLANK, PIECE):
                dst.write(b"\n" * PIECE)
            dst.write(short.read_bytes())
        blank = {
            "decode --verify": peak_mb(
                [*CLI, "decode", "--verify", "--key", key, "--in", stream, "--out", out]),
            "analyze": peak_mb([*CLI, "analyze", "--key", key, "--in", stream]),
        }
        if sha256(out) != payload:
            sys.exit("decoded bytes differ from the payload after the blank lines")
        print(f"{BLANK} bytes of blank lines before a salted stream: decoded exact")
    ok = True
    for command, (small, large) in peaks.items():
        within = large <= GROWTH * small
        ok &= within
        print(f"{command:22} peak RSS {small:7.1f} MB at {SIZES[0]} B, {large:7.1f} MB at"
              f" {SIZES[1]} B: x{large / small:.2f} {'ok' if within else f'over x{GROWTH}'}")
    small = peaks["decode --verify"][0]
    for command, peak in blank.items():
        within = peak <= GROWTH * small
        ok &= within
        print(f"{command:22} peak RSS {peak:7.1f} MB after {BLANK} B of blank lines:"
              f" x{peak / small:.2f} of decode --verify at {SIZES[0]} B"
              f" {'ok' if within else f'over x{GROWTH}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
