"""Command line interface.

Exit codes are a stable contract: 0 success, 1 self-test failure,
2 usage or input error, 3 verification failure.

encode, decode and analyze stream: encode reads CHUNK_VALUES // 2
payload bytes at a time and writes each chunk's text as it goes, and
decode and analyze take the stream a parsed chunk of whole lines at a
time from formats.read_stream, blank lines included.  decode keeps only
the decoded bytes and writes them once every check has passed, so a
failing command writes nothing.

Keys, payloads and streams pass through the binary _open_in and
_open_out: keys and streams are written as the exact bytes of their
formats (ASCII, \n line ends, no byte-order mark) whatever the locale,
PYTHONIOENCODING or platform, and a key is read as UTF-8 bytes.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import nullcontext
from typing import BinaryIO, ContextManager, Iterator, Sequence

import numpy as np

from .analysis import ResidueTally, build_report, gap_density
from .codec import (
    CHUNK_VALUES,
    CipherStream,
    SaltSpec,
    build_gap_index,
    decode_message,
    desalt_stream,
    encode_message,
    generator_from,
    salt_stream,
    verify_stream,
)
from .errors import GapstegoError, OddLengthError, ValueExceedsPeriodError
from .formats import KeyFile, parse_key, read_stream, serialize_key, serialize_stream
from .formulas import davison_check, wilf_check
from .keygen import KeygenParams, MODES, check_seed, check_viability, choose_salt_pair, generate_key
from .semigroup import build_table, is_telescopic, minimal_generators

_APERY_PRINT_LIMIT = 64


def _open_in(path: str) -> ContextManager[BinaryIO]:
    return nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _open_out(path: str) -> ContextManager[BinaryIO]:
    return nullcontext(sys.stdout.buffer) if path == "-" else open(path, "wb")


def _read_pieces(src: BinaryIO, size: int) -> Iterator[bytes]:
    """src's bytes, `size` at a time; one empty piece when src is empty."""
    yield src.read(size)
    while piece := src.read(size):
        yield piece


def _bool_word(flag: bool) -> str:
    return "true" if flag else "false"


def _seed(given: int | None) -> int:
    """The --seed of keygen and encode, in [0, 2**64 - 1], or one drawn from OS entropy."""
    return int.from_bytes(os.urandom(8), "big") if given is None else check_seed(given, "--seed")


def _load_key(path: str) -> KeyFile:
    with _open_in(path) as src:
        return parse_key(src.read().decode("utf-8"))


def cmd_keygen(args: argparse.Namespace) -> int:
    seed = _seed(args.seed)
    params = KeygenParams(seed=seed, n_elements=args.n_elements, mode=args.mode)
    gens = generate_key(params)
    table = build_table(gens)
    key = KeyFile(gens, args.mode, seed, choose_salt_pair(gens, table))
    with _open_out(args.out) as out:
        out.write(serialize_key(key).encode())
    print(
        f"generators={','.join(str(g) for g in gens)}"
        f" frobenius={table.frobenius} genus={table.genus}"
        f" symmetric={_bool_word(table.is_symmetric())}"
        f" telescopic={_bool_word(is_telescopic(gens))}"
        f" seed={seed}",
        # a key written to stdout is followed by nothing else there
        file=sys.stderr if args.out == "-" else sys.stdout,
    )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    key = _load_key(args.key)
    table = build_table(key.generators)
    minimal = minimal_generators(key.generators)
    counts = check_viability(table)
    print(f"generators {','.join(str(g) for g in key.generators)}")
    print(f"multiplicity {table.multiplicity}")
    print(f"frobenius {table.frobenius}")
    print(f"genus {table.genus}")
    print(f"gap_density {gap_density(table)}")
    print(f"symmetric {_bool_word(table.is_symmetric())}")
    print(f"telescopic {_bool_word(is_telescopic(key.generators))}")
    print(f"minimal_generators {','.join(str(g) for g in minimal)}")

    apery = ",".join(map(str, table.min_rep[:_APERY_PRINT_LIMIT].tolist()))
    more = len(table.min_rep) - _APERY_PRINT_LIMIT
    print(f"apery {apery}" + (f" (+{more} more)" if more > 0 else ""))

    print(f"class_counts {','.join(str(c) for c in counts.per_class_gap_count)}")
    print(f"viable {_bool_word(counts.viable)}")

    wilf = wilf_check(len(minimal), table.frobenius, table.genus)
    lhs = len(minimal) * (table.frobenius + 1 - table.genus)
    print(f"wilf {'holds' if wilf.holds else 'fails'} ({lhs} >= {table.frobenius + 1})")
    if len(minimal) == 3:
        a1, a2, a3 = minimal.elements
        dav = davison_check(a1, a2, a3, table.frobenius)
        print(
            f"davison {'holds' if dav.holds else 'fails'}"
            f" ({int(dav.lhs)} >= {dav.rhs_display:.2f})"
        )
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    seed = _seed(args.seed)
    key = _load_key(args.key)
    with _open_in(args.input) as src:
        # the stream is written while the payload is read
        same = "-" not in (args.input, args.out) and os.path.exists(args.out)
        if same and os.path.samefile(args.input, args.out):
            raise ValueError(f"--in and --out name the same file, {args.out}")
        table = build_table(key.generators)
        index = build_gap_index(table)
        rng = random.Random(seed)
        # the Generators that encode_message(payload, index, rng) and then
        # salt_stream(stream, spec, rng) would draw from
        gen = generator_from(rng)
        spec = None
        if args.salt:
            i, j = key.salt_pair if key.salt_pair is not None else (0, 1)
            spec = SaltSpec.from_generators(key.generators, i, j)
            # gaps run up to F, and F is one: refuse now, not at the first
            # value drawn at or past the period, when output has been written
            if spec.period <= table.frobenius:
                raise ValueExceedsPeriodError(
                    f"salt period {spec.period} is not above the Frobenius number"
                    f" {table.frobenius}; salting would be ambiguous"
                )
            salt_gen = generator_from(rng)
        with _open_out(args.out) as out:
            last = None
            for piece in _read_pieces(src, CHUNK_VALUES // 2):
                chunk = encode_message(piece, index, gen)
                if spec is not None:
                    chunk = salt_stream(chunk, spec, salt_gen)
                out.write(serialize_stream(chunk, after=last))
                last = chunk
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    key = _load_key(args.key)
    decoded, n = bytearray(), 0
    carry = np.zeros(0, dtype=np.uint64)  # a value whose pair lies in the next chunk
    bad, positions = 0, []  # values that are not gaps: their count, the first 20 positions
    with _open_in(args.input) as src:
        table = build_table(key.generators) if args.verify else None
        for chunk in read_stream(src):
            chunk = desalt_stream(chunk)
            if table is not None:
                at = np.flatnonzero(~verify_stream(chunk, table))
                bad += len(at)
                positions += (at[: 20 - len(positions)] + n).tolist()
            values = np.concatenate((carry, chunk.values))
            pairs = len(values) - len(values) % 2
            decoded += decode_message(CipherStream(values[:pairs]))
            carry = values[pairs:]
            n += len(chunk)
    if bad:
        shown = ",".join(map(str, positions)) + (",..." if bad > 20 else "")
        print(
            f"verification failed: {bad} stream value(s) are not gaps (positions {shown})",
            file=sys.stderr,
        )
        return 3
    if len(carry):
        raise OddLengthError(n)
    with _open_out(args.out) as out:
        out.write(decoded)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    tally = ResidueTally()
    key = _load_key(args.key) if args.key else None
    with _open_in(args.input) as src:
        for chunk in read_stream(src):
            tally.add(chunk.values)
    report = build_report(tally)
    # built after the stream is read, so the table and the read never overlap
    density = gap_density(build_table(key.generators)) if key else None
    print(f"n_values {report.n_values}")
    print(f"modulus {report.modulus}")
    print(f"class_histogram {','.join(str(c) for c in report.class_histogram)}")
    print(f"chi_square {report.chi_square:.4f}")
    print(f"df {report.df}")
    print(f"reject_uniformity {_bool_word(report.reject_uniformity)}")
    if density is not None:
        print(f"gap_density {density}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest  # the property families load only here

    ok = run_selftest(seed=args.seed, echo=print)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapstego",
        description="Hide byte streams in the gap structure of secret numerical semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a private key file")
    p.add_argument("--out", required=True, help="key file path ('-' for stdout)")
    p.add_argument("--n-elements", type=int, default=5)
    p.add_argument("--mode", choices=MODES, default="telescopic")
    p.add_argument("--seed", type=int, default=None, help="default: OS entropy, recorded in the file")
    p.set_defaults(handler=cmd_keygen)

    p = sub.add_parser("inspect", help="print structural facts about a key")
    p.add_argument("--key", required=True)
    p.set_defaults(handler=cmd_inspect)

    p = sub.add_parser("encode", help="encode raw bytes as a gap stream")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="input", default="-", help="payload path (default stdin)")
    p.add_argument("--out", default="-", help="stream path (default stdout)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--salt", action="store_true", help="salt values with the key's salt pair")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("decode", help="decode a gap stream back to bytes")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="input", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--verify", action="store_true", help="fail unless every value is a gap")
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("analyze", help="run the statistical screens on a stream")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--key", default=None, help="optional key; adds its gap_density")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("selftest", help="run the acceptance property checks on small families")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # encode, decode and analyze: stdin can feed the key or the input, not both
        if getattr(args, "key", None) == "-" == getattr(args, "input", None):
            raise ValueError("--key - and --in - both read stdin; name a file for one of them")
        return args.handler(args)
    except (GapstegoError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
