"""Key and stream file formats.

Both are line-oriented UTF-8 text so files diff cleanly and can be read
or written from any language.

Key file::

    frobkey/1
    mode <appendix-c|telescopic>
    seed <u64>
    salt-pair <i> <j>     (optional)
    <one decimal generator per line>

Stream file::

    salt <L>              (only when salted)
    <one decimal value per line>

A number is a token of ASCII digits, [0-9]+, and at most 2**64 - 1.
Stream lines end in \n, \r\n or \r; spaces and tabs around a token
and blank lines are allowed.  Parsing is strict: unknown lines, bad
numbers or out-of-range values raise FormatError rather than being
skipped.  A parsed stream is one uint64 array, read and written a whole
buffer at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codec import CipherStream
from .errors import FormatError, GapstegoError
from .keygen import MODES
from .semigroup import GeneratingSet, validate_generators

KEY_MAGIC = "frobkey/1"
_U64_MAX = 2**64 - 1
_TOKEN = re.compile("[0-9]+")
_BLANKS = " \t"
_LINE_BREAKS = "\r\n"
_HEADER = re.compile(f"[{_BLANKS}{_LINE_BREAKS}]*salt[^{_LINE_BREAKS}]*".encode())
# 2**64 - 1 has 20 digits: a longer token is in range only when zero-padded
_WIDTH = len(str(_U64_MAX))
_U64_DIGITS = np.bytes_(str(_U64_MAX))
_POW10 = np.uint64(10) ** np.arange(1, _WIDTH, dtype=np.uint64)


@dataclass(frozen=True)
class KeyFile:
    """Parsed key file: generators plus provenance needed to reproduce it."""

    generators: GeneratingSet
    mode: str
    seed: int
    salt_pair: tuple[int, int] | None = None
    format_version: int = 1


def serialize_key(key: KeyFile) -> str:
    lines = [KEY_MAGIC, f"mode {key.mode}", f"seed {key.seed}"]
    if key.salt_pair is not None:
        lines.append(f"salt-pair {key.salt_pair[0]} {key.salt_pair[1]}")
    lines.extend(str(g) for g in key.generators)
    return "\n".join(lines) + "\n"


def _parse_uint(text: str, what: str, maximum: int = _U64_MAX) -> int:
    if not _TOKEN.fullmatch(text):
        raise FormatError(f"{what}: expected a decimal integer, got {text!r}")
    value = int(text)
    if value > maximum:
        raise FormatError(f"{what}: {value} outside [0, {maximum}]")
    return value


def parse_key(text: str) -> KeyFile:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != KEY_MAGIC:
        raise FormatError(f"key file must start with {KEY_MAGIC!r}")
    if len(lines) < 3:
        raise FormatError("key file truncated before the seed line")

    mode_parts = lines[1].split()
    if len(mode_parts) != 2 or mode_parts[0] != "mode":
        raise FormatError(f"line 2 must be 'mode <tag>', got {lines[1]!r}")
    mode = mode_parts[1]
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r}, expected one of {MODES}")

    seed_parts = lines[2].split()
    if len(seed_parts) != 2 or seed_parts[0] != "seed":
        raise FormatError(f"line 3 must be 'seed <u64>', got {lines[2]!r}")
    seed = _parse_uint(seed_parts[1], "seed")

    rest = lines[3:]
    salt_pair = None
    if rest and rest[0].startswith("salt-pair"):
        pair_parts = rest[0].split()
        if len(pair_parts) != 3:
            raise FormatError(f"salt-pair line needs two indices, got {rest[0]!r}")
        i = _parse_uint(pair_parts[1], "salt-pair index")
        j = _parse_uint(pair_parts[2], "salt-pair index")
        salt_pair = (i, j)
        rest = rest[1:]

    if not rest:
        raise FormatError("key file lists no generators")
    raw = [_parse_uint(ln, "generator") for ln in rest]
    try:
        gens = validate_generators(raw)
    except GapstegoError as exc:
        raise FormatError(f"invalid generators: {exc}") from exc
    if len(gens) != len(raw) or list(gens) != raw:
        raise FormatError("generators must be listed strictly increasing, no repeats")
    if salt_pair is not None:
        i, j = salt_pair
        if i == j or max(i, j) >= len(gens):
            raise FormatError(f"salt-pair ({i}, {j}) does not index two distinct generators")
    return KeyFile(gens, mode, seed, salt_pair)


def serialize_stream(stream: CipherStream) -> str:
    header = f"salt {stream.salt_period}\n" if stream.salted else ""
    values = stream.values
    if not len(values):
        return header
    # one row per value: its digits right-aligned, then a line break
    lengths = np.searchsorted(_POW10, values, side="right") + 1
    width = int(lengths.max())
    rows = np.empty((len(values), width + 1), dtype=np.uint8)
    rest, digit = values.copy(), np.empty_like(values)
    for col in range(width - 1, -1, -1):
        np.divmod(rest, np.uint64(10), out=(rest, digit))
        rows[:, col] = digit
    rows += np.uint8(ord("0"))
    rows[:, width] = ord("\n")
    keep = np.arange(width + 1, dtype=np.uint8) >= (width - lengths).astype(np.uint8)[:, None]
    return header + rows[keep].tobytes().decode("ascii")


def parse_stream(text: str) -> CipherStream:
    data = text.encode("utf-8", "surrogatepass")
    salt_period = None
    header = _HEADER.match(data)
    if header:
        line = _decode(header.group()).strip(_BLANKS + _LINE_BREAKS)
        parts = re.split(f"[{_BLANKS}]+", line)
        if len(parts) != 2 or parts[0] != "salt":
            raise FormatError(f"salt header must be 'salt <L>', got {line!r}")
        salt_period = _parse_uint(parts[1], "salt period")
        if salt_period < 1:
            raise FormatError("salt period must be >= 1")
    body = memoryview(data)[header.end() if header else 0 :]
    return CipherStream(_parse_values(body), salt_period)


def _decode(raw: bytes) -> str:
    return raw.decode("utf-8", "surrogatepass")


def _any_of(buf: np.ndarray, chars: str) -> np.ndarray:
    hit = np.zeros(len(buf), dtype=bool)
    for c in chars.encode():
        hit |= buf == c
    return hit


def _parse_values(body: memoryview) -> np.ndarray:
    """Every value of a stream body, one token a line, checked and converted at once."""
    # the blanks in front let every token end a full window; the final line
    # break ends the last word inside the buffer
    raw = b"".join((b" " * _WIDTH, body, b"\n"))
    buf = np.frombuffer(raw, dtype=np.uint8)
    breaks = _any_of(buf, _LINE_BREAKS)
    word = _any_of(buf, _BLANKS)
    word |= breaks
    np.logical_not(word, out=word)
    # words and the gaps between them alternate, from a gap to a gap
    edges = np.flatnonzero(word[1:] != word[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    if not len(starts):
        return np.zeros(0, dtype=np.uint64)
    lengths = ends - starts

    # a fault is a position in a bad line; the earliest lies in the first one
    faults = []
    digit = buf - np.uint8(ord("0")) < 10  # the bytes of _TOKEN
    if np.count_nonzero(digit) < lengths.sum():
        faults.append(int((word & ~digit).argmax()))
    del word, digit
    # two words share a line when no line break lies between them
    shared = ~np.logical_or.reduceat(breaks, ends)[:-1]
    if shared.any():
        faults.append(int(starts[shared.argmax() + 1]))
    wide = np.flatnonzero(lengths >= _WIDTH)
    if wide.size:
        last = sliding_window_view(buf, _WIDTH)[ends[wide] - _WIDTH]
        big = last.view(f"S{_WIDTH}").ravel() > _U64_DIGITS
        big |= [raw[s : e - _WIDTH].strip(b"0") != b"" for s, e in zip(starts[wide], ends[wide])]
        if big.any():
            faults.append(int(starts[wide[big.argmax()]]))
    if faults:
        at = min(faults)
        begin = max(raw.rfind(b, 0, at) for b in _LINE_BREAKS.encode()) + 1
        end = min(i for b in _LINE_BREAKS.encode() if (i := raw.find(b, at)) >= 0)
        _parse_uint(_decode(raw[begin:end]).strip(_BLANKS), "stream value")
        raise AssertionError(f"line {raw[begin:end]!r} was refused but parses")

    # the last `width` bytes of each word, read as digits; those in front of
    # the word count as 0
    width = min(int(lengths.max()), _WIDTH)
    digits = sliding_window_view(buf, width)[ends - width]
    digits -= np.uint8(ord("0"))
    values = np.zeros(len(starts), dtype=np.uint64)
    for col, digit in enumerate(digits.T):
        values *= np.uint64(10)
        values += digit * (lengths >= width - col)
    return values
