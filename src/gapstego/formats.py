"""Key and stream file formats.

Both are line-oriented text so files diff cleanly and can be read or
written from any language; serialize_key and parse_key take a key as
str, UTF-8 text, and serialize_stream gives a stream as ASCII bytes.

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
Both files share one line grammar: lines end in \n, \r\n or \r, the
fields of a line are separated by blanks (spaces and tabs), and blanks
around them and blank lines are allowed.  Parsing is strict: unknown
lines, bad numbers or out-of-range values raise FormatError rather than
being skipped, and the first bad line in the file is the one named.

A stream is read and written as ASCII bytes, a chunk at a time:
read_stream parses a stream file CHUNK_BYTES or so of whole lines at a
time, parse_stream parses one such chunk, or any text it is given, in
one pass, and serialize_stream joins the bytes of CHUNK_VALUES values
at a time.  A large stream is read with read_stream, from a file or from
io.BytesIO(text), since parse_stream's scratch grows with its text.  A
stream is handled one chunk after another by passing the chunk before
as `after`: its text then has no header, and a parsed chunk takes the
period of the header the stream began with.  A chunk's byte classes
give the edges of its words, all words are checked at once, and the
digits are read a column at a time, counted back from each word's end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import AnyStr, BinaryIO, Iterator

import numpy as np

from .codec import CHUNK_VALUES, CipherStream
from .errors import FormatError, GapstegoError
from .keygen import MODES
from .semigroup import GeneratingSet, check_limits, validate_generators

KEY_MAGIC = "frobkey/1"
# Stream text is read and parsed this many bytes (of whole lines) at a time.
CHUNK_BYTES = 1 << 18
_U64_MAX = 2**64 - 1
_TOKEN = re.compile("[0-9]+")
_BLANKS = " \t"
_LINE_BREAKS = "\r\n"
_LINE_END = "\r\n|\r|\n"
_HEADER = re.compile(f"[{_BLANKS}{_LINE_BREAKS}]*salt[^{_LINE_BREAKS}]*".encode())
# 2**64 - 1 has 20 digits: a longer token is in range only when zero-padded
_WIDTH = len(str(_U64_MAX))


@dataclass(frozen=True)
class KeyFile:
    """Parsed key file: generators plus provenance needed to reproduce it."""

    generators: GeneratingSet
    mode: str
    seed: int
    salt_pair: tuple[int, int] | None = None


def serialize_key(key: KeyFile) -> str:
    lines = [KEY_MAGIC, f"mode {key.mode}", f"seed {key.seed}"]
    if key.salt_pair is not None:
        lines.append(f"salt-pair {key.salt_pair[0]} {key.salt_pair[1]}")
    lines.extend(str(g) for g in key.generators)
    return "\n".join(lines) + "\n"


def _parse_uint(text: str, what: str) -> int:
    if not _TOKEN.fullmatch(text):
        raise FormatError(f"{what}: expected a decimal integer, got {text!r}")
    # its decimal form; int reads a few thousand digits at most
    digits = text.lstrip("0") or "0"
    if len(digits) > _WIDTH or int(digits) > _U64_MAX:
        raise FormatError(f"{what}: {digits} outside [0, {_U64_MAX}]")
    return int(digits)


def _lines(text: AnyStr) -> list[AnyStr]:
    """The lines of a key or stream that are not blank, without the blanks around them."""
    cast = str if isinstance(text, str) else str.encode  # a str constant as text's type
    lines = (line.strip(cast(_BLANKS)) for line in re.split(cast(_LINE_END), text))
    return [line for line in lines if line]


def _fields(line: str) -> list[str]:
    """The fields of a line without blanks around it: the runs between its blanks."""
    return re.split(f"[{_BLANKS}]+", line)


def parse_key(text: str) -> KeyFile:
    lines = _lines(text)
    if not lines or lines[0] != KEY_MAGIC:
        raise FormatError(f"key file must start with {KEY_MAGIC!r}")
    if len(lines) < 3:
        raise FormatError("key file truncated before the seed line")

    mode_parts = _fields(lines[1])
    if len(mode_parts) != 2 or mode_parts[0] != "mode":
        raise FormatError(f"line 2 must be 'mode <tag>', got {lines[1]!r}")
    mode = mode_parts[1]
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r}, expected one of {MODES}")

    seed_parts = _fields(lines[2])
    if len(seed_parts) != 2 or seed_parts[0] != "seed":
        raise FormatError(f"line 3 must be 'seed <u64>', got {lines[2]!r}")
    seed = _parse_uint(seed_parts[1], "seed")

    rest = lines[3:]
    salt_pair = None
    pair_parts = _fields(rest[0]) if rest else []
    if pair_parts and pair_parts[0] == "salt-pair":
        if len(pair_parts) != 3:
            raise FormatError(f"salt-pair line needs two indices, got {rest[0]!r}")
        salt_pair = tuple(_parse_uint(part, "salt-pair index") for part in pair_parts[1:])
        rest = rest[1:]

    if not rest:
        raise FormatError("key file lists no generators")
    raw = [_parse_uint(ln, "generator") for ln in rest]
    try:
        gens = validate_generators(raw)
        check_limits(gens.elements)
    except GapstegoError as exc:
        raise FormatError(f"invalid generators: {exc}") from exc
    if len(gens) != len(raw) or list(gens) != raw:
        raise FormatError("generators must be listed strictly increasing, no repeats")
    if salt_pair is not None:
        i, j = salt_pair
        if i == j or max(i, j) >= len(gens):
            raise FormatError(f"salt-pair ({i}, {j}) does not index two distinct generators")
    return KeyFile(gens, mode, seed, salt_pair)


def serialize_stream(stream: CipherStream, after: CipherStream | None = None) -> bytes:
    """Stream text, as ASCII bytes: the salt header, if salted, then one value a line.

    With `after`, the text follows that of the chunk `after` of the same
    stream, so it has no header.
    """
    # join returns a lone part as it is: one chunk with no header is not copied
    header = [b"salt %d\n" % stream.salt_period] if stream.salted and after is None else []
    values = stream.values
    chunks = (values[i : i + CHUNK_VALUES] for i in range(0, len(values), CHUNK_VALUES))
    return b"".join([*header, *(_format_values(c).tobytes() for c in chunks)])


def _format_values(values: np.ndarray) -> np.ndarray:
    """The ASCII lines of some values, each its digits and a line break."""
    top = int(values.max(initial=0))
    width = len(str(top))
    # digit lengths and digits are worked out in the narrowest type that holds the largest value
    rest = values.astype(np.min_scalar_type(top))
    lines = np.full(len(values), 2, dtype=np.uint8)  # bytes of each line
    for power in range(1, width):
        lines += rest >= 10**power
    # where each line break goes in a buffer with `width` bytes of slack in front
    ends = np.cumsum(lines, dtype=np.intp)
    del lines
    ends += width - 1
    digits = np.empty((width, len(values)), dtype=np.uint8)  # units first
    tens = np.empty_like(rest)
    for col in range(width):
        np.floor_divide(rest, 10, out=tens)
        digits[col] = rest - tens * 10
        rest, tens = tens, rest
    digits += np.uint8(ord("0"))
    # each value writes all `width` digits, the highest first: the zeros in front
    # of a short one fall on the lines before it (or the slack), where the bytes'
    # own values are written by a later, lower column, and the line breaks last
    buf = np.empty(int(ends[-1]) + 1 if len(values) else width, dtype=np.uint8)
    at = ends - width
    for column in digits[::-1]:
        buf[at] = column
        at += 1
    buf[ends] = ord("\n")
    return buf[width:]


def parse_stream(data: bytes | str, after: CipherStream | None = None) -> CipherStream:
    """Parse stream text, given as bytes; a str is encoded as UTF-8 first.

    The text is parsed in one pass, with scratch that grows with it;
    read_stream reads a large stream, from a file or io.BytesIO(text),
    a chunk at a time.  With `after`, data is the text that follows the
    chunk `after` of the same stream: it has no header and takes after's
    salt period.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    salt_period = after.salt_period if after is not None else None
    header = _HEADER.match(data) if after is None else None
    if header:
        line = _line_text(_lines(header.group())[0], "salt header")
        parts = _fields(line)
        if len(parts) != 2 or parts[0] != "salt":
            raise FormatError(f"salt header must be 'salt <L>', got {line!r}")
        salt_period = _parse_uint(parts[1], "salt period")
        if salt_period < 1:
            raise FormatError("salt period must be >= 1")
    start = header.end() if header else 0
    return CipherStream(_parse_values(memoryview(data)[start:]), salt_period)


def read_stream(file: BinaryIO) -> Iterator[CipherStream]:
    """The stream in a stream file, parsed a chunk of whole lines at a time; the blank
    chunks in front of the first value or the header are parsed but not yielded."""
    before = None
    for text in _line_chunks(file):
        chunk = parse_stream(text, after=before)
        if before is None and not (len(chunk) or chunk.salted):
            continue
        before = chunk
        yield chunk


def _line_chunks(file: BinaryIO) -> Iterator[bytes]:
    """A stream file's bytes in chunks of whole lines, at most CHUNK_BYTES unless one line is longer."""
    parts: list[bytes] = []  # what was read after the last chunk
    held = 0  # its length
    while data := file.read(CHUNK_BYTES - held if held < CHUNK_BYTES else CHUNK_BYTES):
        cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
        if cut:
            chunk = b"".join([*parts, memoryview(data)[:cut]])
            # while the chunk is parsed, hold it and the start of the next only
            parts, data = [data[cut:]], b""
            held = len(parts[0])
            yield chunk
        else:
            parts.append(data)
            held += len(data)
    if held:
        yield b"".join(parts)


def _line_text(raw: bytes, what: str) -> str:
    """One line of a stream as text; FormatError naming it when it is not UTF-8."""
    try:
        return raw.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:
        shown = raw.decode("utf-8", "backslashreplace")
        raise FormatError(f"{what}: not UTF-8 text, got '{shown}'") from None


def _parse_values(body: bytes | memoryview) -> np.ndarray:
    """Every value of some whole lines of a stream body, checked and converted at once."""
    # the line breaks in front let every token end a full window of digits, and
    # leave a chunk without blanks without any; the final one ends the last word
    raw = b"".join((b"\n" * _WIDTH, body, b"\n"))
    buf = np.frombuffer(raw, dtype=np.uint8)
    breaks = buf == ord("\n")
    breaks |= buf == ord("\r")
    gap = buf == ord(" ")
    gap |= buf == ord("\t")
    blank = gap.any()
    gap |= breaks
    # words and the gaps between them alternate, from a gap to a gap
    edges = np.flatnonzero(gap[1:] != gap[:-1])
    del gap
    edges += 1
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    # a word holds a byte other than a digit, two words share a line (only a
    # blank can part them), or a token of 20 digits or more passes 2**64 - 1
    wide = lengths >= _WIDTH
    if (
        np.count_nonzero(buf - np.uint8(ord("0")) < 10) < lengths.sum()
        or (blank and not np.logical_or.reduceat(breaks, ends)[:-1].all())
        or any(
            len(token := raw[i:j].lstrip(b"0")) > _WIDTH or int(token or b"0") > _U64_MAX
            for i, j in zip(starts[wide].tolist(), ends[wide].tolist())
        )
    ):
        # the line rule names the first bad line
        for line in _lines(raw):
            _parse_uint(_line_text(line, "stream value"), "stream value")
        raise AssertionError("a chunk was refused but its every line parses")
    del breaks

    # the digits a column at a time, summed in the narrowest type that holds `width` of them
    width = min(int(lengths.max(initial=0)), _WIDTH)
    shortest = int(lengths.min(initial=_WIDTH))
    values = np.zeros(len(starts), dtype=np.min_scalar_type(10 ** min(width, _WIDTH - 1) - 1))
    at = ends - width
    for back in range(width, 0, -1):
        digits = buf[at] - np.uint8(ord("0"))
        at += 1
        if back > shortest:  # the bytes in front of a shorter word count as 0
            digits *= lengths >= back
        values *= 10
        values += digits
    return values.astype(np.uint64, copy=False)
