"""Reference stream parser, an oracle for formats.parse_stream.

Line by line, one int() per value, the way the stream format was read
before parse_stream worked on arrays of lines.  It keeps its own copy
of the grammar (a token is [0-9]+ and at most 2**64 - 1; lines end in
\\n, \\r\\n or \\r; spaces and tabs around a line are dropped), so each
parser referees the other, errors and their messages included.
"""

from __future__ import annotations

import re

from gapstego import FormatError

U64_MAX = 2**64 - 1


def _parse_uint(text: str, what: str) -> int:
    if not re.fullmatch("[0-9]+", text):
        raise FormatError(f"{what}: expected a decimal integer, got {text!r}")
    value = int(text)
    if value > U64_MAX:
        raise FormatError(f"{what}: {value} outside [0, {U64_MAX}]")
    return value


def parse_stream(text: str) -> tuple[list[int], int | None]:
    """The values and the salt period (None when unsalted) of a stream text."""
    lines = [ln.strip(" \t") for ln in re.split("\r\n|\r|\n", text)]
    lines = [ln for ln in lines if ln]
    salt_period = None
    if lines and lines[0].startswith("salt"):
        parts = re.split("[ \t]+", lines[0])
        if len(parts) != 2 or parts[0] != "salt":
            raise FormatError(f"salt header must be 'salt <L>', got {lines[0]!r}")
        salt_period = _parse_uint(parts[1], "salt period")
        if salt_period < 1:
            raise FormatError("salt period must be >= 1")
        lines = lines[1:]
    return [_parse_uint(ln, "stream value") for ln in lines], salt_period
