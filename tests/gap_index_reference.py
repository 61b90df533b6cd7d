"""Reference encoder, an oracle for codec.encode_message.

Class by class, one flatnonzero and one binary search per class and
chunk, the way encode_message numbered the gaps before it drew a chunk
in one pass through the rank directory.  It reads only the running
counts of the index and the closed form codec.class_gaps, so it
referees the directory, the steps past it and the in-place arithmetic.
It draws as encode_message does: per chunk of codec.CHUNK_VALUES values,
one gen.integers call per class in class order, empty classes included.
"""

from __future__ import annotations

import numpy as np

from gapstego import codec


def gaps_at(index: codec.GapIndex, v: int, u: np.ndarray) -> np.ndarray:
    """The gaps of class v numbered u row by row, by binary search in the counts."""
    starts = index.classes[v]
    i = np.searchsorted(starts, u, side="right") - 1
    return codec.class_gaps(index.multiplicity, v, i, u - starts[i])


def encode_message(payload: bytes, index: codec.GapIndex, rng) -> np.ndarray:
    """The values of codec.encode_message(payload, index, rng)."""
    gen = codec.generator_from(rng)
    data = np.frombuffer(payload, dtype=np.uint8)
    values = np.empty(2 * len(data), dtype=np.uint64)
    step = codec.CHUNK_VALUES // 2
    for i in range(0, len(data), step):
        piece = data[i : i + step]
        nibbles = np.stack((piece >> 4, piece & 0xF), axis=1).ravel()
        out = values[2 * i : 2 * i + len(nibbles)]
        for v, size in enumerate(index.class_sizes()):
            at = np.flatnonzero(nibbles == v)
            out[at] = gaps_at(index, v, gen.integers(size, size=len(at)))
    return values
