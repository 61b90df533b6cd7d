"""Statistical screens over keys and emitted streams.

Two audiences share this module: the sender, who wants evidence that an
outgoing stream looks like featureless residue noise, and the key
generator, which needs per-class gap counts to judge a candidate key.
Both look at the encoder's 16 residue classes, codec.MODULUS.
Everything returns exact rationals or plain floats; no distribution
functions are evaluated at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .codec import CHUNK_VALUES, MODULUS, CipherStream, class_counts
from .errors import InsufficientSamplesError
from .semigroup import SemigroupTable

# Upper 5% point of the chi-square distribution at df = MODULUS - 1 = 15,
# rounded to three decimals.  Frozen so the rejection rule stays
# bit-for-bit reproducible.
_CHI2_CRIT_05 = 24.996


def gap_density(table: SemigroupTable) -> Fraction:
    """Exact share of gaps in [0, F]: genus / (frobenius + 1).

    Symmetric semigroups give exactly 1/2, which is the cover story the
    encoder hides behind.
    """
    return Fraction(table.genus, table.frobenius + 1)


def residue_histogram(table: SemigroupTable) -> np.ndarray:
    """Gap counts per residue class mod 16, in O(m) from the table a block of rows at a time."""
    return np.array([sum(int(c.sum()) for _, c in class_counts(table, v)) for v in range(MODULUS)])


class ResidueTally:
    """Stream values counted per residue class mod 16, added a chunk at a time."""

    def __init__(self) -> None:
        self.n_values = 0
        self.counts = np.zeros(MODULUS, dtype=np.int64)

    def add(self, values: "np.ndarray | Sequence[int]") -> None:
        """Count values, converted by CipherStream: it refuses what a stream cannot hold."""
        values = CipherStream(values).values
        self.n_values += len(values)
        for i in range(0, len(values), CHUNK_VALUES):
            residues = values[i : i + CHUNK_VALUES] % np.uint64(MODULUS)
            self.counts += np.bincount(residues.view(np.int64), minlength=MODULUS)


@dataclass(frozen=True)
class AnalysisReport:
    """Pearson test of a stream's residues mod 16 against the uniform law.

    class_histogram counts stream values per residue class; reject_uniformity
    means the uniformity hypothesis fails at the 5% level.  modulus and df
    restate the test, so a printed report says what it measured.
    """

    n_values: int
    modulus: int
    class_histogram: tuple[int, ...]
    chi_square: float
    df: int
    reject_uniformity: bool


def build_report(stream: CipherStream | Sequence[int] | ResidueTally) -> AnalysisReport:
    """The residue screen of a stream mod 16.

    The stream may be given as its tally, counted a chunk at a time; any
    other sequence is converted by CipherStream.  Needs at least 5 * 16
    values so the usual expected-count rule of thumb holds.
    """
    if isinstance(stream, ResidueTally):
        tally = stream
    else:
        tally = ResidueTally()
        tally.add(stream.values if isinstance(stream, CipherStream) else stream)
    n = tally.n_values
    if n < 5 * MODULUS:
        raise InsufficientSamplesError(
            f"need at least {5 * MODULUS} values for modulus {MODULUS}, got {n}"
        )
    expected = n / MODULUS
    statistic = float(((tally.counts - expected) ** 2 / expected).sum())
    return AnalysisReport(
        n_values=n,
        modulus=MODULUS,
        class_histogram=tuple(tally.counts.tolist()),
        chi_square=statistic,
        df=MODULUS - 1,
        reject_uniformity=statistic > _CHI2_CRIT_05,
    )
