"""Statistical screens over keys and emitted streams.

Two audiences share this module: the sender, who wants evidence that an
outgoing stream looks like featureless residue noise, and the key
generator, which needs per-class gap counts to judge a candidate key.
Everything returns exact rationals or plain floats; no distribution
functions are evaluated at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .codec import CHUNK_VALUES, MODULUS, CipherStream, class_counts
from .errors import InsufficientSamplesError
from .semigroup import SemigroupTable

# Upper 5% points of the chi-square distribution for 1..63 degrees of
# freedom, rounded to three decimals.  Frozen so the rejection rule stays
# bit-for-bit reproducible; the modulus-16 tests use the df = 15 entry
# 24.996.
_CHI2_CRIT_05 = (
    3.841, 5.991, 7.815, 9.488, 11.070, 12.592, 14.067, 15.507,
    16.919, 18.307, 19.675, 21.026, 22.362, 23.685, 24.996, 26.296,
    27.587, 28.869, 30.144, 31.410, 32.671, 33.924, 35.172, 36.415,
    37.652, 38.885, 40.113, 41.337, 42.557, 43.773, 44.985, 46.194,
    47.400, 48.602, 49.802, 50.998, 52.192, 53.384, 54.572, 55.758,
    56.942, 58.124, 59.304, 60.481, 61.656, 62.830, 64.001, 65.171,
    66.339, 67.505, 68.669, 69.832, 70.993, 72.153, 73.311, 74.468,
    75.624, 76.778, 77.931, 79.082, 80.232, 81.381, 82.529,
)
# The largest modulus a residue screen takes: its df, modulus - 1, is tabulated.
MAX_MODULUS = len(_CHI2_CRIT_05) + 1


def chi2_critical(df: int) -> float:
    """5% critical value for df degrees of freedom (1 <= df <= 63)."""
    if not 1 <= df <= len(_CHI2_CRIT_05):
        raise ValueError(f"critical values are tabulated for df 1..{len(_CHI2_CRIT_05)}")
    return _CHI2_CRIT_05[df - 1]


def gap_density(table: SemigroupTable) -> Fraction:
    """Exact share of gaps in [0, F]: genus / (frobenius + 1).

    Symmetric semigroups give exactly 1/2, which is the cover story the
    encoder hides behind.
    """
    return Fraction(table.genus, table.frobenius + 1)


def residue_histogram(table: SemigroupTable) -> np.ndarray:
    """Gap counts per residue class mod 16, in O(m) from the table a block of rows at a time."""
    return np.array([sum(int(c.sum()) for _, c in class_counts(table, v)) for v in range(MODULUS)])


@dataclass
class ResidueTally:
    """Stream values counted per residue class mod `modulus`, added a chunk at a time.

    The modulus must lie in [2, MAX_MODULUS], where the chi-square table
    has a critical value; any other is refused when the tally is made.
    """

    modulus: int
    n_values: int = 0
    counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not 2 <= self.modulus <= MAX_MODULUS:
            raise ValueError(f"modulus must be in [2, {MAX_MODULUS}], got {self.modulus}")
        self.counts = np.zeros(self.modulus, dtype=np.int64)

    def add(self, values: "np.ndarray | Sequence[int]") -> None:
        """Count values, converted by CipherStream: it refuses what a stream cannot hold."""
        values = CipherStream(values).values
        self.n_values += len(values)
        for i in range(0, len(values), CHUNK_VALUES):
            residues = values[i : i + CHUNK_VALUES] % np.uint64(self.modulus)
            self.counts += np.bincount(residues.view(np.int64), minlength=self.modulus)


@dataclass(frozen=True)
class AnalysisReport:
    """Pearson test of a stream's residues mod the test modulus against the uniform law.

    class_histogram counts stream values per residue class; reject_uniformity
    means the uniformity hypothesis fails at the 5% level.
    """

    n_values: int
    modulus: int
    class_histogram: tuple[int, ...]
    chi_square: float
    df: int
    reject_uniformity: bool


def build_report(
    stream: CipherStream | Sequence[int] | ResidueTally, modulus: int = 16
) -> AnalysisReport:
    """The residue screen of a stream mod `modulus`.

    The stream may be given as its tally mod `modulus`, counted a chunk
    at a time; any other sequence is converted by CipherStream.  Needs at
    least 5 * modulus values so the usual expected-count rule of thumb
    holds; the modulus is checked first.
    """
    if isinstance(stream, ResidueTally):
        if stream.modulus != modulus:
            raise ValueError(f"values were counted mod {stream.modulus}, not mod {modulus}")
        tally = stream
    else:
        tally = ResidueTally(modulus)
        tally.add(stream.values if isinstance(stream, CipherStream) else stream)
    n = tally.n_values
    if n < 5 * modulus:
        raise InsufficientSamplesError(
            f"need at least {5 * modulus} values for modulus {modulus}, got {n}"
        )
    expected = n / modulus
    statistic = float(((tally.counts - expected) ** 2 / expected).sum())
    return AnalysisReport(
        n_values=n,
        modulus=modulus,
        class_histogram=tuple(tally.counts.tolist()),
        chi_square=statistic,
        df=modulus - 1,
        reject_uniformity=statistic > chi2_critical(modulus - 1),
    )
