"""Statistical screens over keys and emitted streams.

Two audiences share this module: the sender, who wants evidence that an
outgoing stream looks like featureless residue noise, and the key
generator, which needs per-class gap counts to judge a candidate key.
Everything returns exact rationals or plain floats; no distribution
functions are evaluated at runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .codec import CHUNK_VALUES, CipherStream
from .errors import InsufficientSamplesError, WindowExceedsRangeError
from .semigroup import SemigroupTable

SIGNIFICANCE = 0.05

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


def residue_histogram(table: SemigroupTable, modulus: int) -> np.ndarray:
    """Gap counts per residue class mod `modulus`, in O(m * modulus) from the table."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    return np.array([table.class_counts(modulus, v).sum() for v in range(modulus)])


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
        # stream values run up to 2**64 - 1, past int64, so reduce them as uint64
        values = np.asarray(values, dtype=np.uint64)
        self.n_values += len(values)
        for i in range(0, len(values), CHUNK_VALUES):
            residues = values[i : i + CHUNK_VALUES] % np.uint64(self.modulus)
            self.counts += np.bincount(residues.view(np.int64), minlength=self.modulus)


def _pearson(
    stream: "CipherStream | Sequence[int] | ResidueTally", modulus: int
) -> tuple[ResidueTally, float, bool]:
    """The tally, Pearson statistic and verdict; the modulus is checked before the statistic."""
    tally = stream
    if not isinstance(tally, ResidueTally):
        tally = ResidueTally(modulus)
        tally.add(getattr(stream, "values", stream))
    elif tally.modulus != modulus:
        raise ValueError(f"values were counted mod {tally.modulus}, not mod {modulus}")
    n = tally.n_values
    if n < 5 * modulus:
        raise InsufficientSamplesError(
            f"need at least {5 * modulus} values for modulus {modulus}, got {n}"
        )
    critical = chi2_critical(modulus - 1)
    expected = n / modulus
    statistic = float(((tally.counts - expected) ** 2 / expected).sum())
    return tally, statistic, statistic > critical


def chi_square_uniformity(
    stream: CipherStream | Sequence[int] | ResidueTally, modulus: int
) -> tuple[float, bool]:
    """Pearson test of the stream residues against the uniform law.

    Returns (statistic, reject) where reject means the uniformity
    hypothesis fails at the 5% level.  Needs at least 5 * modulus values
    so the usual expected-count rule of thumb holds.
    """
    _, statistic, reject = _pearson(stream, modulus)
    return statistic, reject


def window_gap_fraction(table: SemigroupTable, start: int, window_len: int) -> Fraction:
    """Share of gaps among the window_len integers starting at start."""
    if window_len < 1:
        raise ValueError(f"window_len must be >= 1, got {window_len}")
    xs = np.arange(start, start + window_len, dtype=np.int64)
    gaps_inside = window_len - int(table.members(xs).sum())
    return Fraction(gaps_inside, window_len)


def window_bernoulli(
    table: SemigroupTable, window_len: int, trials: int, rng: random.Random
) -> list[Fraction]:
    """Gap fractions over `trials` windows placed uniformly inside [0, F].

    For a symmetric table the window at start s and its mirror at
    F - s - window_len + 1 have fractions summing to 1, so the sampling
    distribution is centered on 1/2; individual windows still swing
    widely, since gaps crowd the low end and members the high end.
    Raises WindowExceedsRangeError when the window cannot fit.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if window_len < 1:
        raise ValueError(f"window_len must be >= 1, got {window_len}")
    top = table.frobenius - window_len + 1
    if top < 0:
        raise WindowExceedsRangeError(
            f"window of {window_len} does not fit in [0, {table.frobenius}]"
        )
    return [
        window_gap_fraction(table, rng.randint(0, top), window_len)
        for _ in range(trials)
    ]


@dataclass(frozen=True)
class AnalysisReport:
    """Battery of stream screens, plus key context when a key is given.

    class_histogram counts stream values per residue class mod the test
    modulus.  gap_density and window_fractions are None/empty unless the
    matching table was supplied.
    """

    n_values: int
    modulus: int
    class_histogram: tuple[int, ...]
    chi_square: float
    df: int
    reject_uniformity: bool
    gap_density: Fraction | None
    window_fractions: tuple[Fraction, ...]


def build_report(
    stream: CipherStream | Sequence[int] | ResidueTally,
    modulus: int = 16,
    table: SemigroupTable | None = None,
    *,
    window_len: int = 256,
    window_trials: int = 8,
    seed: int = 0,
) -> AnalysisReport:
    """Run every screen that applies and bundle the outcomes.

    The stream may be given as its tally mod `modulus`, counted a chunk
    at a time.
    """
    tally, statistic, reject = _pearson(stream, modulus)
    density = None
    fractions: tuple[Fraction, ...] = ()
    if table is not None:
        density = gap_density(table)
        fit = min(window_len, table.frobenius + 1)
        rng = random.Random(seed)
        fractions = tuple(window_bernoulli(table, fit, window_trials, rng))
    return AnalysisReport(
        n_values=tally.n_values,
        modulus=modulus,
        class_histogram=tuple(tally.counts.tolist()),
        chi_square=statistic,
        df=modulus - 1,
        reject_uniformity=reject,
        gap_density=density,
        window_fractions=fractions,
    )
