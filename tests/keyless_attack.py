"""Keyless recovery of a key's Apery table, an attack that sees values only.

A bare stream is a sample of the key's gaps.  Step 1 reads the
multiplicity: every multiple of m is a member and never sent, so m̂ is
the smallest x >= 2 with no observed multiple.  Step 2 reads the table:
a gap g tells that g - k*m̂ is a gap for every k >= 0 (row descent), so
the Apery element of row g mod m̂ is at least g + m̂.  Once every row's top
gap has been seen, the estimate is the table itself, and m̂ with the
estimated Apery elements generates the key's semigroup.
"""

from __future__ import annotations

import numpy as np


def estimated_multiplicity(values: np.ndarray) -> int:
    """The smallest x >= 2 of which no observed value is a multiple."""
    seen = np.zeros(int(values.max()) + 1, dtype=bool)
    seen[values.astype(np.int64)] = True
    x = 2
    while seen[x::x].any():
        x += 1
    return x


def estimated_apery(values: np.ndarray, m: int) -> np.ndarray:
    """Per row r mod m, the row's largest observed value plus m; 0 for rows with none."""
    values = values.astype(np.int64)
    apery = np.zeros(m, dtype=np.int64)
    np.maximum.at(apery, values % m, values + m)
    return apery


def certified_gaps(apery: np.ndarray) -> np.ndarray:
    """Every g - k*m >= 0 for an observed g: the x below the estimate of their row."""
    m = len(apery)
    xs = np.arange(int(apery.max()), dtype=np.int64)
    return xs[xs < apery[xs % m]]
