"""Reference Apéry table by Dijkstra's algorithm, an oracle for build_table.

The graph has the residues mod m as vertices and an edge r -> (r + a) % m
of weight a for each generator a; the distance from 0 to r is the least
member of the semigroup congruent to r mod m.  It shares no code with the
doubling pass behind build_table, so each referees the other.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np


def dijkstra_min_rep(elems: Sequence[int]) -> np.ndarray:
    """Per-residue minima of the semigroup generated by increasing elems.

    Only the smallest generator in each residue class mod m is kept as an
    edge: a larger one congruent to it differs by a multiple of m and can
    never relax a distance the smaller one cannot.
    """
    m = elems[0]
    edge_for: dict[int, int] = {}
    for a in elems[1:]:
        r = a % m
        if r and r not in edge_for:
            edge_for[r] = a
    edges = sorted(edge_for.values())

    unreached = 2**63 - 1
    dist = [unreached] * m
    dist[0] = 0
    heap: list[tuple[int, int]] = [(0, 0)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, r = pop(heap)
        if d > dist[r]:
            continue
        for a in edges:
            nd = d + a
            nr = nd % m
            if nd < dist[nr]:
                dist[nr] = nd
                push(heap, (nd, nr))
    return np.array(dist, dtype=np.int64)
