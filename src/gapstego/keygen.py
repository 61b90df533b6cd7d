"""Private key generation.

Two modes, kept distinct on purpose:

* "appendix-c" reproduces the simplest workable scheme: draw a coprime
  pair, then pad with sums c1*first + c2*last.  The padding is always
  representable by the pair, so the effective key is the pair itself;
  the mode exists for compatibility and as a baseline.
* "telescopic" builds generator sequences that pass is_telescopic, hence
  generate symmetric semigroups, which is what the stream's statistical
  cover story relies on.

Both modes need base_min > 16: the gaps 1, ..., 16 then fill every
residue class mod 16, so every key can carry every nibble value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .analysis import residue_histogram
from .codec import MODULUS
from .errors import ViabilityFailure
from .semigroup import (
    MAX_GENERATOR,
    GeneratingSet,
    SemigroupTable,
    build_table,
    validate_generators,
)

MODES = ("appendix-c", "telescopic")
# Single draws generate_key makes before it gives up.
RETRY_BUDGET = 10_000
# "comparable magnitude" cap: no generator may exceed 8x the smallest.
RATIO_CAP = 8


def check_seed(seed: int, what: str = "seed") -> int:
    """seed, once it is known to lie in [0, 2**64 - 1], the seeds a key file records."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{what} {seed} outside [0, {2**64 - 1}]")
    return seed


@dataclass(frozen=True)
class KeygenParams:
    """Knobs for generate_key; defaults follow the original prototype ranges."""

    seed: int
    n_elements: int = 5
    base_min: int = 500
    base_max: int = 1000
    spread_max: int = 200
    mode: str = "telescopic"

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if not 2 <= self.n_elements <= 16:
            raise ValueError(f"n_elements must be in [2, 16], got {self.n_elements}")
        # m > 16 makes the gaps 1, ..., 16 fill every class mod 16
        if not MODULUS < self.base_min <= self.base_max:
            raise ValueError(f"need {MODULUS} < base_min <= base_max")
        if self.spread_max < 1:
            raise ValueError(f"spread_max must be >= 1, got {self.spread_max}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class KeyViability:
    """Gap counts per residue class mod 16 for one key."""

    per_class_gap_count: tuple[int, ...]
    viable: bool


def check_viability(table: SemigroupTable) -> KeyViability:
    """Count gaps per residue class mod 16; viable keys have no empty class."""
    counts = tuple(int(c) for c in residue_histogram(table))
    return KeyViability(counts, min(counts) >= 1)


def generate_key(params: KeygenParams) -> GeneratingSet:
    """Draw candidates until one completes; each completed draw is a key.

    Deterministic in params.seed.  Each of the RETRY_BUDGET attempts is one
    draw, and one that dead-ends uses up its attempt.  A completed draw
    needs no further check: base_min > 16 makes it viable, and a
    telescopic draw is telescopic by construction.  Raises
    ViabilityFailure when the budget runs out, which signals ranges too
    narrow to ever work rather than bad luck.
    """
    rng = random.Random(params.seed)
    draw = _draw_appendix_c if params.mode == "appendix-c" else _draw_telescopic
    for _ in range(RETRY_BUDGET):
        candidate = draw(rng, params)
        if candidate is not None:
            return validate_generators(candidate)
    raise ViabilityFailure(
        f"no viable {params.mode} key in {RETRY_BUDGET} attempts"
        f" (base [{params.base_min}, {params.base_max}], spread {params.spread_max})"
    )


def _draw_appendix_c(rng: random.Random, params: KeygenParams) -> list[int] | None:
    """A coprime pair padded with c1*first + c2*last sums, or None when the
    pair is not coprime or the padding passes MAX_GENERATOR.

    Each sum exceeds the last element, so the padding never repeats one, and
    all of it is redundant by construction: the semigroup is the pair's.
    """
    a = rng.randint(params.base_min, params.base_max)
    b = a + rng.randint(1, params.spread_max)
    if math.gcd(a, b) != 1:
        return None
    key = [a, b]
    while len(key) < params.n_elements:
        key.append(rng.randint(1, 3) * key[0] + rng.randint(1, 3) * key[-1])
    return key if key[-1] <= MAX_GENERATOR else None


def _draw_telescopic(rng: random.Random, params: KeygenParams) -> list[int] | None:
    """One telescopic candidate, or None when this draw dead-ends.

    a1 is drawn and must have at least n-1 prime factors; the factors are
    shuffled and cut into n-1 groups whose products step the divisor
    chain d1 > d2 > ... > dn = 1 down to 1.  Each new element is di * si
    with si a member of the prefix semigroup scaled by d(i-1), coprime to
    the chain step, drawn by rejection inside the magnitude cap: exactly
    is_telescopic's condition, so a completed chain needs no re-check.
    """
    n = params.n_elements
    a1 = rng.randint(params.base_min, params.base_max)
    factors = _prime_factors(a1)
    if len(factors) < n - 1:
        return None
    rng.shuffle(factors)
    steps = _grouped_products(rng, factors, n - 1)
    seq = [a1]
    d_prev = a1
    for step in steps:
        d_i = d_prev // step
        lo = seq[-1] // d_i + 1
        hi = (RATIO_CAP * a1) // d_i
        s = _draw_scaled_member(
            rng,
            tuple(x // d_prev for x in seq),
            lo,
            hi,
            coprime_to=step,
        )
        if s is None:
            return None
        seq.append(d_i * s)
        d_prev = d_i
    return seq


def _prime_factors(x: int) -> list[int]:
    out = []
    d = 2
    while d * d <= x:
        while x % d == 0:
            out.append(d)
            x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def _grouped_products(rng: random.Random, factors: list[int], k: int) -> list[int]:
    # split into k non-empty runs and multiply each one out
    cuts = sorted(rng.sample(range(1, len(factors)), k - 1))
    bounds = [0, *cuts, len(factors)]
    return [math.prod(factors[i:j]) for i, j in zip(bounds, bounds[1:])]


def _draw_scaled_member(
    rng: random.Random,
    scaled_prefix: tuple[int, ...],
    lo: int,
    hi: int,
    coprime_to: int,
) -> int | None:
    if hi < lo:
        return None
    if 1 in scaled_prefix:
        table = None  # prefix already generates every integer
    else:
        table = build_table(validate_generators(scaled_prefix))
    for _ in range(500):
        s = rng.randint(lo, hi)
        if math.gcd(s, coprime_to) != 1:
            continue
        if table is None or table.is_member(s):
            return s
    return None


def choose_salt_pair(gens: GeneratingSet, table: SemigroupTable) -> tuple[int, int] | None:
    """Pick generator indices whose lcm exceeds the Frobenius number.

    Such a pair makes a valid salt period for any stream this key can
    emit (every value is a gap, hence <= F < lcm).  Prefers (0, 1) for
    stability, falls back to the largest lcm, returns None when no pair
    clears the bar.
    """
    n = len(gens)
    if math.lcm(gens[0], gens[1]) > table.frobenius:
        return (0, 1)
    best: tuple[int, int] | None = None
    best_lcm = table.frobenius
    for i in range(n):
        for j in range(i + 1, n):
            period = math.lcm(gens[i], gens[j])
            if period > best_lcm:
                best = (i, j)
                best_lcm = period
    return best
