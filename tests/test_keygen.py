from __future__ import annotations

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gapstego.keygen as keygen_mod
from gapstego import (
    EmptyClassError,
    KeygenParams,
    ViabilityFailure,
    build_gap_index,
    build_table,
    check_viability,
    choose_salt_pair,
    generate_key,
    is_telescopic,
    minimal_generators,
    selftest,
    semigroup,
    validate_generators,
)


class TestParams:
    def test_defaults(self):
        p = KeygenParams(seed=0)
        assert p.n_elements == 5
        assert (p.base_min, p.base_max, p.spread_max) == (500, 1000, 200)
        assert p.mode == "telescopic"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_elements": 1},
            {"n_elements": 17},
            {"base_min": 1},
            {"base_min": 900, "base_max": 800},
            {"spread_max": 0},
            {"mode": "unknown"},
            {"seed": -1},
            {"seed": 2**64},
            {"base_min": 16},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = {"seed": 0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            KeygenParams(**base)

    def test_base_min_17_accepted(self):
        assert KeygenParams(seed=0, base_min=17).base_min == 17


class TestCheckViability:
    def test_5_7_mod_16(self, table57):
        v = check_viability(table57)
        assert v.per_class_gap_count[5] == 0
        assert not v.viable

    def test_5_7_mod_4(self, table57):
        # the mod-16 counts fold onto mod 4: 3 gaps in each class, yet
        # classes 5, 10, 12, 14 and 15 mod 16 are empty
        v = check_viability(table57)
        assert tuple(sum(v.per_class_gap_count[r::4]) for r in range(4)) == (3, 3, 3, 3)
        assert not v.viable

    def test_counts_sum_to_genus(self, table469):
        v = check_viability(table469)
        assert len(v.per_class_gap_count) == 16
        assert sum(v.per_class_gap_count) == table469.genus

    @given(
        st.lists(st.integers(2, 60), min_size=2, max_size=4)
        .filter(lambda xs: math.gcd(*xs) == 1)
        .map(validate_generators)
    )
    @example(validate_generators((5, 7)))  # not viable: class 5 is empty
    @example(validate_generators((37, 38)))  # gcd(m, 16) = 1
    @example(validate_generators((34, 35)))  # gcd 2
    @example(validate_generators((36, 37)))  # gcd 4
    @example(validate_generators((40, 41)))  # gcd 8
    @example(validate_generators((32, 33)))  # gcd 16
    @example(validate_generators((16, 17)))  # gcd 16, not viable
    @settings(max_examples=200)
    def test_viable_exactly_when_the_index_builds(self, gens):
        # one definition: keygen's verdict is the encoder's
        table = build_table(gens)
        viability = check_viability(table)
        try:
            index = build_gap_index(table)
        except EmptyClassError as exc:
            assert not viability.viable
            assert exc.residue == viability.per_class_gap_count.index(0)
        else:
            assert viability.viable
            assert index.class_sizes() == viability.per_class_gap_count

    @given(
        st.lists(st.integers(17, 300), min_size=2, max_size=4, unique=True)
        .filter(lambda xs: math.gcd(*xs) == 1)
        .map(validate_generators)
    )
    @example(validate_generators((17, 18)))
    @settings(max_examples=300)
    def test_multiplicity_above_16_is_viable(self, gens):
        # 1, ..., m - 1 are gaps, and for m >= 17 they cover every class mod 16
        table = build_table(gens)
        assert check_viability(table).viable
        assert min(build_gap_index(table).class_sizes()) >= 1

    def test_multiplicity_16_is_not_viable(self):
        # the bound is tight: every multiple of 16 is in <16, 17>
        viability = check_viability(build_table(validate_generators((16, 17))))
        assert viability.per_class_gap_count[0] == 0
        assert not viability.viable


class TestAppendixCMode:
    def test_deterministic(self):
        p = KeygenParams(seed=909, mode="appendix-c")
        assert generate_key(p).elements == generate_key(p).elements

    def test_structure(self):
        for seed in range(12):
            key = generate_key(KeygenParams(seed=seed, mode="appendix-c"))
            elems = key.elements
            assert len(elems) == 5
            assert 500 <= elems[0] <= 1000
            assert 1 <= elems[1] - elems[0] <= 200
            assert math.gcd(*elems) == 1
            # padding is sums of the pair, so the pair is the whole story
            table = build_table(key)
            assert minimal_generators(table).elements == elems[:2]
            assert check_viability(table).viable

    def test_frobenius_exceeds_256(self):
        # the pair (a, b) with a >= 500 makes F huge; spot the invariant anyway
        hits = 0
        for seed in range(100):
            key = generate_key(KeygenParams(seed=seed, mode="appendix-c", n_elements=2))
            if build_table(key).frobenius > 16 * 16:
                hits += 1
        assert hits >= 99

    def test_n_elements_respected(self):
        key = generate_key(KeygenParams(seed=4, mode="appendix-c", n_elements=7))
        assert len(key.elements) == 7

    def test_padding_within_limits(self):
        # c1*first + c2*last sums grow about 4x an element; a draw past 2**31 is drawn again
        for seed in range(1000):
            key = generate_key(KeygenParams(seed=seed, mode="appendix-c", n_elements=16))
            semigroup.check_limits(key.elements)

    def test_appendix_c_draw_builds_no_table(self, monkeypatch):
        # a completed draw is the key: nothing is built to check it
        build = mock.Mock(wraps=keygen_mod.build_table)
        monkeypatch.setattr(keygen_mod, "build_table", build)
        generate_key(KeygenParams(seed=0, mode="appendix-c"))
        build.assert_not_called()


class TestPairSearch:
    """selftest.check_pair_search, the keyless search criterion 13 runs."""

    @pytest.mark.parametrize("x", [1001, 1503, 2002, 2500, 4321])
    def test_rules_out_exactly_the_pairs_holding_the_value(self, x):
        # x is a gap of (999, 1000); 1503 = 3 * 501 and 2002 = 2 * 1001 are
        # members of pairs only as multiples of b, which the rule must catch
        a, d = np.meshgrid(np.arange(500, 1001), np.arange(1, 201))
        a, b = a[np.gcd(a, a + d) == 1], (a + d)[np.gcd(a, a + d) == 1]
        member = np.zeros(len(a), dtype=bool)
        for k in range(x // 500 + 1):
            member |= (x >= k * b) & ((x - k * b) % a == 0)
        with mock.patch.object(selftest, "PAIR_SEARCH_AT", (1,)):
            assert selftest.check_pair_search([((999, 1000), [x])]) == [(len(a) - member.sum(),)]

    def test_key_pair_must_be_left(self):
        with pytest.raises(AssertionError, match=r"^appendix-c pair \(500, 501\) not left"):
            selftest.check_pair_search([((500, 501), [1000])])


class TestTelescopicMode:
    def test_deterministic(self):
        p = KeygenParams(seed=31337)
        assert generate_key(p).elements == generate_key(p).elements

    def test_always_telescopic_symmetric_viable(self):
        for seed in range(20):
            key = generate_key(KeygenParams(seed=seed))
            t = build_table(key)
            assert is_telescopic(t)
            assert t.is_symmetric()
            assert check_viability(t).viable
            assert len(key.elements) == 5
            # comparable magnitude: documented ratio cap
            assert key.elements[-1] <= 8 * key.elements[0]

    def test_small_n(self):
        key = generate_key(KeygenParams(seed=5, n_elements=2, base_min=60, base_max=240))
        assert len(key.elements) == 2
        assert is_telescopic(build_table(key))

    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(2, 6),
        base_min=st.integers(17, 400),
        width=st.integers(0, 600),
    )
    @settings(max_examples=100, deadline=None)
    def test_telescopic_by_construction(self, seed, n, base_min, width):
        # ranges no pinned key covers; generate_key checks none of this itself
        params = KeygenParams(
            seed=seed, n_elements=n, base_min=base_min, base_max=base_min + width
        )
        try:
            key = generate_key(params)
        except ViabilityFailure:
            return
        e = key.elements
        assert len(e) == n
        assert all(a < b for a, b in zip(e, e[1:]))
        assert e[-1] <= keygen_mod.RATIO_CAP * e[0]
        t = build_table(key)
        assert is_telescopic(t)
        assert t.is_symmetric()

    def test_different_seeds_differ(self):
        a = generate_key(KeygenParams(seed=1))
        b = generate_key(KeygenParams(seed=2))
        assert a.elements != b.elements


class TestPinnedKeys:
    """Keygen output is part of the key contract: a seed names one key."""

    @pytest.mark.parametrize(
        "mode, seed, elements",
        [
            ("telescopic", 0, (656, 1184, 2888, 4598, 4727)),
            ("telescopic", 1, (568, 3692, 4084, 4314, 4483)),
            ("telescopic", 7, (702, 4680, 5044, 5084, 5435)),
            ("telescopic", 42, (512, 2816, 4052, 4074, 4085)),
            ("appendix-c", 0, (932, 1031, 2895, 10549, 22962)),
            ("appendix-c", 1, (933, 1129, 3191, 7315, 16496)),
        ],
    )
    def test_seed_gives_pinned_key(self, mode, seed, elements):
        assert generate_key(KeygenParams(seed=seed, mode=mode)).elements == elements

    def test_grid_pinned(self):
        # SHA-256 of the keys for seeds 0-19 at every n_elements from 2 to 10 in both modes
        keys = [
            generate_key(KeygenParams(seed=seed, n_elements=n, mode=mode)).elements
            for mode in keygen_mod.MODES
            for n in range(2, 11)
            for seed in range(20)
        ]
        digest = hashlib.sha256(repr(keys).encode()).hexdigest()
        assert digest == "69fd7268fcf3484ba04398d2609c038b105bb34ad02d5bbca919d9c6a3511a0e"


class TestViabilityFailure:
    def test_budget_counts_single_attempts(self, monkeypatch):
        # a1 <= 1000 never has the ten prime factors that 11 elements need,
        # so each attempt draws and factors one a1
        factor = mock.Mock(wraps=keygen_mod._prime_factors)
        monkeypatch.setattr(keygen_mod, "_prime_factors", factor)
        with pytest.raises(ViabilityFailure) as exc:
            generate_key(KeygenParams(seed=0, n_elements=11))
        assert str(exc.value) == (
            "no viable telescopic key in 10000 attempts (base [500, 1000], spread 200)"
        )
        assert factor.call_count == keygen_mod.RETRY_BUDGET

    def test_is_runtime_error(self):
        assert issubclass(ViabilityFailure, RuntimeError)


class TestChooseSaltPair:
    def test_prefers_first_two(self, table57):
        assert choose_salt_pair(table57.generators, table57) == (0, 1)

    def test_falls_back_to_largest_lcm(self):
        gens = validate_generators((8, 12, 14, 15))
        t = build_table(gens)
        assert math.lcm(8, 12) < t.frobenius
        pair = choose_salt_pair(gens, t)
        assert pair == (2, 3)
        assert math.lcm(gens[2], gens[3]) > t.frobenius

    def test_none_when_no_pair_clears_frobenius(self):
        gens = validate_generators((6, 14, 21))
        t = build_table(gens)
        assert choose_salt_pair(gens, t) is None
