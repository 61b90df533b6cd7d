from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapstego import (
    DegenerateProgressionError,
    GeometricSpec,
    NotCoprimeError,
    ProgressionSpec,
    brute_force_sieve,
    build_table,
    davison_check,
    geometric_frobenius,
    progression_frobenius,
    sigma,
    sylvester,
    validate_generators,
    wilf_check,
)


def frobenius_of(gens):
    return build_table(validate_generators(gens)).frobenius


class TestSylvester:
    def test_examples(self):
        assert sylvester(5, 7) == 23
        assert sylvester(2, 3) == 1
        assert sylvester(3, 10) == 17

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprimeError):
            sylvester(4, 6)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            sylvester(1, 5)

    @given(st.integers(2, 150), st.integers(2, 150))
    def test_matches_table(self, a, b):
        if a == b or math.gcd(a, b) != 1:
            return
        assert sylvester(a, b) == frobenius_of((a, b))


class TestProgression:
    def test_examples(self):
        assert progression_frobenius(ProgressionSpec(3, 1, 1)) == 5
        assert progression_frobenius(ProgressionSpec(5, 1, 2)) == 9
        assert progression_frobenius(ProgressionSpec(5, 2, 1)) == 23

    def test_generators(self):
        assert ProgressionSpec(5, 2, 3).generators() == (5, 7, 9, 11)

    def test_too_wide_rejected(self):
        with pytest.raises(DegenerateProgressionError):
            progression_frobenius(ProgressionSpec(4, 1, 4))

    def test_common_factor_rejected(self):
        with pytest.raises(NotCoprimeError):
            ProgressionSpec(6, 3, 2)

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError):
            ProgressionSpec(1, 1, 1)
        with pytest.raises(ValueError):
            ProgressionSpec(5, 0, 1)
        with pytest.raises(ValueError):
            ProgressionSpec(5, 1, 0)

    @given(st.integers(2, 60), st.integers(1, 8), st.data())
    def test_matches_table(self, a, d, data):
        if math.gcd(a, d) != 1:
            return
        w = data.draw(st.integers(1, a - 1))
        spec = ProgressionSpec(a, d, w)
        assert progression_frobenius(spec) == frobenius_of(spec.generators())


class TestSigma:
    def test_examples(self):
        assert sigma(2, 3, 2) == 19
        assert sigma(2, 3, 3) == 65
        assert sigma(7, 11, 0) == 1
        assert sigma(2, 2, 1) == 4

    def test_symmetric_in_a_b(self):
        assert sigma(3, 5, 4) == sigma(5, 3, 4)

    def test_overflow_refused(self):
        with pytest.raises(OverflowError):
            sigma(2**32, 3, 2)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sigma(0, 3, 2)
        with pytest.raises(ValueError):
            sigma(2, 3, -1)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 6))
    def test_geometric_sum_identity(self, a, b, r):
        # (a - b) * sigma = a^(r+1) - b^(r+1)
        assert (a - b) * sigma(a, b, r) == a ** (r + 1) - b ** (r + 1)


class TestGeometric:
    def test_generators(self):
        assert GeometricSpec(2, 3, 2).generators() == (4, 6, 9)
        assert GeometricSpec(2, 3, 1).generators() == (2, 3)

    def test_examples(self):
        assert geometric_frobenius(GeometricSpec(2, 3, 1)) == 1
        assert geometric_frobenius(GeometricSpec(2, 3, 2)) == 11
        assert geometric_frobenius(GeometricSpec(2, 3, 3)) == 49
        assert geometric_frobenius(GeometricSpec(3, 4, 1)) == 5
        assert geometric_frobenius(GeometricSpec(2, 5, 2)) == 31
        assert geometric_frobenius(GeometricSpec(3, 5, 2)) == 71
        assert geometric_frobenius(GeometricSpec(2, 7, 3)) == 461
        assert geometric_frobenius(GeometricSpec(3, 4, 2)) == 47

    def test_simplified_product_form_is_wrong(self):
        # the tempting closed form a*b*(a+b-1) does not describe <4,6,9>
        a, b = 2, 3
        wrong = a * b * (a + b - 1)
        assert wrong == 24
        true_value = geometric_frobenius(GeometricSpec(a, b, 2))
        assert true_value == 11
        assert wrong != true_value
        sieve = brute_force_sieve(validate_generators((4, 6, 9)), 30)
        assert not sieve[11]
        assert sieve[12:].all()

    def test_bad_specs(self):
        with pytest.raises(NotCoprimeError):
            GeometricSpec(2, 4, 2)
        with pytest.raises(ValueError):
            GeometricSpec(3, 3, 2)
        with pytest.raises(ValueError):
            GeometricSpec(2, 3, 0)

    @given(st.integers(2, 7), st.integers(2, 7), st.integers(1, 4))
    def test_matches_table(self, a, b, k):
        if a >= b or math.gcd(a, b) != 1:
            return
        spec = GeometricSpec(a, b, k)
        assert geometric_frobenius(spec) == frobenius_of(spec.generators())


class TestDavison:
    def test_example(self):
        report = davison_check(4, 6, 9, 11)
        assert report.name == "davison"
        assert report.holds
        assert report.lhs == Fraction(30)
        assert report.rhs_display == pytest.approx(math.sqrt(3 * 4 * 6 * 9))

    def test_tightest_small_triple(self):
        # ratio lhs/rhs comes closest to 1 near (3, 58, 59) in the small range
        f = frobenius_of((3, 58, 59))
        report = davison_check(3, 58, 59, f)
        assert report.holds
        lhs = f + 3 + 58 + 59
        assert lhs * lhs >= 3 * 3 * 58 * 59
        assert lhs * lhs < 3 * 3 * 58 * 59 * 1.02

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprimeError):
            davison_check(4, 6, 8, 10)

    @given(st.integers(2, 40), st.integers(2, 40), st.integers(2, 40))
    def test_holds_with_true_frobenius(self, a1, a2, a3):
        if len({a1, a2, a3}) < 2 or math.gcd(math.gcd(a1, a2), a3) != 1:
            return
        f = frobenius_of((a1, a2, a3))
        assert davison_check(a1, a2, a3, f).holds


class TestWilf:
    def test_example_4_6_9(self, table469):
        report = wilf_check(3, table469.frobenius, table469.genus)
        assert report.holds
        assert 3 * (11 + 1 - 6) == 18 >= 12

    def test_two_generator_equality(self, table57):
        # symmetric 2-generator semigroups meet the bound exactly
        report = wilf_check(2, table57.frobenius, table57.genus)
        assert report.holds
        assert 2 * (table57.frobenius + 1 - table57.genus) == table57.frobenius + 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            wilf_check(0, 11, 6)
        with pytest.raises(ValueError):
            wilf_check(3, 11, 12)

    @given(
        st.lists(st.integers(2, 120), min_size=2, max_size=5).filter(
            lambda xs: len(set(xs)) >= 2 and math.gcd(*xs) == 1
        )
    )
    def test_holds_on_random_semigroups(self, raw):
        from gapstego import minimal_generators

        gens = validate_generators(raw)
        t = build_table(gens)
        d = len(minimal_generators(t))
        assert wilf_check(d, t.frobenius, t.genus).holds
