from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcolor.hugeint import (
    PLAIN_LIMIT,
    HugeInt,
    approx_log10,
    hadd,
    hcmp,
    hmul,
    hpow,
    int_to_json,
    power_form,
    to_json,
)


class TestConstruction:
    def test_small_powers_materialize(self):
        assert hpow(2, 10).exact_int() == 1024
        assert hpow(3, 4, coeff=2, addend=5).exact_int() == 167

    def test_exponent_zero_and_base_one(self):
        assert hpow(7, 0, coeff=3, addend=1).exact_int() == 4
        assert hpow(1, hpow(10, 100), coeff=5, addend=2).exact_int() == 7

    def test_huge_powers_stay_symbolic(self):
        x = hpow(3, hpow(10, 30))
        assert x.materialize() is None
        with pytest.raises(OverflowError):
            x.exact_int()

    def test_printable_values_only_are_plain(self):
        below = hpow(10, 4299)
        assert below.val == 10**4299
        for x in (hpow(10, 4300), hadd(below, 9 * 10**4299), hmul(below, 10)):
            assert x.val is None and x.exact_int() == 10**4300
            to_json(x)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HugeInt.of(-1)


class TestArithmetic:
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_add_mul_match_ints(self, a, b, c):
        assert hadd(a, b).exact_int() == a + b
        assert hmul(HugeInt.of(a), c).exact_int() == a * c

    @given(st.integers(2, 12), st.integers(0, 40), st.integers(1, 9), st.integers(0, 50))
    @settings(max_examples=60)
    def test_pow_matches_ints(self, b, e, coeff, add):
        assert hpow(b, e, coeff=coeff, addend=add).exact_int() == coeff * b**e + add


class TestComparison:
    def test_plain(self):
        assert hcmp(HugeInt.of(5), 7) == -1
        assert hcmp(HugeInt.of(7), 7) == 0

    def test_mixed_plain_symbolic(self):
        big = hpow(2, hpow(10, 40))
        assert hcmp(big, 10**100) == 1
        assert hcmp(HugeInt.of(0), big) == -1

    def test_same_value_different_shape(self):
        x = hpow(2, hpow(10, 50, coeff=2))  # 2^(2*10^50)
        y = hpow(4, hpow(10, 50))  # 4^(10^50)
        assert hcmp(x, y) == 0
        assert hcmp(hpow(8, hpow(10, 50)), hpow(2, hpow(10, 50, coeff=3))) == 0

    def test_coefficient_folds_into_exponent(self):
        assert hcmp(hpow(2, hpow(10, 50), coeff=2), hpow(2, hadd(hpow(10, 50), 1))) == 0

    def test_addend_breaks_ties(self):
        x = hpow(3, hpow(10, 50), addend=5)
        y = hpow(3, hpow(10, 50), addend=7)
        assert hcmp(x, y) == -1
        assert hcmp(y, x) == 1

    def test_interval_separation(self):
        x = hpow(3, hpow(10, 50))
        y = hpow(5, hpow(10, 50))
        assert hcmp(x, y) == -1

    def test_towers_of_towers(self):
        a = hpow(3, hpow(7, hpow(10, 30)))
        b = hpow(3, hpow(7, hpow(10, 30), addend=1))
        assert hcmp(a, b) == -1
        assert hcmp(a, a) == 0

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=60)
    def test_matches_int_comparison(self, b1, b2, e1, e2):
        x, y = b1**e1, b2**e2
        assert hcmp(hpow(b1, e1), hpow(b2, e2)) == (x > y) - (x < y)

    def test_operator_sugar(self):
        assert hpow(2, hpow(10, 40)) > hpow(2, 100)
        assert HugeInt.of(5) == 5


class TestPresentation:
    def test_json_roundtrippable_shape(self):
        doc = to_json(hpow(3, hpow(10, 40), coeff=2, addend=9))
        assert doc["coeff"] == "2" and doc["addend"] == "9"
        assert doc["base"] == "3"

    def test_plain_ints_past_the_limit_keep_a_power_form(self):
        def value(doc):
            if isinstance(doc, str):
                return int(doc)
            power = value(doc["base"]) ** value(doc["exp"])
            return value(doc["coeff"]) * power + value(doc["addend"])

        assert int_to_json(PLAIN_LIMIT - 1) == str(PLAIN_LIMIT - 1)
        assert int_to_json(3 * 2**15000) == {
            "coeff": "3", "base": "2", "exp": "15000", "addend": "0"
        }
        # an odd value has no trailing zeros to split off: halve its bits
        for n in (PLAIN_LIMIT + 1, 7**12000 + 2**20001, 5**20000):
            doc = int_to_json(n)
            assert isinstance(doc, dict) and value(doc) == n
        doc = to_json(hpow(3, hpow(10, 40), coeff=PLAIN_LIMIT + 1))
        assert value(doc["coeff"]) == PLAIN_LIMIT + 1

    def test_str_forms(self):
        assert str(HugeInt.of(42)) == "42"
        assert "^" in str(hpow(3, hpow(10, 40)))

    def test_str_past_the_limit_prints_the_power_form(self):
        assert str(HugeInt.of(2**15000)) == "2^15000"
        assert str(hpow(3, 7, coeff=3 * 2**15000)) == "(3*2^15000)*3^7"
        assert str(hpow(3, 2**15000)) == "3^(2^15000)"
        for n in (PLAIN_LIMIT, 7**12000 + 2**20001, 5**20000):
            assert power_form(n).materialize() == n
            assert str(HugeInt.of(n)).count("*2^") >= 1

    def test_approx_log10(self):
        got = approx_log10(hpow(10, 1000))
        assert got == pytest.approx(1000, rel=1e-6)
        assert approx_log10(HugeInt.of(0)) is None
