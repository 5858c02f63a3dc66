from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcolor.hugeint import (
    PLAIN_LIMIT,
    HugeInt,
    approx_log10,
    hadd,
    hmul,
    hpow,
    int_to_json,
    power_form,
    to_json,
)
from helpers import huge_slotwise_le

# an exponent past PLAIN_LIMIT for base 2 whose powers still materialize
_E = 15_000


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
    """HugeInt has no ordering; the tests compare power forms slotwise
    (``huge_slotwise_le``), which is sound but shows only what the slots
    show."""

    def test_plain(self):
        assert huge_slotwise_le(HugeInt.of(5), 7)
        assert huge_slotwise_le(HugeInt.of(7), 7)
        assert not huge_slotwise_le(HugeInt.of(8), 7)

    def test_mixed_plain_symbolic(self):
        big = hpow(2, hpow(10, 40))
        assert huge_slotwise_le(10**100, big)
        assert huge_slotwise_le(HugeInt.of(0), big)
        assert not huge_slotwise_le(big, 10**100)

    def test_same_value_different_shape(self):
        # 2^(2 E) and 4^E are one value in two normal forms: exact, not canonical
        x, y = hpow(2, 2 * _E), hpow(4, _E)
        assert x.exact_int() == y.exact_int()
        assert to_json(x) != to_json(y)
        assert not huge_slotwise_le(x, y) and not huge_slotwise_le(y, x)

    def test_coefficient_folds_into_exponent(self):
        x, y = hpow(2, _E, coeff=2), hpow(2, _E + 1)
        assert x.exact_int() == y.exact_int()
        assert not huge_slotwise_le(x, y) and not huge_slotwise_le(y, x)

    def test_addend_breaks_ties(self):
        x = hpow(3, hpow(10, 50), addend=5)
        y = hpow(3, hpow(10, 50), addend=7)
        assert huge_slotwise_le(x, y)
        assert not huge_slotwise_le(y, x)

    def test_interval_separation(self):
        x = hpow(3, hpow(10, 50))
        y = hpow(5, hpow(10, 50))
        assert huge_slotwise_le(x, y) and not huge_slotwise_le(y, x)
        assert approx_log10(x) < approx_log10(y)

    def test_towers_of_towers(self):
        a = hpow(3, hpow(7, hpow(10, 30)))
        b = hpow(3, hpow(7, hpow(10, 30), addend=1))
        assert huge_slotwise_le(a, b)
        assert not huge_slotwise_le(b, a)
        assert huge_slotwise_le(a, a)

    @given(
        st.integers(2, 6), st.integers(0, 30), st.integers(1, 9), st.integers(0, 50),
        st.integers(0, 2), st.integers(0, 30), st.integers(0, 3), st.integers(0, 50),
    )
    @settings(max_examples=60)
    def test_matches_int_comparison(self, b, e, c, a, db, de, dc, da):
        # power forms that still materialize, each slot of y at least x's
        x = hpow(b, _E + e, coeff=c, addend=a)
        y = hpow(b + db, _E + e + de, coeff=c + dc, addend=a + da)
        assert x.val is None and y.val is None
        assert huge_slotwise_le(x, y) and x.exact_int() <= y.exact_int()
        assert huge_slotwise_le(y, x) == (x.exact_int() == y.exact_int())

    def test_operator_sugar(self):
        # no value comparison: equality is identity, ordering is undefined
        x = hpow(2, hpow(10, 40))
        assert x == x and x != hpow(2, hpow(10, 40))
        assert HugeInt.of(5) != 5
        with pytest.raises(TypeError):
            x < hpow(2, 100)


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
        assert approx_log10(hpow(3, hpow(10, 400))) == math.inf
        assert approx_log10(hpow(3, hpow(10, 300))) == pytest.approx(10**300 * math.log10(3))

    @given(
        st.integers(2, 9), st.integers(0, 20_000), st.integers(1, 10**6),
        st.integers(0, 10**20), st.integers(0, 1),
    )
    @settings(max_examples=60)
    def test_approx_log10_matches_exact(self, b, e, c, a, big_addend):
        # the addend may rival the term: hadd keeps a plain sum past the
        # limit as max ** 1 + min
        x = hpow(b, e, coeff=c, addend=a)
        if big_addend:
            x = hadd(x, b**e)
        assert approx_log10(x) == pytest.approx(math.log10(x.exact_int()), rel=1e-12)
