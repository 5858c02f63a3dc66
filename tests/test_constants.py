from __future__ import annotations

import importlib.util
import math
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from defcolor.constants import paper_constants, split_path_budget
from defcolor.hugeint import PLAIN_LIMIT, approx_log10, hpow, to_json
from helpers import huge_slotwise_le, split_path_budget_recurrence


class TestPathBudget:
    def test_seed_values(self):
        assert split_path_budget(1, 2, 1) == 3
        assert split_path_budget(2, 2, 1) == 6

    def test_closed_form_matches_recurrence(self):
        for t, k, l in product(range(1, 7), range(1, 5), range(1, 4)):
            assert split_path_budget(t, k, l) == split_path_budget_recurrence(t, k, l)

    def test_exceeds_tl(self):
        for t, k, l in product(range(1, 5), range(1, 4), range(1, 4)):
            assert split_path_budget(t, k, l) > t * l

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            split_path_budget(0, 2, 1)


class TestDerivedTable:
    def test_smallest_admissible_arguments(self):
        tab = paper_constants(3, 1, 2, d_homo=2, n1=7, n2=7)
        # main exponent (h-2) (r+1)^(2^(r-1)) (k+h) 2^(r-1) = 1 * 9 * 4 * 2
        assert tab.t_main_exponent.exact_int() == 72
        assert tab.t_extra_exponent == 2
        assert tab.t.exact_int() == 2**72 * 2**2
        assert tab.t0.exact_int() == 24  # (h-2)(r+1) 2^(r-1) r^(2^(r-1)) = 3*2*4
        assert tab.t1.exact_int() == 3**26
        assert tab.k0.exact_int() == 1 + 3 * (6 * 3**26 + 1)
        assert tab.d == 3
        assert not tab.practical
        assert tab.params is None

    def test_l0_is_path_budget_plus_one(self):
        tab = paper_constants(3, 1, 2, d_homo=2, n1=7, n2=7)
        t1 = tab.t1.exact_int()
        k0 = tab.k0.exact_int()
        # l0 = n(t1, k0, 3) + 1 = k0^t1 + 3 t1 + 1, as the same exact normal form
        assert to_json(tab.l0) == to_json(hpow(k0, t1, addend=3 * t1 + 1))

    def test_termination_sizes(self):
        tab = paper_constants(3, 1, 2, d_homo=2, n1=7, n2=7)
        assert to_json(tab.n_star) == to_json(hpow(3, tab.l0, coeff=4))
        assert to_json(tab.n_total) == to_json(hpow(3, tab.l0, addend=14))
        # (k+h) d^l0 > d^l0 + 14, since 3 * 3^l0 > 14 once l0 >= 2
        assert huge_slotwise_le(2, tab.l0)

    def test_monotone_grid(self):
        grid = {}
        for h, k, r in product((3, 4), (1, 2), (2, 3)):
            grid[(h, k, r)] = paper_constants(h, k, r, d_homo=2, n1=7, n2=7)
        for (h, k, r), tab in grid.items():
            for dh, dk, dr in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                other = grid.get((h + dh, k + dk, r + dr))
                if other is None:
                    continue
                assert huge_slotwise_le(tab.t, other.t)
                assert huge_slotwise_le(tab.n_total, other.n_total)
                assert huge_slotwise_le(tab.n_star, other.n_star)
                assert huge_slotwise_le(tab.l0, other.l0)

    def test_log10_estimate_of_a_tall_tower(self):
        # N = 3^l0 + 14 with l0 past any float: the estimate is inf at once
        n_total = paper_constants(3, 1, 5, 2, 7, 7).n_total
        started = time.perf_counter()
        assert approx_log10(n_total) == math.inf
        assert time.perf_counter() - started < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            paper_constants(2, 1, 2, 1, 1, 1)
        with pytest.raises(ValueError):
            paper_constants(3, 0, 2, 1, 1, 1)

    def test_json_is_serializable(self):
        import json

        doc = paper_constants(4, 2, 3, d_homo=3, n1=5, n2=9).to_json()
        text = json.dumps(doc)
        assert '"practical": false' in text


def _constants_table():
    path = Path(__file__).resolve().parents[1] / "scripts" / "constants_table.py"
    spec = importlib.util.spec_from_file_location("constants_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPastThePrintLimit:
    # at h = 3, k = 1, t0's coefficient (h-2)(r+1) 2^(r-1) passes PLAIN_LIMIT
    # (the most str() of an int prints) from r = 14,272 on, and
    # t_extra_exponent = 2^(r-1) from r = 14,286 on

    def test_str_of_t0(self):
        below = paper_constants(3, 1, 14271, 3, 4, 4).t0
        assert str(below) == f"{below.coeff}*14271^(~10^4295 (49892828...))"
        t0 = paper_constants(3, 1, 14272, 3, 4, 4).t0
        assert t0.coeff >= PLAIN_LIMIT
        assert str(t0) == "(14273*2^14271)*14272^(~10^4295 (99785656...))"

    def test_constants_table(self, capsys, monkeypatch):
        argv = ["constants_table.py", "--h", "3", "--k", "1", "--r", "14285", "14286"]
        monkeypatch.setattr(sys, "argv", argv)
        assert _constants_table().main() == 0
        plain, power = capsys.readouterr().out.splitlines()[1:]
        assert plain.split()[7] == f"2^(~b^(~10^4300)+{2**14284})"
        assert power.split()[7] == "2^(~b^(~10^4300)+2^14285)"
