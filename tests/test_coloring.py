from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcolor.coloring import (
    Coloring,
    class_degrees,
    decide_defective,
    min_defect,
    verify_coloring,
)
from defcolor.errors import BudgetExceededError, PartialColoringError, SizeLimitError
from defcolor.graphs import (
    Graph,
    balanced_tree,
    closure,
    closure_forest,
    complete_graph,
    ct,
    cycle_graph,
)
from helpers import (
    all_graphs,
    backtrack_coloring_oracle,
    decide_defective_oracle,
    graphs_st,
    level_coloring,
    star_graph,
)


class TestVerify:
    def test_proper_two_coloring_of_c4(self):
        ok, witness = verify_coloring(cycle_graph(4), Coloring(2, (1, 2, 1, 2)), 0)
        assert ok and witness is None

    def test_monochromatic_star_witness_is_center(self):
        g = star_graph(5)
        ok, witness = verify_coloring(g, Coloring(1, (1,) * 6), 4)
        assert not ok and witness == 0
        ok, _ = verify_coloring(g, Coloring(1, (1,) * 6), 5)
        assert ok

    def test_level_coloring_is_proper(self):
        tree = balanced_tree(3, 2)
        ok, _ = verify_coloring(closure(tree), level_coloring(tree), 0)
        assert ok

    def test_partial_coloring_rejected(self):
        with pytest.raises(PartialColoringError):
            verify_coloring(cycle_graph(4), Coloring(2, (1, 2, 1)), 0)
        with pytest.raises(PartialColoringError):
            verify_coloring(cycle_graph(4), Coloring(2, (1, 2, 1, 3)), 0)

    def test_class_degrees(self):
        got = class_degrees(star_graph(3), Coloring(2, (1, 1, 2, 2)))
        assert got == {1: 1, 2: 0}


class TestDecide:
    def test_lower_bound_of_closed_tree(self):
        assert not decide_defective(ct(3, 2), 2, 1).feasible

    def test_closed_tree_with_slack(self):
        report = decide_defective(ct(3, 2), 2, 2)
        assert report.feasible
        # the exhibited coloring: root alone, both branches in one class
        exhibited = Coloring(2, (1, 2, 2, 2, 2, 2, 2))
        ok, _ = verify_coloring(ct(3, 2), exhibited, 2)
        assert ok

    def test_single_class_star(self):
        assert decide_defective(star_graph(5), 1, 5).feasible
        assert not decide_defective(star_graph(5), 1, 4).feasible

    def test_size_guard(self):
        from defcolor.graphs import empty_graph

        with pytest.raises(SizeLimitError):
            decide_defective(empty_graph(17), 2, 0)
        assert decide_defective(empty_graph(17), 2, 0, max_vertices=17).feasible

    def test_node_budget_is_not_an_answer(self):
        with pytest.raises(BudgetExceededError):
            decide_defective(ct(3, 2), 2, 1, node_budget=3)

    @given(graphs_st(max_n=6), st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_oracle_agreement(self, g, k, d):
        report = decide_defective(g, k, d)
        assert report.feasible == decide_defective_oracle(g, k, d)
        if report.feasible:
            ok, _ = verify_coloring(g, report.coloring, d)
            assert ok

    def test_oracle_agreement_full_sweep(self):
        # every graph up to 6 vertices (up to isomorphism), k <= 3, d <= 2;
        # the closures among them go to the forest DP, the rest backtrack
        closure_outcomes: set = set()
        closures = 0
        for n in range(1, 7):
            for g in all_graphs(n):
                closure = closure_forest(g) is not None
                closures += closure
                for k in (1, 2, 3):
                    for d in (0, 1, 2):
                        report = decide_defective(g, k, d)
                        assert report.feasible == decide_defective_oracle(g, k, d), (
                            g.edges(), k, d,
                        )
                        if closure:
                            closure_outcomes.add(report.feasible)
                        if report.feasible:
                            ok, _ = verify_coloring(g, report.coloring, d)
                            assert ok and report.coloring.k == k
        assert closure_outcomes == {True, False}
        assert closures > 20

    def test_backtracking_matches_set_search(self):
        # the bitmask backtracker finds the same coloring, or the same
        # infeasibility, as the search over neighbor sets, and stops at the
        # same node: the reference's count answers, one node less does not
        rng = random.Random(20)
        outcomes = set()
        for _ in range(120):
            n = rng.randint(2, 18)
            p = rng.uniform(0.15, 0.55)
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            if closure_forest(g) is not None:
                continue  # the forest DP answers these
            for k in (1, 2, 3):
                for d in (0, 1, 2):
                    want, nodes = backtrack_coloring_oracle(g, k, d)
                    got = decide_defective(g, k, d, max_vertices=18, node_budget=nodes)
                    assert (got.coloring and got.coloring.colors) == want, (g.edges(), k, d)
                    with pytest.raises(BudgetExceededError) as info:
                        decide_defective(g, k, d, max_vertices=18, node_budget=nodes - 1)
                    assert info.value.size == nodes
                    outcomes.add(want is None)
        assert outcomes == {True, False}

    @given(graphs_st(min_n=1, max_n=7), st.integers(1, 2), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_k_and_d(self, g, k, d):
        if decide_defective(g, k, d).feasible:
            assert decide_defective(g, k + 1, d).feasible
            assert decide_defective(g, k, d + 1).feasible


def small_closures():
    for n in range(1, 7):
        for g in all_graphs(n):
            if closure_forest(g) is not None:
                yield g


class TestForestDP:
    def test_pinned_colorings(self):
        # sha256 of every (feasible, coloring) answer of the forest DP on
        # these closures: pins its memo keys, its fold order and its rebuild
        corpus = list(small_closures())
        corpus += [ct(h, k) for h, k in ((2, 4), (3, 2), (3, 3), (4, 2), (4, 3))]
        corpus += [complete_graph(n) for n in range(1, 17)]
        digest = hashlib.sha256()
        for g in corpus:
            for k in range(1, 5):
                for d in range(4):
                    r = decide_defective(g, k, d, max_vertices=64)
                    digest.update(repr((r.feasible, r.coloring)).encode())
        assert len(corpus) == 105
        assert digest.hexdigest() == (
            "7e0374041524f38bb342c74094aa5ab63e777c52cba8aba7803e1d76e061f79e"
        )

    def test_complete_graphs_by_arithmetic(self):
        # K_n is the closure of a path: k classes of defect d hold at most
        # k(d + 1) vertices, and that many suffice.  Keyed by color
        # multiplicities, no decision needs more than 114 memo entries here
        # (keyed by the colors in path order, up to 1,243).
        for n in range(1, 17):
            g = complete_graph(n)
            for k in range(1, 6):
                for d in range(0, 4):
                    got = decide_defective(g, k, d, node_budget=200)
                    assert got.feasible == (n <= k * (d + 1)), (n, k, d)

    def test_budget_counts_memo_entries(self):
        for budget in (0, 1, 5):
            with pytest.raises(BudgetExceededError) as info:
                decide_defective(ct(4, 3), 3, 2, max_vertices=64, node_budget=budget)
            assert info.value.size == budget + 1

    def test_frontier_memo_count(self):
        # the frontier query takes exactly 7 memo entries
        got = decide_defective(ct(4, 3), 3, 2, max_vertices=64, node_budget=7)
        assert not got.feasible
        with pytest.raises(BudgetExceededError) as info:
            decide_defective(ct(4, 3), 3, 2, max_vertices=64, node_budget=6)
        assert info.value.size == 7

    def test_frontier_infeasible_within_budget(self):
        got = decide_defective(ct(4, 3), 3, 2, max_vertices=64, node_budget=200_000)
        assert not got.feasible
        report = decide_defective(ct(4, 3), 3, 3, max_vertices=64, node_budget=200_000)
        assert report.feasible and max(report.max_class_degree.values()) <= 3

    def test_closure_route_matches_backtracking(self):
        # decide_defective takes the DP on closures; the answers must agree
        # with plain backtracking, which _decide runs when given g's rows
        from defcolor.coloring import _decide, _rows

        for h, k in ((2, 4), (3, 2), (3, 3), (4, 2)):
            g = ct(h, k)
            for colors in (h - 1, h):
                for d in range(0, k + 1):
                    got = decide_defective(g, colors, d, max_vertices=64)
                    assert got.feasible == _decide(g, _rows(g), colors, d, None).feasible


class TestMinDefect:
    def test_one_class_is_max_degree(self):
        assert min_defect(ct(2, 3), 1) == 3

    def test_odd_cycle_two_classes(self):
        assert min_defect(cycle_graph(5), 2) == 1

    def test_closed_tree_two_classes(self):
        assert min_defect(ct(3, 2), 2) == 2

    @pytest.mark.parametrize("n", [0, 3], ids=["no-vertices", "no-edges"])
    def test_no_colors_is_an_error_before_the_shortcuts(self, n):
        # no 0-coloring exists, even where every defect is 0
        g = Graph(n, [frozenset()] * n)
        with pytest.raises(ValueError, match="k must be positive"):
            min_defect(g, 0)
        with pytest.raises(ValueError, match="k must be positive"):
            decide_defective(g, 0, 0)
        assert min_defect(g, 1) == 0

    @given(graphs_st(max_n=6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_min_defect_is_least_feasible(self, g, k):
        d = min_defect(g, k)
        assert decide_defective(g, k, d).feasible
        if d > 0:
            assert not decide_defective(g, k, d - 1).feasible


class TestLevelColoring:
    def test_height_three(self):
        tree = balanced_tree(3, 2)
        col = level_coloring(tree)
        assert col.k == 3
        ok, _ = verify_coloring(closure(tree), col, 0)
        assert ok

    def test_single_node(self):
        col = level_coloring(balanced_tree(1, 1))
        assert col.k == 1 and col.colors == (1,)
