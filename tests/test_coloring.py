from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcolor import coloring
from defcolor.check import Coloring, class_degrees, verify_coloring
from defcolor.coloring import _decide, _lovasz, _rows, decide_defective, min_defect
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


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
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
        # same node: the reference's count answers, one node less does not.
        # Without the blocked-vertex rule the reference finds the same
        # answer in no fewer nodes.
        rng = random.Random(20)
        outcomes = set()
        cut = 0
        for _ in range(120):
            n = rng.randint(2, 18)
            p = rng.uniform(0.15, 0.55)
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            if closure_forest(g) is not None:
                continue  # the forest DP answers these
            for k in (1, 2, 3, 4):
                for d in (0, 1, 2):
                    want, nodes = backtrack_coloring_oracle(g, k, d)
                    got = decide_defective(g, k, d, max_vertices=18, node_budget=nodes)
                    assert (got.coloring and got.coloring.colors) == want, (g.edges(), k, d)
                    with pytest.raises(BudgetExceededError) as info:
                        decide_defective(g, k, d, max_vertices=18, node_budget=nodes - 1)
                    assert info.value.size == nodes
                    plain, plain_nodes = backtrack_coloring_oracle(g, k, d, forward=False)
                    assert plain == want and plain_nodes >= nodes, (g.edges(), k, d)
                    cut += plain_nodes > nodes
                    outcomes.add(want is None)
        assert outcomes == {True, False}
        assert cut >= 400, cut  # 473 of the 948 cases

    def test_blocked_vertex_rule_on_c5(self):
        # C5 with 2 colors at defect 0: once 0, 1, 2, 3 hold 1, 2, 1, 2,
        # vertex 4 is next to a member of both colors, so color 2 at 3 is
        # refused without trying 4's two colors
        g = cycle_graph(5)
        assert backtrack_coloring_oracle(g, 2, 0) == (None, 7)
        assert backtrack_coloring_oracle(g, 2, 0, forward=False) == (None, 9)
        assert not decide_defective(g, 2, 0, node_budget=7).feasible
        with pytest.raises(BudgetExceededError) as info:
            decide_defective(g, 2, 0, node_budget=6)
        assert info.value.size == 7

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("k", [1, 10**12])
    def test_backtracking_boundaries(self, n, k):
        # no vertex, or one, with far more colors than vertices, at defect 0
        g = Graph(n, [frozenset()] * n)
        got = _decide(g, _rows(g), k, 0, None)
        assert got.feasible and got.coloring == Coloring(k, (1,) * n)
        assert got.max_class_degree == ({1: 0} if n else {})
        if n:
            with pytest.raises(BudgetExceededError) as info:
                _decide(g, _rows(g), k, 0, 0)
            assert info.value.size == 1
        else:
            assert _decide(g, _rows(g), k, 0, 0).feasible

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

    def test_equals_least_oracle_feasible_defect(self):
        # seeded graphs and closures of random forests up to 9 vertices, and
        # every k up to n + 1; the least feasible d can only fall as k grows,
        # so the oracle is asked only below the previous k's answer
        rng = random.Random(28)
        kinds = set()
        for trial in range(60):
            n = rng.randint(1, 9)
            if trial % 3:
                p = rng.uniform(0.15, 0.7)
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            else:
                parent = [None] + [rng.choice([None, *range(v)]) for v in range(1, n)]
                pairs = []
                for v in range(n):
                    a = parent[v]
                    while a is not None:
                        pairs.append((a, v))
                        a = parent[a]
            g = Graph.from_edges(n, pairs)
            kinds.add(closure_forest(g) is not None)
            want = max(map(g.degree, range(n)))
            for k in range(1, n + 2):
                want = next((d for d in range(want) if decide_defective_oracle(g, k, d)), want)
                assert min_defect(g, k) == want, (g.edges(), k)
        assert kinds == {True, False}

    def test_local_search_meets_lovasz_bound(self):
        # no vertex has fewer neighbors in another class than in its own, so
        # the defect is at most floor(Delta / k); the same input gives the
        # same coloring
        rng = random.Random(66)
        for _ in range(60):
            n = rng.randint(1, 30)
            p = rng.uniform(0.1, 0.6)
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            order, nbr = _rows(g)
            delta = max(map(g.degree, range(n)))
            for k in range(1, 6):
                colors = _lovasz(nbr, order, k)
                assert colors == _lovasz(nbr, order, k)
                assert set(colors) <= set(range(1, min(k, n) + 1))
                ok, _ = verify_coloring(g, Coloring(k, tuple(colors)), delta // k)
                assert ok, (g.edges(), k)
                for v in range(n):
                    load = Counter(colors[u] for u in g.adj[v])
                    assert all(load[colors[v]] <= load[c] for c in range(1, min(k, n) + 1))

    def test_budget_stop_is_not_an_answer(self):
        g = ct(4, 3)
        for budget in (0, 1, 6):
            with pytest.raises(BudgetExceededError):
                min_defect(g, 3, max_vertices=64, node_budget=budget)
        host = gnp(14, 0.4, 5)
        want = min_defect(host, 3)
        for budget in range(40):
            try:
                got = min_defect(host, 3, node_budget=budget)
            except BudgetExceededError:
                continue
            assert got == want
        with pytest.raises(BudgetExceededError):
            min_defect(host, 3, node_budget=3)

    @pytest.mark.parametrize(
        "host, k, asked",
        [(gnp(24, 0.35, 1), 3, [2, 1]), (ct(4, 3), 2, [11, 2])],
        ids=["backtracking", "forest-dp"],
    )
    def test_one_infeasible_probe_at_least_defect_minus_one(self, monkeypatch, host, k, asked):
        # on ct(4, 3) the level start (root alone, the rest in color 2) has
        # defect 12, and the DP's coloring at defect 11 already has defect 3
        probes = []

        def counting(g, route, k, d, node_budget):
            report = _decide(g, route, k, d, node_budget)
            probes.append((d, report))
            return report

        monkeypatch.setattr(coloring, "_decide", counting)
        got = min_defect(host, k, max_vertices=64)
        assert got > 0
        assert [d for d, _ in probes] == asked
        assert [(d, r.feasible) for d, r in probes][-1] == (got - 1, False)
        # each later probe asks one below the recounted defect of the last
        # coloring found
        for (_, report), (d, _) in zip(probes, probes[1:]):
            assert d == max(report.max_class_degree.values()) - 1

    def test_closures_start_from_levels_without_rows(self, monkeypatch):
        # the levels, the deepest sharing the last color, need no rows and
        # no local search; on ct(h, k) with h - 1 colors they have defect k
        def unused(*args):
            raise AssertionError("rows built for a closure")

        monkeypatch.setattr(coloring, "_rows", unused)
        monkeypatch.setattr(coloring, "_lovasz", unused)
        assert min_defect(ct(5, 3), 4, max_vertices=128) == 3
        assert min_defect(complete_graph(7), 6) == 1

    # the exact-mix min_defect queries: G(n, p) drawn as perfbench draws
    # graph i, k colors, the least defect, the least budget of the
    # infeasible probe at the least defect minus one, and that probe's
    # nodes without the blocked-vertex rule (0 and 0 at least defect 0,
    # where no probe is infeasible).  Totals 15,539 and 28,149.
    EXACT_MIX = (
        (16, 0.25, 0, 2, 2, 21, 45),
        (16, 0.25, 0, 3, 0, 0, 0),
        (16, 0.25, 1, 2, 2, 37, 47),
        (16, 0.25, 1, 3, 0, 0, 0),
        (16, 0.25, 2, 2, 2, 25, 33),
        (16, 0.25, 2, 3, 1, 17, 41),
        (16, 0.35, 0, 2, 2, 17, 29),
        (16, 0.35, 0, 3, 1, 9, 66),
        (16, 0.35, 1, 2, 3, 113, 191),
        (16, 0.35, 1, 3, 1, 6, 9),
        (16, 0.35, 2, 2, 3, 113, 201),
        (16, 0.35, 2, 3, 1, 9, 21),
        (18, 0.25, 0, 2, 2, 25, 41),
        (18, 0.25, 0, 3, 1, 15, 45),
        (18, 0.25, 1, 2, 2, 25, 35),
        (18, 0.25, 1, 3, 1, 12, 42),
        (18, 0.25, 2, 2, 2, 29, 43),
        (18, 0.25, 2, 3, 0, 0, 0),
        (18, 0.35, 0, 2, 3, 63, 125),
        (18, 0.35, 0, 3, 1, 9, 18),
        (18, 0.35, 1, 2, 2, 37, 57),
        (18, 0.35, 1, 3, 1, 26, 71),
        (18, 0.35, 2, 2, 3, 217, 465),
        (18, 0.35, 2, 3, 1, 14, 26),
        (20, 0.25, 0, 2, 3, 255, 465),
        (20, 0.25, 0, 3, 1, 12, 75),
        (20, 0.25, 1, 2, 2, 27, 41),
        (20, 0.25, 1, 3, 1, 14, 47),
        (20, 0.25, 2, 2, 2, 17, 31),
        (20, 0.25, 2, 3, 1, 27, 48),
        (20, 0.35, 0, 2, 3, 171, 289),
        (20, 0.35, 0, 3, 2, 1_313, 2_120),
        (20, 0.35, 1, 2, 3, 67, 107),
        (20, 0.35, 1, 3, 1, 6, 12),
        (20, 0.35, 2, 2, 4, 795, 1_385),
        (20, 0.35, 2, 3, 1, 9, 60),
        (22, 0.25, 0, 2, 3, 213, 425),
        (22, 0.25, 0, 3, 1, 26, 104),
        (22, 0.25, 1, 2, 2, 51, 81),
        (22, 0.25, 1, 3, 1, 32, 143),
        (22, 0.25, 2, 2, 3, 249, 509),
        (22, 0.25, 2, 3, 1, 24, 78),
        (22, 0.35, 0, 2, 3, 183, 437),
        (22, 0.35, 0, 3, 1, 6, 9),
        (22, 0.35, 1, 2, 4, 849, 1_631),
        (22, 0.35, 1, 3, 2, 727, 1_327),
        (22, 0.35, 2, 2, 4, 871, 1_467),
        (22, 0.35, 2, 3, 2, 662, 974),
        (24, 0.25, 0, 2, 3, 501, 1_323),
        (24, 0.25, 0, 3, 1, 26, 140),
        (24, 0.25, 1, 2, 3, 213, 401),
        (24, 0.25, 1, 3, 1, 18, 69),
        (24, 0.25, 2, 2, 2, 41, 67),
        (24, 0.25, 2, 3, 1, 135, 315),
        (24, 0.35, 0, 2, 4, 1_047, 1_911),
        (24, 0.35, 0, 3, 2, 677, 1_340),
        (24, 0.35, 1, 2, 4, 791, 1_303),
        (24, 0.35, 1, 3, 2, 515, 968),
        (24, 0.35, 2, 2, 4, 1_819, 3_387),
        (24, 0.35, 2, 3, 2, 2_311, 3_409),
    )

    def test_exact_mix_least_budgets(self):
        for n, p, i, k, least_d, least, plain in self.EXACT_MIX:
            g = gnp(n, p, f"defcolor-bench-pool/defect{i}/{n}/{p}")
            assert min_defect(g, k, max_vertices=24) == least_d, (n, p, i, k)
            if not least_d:
                continue
            d = least_d - 1
            assert not decide_defective(g, k, d, max_vertices=24, node_budget=least).feasible
            with pytest.raises(BudgetExceededError) as info:
                decide_defective(g, k, d, max_vertices=24, node_budget=least - 1)
            assert info.value.size == least
            assert backtrack_coloring_oracle(g, k, d, forward=False) == (None, plain)
            assert least <= plain
        assert len(self.EXACT_MIX) == 60
        assert sum(row[5] for row in self.EXACT_MIX) == 15_539

    def test_size_limit_names_the_caller(self):
        g = cycle_graph(17)
        with pytest.raises(SizeLimitError, match="^decide_defective limited to 16 vertices"):
            decide_defective(g, 2, 0)
        with pytest.raises(SizeLimitError, match="^min_defect limited to 16 vertices"):
            min_defect(g, 2)
        assert min_defect(g, 2, max_vertices=17) == 1


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
