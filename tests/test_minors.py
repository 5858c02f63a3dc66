from __future__ import annotations

import gc
import random
import time

import pytest
from hypothesis import given, settings

from defcolor import minors
from defcolor.check import MinorModel, verify_model
from defcolor.errors import BudgetExceededError, SizeLimitError
from defcolor.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    ct,
    cycle_graph,
    empty_graph,
)
from defcolor.minors import _connected_classes, _kernel, _series_reduced, has_minor
from helpers import (
    EXACT_MIX_G12,
    EXACT_MIX_G12_DENSE,
    EXACT_MIX_G14,
    EXACT_MIX_G14_DENSE,
    all_graphs,
    connected_masks_oracle,
    graphs_st,
    minor_dfs_oracle,
    minor_oracle,
    path_graph,
    star_graph,
)


class TestVerifyModel:
    def test_cycle_contracts_to_triangle(self):
        from defcolor.graphs import cycle_graph

        host = cycle_graph(4)
        model = MinorModel({0: frozenset({0, 1}), 1: frozenset({2}), 2: frozenset({3})})
        ok, violation = verify_model(host, complete_graph(3), model)
        assert ok and violation is None

    def test_overlap_reports_disjointness(self):
        host = complete_graph(4)
        model = MinorModel({0: frozenset({0, 1}), 1: frozenset({1}), 2: frozenset({2})})
        ok, violation = verify_model(host, complete_graph(3), model)
        assert not ok and violation.clause == "disjointness"

    def test_disconnected_branch_set(self):
        host = path_graph(5)
        model = MinorModel({0: frozenset({0, 4}), 1: frozenset({1})})
        ok, violation = verify_model(host, complete_graph(2), model)
        assert not ok and violation.clause == "connectivity"

    def test_missing_edge_coverage(self):
        host = empty_graph(2)
        model = MinorModel({0: frozenset({0}), 1: frozenset({1})})
        ok, violation = verify_model(host, complete_graph(2), model)
        assert not ok and violation.clause == "edge-coverage"

    def test_id_out_of_range(self):
        with pytest.raises(ValueError):
            verify_model(
                complete_graph(2),
                complete_graph(1),
                MinorModel({0: frozenset({7})}),
            )

    @given(graphs_st(min_n=1, max_n=7), graphs_st(min_n=1, max_n=4))
    @settings(max_examples=60)
    def test_found_models_verify(self, host, pattern):
        model = has_minor(host, pattern)
        if model is not None:
            ok, violation = verify_model(host, pattern, model)
            assert ok, violation


class TestHasMinor:
    def test_bipartite_contains_clique(self):
        for t in (2, 3):
            model = has_minor(complete_bipartite(t, t), complete_graph(t + 1))
            assert model is not None

    def test_trees_have_no_triangle(self):
        assert has_minor(path_graph(7), complete_graph(3)) is None

    def test_identity(self):
        g = ct(3, 2)
        model = has_minor(g, g)
        assert model is not None
        assert all(model.branch_sets[v] == frozenset({v}) for v in range(g.n))

    def test_empty_pattern(self):
        assert has_minor(path_graph(3), empty_graph(0)) == MinorModel({})

    def test_edgeless_pattern_count(self):
        assert has_minor(path_graph(3), empty_graph(3)) is not None
        assert has_minor(path_graph(3), empty_graph(4)) is None

    def test_star_in_clique(self):
        assert has_minor(complete_graph(5), star_graph(4)) is not None

    def test_size_limit(self):
        # past the exhaustive limits a heuristic miss decides nothing: it
        # raises, and None stays a decided absence
        host = cycle_graph(20)
        model = has_minor(host, complete_graph(3))
        assert verify_model(host, complete_graph(3), model) == (True, None)
        with pytest.raises(SizeLimitError, match="absence undecided"):
            has_minor(path_graph(20), complete_graph(3))
        assert has_minor(path_graph(20), complete_graph(21)) is None

    def test_heuristic_mode_positive(self):
        # ct(4,2) has 15 vertices, past the host limit: the heuristic runs
        host = ct(4, 2)
        model = has_minor(host, complete_graph(4))
        assert verify_model(host, complete_graph(4), model) == (True, None)
        assert model.branch_sets == {
            0: frozenset({1, 10}), 1: frozenset({4}), 2: frozenset({0, 3}),
            3: frozenset({9}),
        }

    def test_heuristic_honours_the_budget(self):
        # each vertex a path search takes off its frontier is one node, over
        # all restarts, so a small budget stops the search at once
        host = path_graph(10_000)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            has_minor(host, complete_graph(3), node_budget=10)
        assert time.perf_counter() - start < 0.05
        assert exc.value.size == 11

    def test_reflexivity_small(self):
        for g in all_graphs(4):
            assert has_minor(g, g) is not None

    @given(graphs_st(min_n=1, max_n=7))
    @settings(max_examples=40)
    def test_subgraph_monotone(self, host):
        edges = host.edges()
        if not edges:
            return
        sub = Graph.from_edges(host.n, edges[: max(1, len(edges) // 2)])
        assert has_minor(host, sub) is not None


    def test_exhaustive_search_leaves_no_cyclic_garbage(self):
        # the candidate masks must be freed on return, not held by a
        # reference cycle until the next full collection
        gc.collect()
        gc.disable()
        try:
            assert has_minor(ct(3, 2), complete_graph(3)) is not None
            assert has_minor(ct(3, 2), complete_graph(4)) is None
            assert gc.collect() == 0
        finally:
            gc.enable()


def _cube3() -> Graph:
    return Graph.from_edges(
        8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1]
    )


class TestConnectedClasses:
    def test_seeded_graphs_match_enumeration(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randint(0, 10)
            p = rng.uniform(0.1, 0.8)
            g = Graph.from_edges(
                n,
                [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
            )
            adj = [sum(1 << u for u in s) for s in g.adj]
            nbhd = {}
            classes = list(_connected_classes(adj, nbhd))
            # one class per size 1, 2, ...; only the empty graph has an
            # empty one
            for size, masks in enumerate(classes, 1):
                assert masks or n == 0
                assert all(m.bit_count() == size for m in masks)
            lattice = [m for masks in classes for m in masks]
            assert lattice == connected_masks_oracle(g)
            assert sorted(nbhd) == sorted(lattice)
            for mask, near in nbhd.items():
                assert near == _union(adj, mask)

    def test_early_answer_grows_only_the_singletons(self, monkeypatch):
        drawn = []

        def counted(adj, nbhd):
            for masks in _connected_classes(adj, nbhd):
                drawn.append(len(masks))
                yield masks

        monkeypatch.setattr(minors, "_connected_classes", counted)
        assert has_minor(EXACT_MIX_G14, cycle_graph(6)) is not None
        assert drawn == [12]  # the kernel's singletons
        drawn.clear()
        assert has_minor(EXACT_MIX_G14, complete_graph(4), node_budget=40_000)
        assert len(drawn) > 1


def _union(adj: list[int], mask: int) -> int:
    out = 0
    for v, a in enumerate(adj):
        if mask >> v & 1:
            out |= a
    return out


class TestNodeBudget:
    def test_small_budget_raises(self):
        # the least budget under which each search answers; one node less
        # stops it.  The 3-cube has no vertex of degree 2, so the K5 search
        # must exhaust.  Its size bound at the root is 8 // 5 = 1, and no
        # singleton has the four free neighbours the demand cut asks for
        for host, pattern, least in (
            (_cube3(), complete_graph(5), 8), (ct(3, 2), ct(2, 2), 3),
        ):
            with pytest.raises(BudgetExceededError) as exc:
                has_minor(host, pattern, node_budget=least - 1)
            assert exc.value.size == least
        assert has_minor(_cube3(), complete_graph(5), node_budget=8) is None
        assert has_minor(ct(3, 2), ct(2, 2), node_budget=3) is not None
        # ct(3, 2) series-reduces to the empty graph: K4 is absent in 0 nodes
        assert has_minor(ct(3, 2), complete_graph(4), node_budget=10) is None

    def test_earlier_twin_sets_bound_later_ones(self):
        # the wheel W4 places its hub, then the rim 0, 1, 2, 3, whose twin
        # pairs {0, 2} and {1, 3} interleave.  So the size bound of the set
        # at position 2 (rim vertex 1) counts |B_1| for position 3: with 1
        # in its place this search needs 294 nodes, and 437 with only the
        # test that each later position keeps a free vertex
        wheel = Graph.from_edges(
            5, [(0, 1), (1, 2), (2, 3), (3, 0)] + [(4, v) for v in range(4)]
        )
        host = Graph.from_edges(7, [
            (0, 1), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4), (1, 6),
            (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6),
        ])
        with pytest.raises(BudgetExceededError) as exc:
            has_minor(host, wheel, node_budget=273)
        assert exc.value.size == 274
        got = has_minor(host, wheel, node_budget=274)
        assert got is not None
        assert got.branch_sets == {
            0: frozenset({1}), 1: frozenset({2}), 2: frozenset({5}),
            3: frozenset({3}), 4: frozenset({4}),
        }


class TestAgainstDfsOracle:
    def test_seeded_pairs_same_model_within_oracle_nodes(self):
        rng = random.Random(4)

        def gnp(n, p):
            return Graph.from_edges(
                n,
                [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
            )

        outcomes = set()
        for _ in range(120):
            n = rng.randint(3, 9)
            host = gnp(n, rng.uniform(0.2, 0.7))
            pattern = gnp(rng.randint(2, min(5, n)), rng.uniform(0.3, 0.9))
            # these two inputs are answered before any search
            if not pattern.edge_count() or host == pattern:
                continue
            want, nodes = minor_dfs_oracle(host, pattern)
            # the search never visits more nodes than the unpruned one
            got = has_minor(host, pattern, node_budget=nodes)
            assert (None if got is None else got.branch_sets) == want
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_twin_rich_patterns_same_model_within_oracle_nodes(self):
        # every pattern here has twins, whose swapped branch sets the search
        # skips; the first model must still be the unpruned search's
        patterns = {
            "K4": complete_graph(4),
            "K5": complete_graph(5),
            "K2,3": complete_bipartite(2, 3),
            "K1,3": star_graph(3),
            "C4": cycle_graph(4),
            "K4-e": Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            "ct(2,2)": ct(2, 2),
            "ct(2,3)": ct(2, 3),
        }
        rng = random.Random(5)
        hosts = []
        for _ in range(24):
            n = rng.randint(5, 10)
            p = rng.uniform(0.25, 0.7)
            hosts.append(Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            ))
        # sparse subdivided hosts, whose models need branch sets of three or
        # more vertices, so the size bound cuts where it matters
        rng = random.Random(13)
        for _ in range(12):
            core_n = rng.randint(4, 6)
            hosts.append(_subdivided(
                rng, core_n, rng.uniform(0.6, 1.0), rng.randint(core_n + 2, 8)
            ))
        outcomes = set()
        large = 0
        for host in hosts:
            for name, pattern in patterns.items():
                if pattern.n > host.n or host == pattern:
                    continue
                want, nodes = minor_dfs_oracle(host, pattern)
                got = has_minor(host, pattern, node_budget=nodes)
                assert (None if got is None else got.branch_sets) == want, (host.edges(), name)
                outcomes.add((name, want is None))
                large += want is not None and max(map(len, want.values())) >= 3
        assert outcomes == {(name, absent) for name in patterns for absent in (True, False)}
        assert large >= 10, large


def _with_twigs(rng: random.Random, core_n: int, p: float, twigs: int, islets: int) -> Graph:
    """A G(core_n, p) core with ``twigs`` pendant vertices grown onto it (each
    hangs from the core or from an earlier twig) and ``islets`` isolated
    vertices, relabelled at random so the removable vertices interleave."""
    n = core_n + twigs + islets
    edges = [
        (u, v) for u in range(core_n) for v in range(u + 1, core_n) if rng.random() < p
    ]
    edges += [(rng.randrange(core_n + t), core_n + t) for t in range(twigs)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


class TestKernel:
    # vertices 9 and 13 of the exact-mix host are twigs, so K4 and K2,3 are
    # searched on a 12-vertex kernel
    G14 = EXACT_MIX_G14

    def test_twigs_and_islets_same_model_within_oracle_nodes(self):
        rng = random.Random(8)
        peeled = {1: 0, 2: 0}
        for _ in range(90):
            host = _with_twigs(
                rng, rng.randint(3, 6), rng.uniform(0.3, 0.8),
                rng.randint(0, 3), rng.randint(0, 1),
            )
            k = rng.randint(3, min(5, host.n))
            pattern = Graph.from_edges(k, [
                (u, v) for u in range(k) for v in range(u + 1, k)
                if rng.random() < rng.uniform(0.4, 0.9)
            ])
            if not pattern.edge_count() or host == pattern:
                continue
            least = min(pattern.degree(v) for v in range(k))
            if least and len(_kernel(host, pattern)) < host.n:
                peeled[min(least, 2)] += 1
            want, nodes = minor_dfs_oracle(host, pattern)
            got = has_minor(host, pattern, node_budget=nodes)
            assert (None if got is None else got.branch_sets) == want
        # both rules removed vertices in many of the pairs
        assert min(peeled.values()) >= 10, peeled

    def test_min_degree_two_patterns_match_partition_oracle(self):
        rng = random.Random(9)
        patterns = [
            complete_graph(3), complete_graph(4), cycle_graph(4), cycle_graph(5),
            complete_bipartite(2, 3), ct(2, 3),
        ]
        outcomes = set()
        for _ in range(40):
            host = _with_twigs(
                rng, rng.randint(3, 5), rng.uniform(0.4, 0.9),
                rng.randint(1, 2), rng.randint(0, 1),
            )
            for pattern in patterns:
                if pattern.n > host.n:
                    continue
                got = has_minor(host, pattern)
                assert (got is not None) == minor_oracle(host, pattern)
                outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_kernel_rules(self):
        # a triangle with a two-vertex tail at 2 and an isolated vertex 5
        host = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert _kernel(host, star_graph(2)) == [0, 1, 2, 3, 4]
        assert _kernel(host, complete_graph(3)) == [0, 1, 2]
        assert _kernel(host, Graph.from_edges(3, [(0, 1)])) == list(range(6))
        assert _kernel(path_graph(5), cycle_graph(4)) == []

    def test_exact_mix_host_answers_within_bench_budget(self):
        assert _kernel(self.G14, complete_graph(4)) == [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12,
        ]
        want = {
            "K4": (complete_graph(4), [[4], [11], [5, 12], [1, 2, 7]]),
            "K2,3": (complete_bipartite(2, 3), [[4], [5], [11], [12], [2, 7, 10]]),
        }
        for pattern, sets in want.values():
            model = has_minor(self.G14, pattern, node_budget=40_000)
            assert model is not None
            assert verify_model(self.G14, pattern, model) == (True, None)
            assert model.branch_sets == {pv: frozenset(s) for pv, s in enumerate(sets)}
        # the series-reduced kernel shows K5 absent
        assert has_minor(self.G14, complete_graph(5), node_budget=40_000) is None

    # the exact-mix minor queries: (host, least budgets in the order of
    # PATTERNS, whether K5 is a minor)
    PATTERNS = (
        complete_graph(4), complete_graph(5), cycle_graph(6),
        complete_bipartite(2, 3), ct(2, 2), ct(2, 3), ct(3, 1),
    )
    LEAST = (
        (EXACT_MIX_G12, (27, 0, 18, 16, 10, 11, 24), False),
        (EXACT_MIX_G12_DENSE, (9, 24, 20, 12, 4, 5, 6), True),
        (EXACT_MIX_G14, (1_072, 17, 35, 3_692, 12, 10, 23), False),
        (EXACT_MIX_G14_DENSE, (10, 53, 12, 53, 6, 10, 6), True),
    )

    def _answers_at_least(self, host, pattern, least):
        # answers under ``least`` nodes; one node less stops the search
        if least:
            with pytest.raises(BudgetExceededError) as exc:
                has_minor(host, pattern, node_budget=least - 1)
            assert exc.value.size == least
        got = has_minor(host, pattern, node_budget=least)
        return None if got is None else got.branch_sets

    def test_exact_mix_host_least_budgets(self):
        # the least budget under which each search answers.  The candidate
        # sets are grown lazily, but nodes are counted over the complete list
        # from each twin bound up to each size limit, so these counts are
        # fixed.
        k5 = self.PATTERNS[1]
        for host, budgets, has_k5 in self.LEAST:
            for pattern, least in zip(self.PATTERNS, budgets):
                got = self._answers_at_least(host, pattern, least)
                assert (got is not None) == (has_k5 or pattern is not k5)

    def test_least_budgets_do_not_depend_on_lazy_growth(self, monkeypatch):
        # with every candidate set grown up front, each pool holds the sets
        # past its node's size limit too: the counts and first models stay
        want = [
            [has_minor(host, pattern) for pattern in self.PATTERNS]
            for host, _, _ in self.LEAST
        ]

        def grown_up_front(adj, nbhd):
            yield [m for masks in _connected_classes(adj, nbhd) for m in masks]

        monkeypatch.setattr(minors, "_connected_classes", grown_up_front)
        for (host, budgets, _), models in zip(self.LEAST, want):
            for pattern, least, model in zip(self.PATTERNS, budgets, models):
                got = self._answers_at_least(host, pattern, least)
                assert got == (None if model is None else model.branch_sets)


def _subdivided(rng: random.Random, core_n: int, p: float, n: int) -> Graph:
    """A G(core_n, p) core whose edges are subdivided at random (an edge made
    by a subdivision may be subdivided again) until it has ``n`` vertices or
    no edge, relabelled at random so the degree-2 vertices interleave."""
    edges = [
        (u, v) for u in range(core_n) for v in range(u + 1, core_n) if rng.random() < p
    ]
    size = core_n
    while size < n and edges:
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, size), (size, v)]
        size += 1
    perm = list(range(size))
    rng.shuffle(perm)
    return Graph.from_edges(size, [(perm[u], perm[v]) for u, v in edges])


class TestSeriesRule:
    def test_subdivided_hosts_match_both_oracles(self):
        rng = random.Random(12)
        outcomes = set()
        reduced = 0
        for _ in range(150):
            core_n = rng.randint(4, 7)
            # n <= 8: minor_oracle enumerates (pattern.n + 1) ** n assignments
            host = _subdivided(
                rng, core_n, rng.uniform(0.5, 1.0), rng.randint(core_n + 1, 8)
            )
            for pattern in (complete_graph(4), complete_graph(5)):
                if pattern.n > host.n:
                    continue
                kernel = host.subgraph(_kernel(host, pattern))[0]
                reduced += _series_reduced(kernel).n < kernel.n
                got = has_minor(host, pattern)
                assert (got is not None) == minor_oracle(host, pattern)
                if got is not None:
                    want, nodes = minor_dfs_oracle(host, pattern)
                    model = has_minor(host, pattern, node_budget=nodes)
                    assert model.branch_sets == want
                outcomes.add((pattern.n, got is None))
        assert outcomes == {(4, True), (4, False), (5, True), (5, False)}
        # the reduction shrank the kernel in many of the pairs
        assert reduced >= 100, reduced


class TestCtMinor:
    def test_self(self):
        assert has_minor(ct(3, 2), ct(3, 2)) is not None

    def test_path_has_no_deep_closure(self):
        assert has_minor(path_graph(10), ct(3, 2)) is None

    def test_k5_contains_star(self):
        assert has_minor(complete_graph(5), ct(2, 4)) is not None


class TestOracleAgreement:
    @given(graphs_st(min_n=1, max_n=6), graphs_st(min_n=1, max_n=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_partition_enumeration(self, host, pattern):
        got = has_minor(host, pattern)
        assert (got is not None) == minor_oracle(host, pattern)

    def test_transitivity_samples(self):
        chains = [
            (complete_graph(3), ct(2, 2), complete_bipartite(2, 3)),
            (path_graph(3), path_graph(5), ct(3, 2)),
        ]
        for a, b, c in chains:
            ab = has_minor(b, a)
            bc = has_minor(c, b)
            if ab is not None and bc is not None:
                assert has_minor(c, a) is not None

    @given(
        graphs_st(min_n=1, max_n=3),
        graphs_st(min_n=1, max_n=5),
        graphs_st(min_n=1, max_n=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_transitivity_random_triples(self, a, b, c):
        if has_minor(b, a) is not None and has_minor(c, b) is not None:
            assert has_minor(c, a) is not None
