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
        # the 3-cube has no vertex of degree 2, so the K5 search must exhaust
        for host, pattern, budget in (
            (_cube3(), complete_graph(5), 10), (ct(3, 2), ct(2, 2), 1),
        ):
            with pytest.raises(BudgetExceededError) as exc:
                has_minor(host, pattern, node_budget=budget)
            assert exc.value.size == budget + 1
        assert has_minor(_cube3(), complete_graph(5), node_budget=100_000) is None
        assert has_minor(ct(3, 2), ct(2, 2)) is not None
        # ct(3, 2) series-reduces to the empty graph: K4 is absent in 0 nodes
        assert has_minor(ct(3, 2), complete_graph(4), node_budget=10) is None


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
        outcomes = set()
        for _ in range(24):
            n = rng.randint(5, 10)
            p = rng.uniform(0.25, 0.7)
            host = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            for name, pattern in patterns.items():
                if pattern.n > host.n or host == pattern:
                    continue
                want, nodes = minor_dfs_oracle(host, pattern)
                got = has_minor(host, pattern, node_budget=nodes)
                assert (None if got is None else got.branch_sets) == want, (host.edges(), name)
                outcomes.add((name, want is None))
        assert outcomes == {(name, absent) for name in patterns for absent in (True, False)}


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

    def test_exact_mix_host_least_budgets(self):
        # the least budget under which each search answers; one node less
        # stops it.  The candidate sets are grown lazily, but nodes are
        # counted as over the complete list from each twin bound, so these
        # counts are fixed.
        k5 = complete_graph(5)
        patterns = (
            complete_graph(4), k5, cycle_graph(6),
            complete_bipartite(2, 3), ct(2, 2), ct(2, 3), ct(3, 1),
        )
        # (host, least budgets in the order of patterns, whether K5 is a minor)
        table = (
            (EXACT_MIX_G12, (27, 0, 18, 16, 10, 11, 24), False),
            (EXACT_MIX_G12_DENSE, (9, 24, 20, 12, 4, 5, 6), True),
            (EXACT_MIX_G14, (2_620, 270, 35, 7_495, 12, 10, 23), False),
            (EXACT_MIX_G14_DENSE, (10, 53, 12, 53, 6, 10, 6), True),
        )
        for host, budgets, has_k5 in table:
            for pattern, least in zip(patterns, budgets):
                got = has_minor(host, pattern, node_budget=least)
                assert (got is not None) == (has_k5 or pattern != k5)
                if least:
                    with pytest.raises(BudgetExceededError) as exc:
                        has_minor(host, pattern, node_budget=least - 1)
                    assert exc.value.size == least


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
