from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings

from defcolor.errors import BudgetExceededError, SizeLimitError
from defcolor.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    ct,
    empty_graph,
    path_graph,
    star_graph,
)
from defcolor.minors import MinorModel, has_ct_minor, has_minor, verify_model
from helpers import all_graphs, graphs_st, minor_dfs_oracle, minor_oracle


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
        from defcolor.graphs import cycle_graph

        with pytest.raises(SizeLimitError):
            has_minor(cycle_graph(20), complete_graph(3))

    def test_heuristic_mode_positive(self):
        host = complete_bipartite(4, 4)
        model = has_minor(host, complete_graph(5), mode="heuristic", seed=0)
        if model is not None:
            ok, _ = verify_model(host, complete_graph(5), model)
            assert ok

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


class TestNodeBudget:
    def test_small_budget_raises(self):
        # ct(3, 2) has tree-depth 3, so the K4 search must exhaust
        for pattern, budget in ((complete_graph(4), 10), (ct(2, 2), 1)):
            with pytest.raises(BudgetExceededError) as exc:
                has_minor(ct(3, 2), pattern, node_budget=budget)
            assert exc.value.size == budget + 1
        assert has_minor(ct(3, 2), complete_graph(4)) is None
        assert has_minor(ct(3, 2), ct(2, 2)) is not None


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


class TestCtMinor:
    def test_self(self):
        assert has_ct_minor(ct(3, 2), 3, 2) is not None

    def test_path_has_no_deep_closure(self):
        assert has_ct_minor(path_graph(10), 3, 2) is None

    def test_k5_contains_star(self):
        assert has_ct_minor(complete_graph(5), 2, 4) is not None


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
