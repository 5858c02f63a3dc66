from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcolor.depth import (
    _bits,
    _DepthSolver,
    _mask,
    connected_tree_depth,
    verify_depth_witness,
)
from defcolor.errors import BudgetExceededError, SizeLimitError
from defcolor.graphs import (
    Graph,
    complete_graph,
    ct,
    disjoint_copies,
    empty_graph,
)
from helpers import (
    all_graphs,
    clustered_bounds,
    connected_graphs_st,
    ctd_oracle,
    degeneracy_oracle,
    depth_oracle,
    graphs_st,
    omega_delta_excluded,
    path_graph,
    star_graph,
    tree_depth,
)


def seeded_gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


class TestConnectedTreeDepth:
    def test_cliques_force_chains(self):
        for n in range(1, 7):
            assert connected_tree_depth(complete_graph(n)).ctd == n

    def test_ct_family(self):
        for h in range(1, 4):
            for k in (1, 2):
                assert connected_tree_depth(ct(h, k)).ctd == h

    def test_two_isolated_vertices(self):
        # frozen from the rooted-tree embedding oracle: a single tree needs
        # height 2 for two vertices, while the forest value is 1
        assert ctd_oracle(empty_graph(2)) == 2
        report = connected_tree_depth(empty_graph(2))
        assert report.ctd == 2 and report.td == 1

    def test_two_edges_pay_for_ties(self):
        g = disjoint_copies(2, complete_graph(2))
        assert ctd_oracle(g) == 3
        report = connected_tree_depth(g)
        assert report.ctd == 3 and report.td == 2

    def test_paths_are_logarithmic(self):
        for n in (1, 2, 3, 4, 7, 8, 15):
            assert connected_tree_depth(path_graph(n)).ctd == n.bit_length()

    def test_empty_graph(self):
        report = connected_tree_depth(empty_graph(0))
        assert report.td == report.ctd == 0

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            connected_tree_depth(empty_graph(25))

    @given(graphs_st(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_witness_roundtrip(self, g):
        report = connected_tree_depth(g)
        assert verify_depth_witness(g, report)
        assert report.ctd - 1 <= report.td <= report.ctd

    @given(connected_graphs_st(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_oracle_agreement_connected(self, g):
        assert connected_tree_depth(g).ctd == ctd_oracle(g)

    @given(graphs_st(min_n=1, max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_oracle_agreement_any(self, g):
        assert connected_tree_depth(g).ctd == ctd_oracle(g)

    @given(connected_graphs_st(min_n=2, max_n=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_under_deletion_and_contraction(self, g, data):
        base = connected_tree_depth(g).ctd
        v = data.draw(st.integers(0, g.n - 1))
        deleted, _ = g.subgraph([u for u in range(g.n) if u != v])
        assert connected_tree_depth(deleted).ctd <= base
        edges = g.edges()
        if edges:
            a, b = data.draw(st.sampled_from(edges))
            # contract ab: b's other edges move to a, then b is deleted
            moved = Graph.from_edges(g.n, [
                (a if u == b else u, a if v == b else v)
                for u, v in edges if (u, v) != (a, b)
            ])
            contracted, _ = moved.subgraph([u for u in range(g.n) if u != b])
            assert connected_tree_depth(contracted).ctd <= base


class TestRecursionShape:
    def test_forest_recursion_on_small_connected(self):
        # for connected g, ctd = 1 + min over v of the forest value of g - v
        for g in all_graphs(5, connected_only=True):
            if g.n < 2:
                continue
            solver = _DepthSolver(g)
            full = frozenset(range(g.n))
            got = solver.exact_ctd(_mask(full))
            # g - v has g.n - 1 vertices, so g.n bounds its forest value
            best = min(1 + solver.forest(_mask(full - {v}), g.n) for v in range(g.n))
            assert got == best == ctd_oracle(g)


class TestAgainstRecurrenceOracle:
    def test_oracle_matches_embedding_oracle(self):
        for n in range(6):
            for g in all_graphs(n):
                assert depth_oracle(g)[1] == ctd_oracle(g)

    def test_seeded_gnp(self):
        rng = random.Random(3)
        for n in range(7, 13):
            for p in (0.2, 0.35, 0.6):
                for _ in range(3):
                    g = seeded_gnp(rng, n, p)
                    report = connected_tree_depth(g)
                    got = (report.td, report.ctd, list(report.witness.parent))
                    assert got == depth_oracle(g), (n, p, g.edges())

    def test_benchmark_hosts(self):
        # the exact-mix depth hosts G(13, 0.25) and G(14, 0.25)
        for n, value in ((13, 6), (14, 8)):
            rng = random.Random(f"defcolor-bench-pool/depth/{n}/0.25")
            g = seeded_gnp(rng, n, 0.25)
            report = connected_tree_depth(g)
            got = (report.td, report.ctd, list(report.witness.parent))
            assert got == depth_oracle(g)
            assert report.td == report.ctd == value


class TestDegeneracyBound:
    def test_every_subset_of_small_graphs(self):
        for n in range(7):
            for g in all_graphs(n):
                solver = _DepthSolver(g)
                for s in range(1, 1 << n):
                    vs = [v for v in range(n) if s >> v & 1]
                    assert solver.degeneracy_bound(s) == degeneracy_oracle(g, vs) + 1

    def test_seeded_gnp(self):
        rng = random.Random(5)
        for n in range(7, 15):
            for p in (0.15, 0.3, 0.5, 0.8):
                g = seeded_gnp(rng, n, p)
                solver = _DepthSolver(g)
                full = (1 << n) - 1
                for s in [full] + [rng.randrange(1, full + 1) for _ in range(20)]:
                    vs = [v for v in range(n) if s >> v & 1]
                    assert solver.degeneracy_bound(s) == degeneracy_oracle(g, vs) + 1


class TestBoundedForest:
    def test_rising_then_falling_bounds(self):
        # one solver keeps its tables across calls, so later calls hit
        # values and bounds that earlier calls stored
        rng = random.Random(11)
        for n in (6, 8, 9):
            for p in (0.25, 0.5):
                g = seeded_gnp(rng, n, p)
                solver = _DepthSolver(g)
                masks = [(1 << n) - 1] + [rng.randrange(1, 1 << n) for _ in range(8)]
                truth = {s: depth_oracle(g.subgraph(_bits(s))[0])[0] for s in masks}
                bounds = list(range(1, n + 2))
                for ub in bounds + bounds[::-1]:
                    for s in masks:
                        got = solver.forest(s, ub)
                        if truth[s] < ub:
                            assert got == truth[s], (g.edges(), s, ub)
                        else:
                            assert got >= ub, (g.edges(), s, ub)


class TestNodeBudget:
    def test_budget_stops_the_search(self):
        g = ct(3, 3)
        full = connected_tree_depth(g)
        assert full.expanded >= 2
        with pytest.raises(BudgetExceededError):
            connected_tree_depth(g, node_budget=full.expanded - 1)
        assert connected_tree_depth(g, node_budget=full.expanded) == full


class TestParameterTranslations:
    def test_clique_pattern(self):
        assert omega_delta_excluded(complete_graph(4)) == 3

    def test_ct_pattern(self):
        assert omega_delta_excluded(ct(3, 2)) == 2

    def test_single_vertex_pattern(self):
        assert omega_delta_excluded(complete_graph(1)) == 0

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            omega_delta_excluded(empty_graph(0))

    def test_clustered_bounds_table(self):
        cases = {
            1: (0, 0, 0),
            2: (1, 3, 2),
            3: (2, 6, 4),
        }
        samples = {
            1: complete_graph(1),
            2: star_graph(3),
            3: complete_graph(3),
        }
        for td, (lower, general, conditional) in cases.items():
            got = clustered_bounds(samples[td])
            assert connected_tree_depth(samples[td]).ctd == td
            assert (got.lower, got.general, got.conditional_planar) == (
                lower,
                general,
                conditional,
            )

    def test_tree_depth_shortcut(self):
        assert tree_depth(disjoint_copies(3, complete_graph(3))) == 3
