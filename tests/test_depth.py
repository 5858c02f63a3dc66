from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcolor.check import verify_depth_witness
from defcolor.depth import _DepthSolver, connected_tree_depth
from defcolor.errors import BudgetExceededError, SizeLimitError
from defcolor.graphs import (
    Graph,
    RootedTree,
    _bits,
    _mask,
    complete_graph,
    ct,
    disjoint_copies,
    empty_graph,
)
from helpers import (
    all_graphs,
    clustered_bounds,
    connected_graphs_st,
    connected_masks_oracle,
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

    def test_witness_check_rejects_each_defect(self):
        g = path_graph(5)
        report = connected_tree_depth(g)
        assert verify_depth_witness(g, report)
        # a star rooted at 2 covers no edge among 0, 1 or among 3, 4
        star = RootedTree.from_parents((2, 2, None, 2, 2))
        assert not verify_depth_witness(g, replace(report, witness=star, ctd=star.height))
        for ctd in (report.ctd - 1, report.ctd + 1):
            assert not verify_depth_witness(g, replace(report, ctd=ctd))
        tree = report.witness
        grown = RootedTree.from_parents(tree.parent + (tree.root,))
        assert not verify_depth_witness(g, replace(report, witness=grown, ctd=grown.height))
        shrunk = connected_tree_depth(path_graph(4))
        assert not verify_depth_witness(g, replace(shrunk, embedding=tuple(range(g.n))))
        mirrored = replace(report, embedding=tuple(reversed(range(g.n))))
        assert not verify_depth_witness(g, mirrored)

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


class TestRootDominance:
    def test_skipped_roots_have_kept_dominators(self):
        # u dominates v when N_S(v) lies within N_S[u]; the search keeps v
        # unless a dominator comes before it (larger degree in S, or the
        # same degree and a smaller id), and every skipped root must have a
        # kept dominator whose deletion leaves a tree-depth no larger
        rng = random.Random(17)
        for n in range(3, 9):
            for p in (0.3, 0.5, 0.7):
                g = seeded_gnp(rng, n, p)
                solver = _DepthSolver(g)
                td = {}

                def td_without(vs, v):
                    key = vs - {v}
                    if key not in td:
                        td[key] = depth_oracle(g.subgraph(sorted(key))[0])[0]
                    return td[key]

                for s in connected_masks_oracle(g):
                    vs = frozenset(_bits(s))
                    nbrs = {v: g.adj[v] & vs for v in vs}
                    rank = {v: (len(nbrs[v]), -v) for v in vs}

                    def dominates(u, v):
                        return u != v and nbrs[v] <= nbrs[u] | {u}

                    kept = list(solver.roots(s))
                    assert kept == sorted(kept, key=rank.get, reverse=True)
                    assert set(kept) == {
                        v for v in vs
                        if not any(dominates(u, v) and rank[u] > rank[v] for u in vs)
                    }, (g.edges(), s)
                    for v in vs - set(kept):
                        assert any(
                            dominates(u, v) and td_without(vs, u) <= td_without(vs, v)
                            for u in kept
                        ), (g.edges(), s, v)


class TestHostsPinned:
    # (host, expanded sets before the dominance rule, sha256 of the JSON list
    # [td, ctd, witness parent]), all recorded before the rule: the exact-mix
    # and cli-docs depth hosts and the depth_sweep.py graphs G(12..18, 0.25)
    PINS = (
        ("ct(4,2)", 7, "3c2e7ae18cdf60d0ded480f12e58656b752dafe460415dd5a82f76ac13070396"),
        ("ct(3,3)", 4, "8608e7907601b57eec887af52044ded91ec3cf3dfd0c4f153d52d32f016a6e1d"),
        ("ct(3,2)", 3, "d5af57b161c8526d2df558ac41301ed61edd123afdc3bffba0e903f626015855"),
        ("depth/12", 25, "9f6dee5f68af6aa1481726ca89d9fc6fc3666515a977d96af81f4489faa94934"),
        ("depth/13", 106, "f12f285b40964f913cd5bea2d7cf6336c16e796694a40c8e87fd1ce4b8b0608a"),
        ("depth/14", 1230, "7accab099679452b62f140ec76098f6989e16f5987a0f514e1277afa772a883b"),
        ("cli-depth/9", 14, "5069f8b34151ef241da735e1209a2b83ae3d6ebfffaa97fe22a1eba3a40e23fe"),
        ("cli-depth/10", 7, "aefdb3b4d9509b3b9dfa7d0d4f35f3dbbff9eea907f5a660480942938fc34281"),
        ("cli-depth/11", 2, "802be2c4e007a080afa6b779f0b3c83d2eb79293fc6344a94998c415b2404f2a"),
        ("cli-depth/12", 112, "7e8be3ea91893056d894548480abb3cbe988a3bbfa0283c48da353c6bb45bc14"),
        ("sweep/12", 38, "17f38a26456a38190a53d7a00b81807ad14e79bd2270150e653b4c6c6831ab6c"),
        ("sweep/13", 14, "b19fac9bfc496f81241e7a60de9b27f20f16beaf8d0abb8542e35a6a6cf65e09"),
        ("sweep/14", 110, "58aecda079ccea337d36231312e8ccbb9ee77f833fb80a77518d38ea50edd940"),
        ("sweep/15", 559, "bbb8b6a9e76705e67eb2fe8780e0dda9a449ae4052daa6358acd8cf183f2844c"),
        ("sweep/16", 513, "bdfb78ec1a982c102f350b42b889b958c2bfc5e0487ee15dff47d578dd024c85"),
        ("sweep/17", 5341, "c43e613b7cdd219f37c7a6e650ca6ef812a12d299e8945f285e11a4ed4bc04f9"),
        ("sweep/18", 12249, "e8c5ce85346b8258e1cccd347539b6fd83559fe9da110226c289174dda9f8005"),
    )

    @staticmethod
    def host(name: str) -> Graph:
        if name.startswith("ct("):
            return ct(*map(int, name[3:-1].split(",")))
        tag, n = name.split("/")
        # perfbench draws its hosts from a tagged seed, depth_sweep.py from 1
        seed = 1 if tag == "sweep" else f"defcolor-bench-pool/{tag}/{n}/0.25"
        return seeded_gnp(random.Random(seed), int(n), 0.25)

    @pytest.mark.parametrize("name,expanded,digest", PINS, ids=[p[0] for p in PINS])
    def test_same_answer_no_more_expansions(self, name, expanded, digest):
        report = connected_tree_depth(self.host(name))
        doc = json.dumps([report.td, report.ctd, list(report.witness.parent)])
        assert hashlib.sha256(doc.encode()).hexdigest() == digest
        assert report.expanded <= expanded

    def test_witness_skips_roots_a_failed_root_dominates(self):
        # G(17, 0.25) of depth_sweep.py expands 2,979 sets when the witness
        # phase tries every root; skipping each root that a failed root
        # dominates saves 495 of them and keeps the witness
        name, _, digest = self.PINS[15]
        assert name == "sweep/17"
        report = connected_tree_depth(self.host(name))
        doc = json.dumps([report.td, report.ctd, list(report.witness.parent)])
        assert hashlib.sha256(doc.encode()).hexdigest() == digest
        assert report.expanded <= 2_484


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
