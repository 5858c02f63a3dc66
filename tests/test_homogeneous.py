from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcolor.errors import BucketTooSmallError, HypothesisViolationError
from defcolor.graphs import Graph, ball, complete_graph
from defcolor.scheme import initial_entry, step
from defcolor.scheme.corpus import caterpillar, star_of_balls
from defcolor.scheme.homogeneous import (
    HomogeneousTriple,
    check_homogeneous,
    find_homogeneous,
)
from helpers import (
    find_homogeneous_oracle,
    graphs_st,
    homogeneous_oracle,
    star_graph,
)


def pendant_paths(apex_count: int, paths: int, length: int) -> Graph:
    """Disjoint paths of the given length hanging off a shared apex set;
    only the first path vertex touches the apexes."""
    edges = []
    n = apex_count
    for _ in range(paths):
        for i in range(length):
            v = n
            n += 1
            if i == 0:
                edges += [(a, v) for a in range(apex_count)]
            else:
                edges.append((v - 1, v))
    return Graph.from_edges(n, edges)


class TestFindHomogeneous:
    def test_star_leaves(self):
        g = star_graph(6)
        triple = find_homogeneous(g, t=3, length=1, d=1, r=2)
        assert triple is not None
        assert triple.w_set == frozenset({0})
        assert len(triple.z_set) == 3
        assert triple.z_set == frozenset({1, 2, 3})  # deterministic least leaves

    def test_pendant_paths(self):
        g = pendant_paths(1, 3, 3)
        triple = find_homogeneous(g, t=3, length=3, d=2, r=2)
        assert triple is not None
        assert triple.w_set == frozenset({0})
        balls = check_homogeneous(g, triple, t=3, length=3, d=2, r=2)
        assert set(balls) == triple.z_set

    def test_high_degree_everywhere(self):
        assert find_homogeneous(complete_graph(4), t=1, length=1, d=1, r=3) is None

    def test_boundary_too_large(self):
        # every low-degree vertex sees three apexes but r-1 = 1
        g = pendant_paths(3, 4, 1)
        assert find_homogeneous(g, t=2, length=1, d=3, r=2) is None

    def test_returned_triples_reverify(self):
        g = pendant_paths(2, 5, 2)
        triple = find_homogeneous(g, t=4, length=2, d=4, r=3)
        assert triple is not None
        assert set(check_homogeneous(g, triple, 4, 2, 4, 3)) == triple.z_set

    def test_corpus_triples_reverify(self):
        # the scheme-scale instances of the benchmark: every first triple
        # meets the conditions the steps check
        instances = [star_of_balls(1, m, 5) for m in [*range(20, 60), 400]]
        instances += [star_of_balls(2, m, 3) for m in range(33, 93)]
        instances += [caterpillar(w, s) for w in (1, 2) for s in range(12, 36)]
        for inst in instances:
            g, p = inst.graph, inst.params
            triple = find_homogeneous(g, p.t, p.l0, p.d, p.r)
            assert triple is not None, inst.name
            balls = check_homogeneous(g, triple, p.t, p.l0, p.d, p.r)
            assert set(balls) == triple.z_set, inst.name


def _same_as_oracle(g: Graph, t: int, length: int, d: int, r: int):
    triple = find_homogeneous(g, t, length, d, r)
    got = None if triple is None else (triple.x_set, triple.z_set, triple.w_set)
    assert got == find_homogeneous_oracle(g, t, length, d, r), (g, t, length, d, r)
    return got


def pendant_components(apex_count: int, sizes: list[int]) -> Graph:
    """Paths of the given sizes, each the component of g[X] for
    d = apex_count + 1: the first vertex of every path is joined to the
    apexes 0 .. apex_count - 1 and the last to the vertex apex_count, so the
    W of a vertex depends on which ends its ball reaches."""
    edges = []
    n = apex_count + 1
    for size in sizes:
        edges += [(a, n) for a in range(apex_count)]
        edges += [(v, v + 1) for v in range(n, n + size - 1)]
        edges.append((apex_count, n + size - 1))
        n += size
    return Graph.from_edges(n, edges)


class TestAgainstOracle:
    # one plain BFS per X vertex, groups by least center, greedy packing by
    # BFS distance: the triple find_homogeneous must return

    @given(graphs_st(max_n=12), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, g, t, length, d, r):
        _same_as_oracle(g, t, length, d, r)

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_component_sizes_around_both_thresholds(self, length):
        # components of g[X] with length - 1, length, length + 1,
        # 2 length - 1 and 2 length vertices, alone and mixed
        sizes = sorted({max(1, s) for s in (
            length - 1, length, length + 1, 2 * length - 1, 2 * length
        )})
        found = 0
        for apexes in (1, 2):
            mixes = [[s] * 4 for s in sizes] + [sizes * 2, sizes[::-1] * 3]
            for mix in mixes:
                g = pendant_components(apexes, mix)
                for t in (1, 2, 3, 5):
                    got = _same_as_oracle(g, t, length, apexes + 1, apexes + 2)
                    found += got is not None
        assert found >= 20

    def test_scheme_scale_corpus(self):
        # every search the builds of the benchmark's instances make
        instances = [star_of_balls(1, m, 5) for m in [*range(20, 60), 400]]
        instances += [star_of_balls(2, m, 3) for m in range(33, 93)]
        instances += [caterpillar(w, s) for w in (1, 2) for s in range(12, 36)]
        searches = 0
        for inst in instances:
            p = inst.params
            entry = initial_entry(inst.graph)
            while entry.graph.n > p.n_freeze:
                triple = _same_as_oracle(entry.graph, p.t, p.l0, p.d, p.r)
                assert triple is not None, inst.name
                searches += 1
                try:
                    entry = step(entry, HomogeneousTriple(*triple), p)
                except BucketTooSmallError:
                    break
        assert searches >= 270


class TestCheckHomogeneous:
    def test_rejects_wrong_center_count(self):
        g = star_graph(4)
        triple = HomogeneousTriple(
            frozenset({1, 2, 3, 4}), frozenset({1}), frozenset({0})
        )
        with pytest.raises(HypothesisViolationError, match="ball centers, got 1"):
            check_homogeneous(g, triple, t=2, length=1, d=1, r=2)

    def test_rejects_centers_too_close(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        triple = HomogeneousTriple(
            frozenset({0, 1, 2, 3}), frozenset({0, 1}), frozenset()
        )
        with pytest.raises(HypothesisViolationError, match="within distance 2"):
            check_homogeneous(g, triple, t=2, length=2, d=2, r=2)

    def test_infinite_distance_across_components(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        triple = HomogeneousTriple(
            frozenset({0, 1, 2, 3}), frozenset({0, 2}), frozenset()
        )
        balls = check_homogeneous(g, triple, t=2, length=5, d=2, r=2)
        assert balls == {0: frozenset({0, 1}), 2: frozenset({2, 3})}

    def test_returns_the_balls_in_g_x(self):
        # the ball of 1 stops at 3, which lies outside X
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        triple = HomogeneousTriple(
            frozenset({0, 1, 2, 4}), frozenset({1}), frozenset({3})
        )
        balls = check_homogeneous(g, triple, t=1, length=3, d=2, r=2)
        assert balls == {1: frozenset({0, 1, 2})}


class TestPackingRule:
    def test_seeded_triples_match_bfs_distances(self):
        # random (X, Z, W) on small graphs: W is the outside boundary of the
        # least center's ball, so the triple fails at packing, fails at a
        # later ball's boundary, or passes
        rng = random.Random(11)
        kinds = {"pass": 0, "packing": 0, "boundary": 0}
        for _ in range(600):
            n = rng.randint(3, 14)
            p = rng.choice([0.15, 0.25, 0.4])
            pairs = [(u, v) for v in range(n) for u in range(v)]
            g = Graph.from_edges(n, [e for e in pairs if rng.random() < p])
            d = rng.randint(1, 4)
            xs = [v for v in range(n) if g.degree(v) <= d]
            if not xs:
                continue
            x = frozenset(xs)
            length = rng.randint(1, 3)
            z = frozenset(rng.sample(xs, rng.randint(1, min(4, len(xs)))))
            b = ball(g, [min(z)], length - 1, within=x)
            w = frozenset(u for v in b for u in g.adj[v]) - x
            args = (len(z), length, d, len(w) + 1)
            want = homogeneous_oracle(g, x, z, w, *args)
            if want is None:
                balls = check_homogeneous(g, HomogeneousTriple(x, z, w), *args)
                assert set(balls) == z
                kinds["pass"] += 1
                continue
            with pytest.raises(HypothesisViolationError) as err:
                check_homogeneous(g, HomogeneousTriple(x, z, w), *args)
            assert str(err.value) == want
            kinds["packing" if "within distance" in want else "boundary"] += 1
        assert min(kinds.values()) >= 100, kinds
