from __future__ import annotations

import random

import pytest

from defcolor.constants import split_path_budget
from defcolor.errors import HypothesisViolationError
from defcolor.graphs import Graph
from defcolor.scheme.split import SplitResult, geodesic_split
from helpers import path_graph


def check_conclusions_independently(g, f, t, k, length, result: SplitResult):
    """Re-verify both conclusions with plain BFS, independent of the package
    checker."""
    q, s, chunks = list(result.subpath), result.color_set, result.chunks
    assert s and s <= set(range(1, t + 1))
    # conclusion 1: no excluded color within |S| * length of Q
    near = set(q)
    dist = {v: 0 for v in q}
    frontier = list(q)
    for _ in range(len(s) * length):
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = 1
                    near.add(w)
                    nxt.append(w)
        frontier = nxt
    for v in near:
        assert f[v] in s
    # conclusion 2: equal consecutive chunks, each covering S nearby
    assert len(chunks) == k
    assert len({len(c) for c in chunks}) == 1
    flat = [v for c in chunks for v in c]
    assert flat == q
    for c in chunks:
        reach = set(c)
        frontier = list(c)
        for _ in range((len(s) - 1) * length):
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if w not in reach:
                        reach.add(w)
                        nxt.append(w)
            frontier = nxt
        assert s <= {f[v] for v in reach}


def layered_instance(rng: random.Random, t: int, k: int, length: int):
    """Random graph that is a ball around vertex 0 with a guaranteed geodesic.

    Extra vertices attach to a parent and may link to vertices one level
    deeper, which never shortens distances from the center.
    """
    n_budget = split_path_budget(t, k, length)
    plen = n_budget - t * length
    edges = [(i, i + 1) for i in range(plen - 1)]
    depth_of = {i: i for i in range(plen)}
    by_depth: dict[int, list[int]] = {i: [i] for i in range(plen)}
    total = plen
    for _ in range(rng.randrange(0, 2 * plen) if plen >= 2 else 0):
        d = rng.randrange(0, plen - 1)
        parent = rng.choice(by_depth[d])
        v = total
        total += 1
        edges.append((parent, v))
        depth_of[v] = d + 1
        by_depth.setdefault(d + 1, []).append(v)
        # optional extra links within the safe depths
        for cand in by_depth.get(d + 1, []):
            if cand != v and rng.random() < 0.2:
                edges.append((cand, v))
    g = Graph.from_edges(total, edges)
    f = [rng.randint(1, t) for _ in range(total)]
    path = list(range(plen))
    return g, f, path


class TestBaseCase:
    def test_single_color_takes_prefix(self):
        g = path_graph(split_path_budget(1, 4, 2) - 2)
        f = [1] * g.n
        result = geodesic_split(g, 0, f, list(range(g.n)), 1, 4, 2)
        assert result.subpath == (0, 1, 2, 3)
        assert result.color_set == frozenset({1})
        assert len(result.chunks) == 4

    def test_constant_coloring_any_t(self):
        t, k, length = 3, 2, 1
        n = split_path_budget(t, k, length)
        g = path_graph(n - t * length)
        f = [1] * g.n
        result = geodesic_split(g, 0, f, list(range(g.n)), t, k, length)
        check_conclusions_independently(g, f, t, k, length, result)
        # colors 2 and 3 never appear, so S should shrink to {1}
        assert result.color_set == frozenset({1})


class TestPreconditions:
    def test_wrong_path_length(self):
        g = path_graph(10)
        with pytest.raises(HypothesisViolationError):
            geodesic_split(g, 0, [1] * 10, list(range(10)), 1, 4, 2)

    def test_path_must_start_at_center(self):
        n = split_path_budget(1, 3, 1)
        g = path_graph(n - 1)
        with pytest.raises(HypothesisViolationError):
            geodesic_split(g, 0, [1] * g.n, list(range(1, g.n)), 1, 3, 1)

    def test_not_a_ball(self):
        n = split_path_budget(1, 3, 1)
        plen = n - 1
        # a long spur makes the graph exceed the radius-n ball around 0
        edges = [(i, i + 1) for i in range(plen - 1)]
        extra = plen
        last = 0
        for _ in range(n + 1):
            edges.append((last, extra))
            last = extra
            extra += 1
        g = Graph.from_edges(extra, edges)
        with pytest.raises(HypothesisViolationError):
            geodesic_split(g, 0, [1] * g.n, list(range(plen)), 1, 3, 1)

    def test_colors_out_of_range(self):
        n = split_path_budget(2, 2, 1)
        g = path_graph(n - 2)
        with pytest.raises(HypothesisViolationError):
            geodesic_split(g, 0, [3] * g.n, list(range(g.n)), 2, 2, 1)


class TestRandomInstances:
    def test_seeded_instances_all_verify(self):
        rng = random.Random(20240817)
        cases = 0
        for _ in range(60):
            t = rng.randint(1, 3)
            k = rng.randint(1, 3)
            length = rng.randint(1, 2)
            g, f, path = layered_instance(rng, t, k, length)
            result = geodesic_split(g, 0, f, path, t, k, length)
            check_conclusions_independently(g, f, t, k, length, result)
            cases += 1
        assert cases == 60

    def test_geodesic_is_verified_not_assumed(self):
        # a chord makes the nominal path non-geodesic
        n = split_path_budget(1, 3, 1)
        plen = n - 1
        edges = [(i, i + 1) for i in range(plen - 1)] + [(0, plen - 1)]
        g = Graph.from_edges(plen, edges)
        with pytest.raises(HypothesisViolationError):
            geodesic_split(g, 0, [1] * plen, list(range(plen)), 1, 3, 1)
