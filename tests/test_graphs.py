from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcolor.errors import BudgetExceededError, InputFormatError
from defcolor.graphs import (
    Graph,
    RootedTree,
    balanced_tree,
    ball,
    grow_ball,
    closure,
    closure_forest,
    complete_bipartite,
    complete_graph,
    ct,
    ct_order,
    cycle_graph,
    disjoint_copies,
    empty_graph,
    geodesic_from,
    join,
    parse_edge_json,
    parse_graph,
    parse_graph6,
    to_edge_json,
    to_graph6,
)
from helpers import (
    all_graphs,
    are_isomorphic,
    bfs_dist_oracle,
    canonical_key,
    forest_closure_oracle,
    graphs_st,
    max_clique_oracle,
    path_graph,
    star_graph,
)


class TestClosure:
    def test_single_node_gives_k1(self):
        g = closure(balanced_tree(1, 5))
        assert g.n == 1 and g.edge_count() == 0

    def test_star_tree_gives_star(self):
        tree = RootedTree.from_parents([None, 0, 0, 0])
        assert are_isomorphic(closure(tree), star_graph(3))

    def test_binary_height3_has_ten_edges(self):
        g = closure(balanced_tree(3, 2))
        # edge count = sum over vertices of (depth): 0*1 + 1*2 + 2*4
        assert g.n == 7 and g.edge_count() == 10

    def test_levels_are_independent_sets(self):
        tree = balanced_tree(4, 2)
        g = closure(tree)
        depths = tree.depths()
        for u, v in g.edges():
            assert depths[u] != depths[v]


class TestCt:
    def test_ct_2_3_is_star(self):
        g = ct(2, 3)
        assert g.n == 4
        assert are_isomorphic(g, star_graph(3))

    def test_ct_3_2_counts(self):
        g = ct(3, 2)
        assert g.n == 7 and g.edge_count() == 10

    def test_order_formula(self):
        for h in range(1, 5):
            for k in range(1, 4):
                assert ct(h, k).n == ct_order(h, k)

    def test_join_recursion(self):
        got = join(complete_graph(1), disjoint_copies(2, ct(2, 2)))
        assert are_isomorphic(got, ct(3, 2))

    def test_join_recursion_full_grid(self):
        for h in range(2, 5):
            for k in range(1, 4):
                built = join(complete_graph(1), disjoint_copies(k, ct(h - 1, k)))
                assert are_isomorphic(built, ct(h, k)), (h, k)

    def test_clique_number_small(self):
        for h in range(1, 4):
            for k in range(1, 4):
                assert max_clique_oracle(ct(h, k)) == h

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError) as err:
            ct(40, 3, budget=10**6)
        assert err.value.size == ct_order(40, 3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ct(0, 2)


class TestJoinCopies:
    def test_join_k1_k1(self):
        assert are_isomorphic(join(complete_graph(1), complete_graph(1)), complete_graph(2))

    def test_two_copies_of_k1(self):
        g = disjoint_copies(2, complete_graph(1))
        assert g.n == 2 and g.edge_count() == 0

    def test_join_star_copies(self):
        got = join(complete_graph(1), disjoint_copies(2, star_graph(2)))
        assert are_isomorphic(got, ct(3, 2))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            disjoint_copies(100, complete_graph(3), budget=200)


def forest_to_graph(parent) -> Graph:
    """Closure of a rooted forest through ``closure``: hang every root under
    one extra vertex, close the tree, drop the extra vertex again."""
    n = len(parent)
    tree = RootedTree.from_parents([n if p is None else p for p in parent] + [None])
    return closure(tree).subgraph(range(n))[0]


class TestClosureForest:
    def test_ct_round_trips(self):
        for h in range(1, 5):
            for k in range(1, 4):
                g = ct(h, k)
                parent = closure_forest(g)
                assert parent is not None
                assert forest_to_graph(parent) == g
                assert max(RootedTree.from_parents(parent).depths()) == h - 1

    def test_disjoint_unions_round_trip(self):
        for g in (
            disjoint_copies(3, ct(3, 2)),
            disjoint_copies(2, complete_graph(4)),
            disjoint_copies(4, complete_graph(1)),
        ):
            parent = closure_forest(g)
            assert parent is not None
            assert forest_to_graph(parent) == g

    def test_complete_and_empty_graphs(self):
        for n in range(0, 6):
            for g in (complete_graph(n), empty_graph(n)):
                parent = closure_forest(g)
                assert parent is not None
                assert forest_to_graph(parent) == g
        assert closure_forest(empty_graph(4)) == [None] * 4

    def test_p4_and_c4_are_not_closures(self):
        assert closure_forest(path_graph(4)) is None
        assert closure_forest(cycle_graph(4)) is None

    def test_agrees_with_forbidden_subgraph_oracle(self):
        for n in range(0, 7):
            for g in all_graphs(n):
                parent = closure_forest(g)
                assert (parent is not None) == forest_closure_oracle(g), g.edges()
                if parent is not None:
                    assert forest_to_graph(parent) == g

    @given(graphs_st(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, g):
        parent = closure_forest(g)
        assert (parent is not None) == forest_closure_oracle(g)
        if parent is not None:
            assert forest_to_graph(parent) == g


class TestBall:
    def test_star_center(self):
        assert ball(star_graph(3), [0], 1) == frozenset(range(4))

    def test_path_end(self):
        assert ball(path_graph(5), [0], 2) == frozenset({0, 1, 2})

    def test_radius_zero(self):
        assert ball(path_graph(5), [2], 0) == frozenset({2})

    @given(graphs_st(max_n=7), st.integers(1, 4))
    @settings(max_examples=60)
    def test_peeling_property(self, g, radius):
        if g.n == 0:
            return
        s = frozenset({0})
        got = ball(g, s, radius)
        peeled = ball(g, ball(g, s, 1), radius - 1) | s
        assert got == peeled

    @given(graphs_st(min_n=1, max_n=8), st.data())
    @settings(max_examples=80)
    def test_within_is_ball_of_induced_subgraph(self, g, data):
        verts = st.integers(0, g.n - 1)
        s = data.draw(st.frozensets(verts, min_size=1, max_size=3))
        within = data.draw(st.frozensets(verts))
        radius = data.draw(st.integers(0, 4))
        sub, ids = g.subgraph(within | s)
        near = set()
        for v in s:
            dist = bfs_dist_oracle(sub, ids.index(v))
            near |= {ids[i] for i in range(sub.n) if 0 <= dist[i] <= radius}
        want = frozenset(near)
        assert ball(g, s, radius, within=within) == want

    @given(graphs_st(min_n=1, max_n=8), st.data())
    @settings(max_examples=80)
    def test_exits_are_the_neighbours_outside_within(self, g, data):
        # the one-pass exits of the homogeneous search: the ball's
        # neighbours outside it and outside ``within``
        verts = st.integers(0, g.n - 1)
        s = data.draw(st.frozensets(verts, min_size=1, max_size=3))
        within = data.draw(st.frozensets(verts))
        radius = data.draw(st.integers(0, 4))
        exits: set = set()
        got = grow_ball(g.adj, set(s), radius, within, exits)
        assert got == ball(g, s, radius, within=within)
        near = set().union(*(g.adj[v] for v in got))
        assert exits == near - got - within

    def test_within_keeps_outside_sources(self):
        # a source outside ``within`` is in the ball and grows into it
        assert ball(path_graph(5), [0], 3, within={1, 2}) == frozenset({0, 1, 2})

    def test_out_of_range_source(self):
        with pytest.raises(ValueError):
            ball(path_graph(3), [3], 1)
        with pytest.raises(ValueError):
            ball(path_graph(3), [0, -1], 1, within={0, 1})

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            ball(path_graph(3), [0], -1)
        with pytest.raises(ValueError):
            ball(path_graph(3), [0], -1, within={1})


class TestGeodesic:
    def test_whole_path(self):
        assert geodesic_from(path_graph(5), 0, 4) == [0, 1, 2, 3, 4]

    def test_absent_beyond_diameter(self):
        assert geodesic_from(complete_graph(3), 0, 2) is None

    def test_lexicographic_choice(self):
        # two geodesics 0-1-3 and 0-2-3: the least sequence wins
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert geodesic_from(g, 0, 2) == [0, 1, 3]

    @given(graphs_st(min_n=1, max_n=8), st.integers(0, 5))
    @settings(max_examples=80)
    def test_returned_paths_are_geodesics(self, g, length):
        path = geodesic_from(g, 0, length)
        if path is None:
            return
        assert len(path) == length + 1
        dist = bfs_dist_oracle(g, path[0])
        assert dist[path[-1]] == length
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)


class TestCanonical:
    @given(graphs_st(max_n=7), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(
            g.n, [(perm[u], perm[v]) for u, v in g.edges()]
        )
        assert canonical_key(g) == canonical_key(relabeled)

    def test_distinguishes_nonisomorphic(self):
        assert canonical_key(path_graph(4)) != canonical_key(star_graph(3))
        assert canonical_key(cycle_graph(6)) != canonical_key(
            disjoint_copies(2, complete_graph(3))
        )


class TestFormats:
    @given(graphs_st(max_n=9))
    @settings(max_examples=100)
    def test_graph6_roundtrip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_graph6_large_n_header(self):
        g = empty_graph(100)
        assert parse_graph6(to_graph6(g)) == g

    def test_graph6_with_header(self):
        g = ct(3, 2)
        assert parse_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_graph6_bad_byte_offset(self):
        with pytest.raises(InputFormatError) as err:
            parse_graph6("F\x1fqd?")
        assert err.value.offset == 1

    def test_graph6_truncated(self):
        with pytest.raises(InputFormatError):
            parse_graph6("Fuq")

    @given(graphs_st(max_n=8))
    @settings(max_examples=60)
    def test_edge_json_roundtrip_and_stability(self, g):
        doc = to_edge_json(g)
        assert parse_edge_json(doc) == g
        assert to_edge_json(parse_edge_json(doc)) == doc
        assert doc.endswith("\n")

    def test_parse_autodetect(self):
        g = ct(2, 2)
        assert parse_graph(to_graph6(g)) == g
        assert parse_graph(to_edge_json(g)) == g

    def test_edge_json_rejects_junk(self):
        with pytest.raises(InputFormatError):
            parse_edge_json('{"n": 2}')
        with pytest.raises(InputFormatError):
            parse_edge_json('{"n": 2, "edges": [[0, 5]]}')
        for edges in ("[[true, 0]]", "[[0, 1.0]]", "[[0]]", '["01"]', "[[1, 1]]"):
            with pytest.raises(InputFormatError):
                parse_edge_json(f'{{"n": 2, "edges": {edges}}}')
        with pytest.raises(InputFormatError):
            parse_edge_json('{"n": true, "edges": []}')


class TestBipartite:
    def test_complete_bipartite_counts(self):
        g = complete_bipartite(3, 3)
        assert g.n == 6 and g.edge_count() == 9
