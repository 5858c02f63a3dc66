from __future__ import annotations

from dataclasses import replace

import pytest

from defcolor.constants import split_path_budget
from defcolor.errors import BucketTooSmallError, HypothesisViolationError
from defcolor.graphs import Graph, ball
from defcolor.scheme import (
    Hyperedge,
    SchemeParams,
    build_scheme,
    certify_entry,
    find_homogeneous,
    initial_entry,
    step,
)
from defcolor.scheme.corpus import acceptance_corpus, caterpillar, star_of_balls
from defcolor.scheme.entry import SchemeEntry
from defcolor.scheme.homogeneous import boundary


def run_homogeneous(inst):
    triple = find_homogeneous(
        inst.graph, inst.params.t, inst.params.l0, inst.params.d, inst.params.r
    )
    assert triple is not None
    return triple


class TestDelStep:
    def test_vertex_drop_count(self):
        inst = star_of_balls(1, 6, 2)
        triple = run_homogeneous(inst)
        entry = initial_entry(inst.graph)
        out = step(entry, triple, inst.params)
        h, k, p = inst.params.h, inst.params.k, 2
        assert inst.graph.n - out.graph.n == (h + k) * p - 1

    def test_only_boundary_hyperedge_created(self):
        inst = star_of_balls(2, 5, 1)
        triple = run_homogeneous(inst)
        entry = initial_entry(inst.graph)
        out = step(entry, triple, inst.params)
        meta = out.step_meta
        assert meta is not None and meta.u_plus == frozenset({0, 1})
        # with no prior hyperedges only the boundary edge appears
        assert len(out.hyperedges) == 1
        edge = out.hyperedges[0]
        assert edge.label == 1 and edge.sink == meta.q

    def test_frozen_entry_rejected(self):
        inst = star_of_balls(1, 5, 1)
        big_freeze = SchemeParams(
            h=3, k=2, r=2, d=3, n_freeze=inst.graph.n, l0=1, t=5
        )
        triple = run_homogeneous(inst)
        with pytest.raises(HypothesisViolationError):
            step(initial_entry(inst.graph), triple, big_freeze)

    def test_certifies_after_step(self):
        inst = star_of_balls(2, 7, 2)
        triple = run_homogeneous(inst)
        entry = initial_entry(inst.graph)
        out = step(entry, triple, inst.params)
        report = certify_entry(entry, out, inst.params, inst.graph)
        assert report.clean() and not report.skipped(), report.to_json()

    def test_bucket_too_small(self):
        # five single-vertex balls with two distinct apex-adjacency types
        apexes = 2
        edges = []
        n = apexes
        centers = []
        for i in range(5):
            v = n
            n += 1
            centers.append(v)
            edges.append((0, v))
            edges.append((1, v))
        # split the bucket: two balls get a second vertex that sees only one
        # apex, changing the boundary-mask signature but not the boundary
        for v in centers[:2]:
            w = n
            n += 1
            edges.append((v, w))
            edges.append((0, w))
        g = Graph.from_edges(n, edges)
        params = SchemeParams(h=3, k=2, r=3, d=4, n_freeze=5, l0=2, t=5)
        triple = find_homogeneous(g, 5, 2, 4, 3)
        assert triple is not None
        with pytest.raises(BucketTooSmallError) as err:
            step(initial_entry(g), triple, params)
        assert err.value.largest == 3 and err.value.needed == 5


def over_deleting_inputs():
    """Graphs and params whose first deletion step would remove more than
    N = 5 vertices' models, failing D8h he-too-many-removed."""
    triangle = Graph.from_edges(8, [(0, 5), (0, 7), (5, 7)])
    forest = Graph.from_edges(
        14, [(0, 5), (0, 13), (1, 2), (1, 6), (2, 8), (4, 12), (6, 8), (10, 12)]
    )
    return [
        # the triangle's ball is contracted and three singleton balls deleted
        (triangle, SchemeParams(h=3, k=1, r=3, d=3, n_freeze=5, l0=3, t=6)),
        (forest, SchemeParams(h=4, k=1, r=5, d=2, n_freeze=5, l0=3, t=6)),
    ]


class TestDeletionBound:
    @pytest.mark.parametrize("case", range(2))
    def test_over_deleting_build_is_refused(self, case):
        g, params = over_deleting_inputs()[case]
        with pytest.raises(HypothesisViolationError, match="> N = 5"):
            build_scheme(g, params)


class TestContractStep:
    def test_caterpillar_fires_and_certifies(self):
        inst = caterpillar(1, 14)
        triple = run_homogeneous(inst)
        entry = initial_entry(inst.graph)
        out = step(entry, triple, inst.params)
        meta = out.step_meta
        assert meta is not None
        # the boundary hyperedge from the step is present with sink q
        assert any(
            e.sink == meta.q and e.label == 1 for e in out.hyperedges
        )
        # the contracted vertex keeps its boundary degree below r
        assert out.graph.degree(meta.q) == len(meta.u_plus) <= inst.params.r - 1
        report = certify_entry(entry, out, inst.params, inst.graph)
        assert report.clean() and not report.skipped(), report.to_json()

    def test_radius_must_match_type_count(self):
        inst = caterpillar(1, 14)
        wrong = SchemeParams(
            h=3, k=2, r=2, d=3, n_freeze=12, l0=inst.params.l0 + 1, t=1
        )
        triple = find_homogeneous(inst.graph, 1, wrong.l0, wrong.d, wrong.r)
        assert triple is not None
        with pytest.raises(HypothesisViolationError) as err:
            step(initial_entry(inst.graph), triple, wrong)
        assert "l0" in str(err.value)


class TestBranchRule:
    def test_originals_removed_exactly_when_no_ball_reaches_x(self):
        # deletion drops whole balls from the cover; contraction keeps it
        for inst in acceptance_corpus():
            g, p = inst.graph, inst.params
            triple = run_homogeneous(inst)
            x = triple.x_set
            reaches = any(
                boundary(g, ball(g, [z], p.l0 - 1, within=x)) & x
                for z in triple.z_set
            )
            entry = initial_entry(g)
            nxt = step(entry, triple, p)
            assert (nxt.cover != entry.cover) == (not reaches), inst.name
            assert reaches == inst.name.startswith("caterpillar"), inst.name


# ---------------------------------------------------------------------------
# label-upgrade fabric: entries that already carry hyperedges and witnesses


def paired_ball_fabric(pairs: int, h: int = 4, k: int = 1):
    """Original graph: one apex, ``pairs`` disjoint sink-member edges under
    it, and four leftover witness vertices per pair (adjacent to the member
    and the apex).  The entry covers only the apex and the pairs; leftover
    vertices back the witness families of one hyperedge per pair."""
    apex = 0
    edges = []
    n = 1
    pair_ids = []
    for _ in range(pairs):
        s, m = n, n + 1
        n += 2
        pair_ids.append((s, m))
        edges += [(s, m), (apex, s), (apex, m)]
    leftovers = {}
    for s, m in pair_ids:
        mine = []
        for _ in range(k + h - 1):
            x = n
            n += 1
            edges += [(m, x), (apex, x)]
            mine.append(x)
        leftovers[(s, m)] = mine
    g = Graph.from_edges(n, edges)

    covered = [apex] + [v for p in pair_ids for v in p]
    sub_edges = [
        (u, v) for u, v in g.edges() if u in set(covered) and v in set(covered)
    ]
    remap = {v: i for i, v in enumerate(sorted(covered))}
    entry_graph = Graph.from_edges(
        len(covered), [(remap[u], remap[v]) for u, v in sub_edges]
    )
    model = {remap[v]: frozenset({v}) for v in covered}
    arcs = set()
    hyperedges = []
    witnesses = {}
    links = {}
    for i, (s, m) in enumerate(pair_ids):
        arcs.add((remap[m], remap[s]))
        arcs.add((remap[apex], remap[s]))
        hyperedges.append(
            Hyperedge(
                frozenset({remap[s], remap[m], remap[apex]}), 1, remap[s]
            )
        )
        witnesses[i] = tuple(frozenset({x}) for x in leftovers[(s, m)])
        links[i] = (frozenset({m}), frozenset({apex}))
    entry = SchemeEntry(
        graph=entry_graph,
        model=model,
        arcs=frozenset(arcs),
        hyperedges=tuple(hyperedges),
        witnesses=witnesses,
        witness_links=links,
        step_meta=None,
    )
    return g, entry, remap


class TestDelLabelUpgrade:
    def test_upgraded_hyperedge_with_witnesses(self):
        h, k = 4, 1
        g, entry, remap = paired_ball_fabric(pairs=6, h=h, k=k)
        params = SchemeParams(h=h, k=k, r=3, d=3, n_freeze=10, l0=2, t=5)
        triple = find_homogeneous(entry.graph, 5, 2, 3, 3)
        assert triple is not None and triple.w_set == frozenset({remap[0]})
        out = step(entry, triple, params)
        meta = out.step_meta
        labels = {(tuple(sorted(e.members)), e.label) for e in out.hyperedges}
        apex_img = next(
            v for v in range(out.graph.n) if out.model[v] == frozenset({0})
        )
        # the upgrade: a label-2 hyperedge on the new vertex and the apex
        assert (tuple(sorted({meta.q, apex_img})), 2) in labels
        assert (tuple(sorted({meta.q, apex_img})), 1) in labels
        report = certify_entry(entry, out, params, g)
        assert report.clean() and not report.skipped(), report.to_json()


def typed_spine_fabric(h: int = 4, k: int = 1):
    """One apex over a spine long enough for the contraction branch at
    t1 = 2 live types.  Spine pairs (s, m) carry one label-1 hyperedge each
    on {s, m, apex}, backed by k + h - 1 leftover witness vertices that the
    entry does not cover."""
    t1 = 2
    spacing = 6 * (t1 - 1) + 1
    k0 = 1 + (h + k - 2) * spacing
    l0 = split_path_budget(t1, k0, 3) + 1
    spine = l0 + 5 + (l0 + 5) % 2  # even, reaching past the ball radius
    apex = 0
    edges = [(apex, 1 + i) for i in range(spine)]
    edges += [(1 + i, 2 + i) for i in range(spine - 1)]
    n = 1 + spine
    witnesses = {}
    links = {}
    hyperedges = []
    arcs = set()
    extra_edges = []
    for i in range(spine // 2):
        s, m = 1 + 2 * i, 2 + 2 * i
        arcs.add((m, s))
        arcs.add((apex, s))
        hyperedges.append(Hyperedge(frozenset({s, m, apex}), 1, s))
        mine = []
        for _ in range(k + h - 1):
            x = n
            n += 1
            extra_edges += [(m, x), (apex, x)]
            mine.append(x)
        witnesses[len(hyperedges) - 1] = tuple(frozenset({x}) for x in mine)
        links[len(hyperedges) - 1] = (frozenset({m}), frozenset({apex}))
    g = Graph.from_edges(n, edges + extra_edges)
    entry_graph = Graph.from_edges(1 + spine, edges)
    entry = SchemeEntry(
        graph=entry_graph,
        model={v: frozenset({v}) for v in range(1 + spine)},
        arcs=frozenset(arcs),
        hyperedges=tuple(hyperedges),
        witnesses=witnesses,
        witness_links=links,
        step_meta=None,
    )
    params = SchemeParams(h=h, k=k, r=3, d=4, n_freeze=490, l0=l0, t=1)
    return g, entry, params


class TestContractLabelUpgrade:
    def test_typed_spine_upgrade(self):
        apex = 0
        g, entry, params = typed_spine_fabric()
        triple = find_homogeneous(entry.graph, 1, params.l0, 4, 3)
        assert triple is not None
        out = step(entry, triple, params)
        meta = out.step_meta
        assert meta is not None and meta.u_plus == frozenset({apex})
        apex_img = next(
            v for v in range(out.graph.n) if out.model[v] == frozenset({apex})
        )
        labels = {(tuple(sorted(e.members)), e.label) for e in out.hyperedges}
        assert (tuple(sorted({meta.q, apex_img})), 2) in labels
        assert (tuple(sorted({meta.q, apex_img})), 1) in labels
        report = certify_entry(entry, out, params, g)
        assert report.clean() and not report.skipped(), report.to_json()


def _merge_into_member(g: Graph, entry: SchemeEntry) -> SchemeEntry:
    """The entry with one uncovered original merged into the model of the
    first hyperedge's non-sink member other than the apex."""
    edge = entry.hyperedges[0]
    v = min(edge.members - {edge.sink, 0})
    spare = min(set(range(g.n)) - entry.cover)
    model = dict(entry.model)
    model[v] = model[v] | {spare}
    return replace(entry, model=model)


@pytest.mark.parametrize("branch", ["del", "contract"])
def test_multi_vertex_member_rejected(branch):
    if branch == "del":
        g, entry, _ = paired_ball_fabric(pairs=6, h=4, k=1)
        params = SchemeParams(h=4, k=1, r=3, d=3, n_freeze=10, l0=2, t=5)
        triple = find_homogeneous(entry.graph, 5, 2, 3, 3)
    else:
        g, entry, params = typed_spine_fabric()
        triple = find_homogeneous(entry.graph, 1, params.l0, 4, 3)
    assert triple is not None
    with pytest.raises(HypothesisViolationError) as err:
        step(_merge_into_member(g, entry), triple, params)
    assert "multi-vertex model" in str(err.value)
