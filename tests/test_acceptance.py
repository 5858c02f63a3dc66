"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is exact and every expected value is computed by an independent
oracle or verified arithmetic, never assumed.
"""

from __future__ import annotations

import random
import time

from defcolor.check import verify_coloring
from defcolor.coloring import decide_defective, min_defect
from defcolor.constants import paper_constants
from defcolor.depth import connected_tree_depth
from defcolor.graphs import (
    Graph,
    balanced_tree,
    closure,
    complete_bipartite,
    complete_graph,
    ct,
    ct_order,
)
from defcolor.minors import has_minor
from defcolor.scheme import (
    Hyperedge,
    SchemeParams,
    build_scheme,
    certify_scheme,
    color_from_scheme,
    geodesic_split,
)
from defcolor.scheme.corpus import acceptance_corpus, caterpillar, star_of_balls
from defcolor.scheme.entry import SchemeEntry, StepMeta

from helpers import (
    all_graphs,
    certify_entry,
    ctd_oracle,
    huge_slotwise_le,
    level_coloring,
    max_clique_oracle,
    minor_oracle,
    split_path_budget_recurrence,
)
from test_split import check_conclusions_independently, layered_instance


def report(num: int, title: str, started: float):
    print(f"[criterion {num:2d}] PASS ({time.time() - started:5.1f}s) {title}")


def test_c01_ct_family_sizes_and_clique_numbers():
    started = time.time()
    for h in range(1, 5):
        for k in range(1, 4):
            g = ct(h, k)
            assert g.n == ct_order(h, k)
            assert max_clique_oracle(g) == h
    assert time.time() - started < 5
    report(1, "ct(h,k) orders and clique numbers, h<=4, k<=3", started)


def test_c02_lower_bound_family_infeasible():
    started = time.time()
    for h, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        got = decide_defective(ct(h, k), h - 1, k - 1)
        assert not got.feasible, (h, k)
    assert time.time() - started < 30
    report(2, "no (h-1)-coloring of ct(h,k) with defect k-1 on the grid", started)


def test_c03_level_coloring_upper_witness():
    started = time.time()
    for h in range(2, 6):
        for k in range(1, 4):
            tree = balanced_tree(h - 1, k)
            coloring = level_coloring(tree)
            assert coloring.k == h - 1
            ok, _ = verify_coloring(closure(tree), coloring, 0)
            assert ok
    assert time.time() - started < 1
    report(3, "depth-level colorings: h-1 colors at defect 0, h<=5, k<=3", started)


def test_c04_depth_metrics_against_embedding_oracle():
    started = time.time()
    for h in range(1, 5):
        for k in (1, 2):
            assert connected_tree_depth(ct(h, k)).ctd == h, (h, k)
    checked = 0
    for n in range(1, 7):
        for g in all_graphs(n, connected_only=True):
            assert connected_tree_depth(g).ctd == ctd_oracle(g)
            checked += 1
    assert checked == 1 + 1 + 2 + 6 + 21 + 112
    assert time.time() - started < 600
    report(4, f"ctd of ct(h,k) plus oracle sweep over {checked} connected graphs", started)


def test_c05_minor_engine_against_partition_oracle():
    started = time.time()
    for t in (2, 3, 4):
        assert has_minor(complete_bipartite(t, t), complete_graph(t + 1)) is not None
    patterns = [g for n in range(1, 5) for g in all_graphs(n)]
    hosts = [g for n in range(1, 8) for g in all_graphs(n)]
    pairs = 0
    for host in hosts:
        for pattern in patterns:
            got = has_minor(host, pattern) is not None
            assert got == minor_oracle(host, pattern), (host, pattern)
            pairs += 1
    assert time.time() - started < 600
    report(5, f"K_(t,t) clique minors and {pairs} oracle comparisons", started)


def test_c06_frozen_schemes():
    started = time.time()
    params = SchemeParams(h=3, k=2, r=3, d=2, n_freeze=12, l0=1, t=1)
    for g in (ct(3, 2), complete_graph(5), complete_bipartite(2, 3)):
        scheme = build_scheme(g, params)
        assert len(scheme) == 1
        rep = certify_scheme(scheme, params, g)
        assert rep.clean()
        coloring = color_from_scheme(scheme, params, g)
        assert set(coloring.colors) == {1}
    assert time.time() - started < 1
    report(6, "graphs at or below the freeze size: single clean entry, all-1", started)


def test_c07_scheme_end_to_end_corpus():
    started = time.time()
    instances = acceptance_corpus()
    assert len(instances) >= 20
    for inst in instances:
        p = inst.params
        assert p.h == 3 and p.k == 2 and p.r <= 6 and p.d <= 4 and p.n_freeze <= 12
        scheme = build_scheme(inst.graph, p)
        rep = certify_scheme(scheme, p, inst.graph)
        assert rep.clean(), (inst.name, rep.to_json())
        coloring = color_from_scheme(scheme, p, inst.graph)
        assert set(coloring.colors) <= set(range(1, p.h))
        ok, _ = verify_coloring(inst.graph, coloring, p.defect_bound)
        assert ok, inst.name
    assert time.time() - started < 300
    report(7, f"{len(instances)} corpus instances: build, certify, color", started)


# ---------------------------------------------------------------------------
# criterion 8: targeted mutations flip exactly one condition


def _swap_entry(entry: SchemeEntry, **changes) -> SchemeEntry:
    fields = {
        "graph": entry.graph,
        "orig": entry.orig,
        "other": entry.other,
        "arcs": entry.arcs,
        "hyperedges": entry.hyperedges,
        "witnesses": entry.witnesses,
        "witness_links": entry.witness_links,
        "step_meta": entry.step_meta,
    }
    fields.update(changes)
    return SchemeEntry(**fields)


def _add_sink_edges(entry: SchemeEntry, vertices, label: int) -> SchemeEntry:
    edges = list(entry.hyperedges)
    witnesses = dict(entry.witnesses)
    links = dict(entry.witness_links)
    for v in vertices:
        edges.append(Hyperedge(frozenset({v}), label, v))
        witnesses[len(edges) - 1] = ()
        links[len(edges) - 1] = ()
    return _swap_entry(
        entry, hyperedges=tuple(edges), witnesses=witnesses, witness_links=links
    )


def _assert_exact_flip(baseline, mutated, condition):
    assert baseline.clean(), baseline.to_json()
    failures = mutated.failures()
    assert failures == [condition], (condition, mutated.to_json())


def _tail_spine_vertices(scheme, count):
    """Images of the last spine originals: low-degree plain vertices."""
    e2 = scheme[1]
    originals = e2.by_orig
    spine = sorted(o for o in originals if originals[o] not in e2.special)
    return [originals[o] for o in spine[-count:]]


def test_c08_mutation_sensitivity():
    started = time.time()

    # (D4): an arc not lying on an edge
    inst = caterpillar(1, 14)
    scheme = build_scheme(inst.graph, inst.params)
    base = certify_entry(scheme[0], scheme[1], inst.params, inst.graph)
    spine = _tail_spine_vertices(scheme, 3)
    bad_arc = _swap_entry(
        scheme[1], arcs=scheme[1].arcs | {(spine[0], spine[2])}
    )
    got = certify_entry(scheme[0], bad_arc, inst.params, inst.graph)
    _assert_exact_flip(base, got, "D4")

    # (D5): a hyperedge whose label leaves [h-2]
    last = _tail_spine_vertices(scheme, 1)[0]
    bad_label = _add_sink_edges(scheme[1], [last], label=0)
    got = certify_entry(scheme[0], bad_label, inst.params, inst.graph)
    _assert_exact_flip(base, got, "D5")

    # (D6b): two adjacent special vertices
    inst2 = star_of_balls(2, 7, 2)
    scheme2 = build_scheme(inst2.graph, inst2.params)
    base2 = certify_entry(scheme2[0], scheme2[1], inst2.params, inst2.graph)
    e2 = scheme2[1]
    leftover_pair = None
    for u, v in e2.graph.edges():
        if (
            u not in e2.special
            and v not in e2.special
            and e2.graph.degree(u) <= inst2.params.r
            and e2.graph.degree(v) <= inst2.params.r
        ):
            leftover_pair = (u, v)
            break
    assert leftover_pair is not None
    adjacent_sinks = _add_sink_edges(e2, leftover_pair, label=1)
    got = certify_entry(scheme2[0], adjacent_sinks, inst2.params, inst2.graph)
    _assert_exact_flip(base2, got, "D6b")

    # (D8b): the high-degree boundary subset padded with a cold vertex
    meta = e2.step_meta
    cold = next(
        o
        for o, v in e2.by_orig.items()
        if o not in meta.u_plus
        and v not in e2.special
        and e2.graph.degree(v) <= inst2.params.d
        and o in scheme2[0].by_orig
    )
    padded = _swap_entry(
        e2,
        step_meta=StepMeta(
            q=meta.q,
            u_set=meta.u_set | {cold},
            u_plus=meta.u_plus | {cold},
        ),
    )
    got = certify_entry(scheme2[0], padded, inst2.params, inst2.graph)
    _assert_exact_flip(base2, got, "D8b")

    # (D12): a sink planted on a vertex of degree above the cap
    g3, params3 = _lopsided_star()
    scheme3 = build_scheme(g3, params3)
    base3 = certify_entry(scheme3[0], scheme3[1], params3, g3)
    e3 = scheme3[1]
    hot = max(
        (v for v in range(e3.graph.n) if v not in e3.special),
        key=e3.graph.degree,
    )
    assert e3.graph.degree(hot) > params3.r
    planted = _add_sink_edges(e3, [hot], label=1)
    got = certify_entry(scheme3[0], planted, params3, g3)
    _assert_exact_flip(base3, got, "D12")

    report(8, "five targeted mutations flip exactly their condition", started)


def _lopsided_star():
    """Five single-vertex balls under three apexes, plus one heavy witness
    vertex seeing two extra private apexes: degree r+1 without special roles."""
    edges = []
    apexes = [0, 1, 2, 3, 4]
    n = 5
    for _ in range(5):
        v = n
        n += 1
        edges += [(0, v), (1, v), (2, v)]
    heavy = n
    n += 1
    edges += [(a, heavy) for a in apexes]
    g = Graph.from_edges(n, edges)
    params = SchemeParams(h=3, k=2, r=4, d=5, n_freeze=8, l0=1, t=5)
    return g, params


def test_c09_geodesic_split_random_instances():
    started = time.time()
    rng = random.Random(1789)
    cases = 0
    while cases < 100:
        t = rng.randint(1, 3)
        k = rng.randint(1, 3)
        length = rng.randint(1, 2)
        g, f, path = layered_instance(rng, t, k, length)
        result = geodesic_split(g, 0, f, path, t, k, length)
        check_conclusions_independently(g, f, t, k, length, result)
        cases += 1
    assert split_path_budget_recurrence(1, 2, 1) == 3
    assert split_path_budget_recurrence(2, 2, 1) == 6
    assert time.time() - started < 60
    report(9, "100 seeded splits verified; recurrence spot values", started)


def test_c10_constants_table():
    started = time.time()
    tab = paper_constants(3, 1, 2, d_homo=2, n1=7, n2=7)
    assert tab.t_main_exponent.materialize() == 72
    assert tab.t.materialize() == 2**72 * 2**2
    from itertools import product

    grid = {
        (h, k, r): paper_constants(h, k, r, d_homo=2, n1=7, n2=7)
        for h, k, r in product((3, 4), (1, 2), (2, 3))
    }
    for (h, k, r), tab in grid.items():
        for dh, dk, dr in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            other = grid.get((h + dh, k + dk, r + dr))
            if other is not None:
                assert huge_slotwise_le(tab.t, other.t)
                assert huge_slotwise_le(tab.n_total, other.n_total)
    assert time.time() - started < 1
    report(10, "t exponent 72 at (3,1,2); t and N monotone on the grid", started)


def test_c11_lower_bound_thresholds_by_forest_dp():
    started = time.time()
    frontier = decide_defective(ct(4, 3), 3, 2, max_vertices=64, node_budget=200_000)
    assert not frontier.feasible
    for h in range(2, 5):
        for k in range(1, 4):
            assert min_defect(ct(h, k), h - 1, max_vertices=64) == k, (h, k)
    assert time.time() - started < 5
    report(11, "min defect of an (h-1)-coloring of ct(h,k) is k, h<=4, k<=3", started)
