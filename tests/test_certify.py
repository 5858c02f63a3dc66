from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from defcolor.errors import BucketTooSmallError, DefcolorError
from defcolor.graphs import Graph, complete_graph, ct
from defcolor.scheme import (
    Hyperedge,
    SchemeParams,
    build_scheme,
    certify_entry,
    certify_scheme,
    color_from_scheme,
    find_homogeneous,
    initial_entry,
    scheme_from_json,
    scheme_to_json,
    step,
)
from defcolor.scheme import certify
from defcolor.scheme.certify import (
    CONDITIONS,
    CertReport,
    SchemeReport,
    Verdict,
    _check_d2,
    _pair_maps,
    _shape,
)
from defcolor.scheme.corpus import acceptance_corpus, caterpillar, star_of_balls
from defcolor.scheme.entry import SchemeEntry, StepMeta
from helpers import d2_oracle
from test_steps import typed_spine_fabric


def swap(entry: SchemeEntry, **changes) -> SchemeEntry:
    fields = {
        "graph": entry.graph,
        "model": entry.model,
        "arcs": entry.arcs,
        "hyperedges": entry.hyperedges,
        "witnesses": entry.witnesses,
        "witness_links": entry.witness_links,
        "step_meta": entry.step_meta,
    }
    fields.update(changes)
    return SchemeEntry(**fields)


@pytest.fixture(scope="module")
def cat():
    inst = caterpillar(1, 14)
    scheme = build_scheme(inst.graph, inst.params)
    return inst, scheme


class TestPairwiseConditions:
    def test_clean_baseline(self, cat):
        inst, scheme = cat
        report = certify_entry(scheme[0], scheme[1], inst.params, inst.graph)
        assert report.clean()

    def test_directed_two_path_fails_d4(self, cat):
        inst, scheme = cat
        e2 = scheme[1]
        # chain two arcs along surviving spine edges: u -> v -> w
        spine = sorted(
            v for v in range(e2.graph.n) if v not in e2.special
        )
        path3 = None
        for u in spine:
            for v in e2.graph.adj[u]:
                for w in e2.graph.adj[v]:
                    if w != u and v in spine and w in spine:
                        path3 = (u, v, w)
                        break
                if path3:
                    break
            if path3:
                break
        assert path3 is not None
        u, v, w = path3
        mutated = swap(e2, arcs=e2.arcs | {(u, v), (v, w)})
        report = certify_entry(scheme[0], mutated, inst.params, inst.graph)
        assert "D4" in report.failures()
        assert report.verdicts["D4"].witness["clause"] == "directed-two-path"

    def test_oversized_hyperedge_fails_d5(self, cat):
        inst, scheme = cat
        e2 = scheme[1]
        target = next(e for e in e2.hyperedges if e.sink == e2.step_meta.q)
        # pad S beyond r+1 with plain spine vertices
        pool = [
            v
            for v in range(e2.graph.n)
            if v not in target.members and v not in e2.special
        ]
        need = inst.params.r + 2 - len(target.members)
        grown = Hyperedge(
            target.members | frozenset(pool[:need]), target.label, target.sink
        )
        edges = tuple(
            grown if e == target else e for e in e2.hyperedges
        )
        mutated = swap(e2, hyperedges=edges)
        report = certify_entry(scheme[0], mutated, inst.params, inst.graph)
        assert "D5" in report.failures()

    def test_dropped_required_edge_fails_d8f(self, cat):
        inst, scheme = cat
        e2 = scheme[1]
        keep = tuple(
            e for e in e2.hyperedges if not (e.label == 1 and e.sink == e2.step_meta.q)
        )
        witnesses = {i: () for i in range(len(keep))}
        mutated = swap(
            e2, hyperedges=keep, witnesses=witnesses, witness_links=witnesses
        )
        report = certify_entry(scheme[0], mutated, inst.params, inst.graph)
        assert "D8f" in report.failures()

    def test_missing_step_meta_fails_d8(self, cat):
        inst, scheme = cat
        mutated = swap(scheme[1], step_meta=None)
        report = certify_entry(scheme[0], mutated, inst.params, inst.graph)
        assert "D8a" in report.failures() and "D8i" in report.failures()

    def test_dropped_link_fails_d10(self, cat):
        inst, scheme = cat
        e2 = scheme[1]
        idx = next(
            i for i, e in enumerate(e2.hyperedges) if len(e.members) >= 2
        )
        links = dict(e2.witness_links)
        links[idx] = links[idx][:-1]
        mutated = swap(e2, witness_links=links)
        report = certify_entry(scheme[0], mutated, inst.params, inst.graph)
        assert "D10" in report.failures()
        assert report.verdicts["D10"].witness["clause"] == "link-count"

    def test_unfrozen_identical_pair_fails_d3(self, cat):
        inst, scheme = cat
        report = certify_entry(scheme[0], scheme[0], inst.params, inst.graph)
        assert "D3" in report.failures()

    def test_graph_edit_fails_d2(self, cat):
        inst, scheme = cat
        e2 = scheme[1]
        # connect two far-apart spine survivors (the apex is low on the
        # special list but high degree; exclude it)
        spine = sorted(
            v
            for v in range(e2.graph.n)
            if v not in e2.special and e2.graph.degree(v) <= inst.params.d
        )
        u, w = spine[0], spine[-1]
        assert not e2.graph.has_edge(u, w)
        edited = Graph.from_edges(e2.graph.n, e2.graph.edges() + [(u, w)])
        mutated = swap(e2, graph=edited)
        report = certify_entry(scheme[0], mutated, inst.params, inst.graph)
        assert "D2" in report.failures()
        assert report.verdicts["D2"].witness == {
            "clause": "edge-not-in-contraction",
            "edge": [u, w],
        }

    def test_lost_preimage_fails_d2(self, cat):
        inst, scheme = cat
        e1, e2 = scheme
        # the first edge between originals; its preimage is the same edge of
        # the first entry, whose vertex ids are the original ids
        u, v = next(
            (u, v)
            for u, v in e2.graph.edges()
            if e2.orig_at.get(u) is not None and e2.orig_at.get(v) is not None
        )
        a, b = sorted((e2.orig_at.get(u), e2.orig_at.get(v)))
        cut = Graph.from_edges(
            e1.graph.n, [e for e in e1.graph.edges() if e != (a, b)]
        )
        report = certify_entry(swap(e1, graph=cut), e2, inst.params, inst.graph)
        assert report.verdicts["D2"].witness == {
            "clause": "edge-without-preimage",
            "edge": [u, v],
        }

    def test_dropped_edges_between_originals_fail_d2(self, cat):
        inst, scheme = cat
        e2 = scheme[1]
        between = [
            (u, v)
            for u, v in e2.graph.edges()
            if e2.orig_at.get(u) is not None and e2.orig_at.get(v) is not None
        ]
        # two edges at the apex and one further along the spine
        dropped = [e for e in between if e[0] == between[0][0]][-2:]
        dropped.append(between[-1])
        kept = [e for e in e2.graph.edges() if e not in dropped]
        mutated = swap(e2, graph=Graph.from_edges(e2.graph.n, kept))
        report = certify_entry(scheme[0], mutated, inst.params, inst.graph)
        # the lexicographically first missing pair is the witness
        assert report.verdicts["D2"].witness == {
            "clause": "missing-edge-between-originals",
            "pair": list(min(dropped)),
        }


class TestOutOfRangeModelIds:
    def test_shifted_singleton_ids_give_reports(self, cat):
        # an id past original.n used to raise IndexError in D2's edge clause
        inst, scheme = cat
        prev, nxt = scheme[0], scheme[1]
        singles = [v for v, m in sorted(nxt.model.items()) if len(m) == 1]
        assert 0 in singles
        for v in singles:
            shifted = min(nxt.model[v]) + 10**6
            model = dict(nxt.model)
            model[v] = frozenset({shifted})
            report = certify_entry(prev, swap(nxt, model=model), inst.params, inst.graph)
            assert not report.clean()
            assert report.verdicts["D1"].to_json() == {
                "status": "fail",
                "witness": {"clause": "id-range", "vertex": v, "original": shifted},
            }

    def test_model_key_gap_gives_report(self, cat):
        # a model key past graph.n used to raise KeyError in D2's absorb map
        inst, scheme = cat
        prev, nxt = scheme
        last = max(nxt.model)
        model = dict(nxt.model)
        model[last + 5] = model.pop(last)
        gap = swap(nxt, model=model)
        report = certify_scheme([prev, gap], inst.params, inst.graph)
        assert not report.clean()
        # the second pair is the frozen-tail self-pair of the same entry
        for pair in report.pair_reports:
            assert pair.verdicts["D1"].to_json() == {
                "status": "fail",
                "witness": {"clause": "model-keys", "expected": nxt.graph.n},
            }
            # the conditions after D1 read one model per vertex
            assert pair.skipped() == list(CONDITIONS[1:])
        later = certify_entry(gap, nxt, inst.params, inst.graph)
        assert later.verdicts["D1"].status == "pass"
        assert later.skipped() == list(CONDITIONS[1:])
        assert "previous entry" in later.verdicts["D2"].reason

    def test_shifted_id_in_earlier_entry_gives_report(self):
        # an id past original.n in the previous entry used to raise
        # IndexError in D8h's twin clause; the start check flags it
        inst = star_of_balls(1, 5, 1)
        prev, nxt = build_scheme(inst.graph, inst.params)
        for v in range(prev.graph.n):
            model = dict(prev.model)
            model[v] = frozenset(o + 10**6 for o in model[v])
            report = certify_scheme(
                [swap(prev, model=model), nxt], inst.params, inst.graph
            )
            assert report.start.witness == {"clause": "nonstandard-first-entry"}


class TestOutOfRangeArcs:
    def test_arc_endpoint_past_n_gives_report(self):
        # an arc endpoint past the graph of the previous entry used to raise
        # KeyError in D4's inherited-arc clause of the next pair
        inst = caterpillar(1, 20)
        scheme = build_scheme(inst.graph, inst.params)
        (a, _), *rest = sorted(scheme[1].arcs)
        bad = swap(scheme[1], arcs=frozenset([(a, 10**6), *rest]))
        report = certify_scheme(
            [scheme[0], bad, *scheme[2:]], inst.params, inst.graph
        )
        assert not report.clean()
        assert report.pair_reports[0].verdicts["D4"].witness == {
            "clause": "arc-not-on-edge",
            "arc": [a, 10**6],
        }
        # the pair after reads no field of the malformed previous entry
        later = report.pair_reports[1]
        assert later.failures() == []
        assert later.skipped() == list(CONDITIONS[1:])
        assert not later.clean()
        assert later.verdicts["D4"].reason == (
            "previous entry out of range, flagged by D4 of the pair before"
        )


class TestShapePass:
    def test_witness_key_gap_fails_d9_and_skips_the_rest(self, cat):
        inst, scheme = cat
        prev, nxt = scheme
        witnesses = dict(nxt.witnesses)
        witnesses[len(nxt.hyperedges)] = witnesses.pop(0)
        report = certify_entry(
            prev, swap(nxt, witnesses=witnesses), inst.params, inst.graph
        )
        assert report.failures() == ["D9"]
        assert report.verdicts["D1"].status == "pass"
        assert report.skipped() == [c for c in CONDITIONS[1:] if c != "D9"]
        assert report.verdicts["D2"].reason.endswith("flagged by D9")

    @pytest.mark.parametrize("field", ["witnesses", "witness_links"])
    def test_first_entry_with_witnesses_is_nonstandard(self, cat, field):
        # the first pair reads nothing past D1 of a malformed previous entry,
        # so the start check flags every malformed first entry
        inst, scheme = cat
        first = swap(scheme[0], **{field: {0: ()}})
        report = certify_scheme([first, *scheme[1:]], inst.params, inst.graph)
        assert report.start.witness == {"clause": "nonstandard-first-entry"}
        assert not report.clean()


def _mutation_audit():
    path = Path(__file__).resolve().parents[1] / "scripts" / "mutation_audit.py"
    spec = importlib.util.spec_from_file_location("mutation_audit", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTotality:
    def test_seeded_mutants_give_a_report_or_an_input_error(self):
        # the generator of scripts/mutation_audit.py on a small seeded sample
        audit = _mutation_audit()
        rng = random.Random(3)
        for inst in audit.instances():
            doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
            for _ in range(150):
                got = audit.mutate(doc, rng, inst.graph.n)
                if got is not None:
                    # a report or InputFormatError; anything else raises
                    outcome = audit.outcome(json.dumps(got[0]), inst)[0]
                    assert outcome in ("input-error", "dirty", "clean")

    def test_seeded_mutants_color_or_raise_a_toolkit_error(self):
        # 15 of these 2,000 mutants used to reach the colorer with model ids
        # out of range and raise IndexError or KeyError
        audit = _mutation_audit()
        rng = random.Random(0)
        for inst in audit.instances():
            doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
            done = 0
            while done < 500:
                got = audit.mutate(doc, rng, inst.graph.n)
                if got is None:
                    continue
                done += 1
                try:
                    scheme = scheme_from_json(json.dumps(got[0]))
                    coloring = color_from_scheme(scheme, inst.params, inst.graph)
                except DefcolorError:
                    continue
                assert len(coloring.colors) == inst.graph.n

    def test_params_mutants_exit_without_internal_error(self, tmp_path):
        # "h": 3.5 used to reach the colorer (TypeError, exit 4), and with
        # "h": 2**70 the colorer listed every color below h
        audit = _mutation_audit()
        inst = star_of_balls(1, 6, 2)
        spath = tmp_path / "scheme.json"
        spath.write_text(scheme_to_json(build_scheme(inst.graph, inst.params)))
        ppath = tmp_path / "params.json"
        for key, kind, doc in audit.params_mutants(inst.params.to_json()):
            ppath.write_text(json.dumps(doc))
            for verb in ("certify", "color"):
                argv = ["scheme", verb, str(spath), "--params", str(ppath)]
                code, err = audit.run_cli(argv)
                assert code != 4, (verb, key, kind, err)


class TestUOutsideUPlus:
    def test_every_foreign_id_gives_report(self, cat):
        # an id of U that is no original of the next entry used to raise
        # KeyError in D8f and D8i
        inst, scheme = cat
        prev, nxt = scheme
        meta = nxt.step_meta
        for o in sorted(set(range(inst.graph.n)) - set(nxt.by_orig)):
            bad = StepMeta(meta.q, meta.u_set | {o}, meta.u_plus)
            mutated = swap(nxt, step_meta=bad)
            report = certify_entry(prev, mutated, inst.params, inst.graph)
            assert report.verdicts["D8b"].witness == {
                "clause": "u-not-in-u-plus",
                "extra": frozenset({o}),
            }

    def test_ids_absorbed_into_q_give_reports(self):
        # ids merged into q, next to members of the hyperedges D8i re-derives
        g, prev, params = typed_spine_fabric()
        triple = find_homogeneous(prev.graph, 1, params.l0, 4, 3)
        nxt = step(prev, triple, params)
        meta = nxt.step_meta
        for o in sorted(nxt.model[meta.q])[:4]:
            bad = StepMeta(meta.q, meta.u_set | {o}, meta.u_plus)
            report = certify_entry(prev, swap(nxt, step_meta=bad), params, g)
            assert report.verdicts["D8b"].witness["clause"] == "u-not-in-u-plus"


class TestD2AgainstOracle:
    def test_seeded_edge_edits_match_quadratic_scan(self):
        rng = random.Random(11)
        seen = set()
        for inst in (
            caterpillar(1, 20),
            caterpillar(2, 24),
            star_of_balls(1, 20, 5),
            star_of_balls(2, 33, 3),
        ):
            scheme = build_scheme(inst.graph, inst.params)
            pairs = list(zip(scheme, scheme[1:])) + [(scheme[-1], scheme[-1])]
            for prev, nxt in pairs:
                for _ in range(8):
                    prev_m = prev
                    if rng.random() < 0.3:
                        prev_m = swap(prev, graph=_edit_edges(prev.graph, rng, 2, 0))
                    nxt_m = swap(nxt, graph=_edit_edges(nxt.graph, rng, 3, 2))
                    got = certify_entry(prev_m, nxt_m, inst.params, inst.graph)
                    want = d2_oracle(prev_m, nxt_m, inst.graph)
                    assert got.verdicts["D2"].to_json() == want, inst.name
                    seen.add(want.get("witness", {}).get("clause"))
        assert seen == {
            None,
            "edge-not-in-contraction",
            "edge-without-preimage",
            "missing-edge-between-originals",
        }

    def test_seeded_model_edits_match_quadratic_scan(self):
        # duplicated singleton ids (on a vertex whose edges are kept or
        # dropped) and moved multi-vertex models, each with an edge edit, so
        # every branch of D2 meets the oracle
        rng = random.Random(12)
        seen = set()
        for inst in (
            caterpillar(1, 20),
            caterpillar(2, 24),
            star_of_balls(1, 20, 5),
            star_of_balls(2, 33, 3),
        ):
            scheme = build_scheme(inst.graph, inst.params)
            for prev, nxt in list(zip(scheme, scheme[1:])) + [(scheme[-1],) * 2]:
                singles = [v for v, m in nxt.model.items() if len(m) == 1]
                multi = [v for v, m in nxt.model.items() if len(m) > 1]
                for _ in range(12):
                    model = dict(nxt.model)
                    graph = _edit_edges(nxt.graph, rng, 1, 1)
                    a, b = sorted(rng.sample(singles, 2))
                    kind = rng.choice(["duplicated-id", "moved-model"])
                    if kind == "moved-model" and multi:
                        c = rng.choice(multi)
                        model[a], model[c] = model[c], model[a]
                    else:
                        kind = "duplicated-id"
                        model[a] = model[b]
                        if rng.random() < 0.5:
                            graph = Graph.from_edges(
                                graph.n, [e for e in graph.edges() if a not in e]
                            )
                    nxt_m = swap(nxt, model=model, graph=graph)
                    got = certify_entry(prev, nxt_m, inst.params, inst.graph)
                    want = d2_oracle(prev, nxt_m, inst.graph)
                    assert got.verdicts["D2"].to_json() == want, inst.name
                    witness = want.get("witness", {})
                    ends = witness.get("edge", ())
                    multi_end = any(len(model[v]) > 1 for v in ends)
                    seen.add((kind, witness.get("clause"), multi_end))
        assert seen >= {
            ("duplicated-id", "edge-not-in-contraction", False),
            ("duplicated-id", "edge-without-preimage", False),
            ("duplicated-id", "missing-edge-between-originals", False),
            ("moved-model", "edge-not-in-contraction", True),
            ("moved-model", "edge-without-preimage", True),
        }


def _edit_edges(g: Graph, rng: random.Random, most_dropped: int, most_added: int):
    """g with up to ``most_dropped`` random edges removed and up to
    ``most_added`` random non-edges added."""
    edges = set(g.edges())
    for _ in range(rng.randint(0, most_dropped)):
        if edges:
            edges.discard(rng.choice(sorted(edges)))
    for _ in range(rng.randint(0, most_added)):
        u, v = sorted(rng.sample(range(g.n), 2))
        edges.add((u, v))
    return Graph.from_edges(g.n, sorted(edges))


class TestWitnessOverlapAcrossSinks:
    def test_shared_families_fail_d11(self):
        # two sink edges whose witness families are the same leftover sets
        apex = 0
        edges = []
        pairs = []
        n = 1
        for _ in range(2):
            s, m = n, n + 1
            n += 2
            pairs.append((s, m))
            edges += [(s, m), (apex, s), (apex, m)]
        shared = []
        for _ in range(4):
            x = n
            n += 1
            shared.append(x)
            edges.append((apex, x))
            for _, m in pairs:
                edges.append((m, x))
        g = Graph.from_edges(n, edges)
        covered = [apex] + [v for p in pairs for v in p]
        remap = {v: i for i, v in enumerate(sorted(covered))}
        entry_graph = Graph.from_edges(
            len(covered),
            [
                (remap[u], remap[v])
                for u, v in g.edges()
                if u in remap and v in remap
            ],
        )
        arcs = set()
        hyperedges = []
        witnesses = {}
        links = {}
        for i, (s, m) in enumerate(pairs):
            arcs |= {(remap[m], remap[s]), (remap[apex], remap[s])}
            hyperedges.append(
                Hyperedge(frozenset({remap[s], remap[m], remap[apex]}), 1, remap[s])
            )
            witnesses[i] = tuple(frozenset({x}) for x in shared)
            links[i] = (frozenset({m}), frozenset({apex}))
        entry = SchemeEntry(
            graph=entry_graph,
            model={remap[v]: frozenset({v}) for v in covered},
            arcs=frozenset(arcs),
            hyperedges=tuple(hyperedges),
            witnesses=witnesses,
            witness_links=links,
            step_meta=None,
        )
        params = SchemeParams(h=4, k=1, r=3, d=3, n_freeze=entry_graph.n, l0=1, t=1)
        report = certify_entry(entry, entry, params, g)
        assert "D11" in report.failures()
        assert report.verdicts["D11"].witness["clause"] == "witness-overlap"
        assert "D10" not in report.failures()


def _one_edge_d10(label: int, family, n: int) -> Verdict:
    """D10 of the entry pattern above with one hyperedge {apex 0, sink 1,
    member 2} of ``label``, on an original graph of n vertices.

    The link vertices 0 and 2 are adjacent to each of 3..8, which form the
    path 3-4-...-8; vertex 1 is also adjacent to 3, and the rest is
    isolated.  h = 4, k = 1: a label-2 edge needs 3 disjoint ct(2, 1)
    minors (single edges) after contraction, a label-1 edge 4 vertices.
    """
    entry = _one_edge_entry(label, family, [{2}, {0}])
    g = _one_edge_graph(n)
    return certify_entry(entry, entry, ONE_EDGE_PARAMS, g).verdicts["D10"]


ONE_EDGE_PARAMS = SchemeParams(h=4, k=1, r=3, d=3, n_freeze=3, l0=1, t=1)


def _one_edge_graph(n: int) -> Graph:
    apex, s, m = 0, 1, 2
    edges = [(apex, s), (apex, m), (s, m), (s, 3)]
    edges += [(x, x + 1) for x in range(3, 8)]
    edges += [(y, x) for x in range(3, 9) for y in (apex, m)]
    return Graph.from_edges(n, edges)


def _one_edge_entry(label: int, family, links) -> SchemeEntry:
    """The entry of ``_one_edge_d10`` with the given witnesses and links,
    each id set built afresh."""
    apex, s, m = 0, 1, 2
    return SchemeEntry(
        graph=complete_graph(3),
        model={v: frozenset({v}) for v in range(3)},
        arcs=frozenset({(apex, s), (m, s)}),
        hyperedges=(Hyperedge(frozenset({apex, s, m}), label, s),),
        witnesses={0: tuple(frozenset(a) for a in family)},
        witness_links={0: tuple(frozenset(l) for l in links)},
        step_meta=None,
    )


class TestMinorClause:
    """D10 decides the minor from the witness family alone."""

    UNGROUPED = ({3}, {4})  # 2 sets where 3 groups of ct(2, 1) need 6
    GROUPED = ({3}, {4}, {5}, {6}, {7}, {8})  # (root, child) pairs on the path
    UNLINKED = ({3}, {5}, {4}, {6}, {7}, {8})  # parses, but 3 and 5 are not adjacent
    MISSING = {"clause": "minor-missing", "edge": 0}

    def test_small_host(self):
        # 9 vertices, so a search of the contracted graph would find three
        # disjoint edges (1-2 and two of the path); the family is no model
        assert _one_edge_d10(2, self.UNGROUPED, 9).witness == self.MISSING
        assert _one_edge_d10(2, self.GROUPED, 9).status == "pass"
        assert _one_edge_d10(2, self.UNLINKED, 9).witness == self.MISSING
        # label 1: contracting 3..8 leaves exactly 4 vertices, also
        # contracting the sink 1 leaves 3
        assert _one_edge_d10(1, [range(3, 9)], 9).status == "pass"
        assert _one_edge_d10(1, [{1, *range(3, 9)}], 9).witness == self.MISSING

    def test_large_host(self):
        # past 14 vertices no search ran and the clause was left unchecked
        d10 = _one_edge_d10(2, self.UNGROUPED, 20)
        assert d10.witness == self.MISSING and d10.reason is None
        assert _one_edge_d10(2, self.GROUPED, 20).status == "pass"


class TestD10Clauses:
    """One hand-built failure for each of the twelve clauses of D10, on the
    entry of ``_one_edge_d10`` over 10 vertices (9 is isolated), each a
    change to the clean label-1 family 3..8 with links {2} and {0}."""

    FAMILY = [range(3, 9)]
    LINKS = [{2}, {0}]
    # clause: (label, witnesses, links), in the scan's order
    CASES = {
        "empty-witness": (1, [set()], LINKS),
        "witness-outside-zone": (1, [{2}], LINKS),  # the member's model
        "witness-disconnected": (1, [{3, 5}], LINKS),
        "witness-overlap": (1, [{3, 4}, {4, 5}], LINKS),
        "link-count": (1, FAMILY, [{2}]),
        "link-outside-zone": (1, FAMILY, [{2}, {0, 25}]),  # 25 is no vertex
        "link-disconnected": (1, FAMILY, [{2}, {0, 9}]),
        "link-misses-members": (1, FAMILY, [{2}, {3}]),
        "link-meets-witness": (1, FAMILY, [{2}, {0, 3}]),
        "link-not-adjacent-to-witness": (1, [{9}], LINKS),
        "link-overlap": (1, FAMILY, [{2}, {0, 2}]),
        # 2 sets where 3 groups of ct(2, 1) need 6
        "minor-missing": (2, [{3}, {4}], LINKS),
    }

    def test_clean_family(self):
        entry = _one_edge_entry(1, self.FAMILY, self.LINKS)
        report = certify_entry(entry, entry, ONE_EDGE_PARAMS, _one_edge_graph(10))
        assert report.verdicts["D10"].status == "pass"

    @pytest.mark.parametrize("clause", list(CASES))
    def test_fresh_facts(self, clause):
        label, family, links = self.CASES[clause]
        entry = _one_edge_entry(label, family, links)
        report = certify_entry(entry, entry, ONE_EDGE_PARAMS, _one_edge_graph(10))
        assert report.verdicts["D10"].witness["clause"] == clause

    @pytest.mark.parametrize("clause", list(CASES))
    def test_memoized_facts(self, clause, monkeypatch):
        # three entries with equal, separately built families: the pairs
        # after the first read the facts the first one decided (the first
        # two clauses fail before any fact is asked), and no fact is
        # decided twice
        tables = []
        init = certify._Facts.__init__

        def write_once_init(facts, *args):
            init(facts, *args)
            facts._known = _WriteOnce()
            tables.append(facts._known)

        monkeypatch.setattr(certify._Facts, "__init__", write_once_init)
        label, family, links = self.CASES[clause]
        g = _one_edge_graph(10)
        scheme = [_one_edge_entry(label, family, links) for _ in range(3)]
        want = certify_entry(scheme[0], scheme[0], ONE_EDGE_PARAMS, g)
        tables.clear()
        report = certify_scheme(scheme, ONE_EDGE_PARAMS, g)
        assert len(tables) == 1
        for pair in report.pair_reports:
            assert pair.verdicts["D10"].to_json() == want.verdicts["D10"].to_json()
            assert pair.verdicts["D10"].witness["clause"] == clause


class _WriteOnce(dict):
    """A fact table that refuses to decide a key twice."""

    def __setitem__(self, key, value):
        assert key not in self, key
        super().__setitem__(key, value)


class TestSchemeLevel:
    def test_nonstandard_first_entry(self):
        g = complete_graph(3)
        params = SchemeParams(h=3, k=2, r=2, d=2, n_freeze=5, l0=1, t=1)
        entry = initial_entry(g)
        tampered = swap(entry, arcs=frozenset({(0, 1)}))
        report = certify_scheme([tampered], params, g)
        assert not report.clean()
        assert report.start.status == "fail"

    def test_clean_two_entry_scheme(self):
        inst = star_of_balls(1, 6, 2)
        scheme = build_scheme(inst.graph, inst.params)
        report = certify_scheme(scheme, inst.params, inst.graph)
        assert report.clean()
        assert len(report.pair_reports) == len(scheme)

    def test_empty_scheme(self):
        params = SchemeParams(h=3, k=2, r=2, d=2, n_freeze=5, l0=1, t=1)
        report = certify_scheme([], params, ct(2, 2))
        assert not report.clean()


def _tail_report(scheme, params, graph) -> dict:
    """The frozen-tail report of ``certify_scheme``, checked against the
    full self pair of ``certify_entry``."""
    got = certify_scheme(scheme, params, graph).pair_reports[-1].to_json()
    assert got == certify_entry(scheme[-1], scheme[-1], params, graph).to_json()
    return got


class TestFrozenTail:
    # after a clean last pair the tail runs D3 alone; its report must be the
    # full self pair's in every case

    def test_acceptance_corpus(self):
        for inst in acceptance_corpus():
            scheme = build_scheme(inst.graph, inst.params)
            tail = _tail_report(scheme, inst.params, inst.graph)
            assert all(v == {"status": "pass"} for v in tail.values())

    def test_unfrozen_last_entry(self):
        # a clean last pair whose next entry has 13 > N = 12 vertices
        inst = caterpillar(1, 16)
        scheme = build_scheme(inst.graph, inst.params)[:-1]
        assert scheme[-1].graph.n > inst.params.n_freeze
        tail = _tail_report(scheme, inst.params, inst.graph)
        assert tail["D3"]["witness"]["clause"] == "unfrozen-entry-unchanged"

    def test_one_entry_scheme(self):
        inst = star_of_balls(1, 6, 2)
        tail = _tail_report([initial_entry(inst.graph)], inst.params, inst.graph)
        assert tail["D3"]["witness"]["clause"] == "unfrozen-entry-unchanged"

    def test_seeded_mutants(self):
        # the draws of TestTotality.test_seeded_mutants_give_a_report_or_an_input_error
        audit = _mutation_audit()
        rng = random.Random(3)
        for inst in audit.instances():
            doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
            for _ in range(150):
                got = audit.mutate(doc, rng, inst.graph.n)
                if got is None:
                    continue
                try:
                    scheme = scheme_from_json(json.dumps(got[0]))
                except DefcolorError:
                    continue
                _tail_report(scheme, inst.params, inst.graph)


def _check_inverse(prev: SchemeEntry, nxt: SchemeEntry):
    """The inverse of the absorb map against a scan of every model pair."""
    _, _, (first, more) = _pair_maps(prev, nxt)
    got = {w: [v, *more.get(w, ())] for w, v in first.items()}
    want = {}
    for w in range(nxt.graph.n):
        inside = [v for v in range(prev.graph.n) if prev.model[v] <= nxt.model[w]]
        if inside:
            want[w] = inside
    assert got == want
    assert all(more.values())  # one absorbed vertex gets no list


class TestAbsorbInverse:
    def test_acceptance_corpus(self):
        for inst in acceptance_corpus():
            scheme = build_scheme(inst.graph, inst.params)
            for prev, nxt in zip(scheme, scheme[1:]):
                _check_inverse(prev, nxt)

    def test_seeded_mutants(self):
        # the draws of TestTotality.test_seeded_mutants_give_a_report_or_an_input_error,
        # on every pair the certifier maps whose next models are disjoint
        audit = _mutation_audit()
        rng = random.Random(3)
        checked = 0
        for inst in audit.instances():
            g, params = inst.graph, inst.params
            doc = json.loads(scheme_to_json(build_scheme(g, params)))
            for _ in range(150):
                got = audit.mutate(doc, rng, g.n)
                if got is None:
                    continue
                try:
                    scheme = scheme_from_json(json.dumps(got[0]))
                except DefcolorError:
                    continue
                for prev, nxt in zip(scheme, scheme[1:]):
                    if _shape(prev, params, g) or _shape(nxt, params, g):
                        continue
                    if sum(map(len, nxt.model.values())) != len(nxt.cover):
                        continue
                    _check_inverse(prev, nxt)
                    checked += 1
        assert checked >= 200


def _mutate(doc: list, rng: random.Random, n_orig: int) -> list:
    """A copy of a scheme document with one field of one entry changed: an
    edge dropped or added, a model id replaced, two models swapped, or an
    arc endpoint moved (every new value in range)."""
    d = json.loads(json.dumps(doc))
    e = rng.choice(d)
    kind = rng.choice(["drop-edge", "add-edge", "model-id", "model-swap", "arc-end"])
    n = e["graph"]["n"]
    edges = e["graph"]["edges"]
    if kind == "drop-edge" and edges:
        edges.pop(rng.randrange(len(edges)))
    elif kind == "add-edge":
        u, v = sorted(rng.sample(range(n), 2))
        if [u, v] not in edges:
            edges.append([u, v])
    elif kind == "model-id":
        ids = e["model"][str(rng.randrange(n))]
        ids[rng.randrange(len(ids))] = rng.randrange(n_orig)
    elif kind == "model-swap":
        a, b = (str(x) for x in rng.sample(range(n), 2))
        e["model"][a], e["model"][b] = e["model"][b], e["model"][a]
    elif kind == "arc-end" and e["arcs"]:
        arc = rng.choice(e["arcs"])
        arc[rng.randrange(2)] = rng.randrange(n)
    return d


class TestPinnedMutationReports:
    # sha256 of the report JSON of 1,000 seeded mutations (one line each),
    # recorded before the certifier shared one absorb/persist map per pair
    DIGEST = "6f079db7247e4b8366868fbc1a7e00fb9fb42c0a82e668ec863d49558980ee3b"

    def test_single_field_mutations_keep_their_reports(self):
        rng = random.Random(7)
        digest = hashlib.sha256()
        for inst in (
            caterpillar(1, 14),
            caterpillar(1, 20),
            caterpillar(2, 14),
            star_of_balls(1, 6, 2),
            star_of_balls(2, 7, 2),
        ):
            doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
            for _ in range(200):
                text = json.dumps(_mutate(doc, rng, inst.graph.n))
                try:
                    scheme = scheme_from_json(text)
                    report = certify_scheme(scheme, inst.params, inst.graph)
                    line = json.dumps(report.to_json())
                except DefcolorError as exc:
                    line = "error:" + type(exc).__name__
                digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


def _prefix(inst) -> list[SchemeEntry]:
    """The entries of ``inst``'s build up to its ``BucketTooSmallError``."""
    params = inst.params
    entries = [initial_entry(inst.graph)]
    while True:
        cur = entries[-1]
        triple = find_homogeneous(cur.graph, params.t, params.l0, params.d, params.r)
        try:
            entries.append(step(cur, triple, params))
        except BucketTooSmallError:
            return entries


def _with_family(entry: SchemeEntry, ei: int, witnesses=None, links=None):
    """``entry`` with hyperedge ei's witness family or links replaced."""
    changes = {}
    if witnesses is not None:
        changes["witnesses"] = {**entry.witnesses, ei: tuple(witnesses)}
    if links is not None:
        changes["witness_links"] = {**entry.witness_links, ei: tuple(links)}
    return swap(entry, **changes)


class TestLongScheme:
    # a scheme whose witness families are inherited by up to 18 entries,
    # where the certifier decides each family's own clauses once; the sha256
    # of every report JSON was recorded before it did
    DIGESTS = {
        "clean": "88391fdb52db2700a374ec97fbcb8492918168a4cb0f8911840bcbf3824a02fc",
        "disconnected-witness": "d9d5c76241a9080f0f2eb526bf7d31bad99c68e43923bfd60798874e621fb903",
        "witnesses-outside-zone": "7cf1e479aad2fb5c6e4637f72ea7bce85b4240d9974f981cce7f80aa7c8f7a33",
        "witness-shared-across-sinks": "8bc8e0932f1de8fb5592cdc7ee5aa88f3e990f4171e5d8bff0bc0f863ea14efb",
        "link-shared-outside-members": "80b04d5c04c03bd736650f50426d660ec154ee08735b4b069f278afc83c68220",
        "witness-id-past-n": "6d77b8d347cc581239aa48c5180218ee611733c22b0e0d2305c8d184840488b1",
    }
    MIDDLE = 10

    @pytest.fixture(scope="class")
    def long(self):
        inst = caterpillar(1, 101)
        with pytest.raises(BucketTooSmallError):
            build_scheme(inst.graph, inst.params)
        scheme = _prefix(inst)
        assert len(scheme) == 20
        return inst, scheme, self._mutants(scheme, inst.graph)

    def _mutants(self, scheme, g: Graph) -> dict[str, list[SchemeEntry]]:
        m = self.MIDDLE
        entry, before = scheme[m], scheme[m - 1]
        inherited = [
            ei
            for ei in range(len(entry.hyperedges))
            if entry.witnesses[ei] in before.witnesses.values()
        ]
        ei, ej = random.Random(5).sample(inherited, 2)
        fam_i, fam_j = entry.witnesses[ei], entry.witnesses[ej]
        sink_ids = entry.model[entry.hyperedges[ei].sink]
        held = frozenset().union(*fam_i)

        def at_middle(new_entry):
            return [*scheme[:m], new_entry, *scheme[m + 1 :]]

        first = fam_i[0]
        # an id of the sink's model in no witness and no neighbour of the
        # first one: adding it leaves the family disjoint but disconnected
        apart = min(
            x for x in sink_ids - held if all(x not in g.adj[o] for o in first)
        )
        link_ids = frozenset({*entry.witness_links[ei][0], min(sink_ids - held)})

        def past_n(e):
            for k, fam in e.witnesses.items():
                if fam == fam_i:
                    return _with_family(e, k, witnesses=(first | {g.n + 5}, *fam[1:]))
            return e

        # the family is inherited up to the last entry
        assert past_n(scheme[-1]) is not scheme[-1]
        return {
            "clean": scheme,
            "disconnected-witness": at_middle(
                _with_family(entry, ei, witnesses=(first | {apart}, *fam_i[1:]))
            ),
            "witnesses-outside-zone": at_middle(
                _with_family(
                    _with_family(entry, ei, witnesses=fam_j), ej, witnesses=fam_i
                )
            ),
            "witness-shared-across-sinks": at_middle(
                _with_family(entry, ej, witnesses=(fam_j[0] | first, *fam_j[1:]))
            ),
            "link-shared-outside-members": at_middle(
                _with_family(
                    _with_family(entry, ei, links=(link_ids,)), ej, links=(link_ids,)
                )
            ),
            "witness-id-past-n": [*scheme[:m], *map(past_n, scheme[m:])],
        }

    def _reports(self, long) -> dict[str, SchemeReport]:
        inst, _, mutants = long
        return {
            name: certify_scheme(scheme, inst.params, inst.graph)
            for name, scheme in mutants.items()
        }

    def test_reports_keep_their_digests(self, long):
        got = {
            name: hashlib.sha256(json.dumps(r.to_json()).encode()).hexdigest()
            for name, r in self._reports(long).items()
        }
        assert got == self.DIGESTS

    def test_pair_reports_equal_standalone_pairs(self, long):
        inst, _, mutants = long
        for name, scheme in mutants.items():
            report = certify_scheme(scheme, inst.params, inst.graph)
            pairs = [*zip(scheme, scheme[1:]), (scheme[-1], scheme[-1])]
            for (prev, nxt), got in zip(pairs, report.pair_reports, strict=True):
                want = certify_entry(prev, nxt, inst.params, inst.graph)
                assert got.to_json() == want.to_json(), name

    def test_each_mutant_fails_where_it_was_made(self, long):
        reports = self._reports(long)
        m = self.MIDDLE

        def failing(name, cond):
            pairs = reports[name].pair_reports
            return {i: pairs[i].verdicts[cond].witness["clause"]
                    for i in range(len(pairs)) if cond in pairs[i].failures()}

        clean = reports["clean"].pair_reports
        assert all(r.clean() for r in clean[:-1])
        assert clean[-1].failures() == ["D3"]
        assert failing("disconnected-witness", "D10") == {
            m - 1: "witness-disconnected"
        }
        # the family is clean in every entry but this one, where it is moved
        assert failing("witnesses-outside-zone", "D10") == {
            m - 1: "witness-outside-zone"
        }
        assert failing("witnesses-outside-zone", "D11") == {}
        assert failing("witness-shared-across-sinks", "D11") == {
            m - 1: "witness-overlap"
        }
        assert failing("link-shared-outside-members", "D11") == {
            m - 1: "link-overlap-outside-shared-members"
        }
        # a report, not an IndexError: the zone clause fails the id first
        past_n = failing("witness-id-past-n", "D10")
        assert set(past_n.values()) == {"witness-outside-zone"}
        assert min(past_n) == m - 1 and len(past_n) == len(clean) - m + 1


def _with_edges(entry: SchemeEntry, drop=(), add=()) -> SchemeEntry:
    g = entry.graph
    edges = set(g.edges()) - set(drop)
    assert len(edges) == g.edge_count() - len(drop)
    return swap(entry, graph=Graph.from_edges(g.n, sorted(edges | set(add))))


def _dropped_edge_failures(inst, prev, nxt) -> dict:
    report = certify_entry(prev, nxt, inst.params, inst.graph)
    assert report.verdicts["D2"].status == "pass"
    return {c: v.witness for c, v in report.verdicts.items() if v.status == "fail"}


def _dropped_by_scan(prev: SchemeEntry, nxt: SchemeEntry, absorb) -> bool:
    for u, v in prev.graph.edges():
        wu, wv = absorb[u], absorb[v]
        if wu is not None and wv is not None and wu != wv:
            if not nxt.graph.has_edge(wu, wv):
                return True
    return False


class TestDroppedEdgeClauses:
    # a previous edge whose ends are absorbed into two distinct next vertices
    # that are not adjacent; D2 passes on each pair, so D8g or D8h must catch it

    def test_gc_endpoint_unqualified(self):
        # caterpillar(1, 14): q = 10 holds spine vertices 1-5; without the
        # edge (apex, q), the previous edge (0, 1) is dropped at q, and its
        # other end, the apex, lies in U+
        inst = caterpillar(1, 14)
        prev, nxt = build_scheme(inst.graph, inst.params)
        assert nxt.step_meta.q == 10 and 0 in nxt.step_meta.u_plus
        got = _dropped_edge_failures(inst, prev, _with_edges(nxt, drop=[(0, 10)]))
        assert got["D8g"] == {"clause": "gc-endpoint-unqualified", "edge": [0, 1]}

    def test_gc_edge_dropped_away_from_q(self):
        # caterpillar(1, 20), second step: vertex 16 of the previous entry
        # (the first contraction) becomes 11, and q = 12; without the edge
        # (apex, 11), the previous edge (0, 16) is dropped away from q
        inst = caterpillar(1, 20)
        scheme = build_scheme(inst.graph, inst.params)
        prev, nxt = scheme[1], scheme[2]
        assert nxt.step_meta.q == 12 and nxt.model[11] == prev.model[16]
        got = _dropped_edge_failures(inst, prev, _with_edges(nxt, drop=[(0, 11)]))
        assert got["D8g"] == {"clause": "gc-edge-dropped-away-from-q", "edge": [0, 16]}

    def test_hd_edge_dropped(self):
        # star_of_balls(1, 6, 2) deletes balls: q = 3 holds the ball {1, 2}
        # and the ball {11, 12} survives; a previous edge (1, 11) has no
        # next edge (3, 1)
        inst = star_of_balls(1, 6, 2)
        prev, nxt = build_scheme(inst.graph, inst.params)
        assert nxt.step_meta.q == 3 and nxt.model[1] == frozenset({11})
        got = _dropped_edge_failures(inst, _with_edges(prev, add=[(1, 11)]), nxt)
        assert got == {"D8h": {"clause": "hd-edge-dropped", "edge": [1, 11]}}

    def test_d2_answer_matches_scan_of_pair_maps(self):
        # the pairs of TestPinnedMutationReports' mutants: whenever D2 has
        # seen every image, its answer is whether some previous edge is dropped
        rng = random.Random(7)
        answers = {True: 0, False: 0, None: 0}
        for inst in (
            caterpillar(1, 14),
            caterpillar(1, 20),
            caterpillar(2, 14),
            star_of_balls(1, 6, 2),
            star_of_balls(2, 7, 2),
        ):
            g, params = inst.graph, inst.params
            doc = json.loads(scheme_to_json(build_scheme(g, params)))
            for _ in range(200):
                try:
                    scheme = scheme_from_json(json.dumps(_mutate(doc, rng, g.n)))
                except DefcolorError:
                    continue
                for prev, nxt in zip(scheme, scheme[1:]):
                    if _shape(prev, params, g) or _shape(nxt, params, g):
                        continue
                    absorb, _, inverse = _pair_maps(prev, nxt)
                    report = CertReport()
                    answer = _check_d2(report, prev, nxt, g, absorb, inverse)
                    answers[answer] += 1
                    if answer is None:
                        assert report.verdicts["D2"].status == "fail"
                        continue
                    assert answer == _dropped_by_scan(prev, nxt, absorb)
        assert min(answers.values()) >= 50, answers
