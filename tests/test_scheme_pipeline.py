from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import sys
import types

import orjson
import pytest

from defcolor.check import verify_coloring
from defcolor.errors import EmptyPaletteError, InputFormatError, SearchFailureError
from defcolor.graphs import (
    complete_graph,
    ct,
    graph_from_doc,
    parse_edge_json,
    to_edge_json,
)
from defcolor.scheme import (
    SchemeParams,
    build_scheme,
    certify_scheme,
    color_from_scheme,
    initial_entry,
    scheme_from_json,
    scheme_to_json,
    serialize,
)
from defcolor.scheme.corpus import acceptance_corpus, caterpillar, star_of_balls
from helpers import path_graph
from test_certify import _prefix
from test_golden import INSTANCES


SMALL = SchemeParams(h=3, k=2, r=3, d=2, n_freeze=12, l0=1, t=1)


class TestFrozen:
    def test_small_graph_freezes_immediately(self):
        g = ct(3, 2)
        scheme = build_scheme(g, SMALL)
        assert len(scheme) == 1
        assert scheme[0] == initial_entry(g)

    def test_frozen_scheme_certifies(self):
        g = complete_graph(4)
        scheme = build_scheme(g, SMALL)
        report = certify_scheme(scheme, SMALL, g)
        assert report.clean()

    def test_frozen_coloring_is_monochromatic(self):
        g = path_graph(7)
        scheme = build_scheme(g, SMALL)
        coloring = color_from_scheme(scheme, SMALL, g)
        assert set(coloring.colors) == {1}

    def test_search_failure_reports_progress(self):
        g = complete_graph(6)
        params = SchemeParams(h=3, k=2, r=3, d=2, n_freeze=3, l0=1, t=1)
        with pytest.raises(SearchFailureError) as err:
            build_scheme(g, params)
        # the message names the graph the search stopped on
        assert "no homogeneous structure at 6 vertices" in str(err.value)


class TestCorpus:
    def test_every_instance_builds_certifies_colors(self):
        for inst in acceptance_corpus():
            scheme = build_scheme(inst.graph, inst.params)
            assert scheme[-1].graph.n <= inst.params.n_freeze
            assert all(
                b.graph.n < a.graph.n for a, b in zip(scheme, scheme[1:])
            )
            report = certify_scheme(scheme, inst.params, inst.graph)
            assert report.clean(), (inst.name, report.to_json())
            coloring = color_from_scheme(scheme, inst.params, inst.graph)
            assert set(coloring.colors) <= set(range(1, inst.params.h))
            ok, _ = verify_coloring(
                inst.graph, coloring, inst.params.defect_bound
            )
            assert ok

    def test_deletion_instance_shape(self):
        inst = star_of_balls(1, 6, 2)
        scheme = build_scheme(inst.graph, inst.params)
        assert len(scheme) == 2
        # the deletion step keeps the covered set strictly smaller
        assert scheme[1].cover < scheme[0].cover

    def test_contraction_instance_shape(self):
        inst = caterpillar(1, 14)
        scheme = build_scheme(inst.graph, inst.params)
        assert len(scheme) == 2
        assert scheme[1].cover == scheme[0].cover
        meta = scheme[1].step_meta
        assert meta is not None and len(scheme[1].model[meta.q]) >= 2


class TestMultiStep:
    def test_two_disjoint_clusters_take_two_steps(self):
        # two independent apex-plus-balls clusters: the builder consumes one
        # per step, so hyperedges, arcs and witness families must survive a
        # step they do not participate in
        from defcolor.graphs import Graph

        edges = []
        n = 0
        for _ in range(2):
            apex = n
            n += 1
            for _ in range(5):
                v = n
                n += 1
                edges.append((apex, v))
        g = Graph.from_edges(n, edges)
        params = SchemeParams(h=3, k=2, r=2, d=3, n_freeze=5, l0=1, t=5)
        scheme = build_scheme(g, params)
        assert [e.graph.n for e in scheme] == [12, 8, 4]
        report = certify_scheme(scheme, params, g)
        assert report.clean(), report.to_json()
        # both frozen hyperedges survive with their families intact
        final = scheme[-1]
        assert len(final.hyperedges) == 2
        assert all(len(final.witnesses[i]) == 4 for i in range(2))
        coloring = color_from_scheme(scheme, params, g)
        ok, _ = verify_coloring(g, coloring, params.defect_bound)
        assert ok


class TestSerialization:
    def test_roundtrip_equality(self):
        inst = caterpillar(2, 13)
        scheme = build_scheme(inst.graph, inst.params)
        doc = scheme_to_json(scheme)
        back = scheme_from_json(doc)
        assert back == scheme
        assert scheme_to_json(back) == doc

    def test_roundtrip_star(self):
        inst = star_of_balls(2, 6, 2)
        scheme = build_scheme(inst.graph, inst.params)
        back = scheme_from_json(scheme_to_json(scheme))
        report = certify_scheme(back, inst.params, back[0].graph)
        assert report.clean()

    def test_entry_larger_than_the_one_before_is_input_error(self, monkeypatch):
        # a few bytes claiming a million vertices are refused before any
        # graph of that size is built
        inst = caterpillar(1, 14)
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        doc[1]["graph"]["n"] = 10**6
        sizes = []

        def recording(graph_doc):
            sizes.append(graph_doc["n"])
            return graph_from_doc(graph_doc)

        monkeypatch.setattr(serialize, "graph_from_doc", recording)
        with pytest.raises(InputFormatError, match="entry 1 claims 1000000"):
            scheme_from_json(json.dumps(doc))
        assert sizes == [inst.graph.n]

    def test_first_entry_with_more_vertices_than_models_is_input_error(
        self, monkeypatch
    ):
        # a valid first entry has one singleton model per vertex, so a short
        # document claiming a million vertices is refused before any graph
        doc = [{
            "graph": {"n": 10**6, "edges": []}, "model": {"0": [0]}, "arcs": [],
            "hyperedges": [], "witnesses": {}, "witness_links": {}, "step_meta": None,
        }]
        sizes = []

        def recording(graph_doc):
            sizes.append(graph_doc["n"])
            return graph_from_doc(graph_doc)

        monkeypatch.setattr(serialize, "graph_from_doc", recording)
        with pytest.raises(
            InputFormatError, match="entry 0 claims 1000000 vertices, more than its 1 model keys"
        ):
            scheme_from_json(json.dumps(doc))
        doc[0]["model"] = 7
        with pytest.raises(InputFormatError, match="more than its 0 model keys"):
            scheme_from_json(json.dumps(doc))
        assert sizes == []
        doc[0]["graph"]["n"], doc[0]["model"] = 1, {"0": [0]}
        assert scheme_from_json(json.dumps(doc))[0].graph.n == 1
        assert sizes == [1]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_inside_and_restored_after(self, monkeypatch, enabled):
        inst = caterpillar(1, 14)
        text = scheme_to_json(build_scheme(inst.graph, inst.params))
        seen = []

        def recording(graph_doc):
            seen.append(gc.isenabled())
            return graph_from_doc(graph_doc)

        monkeypatch.setattr(serialize, "graph_from_doc", recording)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert scheme_to_json(scheme_from_json(text)) == text
            assert gc.isenabled() is enabled
            with pytest.raises(InputFormatError):
                scheme_from_json(text[:-2])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen and not any(seen)


def _stdlib_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestCodec:
    """The documents are written and read by orjson; every outcome must be
    the standard library's, to the byte."""

    def test_documents_match_the_stdlib_encoder(self):
        insts = [*acceptance_corpus(), *(make() for make in INSTANCES.values())]
        schemes = [build_scheme(inst.graph, inst.params) for inst in insts]
        schemes.append(_prefix(caterpillar(1, 101)))
        assert len(schemes[-1]) == 20
        for scheme in schemes:
            text = scheme_to_json(scheme)
            assert text == _stdlib_text([serialize.entry_to_json(e) for e in scheme])
            assert scheme_from_json(text) == scheme
            for g in (scheme[0].graph, scheme[-1].graph):
                edge_text = to_edge_json(g)
                assert edge_text == _stdlib_text({"n": g.n, "edges": g.edges()})
                assert parse_edge_json(edge_text) == g

    def test_id_past_64_bits_is_written_by_the_stdlib(self):
        inst = star_of_balls(1, 6, 2)
        scheme = build_scheme(inst.graph, inst.params)
        entry = scheme[1]
        v = min(entry.model)
        big = dataclasses.replace(
            entry, model={**entry.model, v: entry.model[v] | {2**64}}
        )
        text = scheme_to_json([scheme[0], big])
        assert text == _stdlib_text([serialize.entry_to_json(e) for e in (scheme[0], big)])
        assert "18446744073709551616" in text
        assert scheme_from_json(text)[1] == big

    # outcomes recorded with the standard library's json alone: the sha256
    # of the certifier's report JSON, or the InputFormatError text
    OUTCOMES = {
        "model-id-2**64": "a12483bc5507bd7c96a12fd81c300b1f737ac3dcce7ad93a15dcf6a462e43825",
        "model-id-below-int64": "75592ff6208cecda93a4beb5423814c3a9df37b71c7d83ab0bb08fefa5ca3390",
        "sink-10**30": "9aaa44c259950c4fcd650ba2c31312c726b8801e616e08737a09e6e83457b90a",
        "edge-endpoint-2**70": "error: malformed scheme entry: bad edge entry "
        "[0, 1180591620717411303424] for n=13",
        "label-nan": "error: malformed scheme entry: labels and sinks: expected "
        "integers, got [nan, 3]",
        "truncated": "error: invalid JSON: Expecting ',' delimiter (byte offset 603)",
        "lone-surrogate-key": "error: malformed scheme entry: witnesses must be an "
        "object keyed by distinct integers",
    }
    EDITS = {
        "model-id-2**64": lambda d: d[1]["model"]["0"].append(2**64),
        "model-id-below-int64": lambda d: d[1]["model"]["0"].append(-(2**63) - 1),
        "sink-10**30": lambda d: d[1]["hyperedges"][0].update(sink=10**30),
        "edge-endpoint-2**70": lambda d: d[0]["graph"]["edges"][0].__setitem__(1, 2**70),
        "label-nan": lambda d: d[1]["hyperedges"][0].update(j=float("nan")),
        "lone-surrogate-key": lambda d: d[1]["witnesses"].update({"\ud800": []}),
    }

    @staticmethod
    def _outcome(text: str, inst) -> str:
        try:
            scheme = scheme_from_json(text)
        except InputFormatError as exc:
            return f"error: {exc}"
        return _sha(json.dumps(certify_scheme(scheme, inst.params, inst.graph).to_json()))

    @pytest.mark.parametrize("case", sorted(OUTCOMES))
    def test_read_outcomes_pinned(self, case):
        inst = star_of_balls(1, 6, 2)
        text = scheme_to_json(build_scheme(inst.graph, inst.params))
        if case == "truncated":
            text = text[:-2]
        else:
            doc = json.loads(text)
            self.EDITS[case](doc)
            text = json.dumps(doc)
        assert self._outcome(text, inst) == self.OUTCOMES[case]

    def test_edge_list_endpoint_past_64_bits(self):
        text = json.dumps({"n": 3, "edges": [[0, 1], [1, 2**70]]})
        with pytest.raises(InputFormatError) as info:
            parse_edge_json(text)
        assert str(info.value) == "bad edge entry [1, 1180591620717411303424] for n=3"

    def test_seeded_mutants_read_as_with_the_stdlib_alone(self, monkeypatch):
        # an orjson that rejects every text leaves the standard library's path
        inst = caterpillar(1, 16)
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        slots = []

        def collect(node):
            for key in range(len(node)) if type(node) is list else node:
                if type(node[key]) is int:
                    slots.append((node, key))
                elif type(node[key]) in (list, dict):
                    collect(node[key])

        collect(doc)
        rng = random.Random(7)
        values = (2**64, 2**64 - 1, -(2**63), -(2**63) - 1, 10**30, 1.5, float("inf"))
        texts = []
        for node, key in rng.sample(slots, 40):
            old, node[key] = node[key], rng.choice(values)
            texts.append(json.dumps(doc))
            node[key] = old
        fast = [self._outcome(t, inst) for t in texts]

        def reject(text):
            raise orjson.JSONDecodeError("rejected", "", 0)

        stub = types.SimpleNamespace(loads=reject, JSONDecodeError=orjson.JSONDecodeError)
        monkeypatch.setitem(sys.modules, "orjson", stub)
        assert [self._outcome(t, inst) for t in texts] == fast
        assert len(set(fast)) > 3


class TestParamsDocument:
    def test_roundtrip(self):
        params = star_of_balls(1, 6, 2).params
        assert SchemeParams.from_json(params.to_json()) == params

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: {**p, "h": 3.5},
            lambda p: {**p, "k": True},
            lambda p: {**p, "t": 6.0},
            lambda p: {**p, "N": "10"},
            lambda p: {x: v for x, v in p.items() if x != "l0"},
            lambda p: list(p.values()),
        ],
        ids=["h-float", "k-true", "t-float", "N-string", "l0-missing", "list"],
    )
    def test_fields_must_be_integers(self, edit):
        doc = edit(star_of_balls(1, 6, 2).params.to_json())
        with pytest.raises(InputFormatError):
            SchemeParams.from_json(doc)


class TestColoringGuards:
    def test_greedy_extension_rule(self):
        # two already-colored boundary colors force the third-smallest
        inst = caterpillar(1, 14)
        scheme = build_scheme(inst.graph, inst.params)
        coloring = color_from_scheme(scheme, inst.params, inst.graph)
        meta = scheme[1].step_meta
        dropped = sorted(
            set(scheme[0].by_orig) - set(scheme[1].by_orig)
        )
        for o in dropped:
            used = {
                coloring.colors[u]
                for u in inst.graph.adj[o] & meta.u_set
            }
            expected = min(
                c for c in range(1, inst.params.h) if c not in used
            )
            assert coloring.colors[o] == expected

    def test_minimum_excluded_color(self):
        # boundary colored {1, 3}: the dropped vertex takes 2
        from defcolor.graphs import Graph
        from defcolor.scheme.entry import SchemeEntry, StepMeta

        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)])
        entries = [initial_entry(g)]
        remaining = [frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0})]
        boundaries = [frozenset({0, 2}), frozenset({0, 1}), frozenset({0})]
        for keep, u_set in zip(remaining, boundaries):
            sub, ids = g.subgraph(keep)
            entries.append(
                SchemeEntry(
                    graph=sub,
                    model={i: frozenset({v}) for i, v in enumerate(ids)},
                    arcs=frozenset(),
                    hyperedges=(),
                    step_meta=StepMeta(q=0, u_set=u_set, u_plus=u_set),
                )
            )
        params = SchemeParams(h=4, k=1, r=2, d=3, n_freeze=1, l0=1, t=1)
        coloring = color_from_scheme(entries, params, g)
        # vertex 0 seeds color 1, vertex 1 takes 2, vertex 2 sees {1,2} -> 3,
        # vertex 3 sees {1, 3} -> minimum excluded is 2
        assert coloring.colors == (1, 2, 3, 2)

    def test_empty_palette_aborts_loudly(self):
        # hand-built three-entry walk on a triangle: the last dropped vertex
        # sees both palette colors on its boundary, which certifier-clean
        # schemes can never produce
        from defcolor.scheme.entry import SchemeEntry, StepMeta

        g = complete_graph(3)
        e1 = initial_entry(g)
        e2 = SchemeEntry(
            graph=complete_graph(2),
            model={0: frozenset({1}), 1: frozenset({2})},
            arcs=frozenset(),
            hyperedges=(),
            step_meta=StepMeta(q=0, u_set=frozenset({1, 2}), u_plus=frozenset({1, 2})),
        )
        e3 = SchemeEntry(
            graph=complete_graph(1),
            model={0: frozenset({1})},
            arcs=frozenset(),
            hyperedges=(),
            step_meta=StepMeta(q=0, u_set=frozenset({1}), u_plus=frozenset({1})),
        )
        params = SchemeParams(h=3, k=1, r=2, d=2, n_freeze=1, l0=1, t=1)
        with pytest.raises(EmptyPaletteError):
            color_from_scheme([e1, e2, e3], params, g)
