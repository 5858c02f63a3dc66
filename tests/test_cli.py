from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from defcolor import cli
from defcolor.check import MinorModel, verify_model
from defcolor.cli import main
from defcolor.coloring import decide_defective, min_defect
from defcolor.graphs import (
    Graph,
    complete_graph,
    ct,
    cycle_graph,
    parse_graph6,
    to_edge_json,
    to_graph6,
)
from defcolor.scheme import build_scheme, scheme_from_json, scheme_to_json
from defcolor.scheme.corpus import caterpillar, star_of_balls
from helpers import EXACT_MIX_G14, path_graph
from test_steps import over_deleting_inputs


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGen:
    def test_ct_graph6(self, capsys):
        code, out = run(capsys, "gen", "ct", "--h", "3", "--k", "2")
        assert code == 0
        assert out.endswith("\n")
        g = parse_graph6(out.strip())
        assert g.n == 7 and g.edge_count() == 10

    def test_ct_json(self, capsys):
        code, out = run(capsys, "gen", "ct", "--h", "2", "--k", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4

    def test_budget_exit_code(self, capsys):
        code, _ = run(capsys, "gen", "ct", "--h", "30", "--k", "3")
        assert code == 3

    def test_join_and_copies(self, capsys, tmp_path):
        a = tmp_path / "a.g6"
        a.write_text(to_graph6(ct(1, 1)) + "\n")
        b = tmp_path / "b.g6"
        b.write_text(to_edge_json(ct(2, 2)))
        code, out = run(capsys, "gen", "join", str(a), str(b))
        assert code == 0
        assert parse_graph6(out.strip()).n == 4
        code, out = run(capsys, "gen", "copies", "--count", "3", str(a))
        assert code == 0
        assert parse_graph6(out.strip()).n == 3

    def test_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "ct", "--h", "3")
        assert code == 2


class TestDepth:
    def test_report_fields(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_text(to_graph6(ct(3, 2)) + "\n")
        code, out = run(capsys, "depth", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["td"] == 3 and doc["ctd"] == 3
        assert doc["omega_delta"] == 2
        assert doc["clustered_bounds"] == {
            "lower": 2,
            "general": 6,
            "conditional_planar": 4,
        }
        assert len(doc["witness"]["parent"]) == 7

    def test_one_solver_run_per_call(self, capsys, tmp_path, monkeypatch):
        import defcolor.depth as depth

        runs = []

        class CountingSolver(depth._DepthSolver):
            def __init__(self, *args, **kwargs):
                runs.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(depth, "_DepthSolver", CountingSolver)
        p = tmp_path / "g.g6"
        p.write_text(to_graph6(ct(3, 2)) + "\n")
        code, _ = run(capsys, "depth", str(p))
        assert code == 0
        assert len(runs) == 1

    def test_budget_exit_code(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_text(to_graph6(ct(3, 3)) + "\n")
        code, out = run(capsys, "depth", str(p), "--budget-nodes", "1")
        assert code == 3 and out == ""
        code, out = run(capsys, "depth", str(p), "--budget-nodes", "100")
        assert code == 0 and json.loads(out)["ctd"] == 3

    def test_bad_witness_is_an_internal_error(self, capsys, tmp_path, monkeypatch):
        from dataclasses import replace

        from defcolor.graphs import RootedTree

        real = cli.connected_tree_depth

        def star_witness(g, **kwargs):
            # a star under vertex 0 misses the edges among the other vertices
            report = real(g, **kwargs)
            star = RootedTree.from_parents([None] + [0] * (g.n - 1))
            return replace(report, witness=star)

        monkeypatch.setattr(cli, "connected_tree_depth", star_witness)
        p = tmp_path / "g.g6"
        p.write_text(to_graph6(ct(3, 2)) + "\n")
        code = main(["depth", str(p)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "invalid depth witness" in captured.err


class TestMinor:
    def test_present_emits_model_document(self, capsys, tmp_path):
        host = tmp_path / "host.g6"
        host.write_text(to_graph6(ct(3, 2)) + "\n")
        pattern = tmp_path / "pattern.g6"
        pattern.write_text(to_graph6(ct(2, 2)) + "\n")
        code, out = run(capsys, "minor", str(host), "--pattern", str(pattern))
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"0", "1", "2"}
        # the emitted document is accepted back for verification
        model = tmp_path / "model.json"
        model.write_text(out)
        code, out = run(
            capsys, "minor", str(host), "--pattern", str(pattern),
            "--verify", str(model),
        )
        assert code == 0 and json.loads(out)["valid"]

    def test_absent(self, capsys, tmp_path):
        big = tmp_path / "big.g6"
        big.write_text(to_graph6(ct(3, 2)) + "\n")
        hostp = tmp_path / "path.g6"
        hostp.write_text(to_graph6(path_graph(9)) + "\n")
        code, out = run(capsys, "minor", str(hostp), "--pattern", str(big))
        assert code == 1
        assert json.loads(out) == {}

    def test_budget_exit_code(self, capsys, tmp_path):
        host = tmp_path / "host.g6"
        host.write_text(to_graph6(ct(3, 2)) + "\n")
        pattern = tmp_path / "pattern.g6"
        pattern.write_text(to_graph6(ct(2, 2)) + "\n")
        argv = ("minor", str(host), "--pattern", str(pattern), "--budget-nodes")
        code, out = run(capsys, *argv, "1")
        assert code == 3 and out == ""
        code, out = run(capsys, *argv, "1000")
        assert code == 0 and set(json.loads(out)) == {"0", "1", "2"}

    def test_budget_bounds_the_heuristic(self, capsys, tmp_path):
        # past the exhaustive limits --budget-nodes bounds the heuristic too
        host = tmp_path / "path.json"
        host.write_text(to_edge_json(path_graph(10_000)))
        pattern = tmp_path / "k3.g6"
        pattern.write_text(to_graph6(complete_graph(3)) + "\n")
        code = main(["minor", str(host), "--pattern", str(pattern), "--budget-nodes", "10"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "exceeded 10 nodes" in captured.err

    def test_exact_mix_k5_absent_within_bench_budget(self, capsys, tmp_path):
        host = tmp_path / "host.json"
        host.write_text(to_edge_json(EXACT_MIX_G14))
        pattern = tmp_path / "pattern.g6"
        pattern.write_text(to_graph6(complete_graph(5)) + "\n")
        code, out = run(
            capsys, "minor", str(host), "--pattern", str(pattern),
            "--budget-nodes", "40000",
        )
        assert code == 1 and json.loads(out) == {}

    def test_heuristic_miss_is_a_failed_search(self, capsys, tmp_path):
        # past the exhaustive limits the heuristic runs: a model it finds is
        # an answer, and "no model found" is no answer, not an absence
        k3 = tmp_path / "k3.g6"
        k3.write_text(to_graph6(complete_graph(3)) + "\n")
        k4 = tmp_path / "k4.g6"
        k4.write_text(to_graph6(complete_graph(4)) + "\n")
        ct42 = tmp_path / "ct42.g6"
        ct42.write_text(to_graph6(ct(4, 2)) + "\n")
        code, out = run(capsys, "minor", str(ct42), "--pattern", str(k4))
        model = {int(pv): frozenset(s) for pv, s in json.loads(out).items()}
        assert code == 0
        assert verify_model(ct(4, 2), complete_graph(4), MinorModel(model))[0]
        p20 = tmp_path / "p20.g6"
        p20.write_text(to_graph6(path_graph(20)) + "\n")
        code = main(["minor", str(p20), "--pattern", str(k3)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "host, pattern",
        [(ct(2, 2), ct(3, 2)), (cycle_graph(20), complete_graph(7))],
        ids=["exhaustive", "heuristic"],
    )
    def test_too_large_pattern_is_an_absence(self, capsys, tmp_path, host, pattern):
        # more vertices (ct(3,2) in ct(2,2)) or more edges (K7 in C20) than
        # the host: absent within the exhaustive limits and past them
        hostp = tmp_path / "host.g6"
        hostp.write_text(to_graph6(host) + "\n")
        patternp = tmp_path / "pattern.g6"
        patternp.write_text(to_graph6(pattern) + "\n")
        code, out = run(capsys, "minor", str(hostp), "--pattern", str(patternp))
        assert code == 1 and json.loads(out) == {}

    def test_verify_rejects_bad_model(self, capsys, tmp_path):
        host = tmp_path / "host.g6"
        host.write_text(to_graph6(ct(3, 2)) + "\n")
        pattern = tmp_path / "pattern.g6"
        pattern.write_text(to_graph6(ct(2, 2)) + "\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"0": [0], "1": [0], "2": [2]}))
        code, out = run(
            capsys, "minor", str(host), "--pattern", str(pattern),
            "--verify", str(model),
        )
        assert code == 1
        assert json.loads(out)["violation"]["clause"] == "disjointness"

    @pytest.mark.parametrize(
        "doc",
        [[[0], [1]], {"0": 5, "1": [1]}, {"0": ["x"], "1": [1]}],
        ids=["list", "int-set", "string-id"],
    )
    def test_verify_malformed_model_is_input_error(self, capsys, tmp_path, doc):
        # each used to raise in the bare comprehension: a traceback, exit 1
        host = tmp_path / "host.g6"
        host.write_text(to_graph6(ct(3, 2)) + "\n")
        pattern = tmp_path / "pattern.g6"
        pattern.write_text(to_graph6(ct(2, 2)) + "\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code, out = run(
            capsys, "minor", str(host), "--pattern", str(pattern),
            "--verify", str(model),
        )
        assert code == 2 and out == ""


class TestParserAndSeed:
    def _minor_argv(self, tmp_path):
        host = tmp_path / "host.g6"
        host.write_text(to_graph6(ct(3, 2)) + "\n")
        pattern = tmp_path / "pattern.g6"
        pattern.write_text(to_graph6(ct(2, 2)) + "\n")
        return ["minor", str(host), "--pattern", str(pattern)]

    def test_one_parser_per_process(self, capsys, tmp_path):
        parser = cli._build_parser()
        argv = self._minor_argv(tmp_path)
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "gen", "ct", "--h", "2", "--k", "2")[0] == 0
        assert cli._build_parser() is parser

    def test_mode_and_seed_are_usage_errors(self, capsys, tmp_path):
        # the input size picks the minor search, which takes no seed
        argv = self._minor_argv(tmp_path)
        for extra in (["--mode", "heuristic"], ["--mode", "exhaustive"]):
            assert run(capsys, *argv, *extra) == (2, "")
        assert run(capsys, "--seed", "3", *argv) == (2, "")

    def test_env_seed_is_not_read(self, capsys, tmp_path, monkeypatch):
        argv = self._minor_argv(tmp_path)
        want = run(capsys, *argv)
        for value in ("5", "x7"):
            monkeypatch.setenv("DEFCOLOR_SEED", value)
            assert run(capsys, *argv) == want
        assert want[0] == 0


class TestNegativeLimits:
    # a negative budget or size limit is a usage error, not a budget stop
    # (3) or an answer (1); 0 stays a valid limit.  K4 is absent from
    # ct(3, 2) in 0 nodes, and each other input needs more than 0.
    @pytest.mark.parametrize(
        "argv, at_zero",
        [
            (["minor", "{g}", "--pattern", "{k4}", "--budget-nodes"], 1),
            (["depth", "{g}", "--limit"], 3),
            (["color", "{g}", "--exact", "--k", "2", "--d", "1", "--max-vertices"], 3),
            (["gen", "ct", "--h", "3", "--k", "2", "--budget-vertices"], 3),
        ],
        ids=["budget-nodes", "limit", "max-vertices", "budget-vertices"],
    )
    def test_negative_is_usage_error(self, capsys, tmp_path, argv, at_zero):
        g = tmp_path / "g.g6"
        g.write_text(to_graph6(ct(3, 2)) + "\n")
        k4 = tmp_path / "k4.g6"
        k4.write_text(to_graph6(complete_graph(4)) + "\n")
        argv = [a.format(g=g, k4=k4) for a in argv]
        code = main([*argv, "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "must be >= 0, got -1" in captured.err
        assert run(capsys, *argv, "0")[0] == at_zero


class TestColor:
    def test_exact_feasible_and_not(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_text(to_graph6(ct(3, 2)) + "\n")
        code, out = run(capsys, "color", str(p), "--exact", "--k", "2", "--d", "1")
        assert code == 1
        assert json.loads(out) == {"feasible": False}
        code, out = run(capsys, "color", str(p), "--exact", "--k", "2", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 2 and len(doc["colors"]) == 7

    def test_more_colors_than_vertices_answer_as_k_equals_n(self, capsys, tmp_path):
        # K4 goes to the forest DP, C5 to backtracking; neither may cost O(k)
        huge = 10**12
        for g in (complete_graph(4), cycle_graph(5)):
            p = tmp_path / "g.g6"
            p.write_text(to_graph6(g) + "\n")
            assert min_defect(g, huge) == min_defect(g, g.n)
            for d in range(3):
                got, want = decide_defective(g, huge, d), decide_defective(g, g.n, d)
                assert got.feasible == want.feasible
                if want.feasible:
                    assert got.coloring.colors == want.coloring.colors
                    assert got.max_class_degree == want.max_class_degree
                argv = ["color", str(p), "--exact", "--d", str(d), "--k"]
                code, out = run(capsys, *argv, str(huge))
                want_code, want_out = run(capsys, *argv, str(g.n))
                assert code == want_code
                assert json.loads(out).get("colors") == json.loads(want_out).get("colors")
        # a report lists the classes up to min(k, n): none on no vertices
        assert decide_defective(Graph.from_edges(0, []), huge, 0).max_class_degree == {}

    def test_missing_flags(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_text(to_graph6(ct(2, 2)) + "\n")
        code, _ = run(capsys, "color", str(p), "--exact", "--k", "2")
        assert code == 2


class TestScheme:
    def test_build_certify_color_roundtrip(self, capsys, tmp_path):
        inst = star_of_balls(1, 6, 1)
        gpath = tmp_path / "g.json"
        gpath.write_text(to_edge_json(inst.graph))
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        spath = tmp_path / "scheme.json"
        code, out = run(
            capsys, "scheme", "build", str(gpath), "--params", str(ppath),
            "-o", str(spath),
        )
        assert code == 0
        scheme = scheme_from_json(spath.read_text())
        assert len(scheme) == 2
        code, out = run(capsys, "scheme", "certify", str(spath), "--params", str(ppath))
        assert code == 0
        assert json.loads(out)["clean"] is True
        code, out = run(capsys, "scheme", "color", str(spath), "--params", str(ppath))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["colors"]) == inst.graph.n
        # `scheme color` is the one scheme-coloring command
        code, out = run(
            capsys, "color", "--scheme", str(spath), "--params", str(ppath)
        )
        assert code == 2 and out == ""

    def test_certify_dirty_exit(self, capsys, tmp_path):
        inst = caterpillar(1, 13)
        gpath = tmp_path / "g.json"
        gpath.write_text(to_edge_json(inst.graph))
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        spath = tmp_path / "scheme.json"
        code, _ = run(
            capsys, "scheme", "build", str(gpath), "--params", str(ppath),
            "-o", str(spath),
        )
        assert code == 0
        doc = json.loads(spath.read_text())
        doc[1]["arcs"] = []  # drop the boundary arcs: the sink loses its arcs
        spath.write_text(json.dumps(doc))
        code, out = run(capsys, "scheme", "certify", str(spath), "--params", str(ppath))
        assert code == 1
        assert not json.loads(out)["clean"]

    def test_build_that_does_not_certify_is_internal_error(
        self, capsys, tmp_path, monkeypatch
    ):
        inst = caterpillar(1, 13)
        real = cli.build_scheme

        def dropped_arcs(g, params):
            scheme = real(g, params)
            scheme[1] = replace(scheme[1], arcs=frozenset())
            return scheme

        monkeypatch.setattr(cli, "build_scheme", dropped_arcs)
        gpath = tmp_path / "g.json"
        gpath.write_text(to_edge_json(inst.graph))
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        spath = tmp_path / "scheme.json"
        code = main([
            "scheme", "build", str(gpath), "--params", str(ppath), "-o", str(spath)
        ])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "does not certify" in captured.err
        assert not spath.exists()

    @pytest.mark.parametrize("case", range(2))
    def test_over_deleting_build_is_an_input_error(self, capsys, tmp_path, case):
        # such a build used to print nothing and exit 4: its scheme failed
        # D8h he-too-many-removed
        g, params = over_deleting_inputs()[case]
        gpath = tmp_path / "g.json"
        gpath.write_text(to_edge_json(g))
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(params.to_json()))
        code = main(["scheme", "build", str(gpath), "--params", str(ppath)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "> N = 5" in captured.err

    @pytest.mark.parametrize("field", ["sink", "member"])
    def test_certify_out_of_range_hyperedge_is_dirty(self, capsys, tmp_path, field):
        inst = caterpillar(1, 13)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        scheme = build_scheme(inst.graph, inst.params)
        doc = json.loads(scheme_to_json(scheme))
        n = doc[1]["graph"]["n"]
        edge = doc[1]["hyperedges"][0]
        if field == "sink":
            edge["sink"] = n + 2
        else:
            edge["s"].append(n + 1)
        spath = tmp_path / "scheme.json"
        spath.write_text(json.dumps(doc))
        code, out = run(capsys, "scheme", "certify", str(spath), "--params", str(ppath))
        assert code == 1
        report = json.loads(out)
        assert not report["clean"]
        first = report["pairs"][0]
        assert first["D5"]["status"] == "fail"
        assert first["D10"]["status"] == "skipped"
        assert first["D10"]["reason"].endswith("out of range, flagged by D5")

    def test_certify_out_of_range_model_id_is_dirty(self, capsys, tmp_path):
        inst = caterpillar(1, 14)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        (o,) = doc[1]["model"]["0"]
        doc[1]["model"]["0"] = [o + 10**6]
        spath = tmp_path / "scheme.json"
        spath.write_text(json.dumps(doc))
        code, out = run(capsys, "scheme", "certify", str(spath), "--params", str(ppath))
        assert code == 1
        report = json.loads(out)
        assert not report["clean"]
        assert report["pairs"][0]["D1"]["witness"]["clause"] == "id-range"

    def test_color_out_of_range_model_id_is_usage_error(self, capsys, tmp_path):
        # the colorer used to index the original graph with this id: an
        # IndexError, a traceback and exit 4
        inst = caterpillar(1, 14)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        doc[0]["model"]["0"] = [inst.graph.n]
        spath = tmp_path / "scheme.json"
        spath.write_text(json.dumps(doc))
        code, _ = run(capsys, "scheme", "color", str(spath), "--params", str(ppath))
        assert code == 2

    def test_certify_model_key_gap_is_dirty(self, capsys, tmp_path):
        inst = caterpillar(1, 14)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        model = doc[1]["model"]
        last = max(model, key=int)
        model[str(int(last) + 5)] = model.pop(last)
        spath = tmp_path / "scheme.json"
        spath.write_text(json.dumps(doc))
        code, out = run(capsys, "scheme", "certify", str(spath), "--params", str(ppath))
        assert code == 1
        report = json.loads(out)
        assert not report["clean"]
        assert report["pairs"][0]["D1"]["witness"]["clause"] == "model-keys"

    def test_certify_out_of_range_arc_is_dirty(self, capsys, tmp_path):
        # an arc endpoint past the graph of entry 1 used to raise KeyError in
        # D4 of the pair after, a traceback and exit 1
        inst = caterpillar(1, 20)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        doc[1]["arcs"][0][1] = 10**6
        spath = tmp_path / "scheme.json"
        spath.write_text(json.dumps(doc))
        code, out = run(capsys, "scheme", "certify", str(spath), "--params", str(ppath))
        assert code == 1
        report = json.loads(out)
        assert not report["clean"]
        first, second = report["pairs"][:2]
        assert first["D4"]["witness"]["clause"] == "arc-not-on-edge"
        assert second["D4"]["status"] == "skipped"

    def _certify_edited(self, capsys, tmp_path, edit):
        inst = caterpillar(1, 14)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        edit(doc[-1])
        spath = tmp_path / "scheme.json"
        spath.write_text(json.dumps(doc))
        code, out = run(capsys, "scheme", "certify", str(spath), "--params", str(ppath))
        assert code == 1
        report = json.loads(out)
        assert not report["clean"]
        return report

    def test_certify_u_outside_u_plus_is_dirty(self, capsys, tmp_path):
        # an id of U that is not in U+ used to raise KeyError in D8f
        report = self._certify_edited(
            capsys, tmp_path, lambda e: e["step_meta"]["U"].append(10**6)
        )
        first, tail = report["pairs"]
        assert first["D8b"] == {
            "status": "fail",
            "witness": {"clause": "u-not-in-u-plus", "extra": [10**6]},
        }
        assert [c for c, v in first.items() if v["status"] != "pass"] == ["D8b"]
        assert all(v["status"] == "pass" for v in tail.values())

    def test_certify_empty_model_is_dirty(self, capsys, tmp_path):
        # the frozen-tail self-pair used to raise StopIteration in _absorb
        report = self._certify_edited(
            capsys, tmp_path, lambda e: e["model"].update({"3": []})
        )
        for pair in report["pairs"]:
            assert pair["D1"] == {
                "status": "fail",
                "witness": {"clause": "empty-model", "vertex": 3},
            }

    @pytest.mark.parametrize(
        "edit",
        [
            lambda e: e["hyperedges"][0].update({"j": True}),
            lambda e: e["arcs"].append(["a", 1]),
            lambda e: e["arcs"].append([0.0, 1]),
            lambda e: e.update({"model": list(e["model"].values())}),
            lambda e: e["step_meta"].update({"q": "0"}),
            lambda e: e["graph"]["edges"].append([True, 0]),
            lambda e: e["model"].update({"01": e["model"]["1"]}),
            lambda e: e["model"].update({"\u0661": e["model"].pop("1")}),
            lambda e: e["witnesses"].update({"00": e["witnesses"]["0"]}),
        ],
        ids=[
            "label-true", "arc-string", "arc-float", "model-list", "q-string",
            "edge-bool", "model-key-01", "model-key-arabic-1", "witness-key-00",
        ],
    )
    def test_certify_retyped_field_is_input_error(self, capsys, tmp_path, edit):
        # a retyped field used to crash the certifier (exit 1 by traceback),
        # or, for "j": true, a boolean endpoint or a second spelling of a key
        # ("01" or an Arabic-Indic 1, both read as 1), to certify clean
        inst = caterpillar(1, 14)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        edit(doc[1])
        spath = tmp_path / "scheme.json"
        spath.write_text(json.dumps(doc))
        code, out = run(capsys, "scheme", "certify", str(spath), "--params", str(ppath))
        assert code == 2 and out == ""

    def test_certify_directory_path_is_input_error(self, capsys, tmp_path):
        # an unreadable path is the user's error (exit 2), not a bug (exit 4)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(caterpillar(1, 14).params.to_json()))
        code = main(["scheme", "certify", str(tmp_path), "--params", str(ppath)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "internal error" not in captured.err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: {**p, "h": 3.5},
            lambda p: {**p, "k": True},
            lambda p: {x: v for x, v in p.items() if x != "t"},
            lambda p: list(p.values()),
        ],
        ids=["h-float", "k-true", "t-missing", "list-document"],
    )
    @pytest.mark.parametrize("action", ["certify", "color"])
    def test_retyped_params_are_input_errors(self, capsys, tmp_path, edit, action):
        # "h": 3.5 used to make `scheme color` exit 4 (TypeError) while
        # `scheme certify` reported clean, and "k": true was accepted
        inst = star_of_balls(1, 6, 2)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(edit(inst.params.to_json())))
        spath = tmp_path / "scheme.json"
        spath.write_text(scheme_to_json(build_scheme(inst.graph, inst.params)))
        code, out = run(capsys, "scheme", action, str(spath), "--params", str(ppath))
        assert code == 2 and out == ""

    def test_internal_error_exit(self, capsys, tmp_path, monkeypatch):
        inst = caterpillar(1, 14)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps(inst.params.to_json()))
        spath = tmp_path / "scheme.json"
        spath.write_text(scheme_to_json(build_scheme(inst.graph, inst.params)))

        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "certify_scheme", boom)
        code = main(["scheme", "certify", str(spath), "--params", str(ppath)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("defcolor: internal error:")


class TestConstants:
    def test_table(self, capsys):
        code, out = run(
            capsys, "constants", "--h", "3", "--k", "1", "--r", "2",
            "--d-homo", "2", "--n1", "7", "--n2", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["t_main_exponent"] == "72"
        assert doc["t_extra_exponent"] == 2
        assert doc["practical"] is False

    def test_values_past_the_printable_digits_stay_exact(self, capsys):
        # t = 2^15626 has 4,704 digits, more than str() of an int allows
        code, out = run(
            capsys, "constants", "--h", "30", "--k", "1", "--r", "2",
            "--d-homo", "2", "--n1", "7", "--n2", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["t"] == {"coeff": "1", "base": "2", "exp": "15626", "addend": "0"}
        assert doc["t0"] == "672"

    def test_coefficients_past_the_printable_digits_stay_exact(self, capsys):
        # t0's coefficient (r + 1) 2^(r - 1) passes 4,300 digits at r = 14,272
        code, out = run(
            capsys, "constants", "--h", "3", "--k", "1", "--r", "14272",
            "--d-homo", "3", "--n1", "4", "--n2", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["t0"]["coeff"] == {
            "coeff": "14273", "base": "2", "exp": "14271", "addend": "0"
        }
        assert doc["t0"]["base"] == "14272"
        assert doc["t_extra_exponent"] == 2**14271

    def test_bad_input_exit(self, capsys):
        code, _ = run(
            capsys, "constants", "--h", "2", "--k", "1", "--r", "2",
            "--d-homo", "2", "--n1", "7", "--n2", "7",
        )
        assert code == 2


_NO_MPMATH = """
import sys
from defcolor.cli import main
host, pattern = sys.argv[1:]
codes = [
    main(["constants", "--h", "3", "--k", "1", "--r", "2",
          "--d-homo", "2", "--n1", "7", "--n2", "7"]),
    main(["depth", host]),
    main(["minor", host, "--pattern", pattern]),
]
assert codes == [0, 0, 0], codes
assert "mpmath" not in sys.modules
"""


class TestImports:
    def test_verbs_without_interval_comparisons_leave_mpmath_unloaded(self, tmp_path):
        host = tmp_path / "host.g6"
        host.write_text(to_graph6(ct(3, 2)) + "\n")
        pattern = tmp_path / "k3.g6"
        pattern.write_text(to_graph6(complete_graph(3)) + "\n")
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", _NO_MPMATH, str(host), str(pattern)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
