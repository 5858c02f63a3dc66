"""The three workloads: their inputs, their queries and each query's check.

A workload's ``setup`` builds its inputs from the run seed and returns a
list of ``Query`` objects; every query calls public defcolor functions
through ``Clock.call`` (the only time that counts) and then judges its own
output.  Expected verdicts and digests live in ``expected.json``, written
by ``run.py --record``; inputs whose recorded outcome is an error are kept
on purpose (see README.md).

Seeds: every workload shuffles its query order with the seed, and
cli-docs also draws its ``minor --verify`` branch sets and its
out-of-range values with it.  Nothing else depends on the seed: relabelling
a graph moved the cost of the minor, coloring and depth searches by up to
3x, and with seeded graphs and mutation targets the cli-docs totals of four
seeds timed side by side spread over 12 %.  A seed must not change how much
work a run measures.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

from checkers import coloring_ok, depth_witness_ok, digest, model_ok

WORKLOADS = ("scheme-scale", "exact-mix", "cli-docs")

# A query's status: "ok" answered and checked, "fail" no certified answer
# (typed error, budget stop, traceback), "wrong" an answer that contradicts
# the record or fails the benchmark's own check.
OK, FAIL, WRONG = "ok", "fail", "wrong"

MINOR_BUDGET = 40_000
RECORD_MINOR_BUDGET = 1_000_000
FRONTIER_BUDGET = 200_000
POOL_SEED = "defcolor-bench-pool"

# Documents that also get the out-of-range mutations; most of these crash
# the certifier today, so they are kept to a few documents to leave p90
# defined (a crash counts as an infinitely slow query).
RANGE_MUTATED = ("caterpillar_w1_s14", "caterpillar_w2_s21", "star_w1_m20_p5")

MINOR_PATTERNS = ("K4", "K5", "C6", "K2,3", "ct(2,2)", "ct(2,3)", "ct(3,1)")


def load_api() -> SimpleNamespace:
    names = (
        "graphs", "minors", "depth", "coloring", "cli",
        "scheme.build", "scheme.certify", "scheme.colorer", "scheme.serialize",
        "scheme.corpus", "scheme.params",
    )
    mods = {n.split(".")[-1]: importlib.import_module("defcolor." + n) for n in names}
    return SimpleNamespace(**mods)


class Clock:
    """Times calls into the package.

    ``elapsed`` is the raw time and ``calls`` holds each call's (start,
    end, CLI verb or None).  Each call is followed by samples of ``probe``
    (``speed.Probe``), so it can be scaled to reference speed later.
    """

    def __init__(self, probe):
        self.probe = probe
        self.elapsed = 0.0
        self.calls: list[tuple[float, float, Optional[str]]] = []

    def call(self, verb: Optional[str], fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.elapsed += end - start
            self.calls.append((start, end, verb))
            self.probe.after(end - start)


@dataclass
class Outcome:
    status: str
    observed: str
    note: str = ""


@dataclass
class Query:
    key: str
    kind: str
    run: Callable[..., Outcome]  # (clock, expected, api, record) -> Outcome
    cli: bool = False


def judge(observed: str, expected: Optional[str], own_ok: bool, record: bool) -> Outcome:
    """Common verdict rule for an answered query.

    An answer must pass the benchmark's own check.  It must also equal the
    recorded value, unless the record is an error: then the answer is new
    (a fixed failure) and the own check is all there is to go on.
    """
    if not own_ok:
        return Outcome(WRONG, observed, "own check failed")
    if record:
        return Outcome(OK, observed)
    if expected is None:
        return Outcome(WRONG, observed, "no recorded outcome")
    if expected.startswith("error:"):
        return Outcome(OK, observed)
    if observed != expected:
        return Outcome(WRONG, observed, f"expected {expected}")
    return Outcome(OK, observed)


def failed(exc: BaseException) -> Outcome:
    return Outcome(FAIL, "error:" + type(exc).__name__, str(exc)[:120])


def gnp(api, n: int, p: float, tag: str):
    rng = random.Random(f"{POOL_SEED}/{tag}/{n}/{p}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return api.graphs.Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# scheme-scale: build -> to_json -> from_json -> certify -> color per instance


def scheme_instances(api):
    corpus = api.corpus
    out = [corpus.star_of_balls(1, m, 5) for m in list(range(20, 60)) + [400]]
    out += [corpus.star_of_balls(2, m, 3) for m in range(33, 93)]
    out += [corpus.caterpillar(w, s) for w in (1, 2) for s in range(12, 36)]
    return out


def scheme_query(inst) -> Query:
    def run(clock: Clock, expected, api, record=False) -> Outcome:
        g, params = inst.graph, inst.params
        try:
            scheme = clock.call("build", api.build.build_scheme, g, params)
            text = clock.call(None, api.serialize.scheme_to_json, scheme)
            back = clock.call(None, api.serialize.scheme_from_json, text)
            report = clock.call("certify", api.certify.certify_scheme, back, params, g)
            coloring = clock.call(None, api.colorer.color_from_scheme, back, params, g)
        except Exception as exc:  # a typed failure or a crash: no answer
            return failed(exc)
        report_text = json.dumps(report.to_json(), sort_keys=True)
        color_text = json.dumps({"k": coloring.k, "colors": list(coloring.colors)})
        own = report.clean() and coloring_ok(
            g, coloring.colors, params.h - 1, params.defect_bound
        )
        return judge(digest(text, report_text, color_text), expected, own, record)

    return Query(inst.name, "scheme", run)


def setup_scheme_scale(api, seed: int, workdir: str) -> list[Query]:
    return [scheme_query(inst) for inst in scheme_instances(api)]


# ---------------------------------------------------------------------------
# exact-mix: minors, depth and coloring searches, no scheme layer


def pattern_graph(api, name: str):
    g = api.graphs
    return {
        "K4": lambda: g.complete_graph(4),
        "K5": lambda: g.complete_graph(5),
        "C6": lambda: g.cycle_graph(6),
        "K2,3": lambda: g.complete_bipartite(2, 3),
        "ct(2,2)": lambda: g.ct(2, 2),
        "ct(2,3)": lambda: g.ct(2, 3),
        "ct(3,1)": lambda: g.ct(3, 1),
    }[name]()


def minor_query(key: str, host, pattern) -> Query:
    def run(clock: Clock, expected, api, record=False) -> Outcome:
        budget = RECORD_MINOR_BUDGET if record else MINOR_BUDGET
        try:
            model = clock.call(
                "minor", api.minors.has_minor, host, pattern, node_budget=budget
            )
        except Exception as exc:
            return failed(exc)
        if model is None:
            return judge("absent", expected, True, record)
        return judge("present", expected, model_ok(host, pattern, model.branch_sets), record)

    return Query(key, "minor", run)


def depth_query(key: str, g) -> Query:
    def run(clock: Clock, expected, api, record=False) -> Outcome:
        try:
            rep = clock.call("depth", api.depth.connected_tree_depth, g)
        except Exception as exc:
            return failed(exc)
        own = rep.td <= rep.ctd and depth_witness_ok(g, list(rep.witness.parent), rep.ctd)
        return judge(f"td={rep.td},ctd={rep.ctd}", expected, own, record)

    return Query(key, "depth", run)


def defect_query(key: str, g, k: int, d: int, budget: Optional[int] = None) -> Query:
    def run(clock: Clock, expected, api, record=False) -> Outcome:
        try:
            rep = clock.call(
                "color_exact", api.coloring.decide_defective, g, k, d,
                max_vertices=64, node_budget=budget,
            )
        except Exception as exc:
            return failed(exc)
        if not rep.feasible:
            return judge("infeasible", expected, True, record)
        own = coloring_ok(g, rep.coloring.colors, k, d)
        return judge("feasible", expected, own, record)

    return Query(key, "color", run)


def min_defect_query(key: str, g, k: int) -> Query:
    def run(clock: Clock, expected, api, record=False) -> Outcome:
        try:
            value = clock.call(
                "color_exact", api.coloring.min_defect, g, k, max_vertices=24
            )
        except Exception as exc:
            return failed(exc)
        return judge(f"defect={value}", expected, 0 <= value < max(g.n, 1), record)

    return Query(key, "color", run)


def setup_exact_mix(api, seed: int, workdir: str) -> list[Query]:
    ct = api.graphs.ct
    out = []
    for n in (12, 14):
        for p in (0.25, 0.35):
            host = gnp(api, n, p, "minor-host")
            for name in MINOR_PATTERNS:
                out.append(minor_query(f"minor/G({n},{p})/{name}", host, pattern_graph(api, name)))
    out += [depth_query("depth/ct(4,2)", ct(4, 2)), depth_query("depth/ct(3,3)", ct(3, 3))]
    for n in range(12, 15):
        out.append(depth_query(f"depth/G({n},0.25)", gnp(api, n, 0.25, "depth")))
    for h, kmax in ((2, 6), (3, 6), (4, 2)):
        for k in range(1, kmax + 1):
            out.append(defect_query(f"lower/ct({h},{k})", ct(h, k), h - 1, k - 1))
    for h, k in ((2, 3), (3, 2), (3, 3), (4, 1), (4, 2)):
        out.append(defect_query(f"level/ct({h},{k})", ct(h, k), h, 0))
    out.append(defect_query("frontier/ct(4,3)/k3/d2", ct(4, 3), 3, 2, FRONTIER_BUDGET))
    for n in range(16, 25, 2):
        for p in (0.25, 0.35):
            for i in range(3):
                g = gnp(api, n, p, f"defect{i}")
                for k in (2, 3):
                    out.append(min_defect_query(f"mindefect/G({n},{p})#{i}/k{k}", g, k))
    return out


# ---------------------------------------------------------------------------
# cli-docs: defcolor.cli.main on documents written during set-up


def cli_call(clock: Clock, api, verb: Optional[str], argv: list[str]):
    """Run the CLI in-process; returns (exit code, stdout) or raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = clock.call(verb, api.cli.main, argv)
    return code, out.getvalue()


def cli_query(key: str, kind: str, verb: Optional[str], argv: list[str], check) -> Query:
    """``check(code, stdout, expected, record) -> Outcome``; a traceback fails."""

    def run(clock: Clock, expected, api, record=False) -> Outcome:
        try:
            code, text = cli_call(clock, api, verb, argv)
        except Exception as exc:
            return failed(exc)
        try:
            return check(code, text, expected, record)
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(WRONG, f"exit={code}", f"unreadable output: {exc!r}")

    return Query(key, kind, run, cli=True)


def exact_output(want_code: int, own=None):
    """Clean documents: fixed exit code, byte-identical output."""

    def check(code, text, expected, record):
        if code != want_code:
            return Outcome(WRONG, f"exit={code}", f"expected exit {want_code}")
        return judge(digest(text), expected, own is None or own(text), record)

    return check


def rejected(code, text, expected, record):
    """A mutated scheme must give a dirty report (exit 1) or exit 2."""
    if code == 2:
        return Outcome(OK, "exit=2")
    if code == 1:
        doc = json.loads(text)
        ok = doc.get("clean") is False
        return Outcome(OK if ok else WRONG, "exit=1", "" if ok else "report claims clean")
    return Outcome(WRONG, f"exit={code}", "mutated scheme accepted")


def verify_verdict(want: int):
    """``minor --verify`` on a model whose validity is known by construction."""

    def check(code, text, expected, record):
        if code != want:
            return Outcome(WRONG, f"exit={code}", f"expected exit {want}")
        if want < 2 and json.loads(text).get("valid") is not (want == 0):
            return Outcome(WRONG, f"exit={code}", "verdict disagrees with exit code")
        return Outcome(OK, f"exit={code}")

    return check


def depth_output(g):
    def check(code, text, expected, record):
        if code != 0:
            return Outcome(WRONG, f"exit={code}", "expected exit 0")
        doc = json.loads(text)
        parent = [None if p == -1 else p for p in doc["witness"]["parent"]]
        own = doc["td"] <= doc["ctd"] and depth_witness_ok(g, parent, doc["ctd"])
        return judge(f"td={doc['td']},ctd={doc['ctd']}", expected, own, record)

    return check


def exact_color_output(g, k: int, d: int):
    def check(code, text, expected, record):
        if code not in (0, 1):
            return Outcome(WRONG, f"exit={code}", "expected exit 0 or 1")
        doc = json.loads(text)
        if code == 1:
            ok = doc.get("feasible") is False
            return judge("infeasible", expected, ok, record)
        return judge("feasible", expected, coloring_ok(g, doc["colors"], k, d), record)

    return check


def _special(entry: dict) -> set[int]:
    out = {int(v) for v, m in entry["model"].items() if len(m) >= 2}
    out |= {b for _, b in entry["arcs"]}
    out |= {e["sink"] for e in entry["hyperedges"]}
    return out


def _adjacency(entry: dict) -> dict[int, set[int]]:
    adj = {v: set() for v in range(entry["graph"]["n"])}
    for u, v in entry["graph"]["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _add_sinks(entry: dict, vertices, label: int) -> None:
    for v in vertices:
        i = len(entry["hyperedges"])
        entry["hyperedges"].append({"s": [v], "j": label, "sink": v})
        entry["witnesses"][str(i)] = []
        entry["witness_links"][str(i)] = []


def flips(doc: list, params: dict) -> dict:
    """The criterion-8 flips of the acceptance suite on entry 1 of a clean
    scheme document (D12 comes from its own instance), each on the last
    eligible target.  Each one breaks a condition the certifier must report."""
    out = {}
    e1 = doc[1]
    adj = _adjacency(e1)
    special = _special(e1)
    plain = [v for v in sorted(adj) if v not in special]
    low = [v for v in plain if len(adj[v]) <= params["r"]]

    pairs = [(u, v) for u in plain for v in plain if u < v and v not in adj[u]]
    if pairs:
        m = json.loads(json.dumps(doc))
        m[1]["arcs"].append(list(pairs[-1]))
        out["D4"] = m
    if plain:
        m = json.loads(json.dumps(doc))
        _add_sinks(m[1], [plain[-1]], 0)
        out["D5"] = m
    edges = [(u, v) for u in low for v in adj[u] if u < v and v in low]
    if edges:
        m = json.loads(json.dumps(doc))
        _add_sinks(m[1], edges[-1], 1)
        out["D6b"] = m
    meta = e1.get("step_meta")
    if meta is not None:
        origs = {ms[0]: int(v) for v, ms in e1["model"].items() if len(ms) == 1}
        cold = [
            o for o, v in sorted(origs.items())
            if o not in meta["U_plus"] and v not in special and len(adj[v]) <= params["d"]
        ]
        if cold:
            m = json.loads(json.dumps(doc))
            o = cold[-1]
            m[1]["step_meta"]["U"] = sorted(set(meta["U"]) | {o})
            m[1]["step_meta"]["U_plus"] = sorted(set(meta["U_plus"]) | {o})
            out["D8b"] = m
    return out


def out_of_range(doc: list, orig_n: int, rng: random.Random) -> dict:
    """A hyperedge sink, a hyperedge member and a model id past their range.

    The field is fixed per document and only the value is drawn, so a seed
    cannot turn a report into a crash or back.
    """
    out = {}
    i = next((i for i, e in enumerate(doc) if e["hyperedges"]), None)
    if i is not None:
        n_i = doc[i]["graph"]["n"]
        m = json.loads(json.dumps(doc))
        m[i]["hyperedges"][0]["sink"] = n_i + rng.randrange(4)
        out["sink-range"] = m
        m = json.loads(json.dumps(doc))
        m[i]["hyperedges"][0]["s"].append(n_i + rng.randrange(4))
        out["member-range"] = m
    m = json.loads(json.dumps(doc))
    last = max(m[1]["model"], key=int)
    m[1]["model"][last] = m[1]["model"][last] + [orig_n + rng.randrange(4)]
    out["model-range"] = m
    return out


def lopsided_star(api):
    """The acceptance suite's D12 instance: a heavy plain vertex of degree r+1."""
    edges = []
    n = 5
    for _ in range(5):
        edges += [(0, n), (1, n), (2, n)]
        n += 1
    edges += [(a, n) for a in range(5)]
    g = api.graphs.Graph.from_edges(n + 1, edges)
    params = api.params.SchemeParams(h=3, k=2, r=4, d=5, n_freeze=8, l0=1, t=5)
    return g, params


def partition_model(g, parts: int, rng: random.Random) -> dict[int, list[int]]:
    """Connected branch sets grown from seeded roots; valid by construction."""
    roots = rng.sample(range(g.n), parts)
    owner = {r: i for i, r in enumerate(roots)}
    frontier = [[r] for r in roots]
    grown = True
    while grown:
        grown = False
        for i in range(parts):
            nxt = []
            for v in frontier[i]:
                for u in sorted(g.adj[v]):
                    if u not in owner and rng.random() < 0.7:
                        owner[u] = i
                        nxt.append(u)
            if nxt:
                grown = True
            frontier[i] = nxt
    sets = {i: [] for i in range(parts)}
    for v, i in owner.items():
        sets[i].append(v)
    return {i: sorted(s) for i, s in sets.items()}


def setup_cli_docs(api, seed: int, workdir: str) -> list[Query]:
    rng = random.Random(seed)
    graphs, corpus = api.graphs, api.corpus
    os.makedirs(workdir, exist_ok=True)
    out: list[Query] = []

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    instances = [corpus.caterpillar(1, s) for s in (14, 20, 26, 34)]
    instances += [corpus.caterpillar(2, s) for s in (14, 21, 29, 34)]
    instances += [corpus.star_of_balls(1, m, 5) for m in (20, 40, 60)]
    instances += [corpus.star_of_balls(2, m, 3) for m in (33, 66)]
    docs = []
    for inst in instances:
        text = api.serialize.scheme_to_json(api.build.build_scheme(inst.graph, inst.params))
        params = inst.params.to_json()
        spath = write(inst.name + ".scheme.json", text)
        ppath = write(inst.name + ".params.json", json.dumps(params))
        docs.append((inst, json.loads(text), params, ppath))
        out.append(cli_query(
            f"certify/{inst.name}", "certify", "certify",
            ["scheme", "certify", spath, "--params", ppath], exact_output(0),
        ))

        def own_coloring(text, g=inst.graph, p=inst.params):
            doc = json.loads(text)
            return coloring_ok(g, doc["colors"], p.h - 1, p.defect_bound)

        out.append(cli_query(
            f"scheme-color/{inst.name}", "scheme-color", None,
            ["scheme", "color", spath, "--params", ppath], exact_output(0, own_coloring),
        ))

    g12, p12 = lopsided_star(api)
    lop = json.loads(api.serialize.scheme_to_json(api.build.build_scheme(g12, p12)))
    heavy = max(
        (v for v in range(lop[1]["graph"]["n"]) if v not in _special(lop[1])),
        key=lambda v: len(_adjacency(lop[1])[v]),
    )
    _add_sinks(lop[1], [heavy], 1)
    lop_params = write("lopsided.params.json", json.dumps(p12.to_json()))
    out.append(cli_query(
        "mutant/lopsided/D12", "certify", "certify",
        ["scheme", "certify", write("lopsided.D12.json", json.dumps(lop)), "--params", lop_params],
        rejected,
    ))
    for inst, doc, params, ppath in docs:
        mutants = flips(doc, params)
        if inst.name in RANGE_MUTATED:
            mutants.update(out_of_range(doc, inst.graph.n, rng))
        for kind, mutant in mutants.items():
            path = write(f"{inst.name}.{kind}.json", json.dumps(mutant))
            out.append(cli_query(
                f"mutant/{inst.name}/{kind}", "certify", "certify",
                ["scheme", "certify", path, "--params", ppath], rejected,
            ))

    for i in range(6):
        host = gnp(api, 12, 0.3, f"verify{i}")
        sets = partition_model(host, rng.randint(4, 7), rng)
        quotient = {
            (min(a, b), max(a, b))
            for a, sa in sets.items() for b, sb in sets.items()
            if a != b and any(u in host.adj[v] for v in sa for u in sb)
        }
        pattern = graphs.Graph.from_edges(len(sets), sorted(quotient))
        hpath = write(f"host{i}.g6", graphs.to_graph6(host) + "\n")
        ppath = write(f"pattern{i}.g6", graphs.to_graph6(pattern) + "\n")
        donor = max(sets, key=lambda a: len(sets[a]))
        taker = rng.choice([a for a in sets if a != donor])
        overlap = dict(sets)
        overlap[taker] = sorted(set(sets[taker]) | {sets[donor][0]})
        missing = {a: s for a, s in sets.items() if a != taker}
        outside = dict(sets)
        outside[taker] = sets[taker] + [host.n + rng.randrange(4)]
        for name, model, want in (
            ("valid", sets, 0), ("overlap", overlap, 1),
            ("missing", missing, 1), ("out-of-range", outside, 2),
        ):
            mpath = write(f"model{i}.{name}.json", json.dumps({str(a): s for a, s in model.items()}))
            out.append(cli_query(
                f"verify/{i}/{name}", "verify", "minor",
                ["minor", hpath, "--pattern", ppath, "--verify", mpath], verify_verdict(want),
            ))

    depth_inputs = [("ct(3,2)", graphs.ct(3, 2)), ("ct(4,2)", graphs.ct(4, 2)),
                    ("ct(3,3)", graphs.ct(3, 3))]
    depth_inputs += [(f"G({n},0.25)", gnp(api, n, 0.25, "cli-depth")) for n in range(9, 13)]
    for name, g in depth_inputs:
        path = write(f"depth-{name}.g6", graphs.to_graph6(g) + "\n")
        out.append(cli_query(f"depth/{name}", "depth", "depth", ["depth", path], depth_output(g)))

    color_inputs = [(f"ct(2,{k})", graphs.ct(2, k), 1, k - 1) for k in range(1, 6)]
    color_inputs += [(f"ct(3,{k})", graphs.ct(3, k), 2, k - 1) for k in range(1, 5)]
    color_inputs += [(f"ct({h},{k})/level", graphs.ct(h, k), h, 0)
                     for h, k in ((3, 2), (3, 3), (4, 2))]
    color_inputs += [(f"G({n},0.3)/k2d{d}", gnp(api, n, 0.3, "cli-color"), 2, d)
                     for n in (12, 14, 16) for d in (1, 2)]
    for name, g, k, d in color_inputs:
        path = write(f"color-{name.replace('/', '-')}.g6", graphs.to_graph6(g) + "\n")
        out.append(cli_query(
            f"color/{name}", "color", "color_exact",
            ["color", path, "--exact", "--k", str(k), "--d", str(d), "--max-vertices", "24"],
            exact_color_output(g, k, d),
        ))

    for h in (3, 4):
        for k in (1, 2):
            for r in (2, 3):
                argv = ["constants", "--h", str(h), "--k", str(k), "--r", str(r),
                        "--d-homo", "2", "--n1", "7", "--n2", "7"]
                out.append(cli_query(f"constants/{h},{k},{r}", "constants", None, argv,
                                     exact_output(0)))
    return out


SETUPS = {
    "scheme-scale": setup_scheme_scale,
    "exact-mix": setup_exact_mix,
    "cli-docs": setup_cli_docs,
}
