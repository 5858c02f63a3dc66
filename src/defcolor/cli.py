"""Command-line surface: generation, depth, minors, coloring, schemes,
and the derived-constants table.

Exit status: 0 success or a positive answer, 1 a computed negative answer
(infeasible, no minor, dirty certificate), 2 usage or input errors
(unreadable paths included), 3 exhausted budgets or failed searches (a
minor search past the exhaustive limits that finds no model included), 4 an
internal error (a bug: no answer was computed), such as a depth witness,
a minor model or a built scheme that fails its check before printing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import coloring, depth, graphs
from .check import Coloring, MinorModel, verify_depth_witness, verify_model
from .constants import paper_constants
from .coloring import decide_defective
from .depth import ClusteredBounds, connected_tree_depth
from .errors import (
    BucketTooSmallError,
    BudgetExceededError,
    DefcolorError,
    GeodesicTooShortError,
    InputFormatError,
    SearchFailureError,
    SizeLimitError,
)
from .minors import has_minor
from .scheme import (
    SchemeParams,
    build_scheme,
    certify_scheme,
    color_from_scheme,
    scheme_from_json,
    scheme_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_graph(g: graphs.Graph, fmt: str, out: str | None):
    if fmt == "json":
        _emit(graphs.to_edge_json(g), out)
    else:
        _emit(graphs.to_graph6(g) + "\n", out)


def _load_graph(path: str) -> graphs.Graph:
    return graphs.parse_graph(_read(path))


def _load_params(path: str) -> SchemeParams:
    return graphs.read_json(_read(path), SchemeParams.from_json)


def _model_from_doc(doc) -> MinorModel:
    return MinorModel(
        {pv: frozenset(s) for pv, s in graphs.int_keyed(doc, "model document", 2)}
    )


def _load_model(path: str) -> MinorModel:
    return graphs.read_json(_read(path), _model_from_doc)


def _coloring_json(c: Coloring) -> str:
    return json.dumps({"k": c.k, "colors": list(c.colors)}) + "\n"


def nonnegative_int(text: str) -> int:
    """An argparse type for budgets and size limits: a negative one is a
    usage error (exit 2), not a budget stop or an answer.  0 is valid."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="defcolor",
        description="defective-coloring toolkit: generators, depth, minors, "
        "exact coloring, elimination schemes",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate graphs")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    g_ct = gen_sub.add_parser("ct", help="closure of a balanced tree")
    g_ct.add_argument("--h", type=int, required=True, dest="height")
    g_ct.add_argument("--k", type=int, required=True, dest="arity")
    g_join = gen_sub.add_parser("join", help="join of two graphs")
    g_join.add_argument("a")
    g_join.add_argument("b")
    g_cp = gen_sub.add_parser("copies", help="disjoint copies of a graph")
    g_cp.add_argument("--count", type=int, required=True)
    g_cp.add_argument("graph")
    for p in (g_ct, g_join, g_cp):
        p.add_argument(
            "--budget-vertices", type=nonnegative_int,
            default=graphs.DEFAULT_VERTEX_BUDGET,
        )
        p.add_argument("--format", choices=("g6", "json"), default="g6")
        p.add_argument("-o", "--output", default=None)

    dp = sub.add_parser("depth", help="tree-depth report")
    dp.add_argument("graph")
    dp.add_argument("--limit", type=nonnegative_int, default=depth.DEFAULT_EXACT_LIMIT)
    dp.add_argument("--budget-nodes", type=nonnegative_int, default=None)
    dp.add_argument("-o", "--output", default=None)

    mi = sub.add_parser("minor", help="minor containment with certificate")
    mi.add_argument("host")
    mi.add_argument("--pattern", required=True)
    mi.add_argument(
        "--verify",
        default=None,
        help="verify a branch-set model document instead of searching",
    )
    mi.add_argument("--budget-nodes", type=nonnegative_int, default=None)
    mi.add_argument("-o", "--output", default=None)

    co = sub.add_parser("color", help="exact defect-bounded coloring")
    co.add_argument("graph")
    co.add_argument("--exact", action="store_true", required=True)
    co.add_argument("--k", type=int, required=True)
    co.add_argument("--d", type=int, required=True)
    co.add_argument(
        "--max-vertices", type=nonnegative_int, default=coloring.DEFAULT_EXACT_LIMIT
    )
    co.add_argument(
        "--budget-nodes", type=nonnegative_int, default=None,
        help="memo entries of the forest DP on closures of rooted forests, "
        "colors tried by backtracking on other graphs",
    )
    co.add_argument("-o", "--output", default=None)

    sc = sub.add_parser("scheme", help="build / certify / color schemes")
    sc_sub = sc.add_subparsers(dest="action", required=True)
    s_b = sc_sub.add_parser("build")
    s_b.add_argument("graph")
    s_c = sc_sub.add_parser("certify")
    s_c.add_argument("scheme")
    s_l = sc_sub.add_parser("color")
    s_l.add_argument("scheme")
    for p in (s_b, s_c, s_l):
        p.add_argument("--params", required=True)
        p.add_argument("-o", "--output", default=None)

    cn = sub.add_parser("constants", help="derived-constant table")
    cn.add_argument("--h", type=int, required=True, dest="height")
    cn.add_argument("--k", type=int, required=True, dest="arity")
    cn.add_argument("--r", type=int, required=True)
    cn.add_argument("--d-homo", type=int, required=True)
    cn.add_argument("--n1", type=int, required=True)
    cn.add_argument("--n2", type=int, required=True)
    cn.add_argument("-o", "--output", default=None)
    return ap


def _run(args) -> int:
    if args.verb == "gen":
        if args.what == "ct":
            g = graphs.ct(args.height, args.arity, budget=args.budget_vertices)
        elif args.what == "join":
            g = graphs.join(
                _load_graph(args.a), _load_graph(args.b), budget=args.budget_vertices
            )
        else:
            g = graphs.disjoint_copies(
                args.count, _load_graph(args.graph), budget=args.budget_vertices
            )
        _emit_graph(g, args.format, args.output)
        return EXIT_OK

    if args.verb == "depth":
        g = _load_graph(args.graph)
        report = connected_tree_depth(
            g, limit=args.limit, node_budget=args.budget_nodes
        )
        if not verify_depth_witness(g, report):
            raise RuntimeError("search produced an invalid depth witness")
        doc = {
            "td": report.td,
            "ctd": report.ctd,
            "witness": {
                "root": report.witness.root,
                "parent": [
                    -1 if p is None else p for p in report.witness.parent
                ],
            },
            "embedding": list(report.embedding),
        }
        if g.n > 0:
            bounds = ClusteredBounds.from_ctd(report.ctd)
            doc["omega_delta"] = report.ctd - 1
            doc["clustered_bounds"] = {
                "lower": bounds.lower,
                "general": bounds.general,
                "conditional_planar": bounds.conditional_planar,
            }
        _emit(json.dumps(doc), args.output)
        return EXIT_OK

    if args.verb == "minor":
        host = _load_graph(args.host)
        pattern = _load_graph(args.pattern)
        if args.verify is not None:
            ok, violation = verify_model(host, pattern, _load_model(args.verify))
            out = {"valid": ok}
            if violation is not None:
                out["violation"] = {
                    "clause": violation.clause,
                    "witness": list(violation.witness),
                }
            _emit(json.dumps(out), args.output)
            return EXIT_OK if ok else EXIT_NEGATIVE
        kwargs = {}
        if args.budget_nodes is not None:
            kwargs["node_budget"] = args.budget_nodes
        model = has_minor(host, pattern, **kwargs)
        if model is None:
            _emit(json.dumps({}), args.output)
            return EXIT_NEGATIVE
        ok, _ = verify_model(host, pattern, model)
        if not ok:
            raise RuntimeError("search produced an invalid model")
        doc = {str(pv): sorted(s) for pv, s in model.branch_sets.items()}
        _emit(json.dumps(doc), args.output)
        return EXIT_OK

    if args.verb == "color":
        g = _load_graph(args.graph)
        report = decide_defective(
            g, args.k, args.d, max_vertices=args.max_vertices,
            node_budget=args.budget_nodes,
        )
        if not report.feasible:
            _emit(json.dumps({"feasible": False}), args.output)
            return EXIT_NEGATIVE
        _emit(_coloring_json(report.coloring), args.output)
        return EXIT_OK

    if args.verb == "scheme":
        params = _load_params(args.params)
        if args.action == "build":
            g = _load_graph(args.graph)
            scheme = build_scheme(g, params)
            if not certify_scheme(scheme, params, g).clean():
                raise RuntimeError("build produced a scheme that does not certify")
            _emit(scheme_to_json(scheme), args.output)
            return EXIT_OK
        scheme = scheme_from_json(_read(args.scheme))
        original = scheme[0].graph if scheme else graphs.empty_graph(0)
        if args.action == "certify":
            report = certify_scheme(scheme, params, original)
            _emit(json.dumps(report.to_json()), args.output)
            return EXIT_OK if report.clean() else EXIT_NEGATIVE
        _emit(_coloring_json(color_from_scheme(scheme, params, original)), args.output)
        return EXIT_OK

    if args.verb == "constants":
        table = paper_constants(
            args.height, args.arity, args.r, args.d_homo, args.n1, args.n2
        )
        _emit(json.dumps(table.to_json()), args.output)
        return EXIT_OK

    raise InputFormatError(f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (
        BudgetExceededError,
        SizeLimitError,
        SearchFailureError,
        BucketTooSmallError,
        GeodesicTooShortError,
    ) as exc:
        print(f"defcolor: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputFormatError, OSError, ValueError) as exc:
        print(f"defcolor: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DefcolorError as exc:
        print(f"defcolor: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only on this path; it is slow to import

        print(f"defcolor: internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
