#!/usr/bin/env python3
"""Scaling curve of the exact tree-depth solver.

Times ``connected_tree_depth`` on ct(4, 2), ct(3, 3) and one seeded
G(n, p) per n.  Each G(n, p) draws its edges with ``random.Random(seed)``,
one draw per pair u < v in lexicographic order.  Prints one row per graph:
vertices, edges, td, ctd, the number of vertex sets the solver expanded
and the wall time in seconds.  Each report's witness tree is checked with
``verify_depth_witness``; the script exits 1 if any check fails.

Run with ``PYTHONPATH=src python scripts/depth_sweep.py``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from defcolor.check import verify_depth_witness
from defcolor.depth import connected_tree_depth
from defcolor.graphs import Graph, ct


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=12)
    ap.add_argument("--max-n", type=int, default=20)
    ap.add_argument("--p", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    graphs = [("ct(4,2)", ct(4, 2)), ("ct(3,3)", ct(3, 3))]
    graphs += [
        (f"G({n},{args.p})", gnp(n, args.p, args.seed))
        for n in range(args.min_n, args.max_n + 1)
    ]
    failed = []
    print(f"{'graph':>12s} {'n':>3s} {'m':>4s} {'td':>3s} {'ctd':>3s} {'expanded':>9s} {'s':>8s}")
    for name, g in graphs:
        t0 = time.perf_counter()
        report = connected_tree_depth(g)
        dt = time.perf_counter() - t0
        print(
            f"{name:>12s} {g.n:3d} {g.edge_count():4d} {report.td:3d} {report.ctd:3d} "
            f"{report.expanded:9d} {dt:8.3f}",
            flush=True,
        )
        if not verify_depth_witness(g, report):
            failed.append(name)
    if failed:
        print(f"invalid depth witness: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
