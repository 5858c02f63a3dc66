#!/usr/bin/env python3
"""Scaling curve of the exhaustive minor search.

Runs ``has_minor`` for each pattern K4, K5, C6, K2,3, ct(2,2), ct(2,3) and
ct(3,1) in one seeded G(n, p) host per n.  Each host draws its edges with
``random.Random(seed)``, one draw per pair u < v in lexicographic order.
Prints one row per (host, pattern) pair: host vertices and edges, the
pattern, the answer (present, absent, or budget when the search stopped at
``--budget`` nodes) and the wall time in seconds.  Exits 1 if any search
stopped at the budget.

Run with ``PYTHONPATH=src python scripts/minor_sweep.py``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from defcolor.errors import BudgetExceededError
from defcolor.graphs import Graph, complete_bipartite, complete_graph, ct, cycle_graph
from defcolor.minors import has_minor

PATTERNS = (
    ("K4", complete_graph(4)),
    ("K5", complete_graph(5)),
    ("C6", cycle_graph(6)),
    ("K2,3", complete_bipartite(2, 3)),
    ("ct(2,2)", ct(2, 2)),
    ("ct(2,3)", ct(2, 3)),
    ("ct(3,1)", ct(3, 1)),
)


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=10)
    ap.add_argument("--max-n", type=int, default=14)
    ap.add_argument("--p", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--budget", type=int, default=100_000, help="nodes per search")
    args = ap.parse_args()

    stops = 0
    print(f"{'host':>12s} {'n':>3s} {'m':>4s} {'pattern':>8s} {'answer':>8s} {'s':>8s}")
    for n in range(args.min_n, args.max_n + 1):
        host = gnp(n, args.p, args.seed)
        for name, pattern in PATTERNS:
            t0 = time.perf_counter()
            try:
                model = has_minor(host, pattern, node_budget=args.budget)
                answer = "absent" if model is None else "present"
            except BudgetExceededError:
                answer = "budget"
                stops += 1
            dt = time.perf_counter() - t0
            print(
                f"{f'G({n},{args.p})':>12s} {host.n:3d} {host.edge_count():4d} "
                f"{name:>8s} {answer:>8s} {dt:8.3f}",
                flush=True,
            )
    return 1 if stops else 0


if __name__ == "__main__":
    sys.exit(main())
