#!/usr/bin/env python3
"""Exact defect thresholds for the closed-tree family.

For each (h, k) in range, compute the least defect of an (h-1)-coloring of
ct(h, k) by complete search.  The threshold always lands at k, never k-1:
the family realizes the lower bound that the elimination-scheme pipeline is
built around.  ct(h, k) is the closure of its tree, so ``min_defect`` runs
the forest DP, descending from a local-search coloring to one refuted
probe at k - 1.  The ``s`` column and the total time ``min_defect``
alone: each ct(h, k) is built before its timer starts.  The defaults
(h <= 6, k <= 4, up to ct(6,4) with 1,365 vertices) take about 0.02 s on
a 2-vCPU VM; ``--max-h 7 --max-vertices 5461`` adds ct(7, 1..4), up to
5,461 vertices, in about 0.1 s in all (ct(7, 4) 0.05-0.09 s).
Exits 1 if any threshold differs from k.
"""

from __future__ import annotations

import argparse
import sys
import time

from defcolor.coloring import min_defect
from defcolor.graphs import ct, ct_order


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-h", type=int, default=6)
    ap.add_argument("--max-k", type=int, default=4)
    ap.add_argument("--max-vertices", type=int, default=ct_order(6, 4))
    args = ap.parse_args()

    print(f"{'h':>2s} {'k':>2s} {'n':>5s} {'min defect of (h-1)-coloring':>30s} {'s':>6s}")
    wrong = 0
    spent = 0.0
    for h in range(2, args.max_h + 1):
        for k in range(1, args.max_k + 1):
            n = ct_order(h, k)
            if n > args.max_vertices:
                print(f"{h:2d} {k:2d} {n:5d} {'skipped (raise --max-vertices)':>30s}")
                continue
            g = ct(h, k)
            t0 = time.perf_counter()
            got = min_defect(g, h - 1, max_vertices=args.max_vertices)
            dt = time.perf_counter() - t0
            spent += dt
            marker = "= k" if got == k else f"!= k ({got})"
            wrong += got != k
            print(f"{h:2d} {k:2d} {n:5d} {f'{got}  {marker}':>30s} {dt:6.2f}")
    print(f"total {spent:.2f} s in min_defect; {wrong} threshold(s) != k")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
