#!/usr/bin/env python3
"""Scaling curve of the scheme pipeline.

For star_of_balls(1, m, 5) (n = 5m + 1 vertices, from about 10^2 to 10^5),
time ``build_scheme``, ``certify_scheme`` on the built scheme and
``color_from_scheme``, each once, and print one row per size.  Exits 1 if a
scheme does not certify clean.
"""

from __future__ import annotations

import argparse
import sys
import time

from defcolor.scheme import build_scheme, certify_scheme, color_from_scheme
from defcolor.scheme.corpus import star_of_balls

BALLS = (20, 200, 400, 1000, 2000, 10000, 20000)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5 * BALLS[-1] + 1)
    args = ap.parse_args()

    print(
        f"{'n':>7s} {'entries':>7s} {'build s':>8s} {'certify s':>9s} "
        f"{'color s':>8s}"
    )
    dirty = 0
    for m in BALLS:
        inst = star_of_balls(1, m, 5)
        if inst.graph.n > args.max_n:
            break
        t0 = time.perf_counter()
        scheme = build_scheme(inst.graph, inst.params)
        t1 = time.perf_counter()
        report = certify_scheme(scheme, inst.params, inst.graph)
        t2 = time.perf_counter()
        color_from_scheme(scheme, inst.params, inst.graph)
        t3 = time.perf_counter()
        clean = report.clean()
        dirty += not clean
        print(
            f"{inst.graph.n:7d} {len(scheme):7d} {t1 - t0:8.2f} {t2 - t1:9.2f} "
            f"{t3 - t2:8.2f}" + ("" if clean else "  not clean")
        )
    return 1 if dirty else 0


if __name__ == "__main__":
    sys.exit(main())
