#!/usr/bin/env python3
"""Scaling curve of the scheme pipeline.

For star_of_balls(1, m, 5) (n = 5m + 1) and star_of_balls(2, m, 3)
(n = 3m + 2), from about 10^2 to 10^5 vertices, and for caterpillar(1, s)
(n = s + 1, s = 101 to 1601), time ``build_scheme``, ``certify_scheme`` on
the built scheme, the round trip ``scheme_to_json`` then
``scheme_from_json``, and ``color_from_scheme``, each once, and print one
row per size.  A build that stops with ``BucketTooSmallError`` (the
caterpillars' contraction steps run out of uniform buckets) prints the
stop and its build time.  Exits 1 if a scheme does not certify clean, if
the scheme read back does not certify to the same report JSON, or on any
other error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from defcolor.errors import BucketTooSmallError
from defcolor.scheme import (
    build_scheme,
    certify_scheme,
    color_from_scheme,
    scheme_from_json,
    scheme_to_json,
)
from defcolor.scheme.corpus import caterpillar, star_of_balls

# (apexes, ball size, ball counts): n from about 10^2 to 10^5 in each family
STARS = (
    (1, 5, (20, 200, 400, 1000, 2000, 10000, 20000)),
    (2, 3, (33, 333, 666, 1666, 3333, 16666, 33333)),
)
# spine lengths of caterpillar(1, s)
SPINES = (101, 201, 401, 801, 1601)


def instances(max_n: int):
    """(family label, instance) for every row within max_n vertices."""
    for apexes, size, counts in STARS:
        for m in counts:
            inst = star_of_balls(apexes, m, size)
            if inst.graph.n > max_n:
                break
            yield f"({apexes}, m, {size})", inst
    for s in SPINES:
        inst = caterpillar(1, s)
        if inst.graph.n > max_n:
            break
        yield "cat(1, s)", inst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=100_001)
    args = ap.parse_args()

    print(
        f"{'family':>10s} {'n':>7s} {'entries':>7s} {'build s':>8s} "
        f"{'certify s':>9s} {'round trip s':>12s} {'color s':>8s}"
    )
    bad = 0
    for family, inst in instances(args.max_n):
        t0 = time.perf_counter()
        try:
            scheme = build_scheme(inst.graph, inst.params)
        except BucketTooSmallError as exc:
            print(
                f"{family:>10s} {inst.graph.n:7d} {'-':>7s} "
                f"{time.perf_counter() - t0:8.2f}  stopped: {exc}"
            )
            continue
        t1 = time.perf_counter()
        report = certify_scheme(scheme, inst.params, inst.graph)
        t2 = time.perf_counter()
        back = scheme_from_json(scheme_to_json(scheme))
        t3 = time.perf_counter()
        color_from_scheme(scheme, inst.params, inst.graph)
        t4 = time.perf_counter()
        again = certify_scheme(back, inst.params, inst.graph)
        notes = []
        if not report.clean():
            notes.append("not clean")
        if json.dumps(again.to_json()) != json.dumps(report.to_json()):
            notes.append("round trip certifies differently")
        bad += bool(notes)
        print(
            f"{family:>10s} {inst.graph.n:7d} {len(scheme):7d} "
            f"{t1 - t0:8.2f} {t2 - t1:9.2f} {t3 - t2:12.2f} {t4 - t3:8.2f}"
            + "".join(f"  {note}" for note in notes)
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
