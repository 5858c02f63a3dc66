#!/usr/bin/env python3
"""Scaling curve of the scheme pipeline.

For star_of_balls(1, m, 5) (n = 5m + 1) and star_of_balls(2, m, 3)
(n = 3m + 2), from about 10^2 to 10^5 vertices, time ``build_scheme``,
``certify_scheme`` on the built scheme, the round trip ``scheme_to_json``
then ``scheme_from_json``, and ``color_from_scheme``, each once, and print
one row per size.  Exits 1 if a scheme does not certify clean, or if the
scheme read back does not certify to the same report JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from defcolor.scheme import (
    build_scheme,
    certify_scheme,
    color_from_scheme,
    scheme_from_json,
    scheme_to_json,
)
from defcolor.scheme.corpus import star_of_balls

# (apexes, ball size, ball counts): n from about 10^2 to 10^5 in each family
FAMILIES = (
    (1, 5, (20, 200, 400, 1000, 2000, 10000, 20000)),
    (2, 3, (33, 333, 666, 1666, 3333, 16666, 33333)),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=100_001)
    args = ap.parse_args()

    print(
        f"{'family':>10s} {'n':>7s} {'entries':>7s} {'build s':>8s} "
        f"{'certify s':>9s} {'round trip s':>12s} {'color s':>8s}"
    )
    bad = 0
    for apexes, size, counts in FAMILIES:
        for m in counts:
            inst = star_of_balls(apexes, m, size)
            if inst.graph.n > args.max_n:
                break
            t0 = time.perf_counter()
            scheme = build_scheme(inst.graph, inst.params)
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
                f"{f'({apexes}, m, {size})':>10s} {inst.graph.n:7d} {len(scheme):7d} "
                f"{t1 - t0:8.2f} {t2 - t1:9.2f} {t3 - t2:12.2f} {t4 - t3:8.2f}"
                + "".join(f"  {note}" for note in notes)
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
