#!/usr/bin/env python3
"""Run the scheme pipeline over the bundled instance corpus.

For every instance: build the scheme, certify every pair, color through
the scheme, and verify the coloring independently.  Prints one row per
instance; --name filters by substring.
"""

from __future__ import annotations

import argparse
import sys
import time

from defcolor.check import verify_coloring
from defcolor.scheme import build_scheme, certify_scheme, color_from_scheme
from defcolor.scheme.corpus import acceptance_corpus


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--name", default="", help="substring filter on instance names")
    args = ap.parse_args()

    instances = [i for i in acceptance_corpus() if args.name in i.name]
    if not instances:
        print("no instances match", file=sys.stderr)
        return 2
    print(
        f"{'instance':24s} {'n':>4s} {'entries':>7s} {'frozen':>6s} "
        f"{'clean':>5s} {'colors':>6s} {'defect<=':>8s} {'ms':>6s}"
    )
    ok_all = True
    for inst in instances:
        t0 = time.time()
        scheme = build_scheme(inst.graph, inst.params)
        report = certify_scheme(scheme, inst.params, inst.graph)
        coloring = color_from_scheme(scheme, inst.params, inst.graph)
        bound = inst.params.defect_bound
        verified, _ = verify_coloring(inst.graph, coloring, bound)
        ms = 1000 * (time.time() - t0)
        clean = report.clean()
        ok_all &= clean and verified
        print(
            f"{inst.name:24s} {inst.graph.n:4d} {len(scheme):7d} "
            f"{scheme[-1].graph.n:6d} {str(clean):>5s} "
            f"{len(set(coloring.colors)):6d} {bound:8d} {ms:6.1f}"
        )
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
