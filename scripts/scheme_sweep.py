#!/usr/bin/env python3
"""Scaling curve of the scheme pipeline.

For star_of_balls(1, m, 5) (n = 5m + 1) and star_of_balls(2, m, 3)
(n = 3m + 2), from about 10^2 to 10^5 vertices, and for caterpillar(1, s)
(n = s + 1, s = 101 to 1601), time ``build_scheme``, ``certify_scheme`` on
the built scheme, the round trip ``scheme_to_json`` then
``scheme_from_json``, and ``color_from_scheme``, each once, and print one
row per size.

A build that stops with ``BucketTooSmallError`` (the caterpillars'
contraction steps run out of uniform buckets) prints the stop and its build
time.  The script then rebuilds the entries made before the stop, driving
``find_homogeneous`` and ``step`` itself, and prints their number and the
time of ``certify_scheme`` on them in the prefix column: the certification
curve of long schemes.  Every pair of such a prefix must be clean, and its
frozen tail may fail only D3's ``unfrozen-entry-unchanged``, as the last
entry is not frozen.

Exits 1 if a scheme does not certify clean, if the scheme read back does
not certify to the same report JSON, if a prefix does not certify as
above, or on any other error.
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
    find_homogeneous,
    initial_entry,
    scheme_from_json,
    scheme_to_json,
    step,
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


def prefix(inst):
    """The entries built before the build stops with ``BucketTooSmallError``."""
    params = inst.params
    entries = [initial_entry(inst.graph)]
    while True:
        cur = entries[-1]
        triple = find_homogeneous(cur.graph, params.t, params.l0, params.d, params.r)
        try:
            entries.append(step(cur, triple, params))
        except BucketTooSmallError:
            return entries


def prefix_notes(report) -> list[str]:
    """How a prefix's report differs from a clean run up to an unfrozen
    last entry."""
    notes = []
    *pairs, tail = report.pair_reports
    if report.start.status != "pass" or not all(r.clean() for r in pairs):
        notes.append("prefix not clean")
    d3 = tail.verdicts["D3"].witness or {}
    if tail.failures() != ["D3"] or d3.get("clause") != "unfrozen-entry-unchanged":
        notes.append("prefix tail fails more than D3 unfrozen-entry-unchanged")
    return notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=100_001)
    args = ap.parse_args()

    print(
        f"{'family':>10s} {'n':>7s} {'entries':>7s} {'build s':>8s} "
        f"{'certify s':>9s} {'round trip s':>12s} {'color s':>8s} "
        f"{'prefix certify s':>16s}"
    )
    bad = 0
    for family, inst in instances(args.max_n):
        t0 = time.perf_counter()
        try:
            scheme = build_scheme(inst.graph, inst.params)
        except BucketTooSmallError as exc:
            build_s = time.perf_counter() - t0
            entries = prefix(inst)
            t1 = time.perf_counter()
            report = certify_scheme(entries, inst.params, inst.graph)
            certify_s = time.perf_counter() - t1
            notes = [f"stopped: {exc}", *prefix_notes(report)]
            bad += len(notes) > 1
            print(
                f"{family:>10s} {inst.graph.n:7d} {len(entries):7d} {build_s:8.2f} "
                f"{'-':>9s} {'-':>12s} {'-':>8s} {certify_s:16.2f}"
                + "".join(f"  {note}" for note in notes)
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
            f"{t1 - t0:8.2f} {t2 - t1:9.2f} {t3 - t2:12.2f} {t4 - t3:8.2f} "
            f"{'-':>16s}"
            + "".join(f"  {note}" for note in notes)
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
