#!/usr/bin/env python3
"""Print the exact derived-constants chain over a small parameter grid.

The values explode immediately; reported magnitudes are log10 estimates of
exactly represented integers.
"""

from __future__ import annotations

import argparse
import sys

from defcolor.constants import paper_constants
from defcolor.hugeint import PLAIN_LIMIT, approx_log10, power_form


def fmt(x) -> str:
    got = x.materialize()
    if got is not None and got.bit_length() <= 64:
        return str(got)
    lg = approx_log10(x)
    if lg is not None and lg != float("inf"):
        return f"~10^{lg:.4g}"
    # the exponent overflows floats: show the tower one level at a time
    if x.val is None:
        base = x.base.materialize()
        base_str = str(base) if base is not None and base.bit_length() <= 10 else "b"
        return f"~{base_str}^({fmt(x.exp)})"
    return "enormous"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=int, nargs="+", default=[3, 4])
    ap.add_argument("--k", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--r", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--d-homo", type=int, default=2)
    ap.add_argument("--n1", type=int, default=7)
    ap.add_argument("--n2", type=int, default=7)
    args = ap.parse_args()

    print(
        f"{'h':>2s} {'k':>2s} {'r':>2s} {'t0':>10s} {'t1':>12s} "
        f"{'k0':>14s} {'l0':>14s} {'t':>26s} {'N':>16s}"
    )
    for h in args.h:
        for k in args.k:
            for r in args.r:
                tab = paper_constants(h, k, r, args.d_homo, args.n1, args.n2)
                extra = tab.t_extra_exponent
                if extra >= PLAIN_LIMIT:  # past what str() of an int prints
                    extra = power_form(extra)
                t_str = f"2^({fmt(tab.t_main_exponent)}+{extra})"
                print(
                    f"{h:2d} {k:2d} {r:2d} {fmt(tab.t0):>10s} {fmt(tab.t1):>12s} "
                    f"{fmt(tab.k0):>14s} {fmt(tab.l0):>14s} {t_str:>26s} "
                    f"{fmt(tab.n_total):>16s}"
                )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
