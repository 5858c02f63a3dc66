"""defcolor benchmark: end-to-end and per-layer metrics for three workloads.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload scheme-scale --seed 1 --seconds 36 --trace 0

Run every workload, each in a fresh process, untraced and traced:

    python3 perfbench/run.py --all --seed 1

Compare two result files or directories of them:

    python3 perfbench/run.py --compare before/ after/

Rewrite the recorded outcomes from the current code:

    python3 perfbench/run.py --record

Times are reported at reference speed: each timed call is divided by the
speed probe's factor around it (speed.py).  See README.md for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 5
SETUP_PROBES = 20  # probe samples before and after each set-up repeat

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports no defcolor module by itself)
from checkers import digest  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from speed import Probe  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "answered_share": "share",
}
VERBS = ("build", "certify", "minor", "depth", "color_exact")


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_package():
    """Import defcolor afresh from this checkout's src/."""
    if not (SRC / "defcolor" / "__init__.py").is_file():
        fail(f"no defcolor package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "defcolor" or n.startswith("defcolor.")]:
        del sys.modules[name]
    api = workloads.load_api()
    if not Path(api.graphs.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"defcolor imported from {api.graphs.__file__}, not {SRC}")
    return api


def setup(workload: str, seed: int, workdir: Path, probe: Probe):
    """Import, input generation and document writing, repeated.

    Returns the median time at reference speed and the median raw time.
    Each repeat is scaled by probe samples taken right before and right
    after it.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        probe.sample(SETUP_PROBES)
        start = time.perf_counter()
        api = import_package()
        queries = workloads.SETUPS[workload](api, seed, str(workdir))
        end = time.perf_counter()
        probe.sample(SETUP_PROBES)
        raw.append(end - start)
        scaled.append(raw[-1] / probe.factor(start, end))
    random.Random(seed).shuffle(queries)
    return api, queries, statistics.median(scaled), statistics.median(raw)


def run_pass(api, queries, expected: dict, probe: Probe, record: bool = False) -> dict:
    """One pass over the batch: every query once, in order, with probe
    samples after every timed call.  ``scale`` adds the scaled times."""
    probe.sample()
    counts = {workloads.OK: 0, workloads.FAIL: 0, workloads.WRONG: 0}
    times, calls, outcomes = {}, {}, {}
    for q in queries:
        clock = workloads.Clock(probe)
        out = q.run(clock, expected.get(q.key), api, record)
        counts[out.status] += 1
        times[q.key] = clock.elapsed
        calls[q.key] = clock.calls
        outcomes[q.key] = out
        if out.status == workloads.WRONG:
            print(f"WRONG {q.key}: observed {out.observed}; {out.note}", file=sys.stderr)
    return {"counts": counts, "times": times, "calls": calls, "outcomes": outcomes}


def scale(passes: list[dict], probe: Probe) -> None:
    """Divide every timed call by the probe factor around it, once the run
    has its samples on both sides.  Adds to each pass the per-query times
    and per-verb totals at reference speed, and ``factor``, the pass's raw
    time over its scaled time."""
    for p in passes:
        p["scaled"] = {}
        p["verbs"] = dict.fromkeys(VERBS, 0.0)
        for key, calls in p["calls"].items():
            total = 0.0
            for start, end, verb in calls:
                dt = (end - start) / probe.factor(start, end)
                total += dt
                if verb is not None:
                    p["verbs"][verb] += dt
            p["scaled"][key] = total
        p["factor"] = sum(p["times"].values()) / sum(p["scaled"].values())


def typical_times(passes: list[dict], scaled: bool = True) -> dict[str, float]:
    """Each query's median time over the passes, at reference speed unless
    ``scaled`` is false."""
    field = "scaled" if scaled else "times"
    return {k: statistics.median(p[field][k] for p in passes) for k in passes[0]["times"]}


def percentile(samples: list[float], q: float, half_width: int) -> float:
    """Windowed nearest-rank percentile: the mean of the order statistics
    within ``half_width`` ranks of the nearest rank.

    Averaging neighbours keeps one query's jitter, or two queries swapping
    places, from moving the figure; needs ten samples above the rank.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if q > 0.5 and len(ordered) - rank < 10:
        fail(f"only {len(ordered) - rank} samples above p{round(q * 100)}")
    window = ordered[max(0, rank - 1 - half_width):rank + half_width]
    if math.isinf(window[-1]):
        fail(f"the p{round(q * 100)} window reaches a failed query")
    return statistics.fmean(window)


def end_to_end(setup_s: float, passes: list[dict], scaled: bool = True) -> dict:
    typical = typical_times(passes, scaled)
    answered = [
        typical[k] if o.status == workloads.OK else math.inf
        for k, o in passes[0]["outcomes"].items()
    ]
    attempted = len(typical) * len(passes)
    failed = sum(p["counts"][workloads.FAIL] for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": sum(typical.values()),
        "query_p50_ms": percentile(answered, 0.5, 5) * 1e3,
        "query_p90_ms": percentile(answered, 0.9, 2) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answered_share": 1 - failed / attempted,
    }


FUNCTION_METRICS = (
    ("scheme.certify.certify_entry", ("calls", "self_s")),
    ("scheme.certify.certify_scheme", ("self_s",)),
    ("scheme.homogeneous.find_homogeneous", ("calls", "self_s")),
    ("scheme.homogeneous.check_homogeneous", ("self_s",)),
    ("scheme.steps.del_step", ("self_s",)),
    ("scheme.steps.contract_step", ("self_s",)),
    ("scheme.split.geodesic_split", ("self_s",)),
    ("scheme.build.build_scheme", ("self_s",)),
    ("scheme.colorer.color_from_scheme", ("self_s",)),
    ("scheme.serialize.scheme_to_json", ("self_s",)),
    ("scheme.serialize.scheme_from_json", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("minors.has_minor", ("calls", "self_s")),
    ("minors.verify_model", ("self_s",)),
    ("depth.connected_tree_depth", ("calls", "self_s")),
    ("coloring.decide_defective", ("calls", "self_s")),
    ("coloring.min_defect", ("self_s",)),
    ("graphs.induced_components", ("calls",)),
    ("graphs.canonical_key", ("self_s",)),
    ("graphs.parse_graph", ("self_s",)),
    ("constants.paper_constants", ("self_s",)),
    ("hugeint.hcmp", ("calls",)),
)
COUNTERS = {
    "scheme.certify.certify_entry.in_build_s": "s",
    "scheme.certify.fail_verdicts": "count",
    "scheme.certify.skipped_verdicts": "count",
    "scheme.certify.crashes": "count",
    "scheme.steps.bucket_errors": "count",
    "scheme.serialize.bytes": "B",
    "minors.has_minor.budget_stops": "count",
    "coloring.decide_defective.budget_stops": "count",
}


def per_layer(tracer: Tracer, plain: list[dict], traced: list[dict], queries) -> dict:
    """Per-layer metrics per traced pass; verb totals and shares come from
    the untraced passes of the same run.  Times are at reference speed."""
    n = len(traced)
    stats = tracer.stats
    factor = sum(sum(p["times"].values()) for p in traced) / sum(
        sum(p["scaled"].values()) for p in traced
    )

    def calls(name):
        return stats[name].calls / n if name in stats else 0

    def self_s(names):
        return sum(stats[x].self_s for x in names if x in stats) / n / factor

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s([x for x in stats if x.rsplit(".", 1)[0] == layer]), "s")
    out["graphs.calls"] = (sum(calls(x) for x in stats if x.startswith("graphs.")), "count")
    for name, fields in FUNCTION_METRICS:
        for f in fields:
            out[f"{name}.{f}"] = (calls(name), "count") if f == "calls" else (self_s([name]), "s")
    for name, unit in COUNTERS.items():
        value = tracer.counters.get(name, 0) / n
        out[name] = (value / factor if unit == "s" else value, unit)
    finds = calls("scheme.homogeneous.find_homogeneous")
    misses = tracer.counters.get("scheme.homogeneous.find_homogeneous.misses", 0) / n
    out["scheme.homogeneous.find_homogeneous.miss_share"] = (misses / finds if finds else 0.0, "share")
    builds = calls("scheme.build.build_scheme")
    steps = calls("scheme.steps.del_step") + calls("scheme.steps.contract_step")
    out["scheme.build.steps_per_build"] = (steps / builds if builds else 0.0, "count")
    depth_queries = sum(1 for q in queries if q.kind == "depth")
    out["depth.calls_per_query"] = (
        calls("depth.connected_tree_depth") / depth_queries if depth_queries else 0.0, "count"
    )
    cli_keys = {q.key for q in queries if q.cli}
    out["cli.exit_mismatch"] = (
        sum(1 for k, o in traced[0]["outcomes"].items()
            if k in cli_keys and o.status != workloads.OK), "count"
    )
    for verb in VERBS:
        out[f"{verb}_s"] = (statistics.median(p["verbs"][verb] for p in plain), "s")
    out["failed_share"] = (plain[0]["counts"][workloads.FAIL] / len(queries), "share")
    out["query_samples"] = (len(queries), "count")
    overhead = sum(typical_times(traced).values()) / sum(typical_times(plain).values()) - 1
    out["trace.overhead_share"] = (overhead, "share")
    return out


def measure(api, queries, expected: dict, seconds: float, probe: Probe, trace: bool):
    """Passes over the batch while the next one would end no more than half
    a pass after ``seconds``; at least one.  A traced run alternates
    untraced and traced passes, so both see the same machine conditions.
    Returns (untraced passes, traced passes, tracer)."""
    plain, traced = [], []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    last = 0.0
    while not plain or time.perf_counter() - start + last / 2 <= seconds:
        began = time.perf_counter()
        plain.append(run_pass(api, queries, expected, probe))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(api, queries, expected, probe))
            finally:
                tracer.uninstall()
        last = time.perf_counter() - began
    scale(plain + traced, probe)
    return plain, traced, tracer


def run_workload(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    expected = json.loads(EXPECTED.read_text())[args.workload]
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = RESULTS / f"tmp-{args.workload}-{os.getpid()}"
    probe = Probe()
    try:
        api, queries, setup_s, setup_raw_s = setup(args.workload, args.seed, workdir, probe)
        plain, traced, tracer = measure(
            api, queries, expected, args.seconds, probe, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = per_layer(tracer, plain, traced, queries)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(setup_s, plain).items()}

    every_pass = plain + traced
    wrong = sum(p["counts"][workloads.WRONG] for p in every_pass)
    digests = sorted({
        digest(*(f"{k}={o.observed}" for k, o in sorted(p["outcomes"].items())))
        for p in every_pass
    })
    result = {
        "correct": wrong == 0 and len(digests) == 1,
        "attempted": len(queries) * len(every_pass),
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "passes": len(plain),
        "queries_per_pass": len(queries),
        "outputs_digest": digests,
        "failed_queries": sorted(
            f"{k}: {o.observed}" for k, o in plain[0]["outcomes"].items()
            if o.status != workloads.OK
        ),
        "pass_wall_s": [sum(p["times"].values()) for p in plain],
        "pass_factor": [p["factor"] for p in plain],
        "probe_samples": len(probe.samples),
        "query_typical_ms": {k: v * 1e3 for k, v in sorted(typical_times(plain).items())},
        "unscaled_end_to_end": end_to_end(setup_raw_s, plain, scaled=False),
        "result": result,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: {len(plain)} pass(es) of {len(queries)} queries"
          f"{' plus as many traced' if args.trace else ''}; "
          f"percentiles over {len(queries)} per-query median times at reference speed; "
          f"result in {RESULTS / name}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


def run_all(args) -> int:
    status = 0
    for trace in (0, 1):
        for wl in workloads.WORKLOADS:
            argv = [sys.executable, str(Path(__file__)), "--workload", wl, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                print(f"{wl} trace={trace}: exit {proc.returncode}")
                status = 1
            if not lines:
                continue
            result = json.loads(lines[-1])
            print(f"{wl} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    return status


def load_results(path: str) -> dict:
    p = Path(path)
    files = sorted(p.glob("BENCH_*.json")) if p.is_dir() else [p]
    out = {}
    for f in files:
        doc = json.loads(f.read_text())
        for metric, m in doc["result"]["metrics"].items():
            out.setdefault((doc["workload"], metric), []).append(m["value"])
    return out


def compare(a_path: str, b_path: str) -> int:
    a, b = load_results(a_path), load_results(b_path)
    print(f"{'workload':14s} {'metric':48s} {'A':>12s} {'B':>12s} {'B/A':>8s}")
    for key in sorted(set(a) & set(b)):
        va, vb = statistics.median(a[key]), statistics.median(b[key])
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{key[0]:14s} {key[1]:48s} {va:12.6g} {vb:12.6g} {ratio}")
    return 0


def record_expected() -> int:
    doc = {}
    for wl in workloads.WORKLOADS:
        workdir = RESULTS / f"tmp-record-{wl}"
        try:
            api = import_package()
            queries = workloads.SETUPS[wl](api, 0, str(workdir))
            done = run_pass(api, queries, {}, Probe(), record=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if done["counts"][workloads.WRONG]:
            fail(f"{wl}: answers fail the benchmark's own checks; nothing recorded")
        doc[wl] = {k: o.observed for k, o in sorted(done["outcomes"].items())
                   if not o.observed.startswith("exit=")}
        print(f"{wl}: {len(doc[wl])} outcomes, {done['counts'][workloads.FAIL]} errors",
              file=sys.stderr)
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "defcolor" / "__init__.py").is_file():
        fail(f"no defcolor package under {SRC}")
    if args.record:
        return record_expected()
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("give --workload, --all, --compare or --record")
    if not EXPECTED.is_file():
        fail(f"missing {EXPECTED}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
