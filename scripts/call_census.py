#!/usr/bin/env python3
"""Call census: every function of ``src/defcolor`` runs outside the tests.

In this one process, with a ``sys.setprofile`` hook that records each
Python function entered, the census runs

* every ``python scripts/...`` command of the CI workflow, with its CI
  arguments (this script's own step excepted);
* the ``python -m defcolor.cli`` and ``python -c`` commands of the
  workflow, in order, with ``$d`` bound to a fresh temporary directory
  (the commands of the "CLI paths" step);
* one pass over each benchmark workload's queries, built by
  ``perfbench/workloads.py`` (read only, with seed 1).

It then lists every function of ``src/defcolor`` that never ran, nested
ones and lambdas included (comprehensions, class bodies and module bodies
are not counted), keyed ``module:qualname``.  Exits 1 if a function that
never ran is not in ``ALLOWED``, if a function in ``ALLOWED`` did run or
no longer exists (so the list cannot go stale), or if a command raised
anything but ``SystemExit``.  The commands' own exit codes are printed,
not judged: their CI steps judge them.

    PYTHONPATH=src python3 scripts/call_census.py

Needs Python 3.11 (``co_qualname``) and only the standard library.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import runpy
import shlex
import sys
import tempfile
import time
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType, SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "defcolor"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
BENCH = ROOT / "perfbench"
SELF = "scripts/call_census.py"

# Functions no CI input can reach, each with the reason it stays.
LABEL_2 = (
    "a hyperedge of label >= 2 (ROADMAP item 6): no scheme the builder makes "
    "has one, so only hand-made test entries reach it"
)
ABSORB = (
    "D8's partner search for a sink the step absorbs or deletes: no built "
    "scheme absorbs or deletes an earlier sink, so only "
    "tests/test_certify.py's hand-built pairs reach it"
)
ALLOWED = {
    "defcolor.scheme.steps:_same_type": LABEL_2,
    "defcolor.scheme.steps:_mask_bijection": LABEL_2,
    "defcolor.scheme.steps:_matching": LABEL_2,
    "defcolor.scheme.steps:_matching.<locals>.augment": LABEL_2,
    "defcolor.scheme.steps:_require_link": LABEL_2,
    "defcolor.scheme.steps:_subsets": LABEL_2,
    "defcolor.scheme.steps:_next_entry.<locals>.lifted": LABEL_2,
    "defcolor.scheme.steps:del_step.<locals>.correspond": LABEL_2,
    "defcolor.scheme.steps:contract_step.<locals>.correspond": LABEL_2,
    "defcolor.scheme.entry:parse_groups": LABEL_2,
    "defcolor.scheme.entry:parse_groups.<locals>.build": LABEL_2,
    "defcolor.scheme.entry:SchemeEntry.groups_for": LABEL_2,
    "defcolor.scheme.entry:SchemeEntry.link_for": LABEL_2,
    "defcolor.scheme.certify:_reaches_below": LABEL_2,
    "defcolor.scheme.split:_descend": (
        "the split's descent past one ball type needs t1 >= 2 ball types, "
        "so a ball radius l0 >= 232 (ROADMAP item 5)"
    ),
    "defcolor.scheme.certify:_find_gd_partner": ABSORB,
    "defcolor.scheme.certify:_find_hg_partner": ABSORB,
    "defcolor.scheme.certify:_u_part": ABSORB,
    "defcolor.scheme.certify:_sig_multiset": ABSORB,
}

SKIPPED_NAMES = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>", "<module>"}
WORKLOADS = ("scheme-scale", "exact-mix", "cli-docs")


def functions(code: CodeType):
    """Every function code object nested in ``code``, depth first."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            # CO_NEWLOCALS marks a function, not a class or module body
            if const.co_flags & CO_NEWLOCALS and const.co_name not in SKIPPED_NAMES:
                yield const
            yield from functions(const)


def last_line(code: CodeType) -> int:
    return max(line for _, _, line in code.co_lines() if line is not None)


def package_functions() -> dict[tuple[str, int, str], tuple[str, int, int]]:
    """(path, first line, qualname) -> (key, first line, last line)."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        real = os.path.realpath(path)
        top = compile(path.read_text(encoding="utf-8"), real, "exec")
        for code in functions(top):
            span = (code.co_firstlineno, last_line(code))
            out[(real, code.co_firstlineno, code.co_qualname)] = (
                f"{module}:{code.co_qualname}", *span
            )
    return out


def outer_lines(never) -> int:
    """Source lines of the never-run functions, a nested one counted once."""
    total, ends = 0, {}
    for key, first, last in sorted(never, key=lambda t: (t[0].split(":")[0], t[1])):
        module = key.split(":")[0]
        if first > ends.get(module, 0):
            total += last - first + 1
            ends[module] = last
    return total


def workflow_commands(tmp: str) -> list[tuple[str, list[str]]]:
    """The workflow's script, CLI and ``python -c`` commands, in order:
    ("script", [path, *args]), ("cli", argv) or ("exec", [code, *args])."""
    out = []
    for raw in WORKFLOW.read_text(encoding="utf-8").splitlines():
        line = raw.strip().removeprefix("run: ").replace("$d", tmp)
        m = re.search(r"\bpython3? (scripts/\S+\.py)(.*)$", line)
        if m and m.group(1) != SELF:
            out.append(("script", [str(ROOT / m.group(1)), *shlex.split(m.group(2))]))
            continue
        m = re.search(r"\bpython -m defcolor\.cli (.*)$", line)
        if m:
            # drop what follows the command: a closing $( ), a redirection, ||
            text = re.split(r'\)"| 2?>| \|\|', m.group(1))[0]
            out.append(("cli", shlex.split(text)))
            continue
        if line.startswith("python -c "):
            out.append(("exec", shlex.split(line)[2:]))
    return out


def run_command(kind: str, args: list[str]):
    """Run one workflow command in this process; returns its exit code."""
    saved = sys.argv
    try:
        if kind == "script":
            sys.argv = args
            runpy.run_path(args[0], run_name="__main__")
            return 0
        if kind == "cli":
            from defcolor.cli import main

            return main(args)
        sys.argv = ["-c", *args[1:]]
        exec(compile(args[0], "<string>", "exec"), {"__name__": "__main__"})
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.argv = saved


def run_workload(name: str, tmp: str) -> str:
    """One pass over a benchmark workload's queries; returns their tally."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    api = workloads.load_api()
    expected = json.loads((BENCH / "expected.json").read_text())[name]
    clock = workloads.Clock(SimpleNamespace(after=lambda dt: None))
    queries = workloads.SETUPS[name](api, 1, os.path.join(tmp, name))
    tally: dict[str, int] = {}
    for q in queries:
        status = q.run(clock, expected.get(q.key), api).status
        tally[status] = tally.get(status, 0) + 1
    return " ".join(f"{s}={c}" for s, c in sorted(tally.items()))


def main() -> int:
    seen: set[CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    runs: list[str] = []
    crashed = False
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "d")  # the CLI paths step's $d
        os.makedirs(d)
        steps = workflow_commands(d) + [("workload", [w]) for w in WORKLOADS]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        sys.setprofile(profile)  # before the first defcolor import
        for kind, args in steps:
            start = time.perf_counter()
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    if kind == "workload":
                        status = run_workload(args[0], tmp)
                    else:
                        status = f"exit {run_command(kind, args)}"
            except Exception as exc:  # the census is incomplete: say so
                status = f"raised {exc!r}"
                crashed = True
            shown = " ".join(args if kind != "exec" else ["python -c ...", *args[1:]])
            shown = shown.replace(str(ROOT) + "/", "").replace(tmp + "/", "")
            runs.append(f"{time.perf_counter() - start:7.2f} s  {kind:8s} {status:24s} {shown}")
        sys.setprofile(None)

    ran = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname) for c in seen}
    table = package_functions()
    never = sorted({table[k] for k in table if k not in ran}, key=lambda t: t[0])

    print("runs:")
    print("\n".join(runs))
    lines = outer_lines(never)
    print(f"\n{len(never)} of {len(table)} functions never ran ({lines} lines):")
    for key, first, last in never:
        mark = "allowed" if key in ALLOWED else "UNLISTED"
        print(f"  {mark:8s} {key}  ({last - first + 1} lines)")
    unlisted = [key for key, _, _ in never if key not in ALLOWED]
    never_keys = {key for key, _, _ in never}
    stale = sorted(key for key in ALLOWED if key not in never_keys)
    for key in stale:
        print(f"  STALE    {key} is allowed but ran or does not exist: take it off ALLOWED")
    if crashed:
        print("a command raised: the census is incomplete")
    if unlisted or stale or crashed:
        return 1
    print("census clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
