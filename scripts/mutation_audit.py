#!/usr/bin/env python3
"""Single-field mutation audit of the scheme certifier.

Builds four small schemes, then applies seeded single-field mutations to
their JSON documents: drop an element, duplicate one, renumber an integer
in range, retype a value or a key, or move an integer out of range.  Each
mutant goes through ``scheme_from_json`` and ``certify_scheme``, and one
that parses also through ``color_from_scheme``, which may refuse it with a
toolkit error (``DefcolorError``); the outcome is an input error (exit 2 in
the CLI), a dirty report, a clean report, or a crash (any other exception,
from the certifier or the colorer).  A second table does the same
for one long document, caterpillar(2, 34): its 7 entries carry witness
families that later entries inherit, up to 6 entries each.  It draws from
its own seeded stream, so the first table does not move.

Then every field of each scheme's params document is dropped, retyped to
each value of ``RETYPED``, raised by 0.5 to a float, or set to each value
of ``EXTREME`` (no random draw, so the scheme-mutant table does not move),
and ``defcolor scheme certify`` and ``defcolor scheme color`` run on the
scheme with each mutant; exit 4 (an internal error) is a crash.

Prints, per field and mutation, how many scheme mutants still certify
clean (the certificate slack), then the exit statuses of the params
mutants.  Each scheme-mutant table also prints the sha256 over one line
per mutant, in draw order: its report JSON, or the token ``input-error``
for a document that does not parse.  Exits 1 if any mutant crashed, if
more scheme mutants of either table certify clean than its ceiling
(``CLEAN_CEILING``, ``LONG_CLEAN_CEILING``): the certifier may grow
stricter, never looser, or if a table's sha256 differs from its pinned
value (``DIGEST``, ``LONG_DIGEST``): every report must stay byte-identical.
A change to a clause's verdicts or witnesses records the new values with
its reason.

    PYTHONPATH=src python3 scripts/mutation_audit.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import traceback
from collections import Counter

from defcolor.cli import main as cli_main
from defcolor.errors import DefcolorError, InputFormatError
from defcolor.scheme import (
    build_scheme,
    certify_scheme,
    color_from_scheme,
    scheme_from_json,
    scheme_to_json,
)
from defcolor.scheme.corpus import caterpillar, star_of_balls

FIELDS = (
    ("graph", "n"), ("graph", "edges"), ("model",), ("arcs",),
    ("hyperedges", "s"), ("hyperedges", "j"), ("hyperedges", "sink"),
    ("witnesses",), ("witness_links",),
    ("step_meta", "q"), ("step_meta", "U"), ("step_meta", "U_plus"),
)
MUTATIONS = ("drop", "duplicate", "renumber", "retype", "out-of-range")
RETYPED = ("x", "1", 1.5, True, None, [], {}, [0], {"0": 0})
OUTCOMES = ("input-error", "dirty", "clean", "crash")
COUNT = 2500  # mutants per document
SEED = 0
PARAMS_KEYS = ("h", "k", "r", "d", "N", "l0", "t")
EXTREME = (-1, 0, 2**70)
EXITS = {0: "ok", 1: "negative", 2: "input-error", 3: "budget", 4: "crash"}
# clean scheme mutants of the seeded run; lower it when the certifier
# rejects more of them
CLEAN_CEILING = 1168
# the same for the long document's table
LONG_SEED = 1
LONG_CLEAN_CEILING = 289
# sha256 of the report lines of each table
DIGEST = "40f2c657f5181a976712da79266b007f41181cefd340d213eee469e6bdbc1cbe"
LONG_DIGEST = "73aa1ddbc78e064e4d1f8fb83de03fb08c967a59ab982e639b9a2dbc24a92b1a"


def instances():
    return [
        caterpillar(1, 14), caterpillar(2, 20),
        star_of_balls(1, 6, 2), star_of_balls(2, 7, 1),
    ]


def _slots(value, holder, key, out):
    """Every (holder, key) under ``holder[key]``, outermost first; object
    keys appear as (object, ("key", name))."""
    out.append((holder, key))
    if isinstance(value, list):
        for i, item in enumerate(value):
            _slots(item, value, i, out)
    elif isinstance(value, dict):
        for k in list(value):
            out.append((value, ("key", k)))
            _slots(value[k], value, k, out)


def mutate(doc: list, rng: random.Random, bound: int):
    """A copy of ``doc`` with one field of one entry mutated, with the
    field's name and the mutation; None when the drawn field has no slot
    the mutation applies to."""
    d = json.loads(json.dumps(doc))
    entry = rng.choice(d)
    path = rng.choice(FIELDS)
    kind = rng.choice(MUTATIONS)
    name = ".".join(path)
    holder = entry
    for part in path[:-1]:
        holder = holder.get(part) if isinstance(holder, dict) else None
        if part == "hyperedges" and holder:
            holder = rng.choice(holder)
    if not isinstance(holder, dict) or path[-1] not in holder:
        return None
    slots = []
    _slots(holder[path[-1]], holder, path[-1], slots)
    if kind == "drop":
        slots = [s for s in slots if not isinstance(s[1], tuple)]
    elif kind == "duplicate":
        slots = [s for s in slots if isinstance(s[0], list)]
    elif kind in ("renumber", "out-of-range"):
        # object keys are decimal integers
        slots = [(h, k) for h, k in slots if isinstance(k, tuple) or type(h[k]) is int]
    if not slots:
        return None
    h, k = rng.choice(slots)
    if kind == "drop":
        del h[k]
    elif kind == "duplicate":
        h.insert(k, json.loads(json.dumps(h[k])))
    else:
        old = int(k[1]) if isinstance(k, tuple) else h[k]
        if kind == "retype":
            new = rng.choice([x for x in RETYPED if x != old])
        elif kind == "renumber":
            new = (old + rng.randrange(1, bound)) % bound  # never the old value
        else:
            new = rng.choice([-1, bound + rng.randrange(1, 5), bound + 1000])
        if isinstance(k, tuple):
            # a retyped key is no decimal string: "'1'", "1.5", "None", ...
            h[repr(new) if kind == "retype" else str(new)] = h.pop(k[1])
        else:
            h[k] = new
    return d, name, kind


def outcome(text: str, inst) -> tuple[str, str]:
    """input-error, dirty or clean, and the line the table's sha256 reads:
    the report JSON, or ``input-error``.  A document that parses is also
    colored, and the colorer may only succeed or raise a DefcolorError;
    other exceptions propagate."""
    try:
        scheme = scheme_from_json(text)
    except InputFormatError:
        return "input-error", "input-error"
    report = certify_scheme(scheme, inst.params, inst.graph)
    line = json.dumps(report.to_json())
    try:
        color_from_scheme(scheme, inst.params, inst.graph)
    except DefcolorError:
        pass
    return "clean" if report.clean() else "dirty", line


def audit(count: int, seed: int, insts, out=sys.stdout) -> tuple[int, int, str]:
    """Print the mutant table of ``insts`` and its sha256; return the
    crashes, the clean mutants and the sha256."""
    rng = random.Random(seed)
    table: dict[tuple[str, str], Counter] = {}
    digest = hashlib.sha256()
    crashes = 0
    for inst in insts:
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        done = 0
        while done < count:
            got = mutate(doc, rng, inst.graph.n)
            if got is None:
                continue
            done += 1
            mutant, name, kind = got
            try:
                result, line = outcome(json.dumps(mutant), inst)
            except Exception:
                result = line = "crash"
                crashes += 1
                print(f"crash: {inst.name} {name} {kind}", file=out)
                traceback.print_exc(limit=3, file=out)
            table.setdefault((name, kind), Counter())[result] += 1
            digest.update(line.encode() + b"\n")
    rows = sorted(table.items()) + [(("all", ""), sum(table.values(), Counter()))]
    print(f"{'field':<16s} {'mutation':<13s}" + "".join(f"{o:>12s}" for o in OUTCOMES),
          file=out)
    for (name, kind), counts in rows:
        cells = "".join(f"{counts[o]:>12d}" for o in OUTCOMES)
        print(f"{name:<16s} {kind:<13s}{cells}", file=out)
    print(f"sha256 of the reports: {digest.hexdigest()}", file=out)
    return crashes, rows[-1][1]["clean"], digest.hexdigest()


def params_mutants(params: dict):
    """(key, mutation, document) for each field of a params document
    dropped, retyped to each RETYPED value, raised by 0.5 or set to each
    EXTREME value."""
    for key in PARAMS_KEYS:
        yield key, "drop", {x: v for x, v in params.items() if x != key}
        yield key, "float", {**params, key: params[key] + 0.5}
        for kind, values in (("retype", RETYPED), ("extreme", EXTREME)):
            for value in values:
                yield key, kind, {**params, key: value}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit status of ``defcolor`` with ``argv``, and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def params_audit(out=sys.stdout) -> int:
    table: dict[tuple[str, str, str], Counter] = {}
    crashes = 0
    with tempfile.TemporaryDirectory() as tmp:
        spath = os.path.join(tmp, "scheme.json")
        ppath = os.path.join(tmp, "params.json")
        for inst in instances():
            with open(spath, "w", encoding="utf-8") as fh:
                fh.write(scheme_to_json(build_scheme(inst.graph, inst.params)))
            for key, kind, doc in params_mutants(inst.params.to_json()):
                with open(ppath, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                for verb in ("certify", "color"):
                    code, err = run_cli(["scheme", verb, spath, "--params", ppath])
                    result = EXITS.get(code, "crash")
                    if result == "crash":
                        crashes += 1
                        print(f"crash: {inst.name} scheme {verb} {key} {kind}", file=out)
                        print(err, file=out)
                    table.setdefault((verb, key, kind), Counter())[result] += 1
    outcomes = list(EXITS.values())
    print(f"{'verb':<8s} {'param':<6s} {'mutation':<9s}"
          + "".join(f"{o:>12s}" for o in outcomes), file=out)
    for (verb, key, kind), counts in sorted(table.items()):
        cells = "".join(f"{counts[o]:>12d}" for o in outcomes)
        print(f"{verb:<8s} {key:<6s} {kind:<9s}{cells}", file=out)
    return crashes


def main() -> int:
    crashes, clean, digest = audit(COUNT, SEED, instances())
    print()
    crashes += params_audit()
    print()
    long_crashes, long_clean, long_digest = audit(
        COUNT, LONG_SEED, [caterpillar(2, 34)]
    )
    crashes += long_crashes
    bad = False
    for got, ceiling in ((clean, CLEAN_CEILING), (long_clean, LONG_CLEAN_CEILING)):
        if got > ceiling:
            print(f"{got} scheme mutants certify clean, more than {ceiling}")
            bad = True
    for got, pinned in ((digest, DIGEST), (long_digest, LONG_DIGEST)):
        if got != pinned:
            print(f"reports hash to {got}, pinned {pinned}")
            bad = True
    return 1 if crashes or bad else 0


if __name__ == "__main__":
    sys.exit(main())
