#!/usr/bin/env python3
"""Single-field mutation audit of the scheme certifier.

Builds four small schemes, then applies seeded single-field mutations to
their JSON documents: drop an element, duplicate one, renumber an integer
in range, retype a value or a key, or move an integer out of range.  Each
mutant goes through ``scheme_from_json`` and ``certify_scheme``; the
outcome is an input error (exit 2 in the CLI), a dirty report, a clean
report, or a crash (any other exception).

Prints, per field and mutation, how many mutants still certify clean: the
certificate slack, which is not a gate.  Exits 1 if any mutant crashed.

    PYTHONPATH=src python3 scripts/mutation_audit.py
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from collections import Counter

from defcolor.errors import InputFormatError
from defcolor.scheme import (
    build_scheme,
    certify_scheme,
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


def outcome(text: str, inst) -> str:
    """input-error, dirty or clean; other exceptions propagate."""
    try:
        scheme = scheme_from_json(text)
    except InputFormatError:
        return "input-error"
    report = certify_scheme(scheme, inst.params, inst.graph)
    return "clean" if report.clean() else "dirty"


def audit(count: int, seed: int, out=sys.stdout) -> int:
    rng = random.Random(seed)
    table: dict[tuple[str, str], Counter] = {}
    crashes = 0
    for inst in instances():
        doc = json.loads(scheme_to_json(build_scheme(inst.graph, inst.params)))
        done = 0
        while done < count:
            got = mutate(doc, rng, inst.graph.n)
            if got is None:
                continue
            done += 1
            mutant, name, kind = got
            try:
                result = outcome(json.dumps(mutant), inst)
            except Exception:
                result = "crash"
                crashes += 1
                print(f"crash: {inst.name} {name} {kind}", file=out)
                traceback.print_exc(limit=3, file=out)
            table.setdefault((name, kind), Counter())[result] += 1
    rows = sorted(table.items()) + [(("all", ""), sum(table.values(), Counter()))]
    print(f"{'field':<16s} {'mutation':<13s}" + "".join(f"{o:>12s}" for o in OUTCOMES),
          file=out)
    for (name, kind), counts in rows:
        cells = "".join(f"{counts[o]:>12d}" for o in OUTCOMES)
        print(f"{name:<16s} {kind:<13s}{cells}", file=out)
    return crashes


def main() -> int:
    return 1 if audit(COUNT, SEED) else 0


if __name__ == "__main__":
    sys.exit(main())
