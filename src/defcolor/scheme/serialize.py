"""JSON serialization of schemes.

A scheme document is an array of entries; every set is emitted sorted so
documents are byte-stable and round-trip to equal values.  Pairs (edges and
arcs) are emitted as tuples, which JSON writes as arrays, and object keys
are left to ``sort_keys``.  A model is read into ``SchemeEntry.orig`` by
vertex, whatever the order of its keys; only the other models are sets.

The bytes are written and read by ``graphs.write_json`` and
``graphs.read_json``: ``orjson``, with the standard library's ``json``
only for the documents orjson writes or reads differently (an int
outside 64 bits; NaN, Infinity, 1e400 or a lone surrogate; bad JSON, for
json's message).  Documents, entries and errors are byte-identical to a
``json`` round trip, because every integer field is type-checked on the
way in: see ``read_json`` for why that makes the fallback rule exact.

Both directions run with the cyclic garbage collector paused.  They only
build acyclic containers, which reference counting frees, so a collection
inside them finds nothing to free: it only traverses the document being
built, and at n = 100,001 that was most of the round trip's time.  A young
collection that falls due meanwhile runs when ``_collector_paused`` exits,
still inside the call, over every container the call made: reading
star_of_balls(1, 400, 5) it took 0.52-0.59 ms of 5.1-5.4 ms with a
frozenset per singleton model, and 0.26-0.30 of 4.4-4.5 ms without.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from ..errors import InputFormatError
from ..graphs import graph_from_doc, int_keyed, int_lists, read_json, write_json
from .entry import Hyperedge, SchemeEntry, StepMeta, split_models


def entry_to_json(entry: SchemeEntry) -> dict:
    g = entry.graph
    model = dict(zip(range(len(entry.orig)), zip(entry.orig)))  # int keys
    model.update((v, sorted(m)) for v, m in entry.other.items())
    doc = {
        "graph": {"n": g.n, "edges": g.edges()},
        "model": model,
        "arcs": sorted(entry.arcs),
        "hyperedges": [
            {"s": sorted(e.members), "j": e.label, "sink": e.sink}
            for e in entry.hyperedges
        ],
        "witnesses": {
            str(i): [sorted(s) for s in sets]
            for i, sets in sorted(entry.witnesses.items())
        },
        "witness_links": {
            str(i): [sorted(s) for s in sets]
            for i, sets in sorted(entry.witness_links.items())
        },
        "step_meta": None,
    }
    if entry.step_meta is not None:
        doc["step_meta"] = {
            "q": entry.step_meta.q,
            "U": sorted(entry.step_meta.u_set),
            "U_plus": sorted(entry.step_meta.u_plus),
        }
    return doc


def _families(doc: dict, key: str) -> dict[int, tuple[frozenset[int], ...]]:
    items = zip(*int_keyed(doc.get(key, {}), key, 3))
    return {i: tuple(map(frozenset, family)) for i, family in items}


def entry_from_json(doc: dict) -> SchemeEntry:
    """One entry; every integer field must be a JSON integer, not a boolean."""
    try:
        graph = graph_from_doc(doc["graph"])
        orig, other = split_models(*int_keyed(doc["model"], "model", 2))
        arcs = frozenset((a, b) for a, b in int_lists(doc["arcs"], "arcs", 2))
        edges = doc["hyperedges"]
        if type(edges) is not list:
            raise ValueError("hyperedges must be a list")
        int_lists([e["s"] for e in edges], "hyperedge members", 2)
        int_lists([e[f] for e in edges for f in ("j", "sink")], "labels and sinks")
        hyperedges = tuple(
            Hyperedge(frozenset(e["s"]), e["j"], e["sink"]) for e in edges
        )
        witnesses = _families(doc, "witnesses")
        links = _families(doc, "witness_links")
        meta = None
        if doc.get("step_meta") is not None:
            m = doc["step_meta"]
            (q,) = int_lists([m["q"]], "q")
            u = int_lists([m["U"], m["U_plus"]], "U and U_plus", 2)
            meta = StepMeta(q=q, u_set=frozenset(u[0]), u_plus=frozenset(u[1]))
    except (KeyError, TypeError, ValueError, InputFormatError) as exc:
        raise InputFormatError(f"malformed scheme entry: {exc}") from exc
    return SchemeEntry(
        graph=graph,
        orig=orig,
        other=other,
        arcs=arcs,
        hyperedges=hyperedges,
        witnesses=witnesses,
        witness_links=links,
        step_meta=meta,
    )


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, and restore its state after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def scheme_to_json(scheme: list[SchemeEntry]) -> str:
    with _collector_paused():
        docs = [entry_to_json(e) for e in scheme]
        return write_json(docs) + "\n"


def scheme_from_json(text: str) -> list[SchemeEntry]:
    with _collector_paused():
        return read_json(text, _entries_from_docs)


def _entries_from_docs(docs) -> list[SchemeEntry]:
    if not isinstance(docs, list):
        raise InputFormatError("scheme document must be a JSON array of entries")
    entries: list[SchemeEntry] = []
    for i, doc in enumerate(docs):
        # no entry outgrows the one before, and the first has a singleton
        # model per vertex: checked before its graph is built
        try:
            n = doc["graph"]["n"]
        except (KeyError, TypeError):
            n = None
        if type(n) is int:
            if entries:
                cap = entries[-1].graph.n
                what = f"entry {i - 1}'s {cap}"
            else:
                model = doc.get("model")
                cap = len(model) if type(model) is dict else 0
                what = f"its {cap} model keys"
            if n > cap:
                raise InputFormatError(f"entry {i} claims {n} vertices, more than {what}")
        entries.append(entry_from_json(doc))
    return entries
