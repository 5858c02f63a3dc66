"""Certification of scheme entries against the consistency conditions.

``certify_scheme`` checks each consecutive pair of entries and returns,
per pair, a per-condition report with explicit witnesses for every
failure.  Every clause is decided exactly from the document and the
original graph; none searches, and the module imports no search.  The
minor clause of D10 reads only the hyperedge's witness family, whose
members the clauses before it made nonempty, connected and disjoint: for
label 1 the pattern ct(1, k) is a single vertex, so k + h - 1 disjoint
copies exist exactly when G with each member contracted keeps at least
k + h - 1 vertices; for a higher label the family must parse into
k + h - label witness trees, each set adjacent in G to every set below
it, and fails otherwise.  A verdict is skipped only after a shape flaw.

One shape pass per entry (``_shape``) decides well-formedness before any
clause reads the entry, so the clauses carry no range guards.  D1 reports
model keys other than the vertices, an empty model or an id outside the
original graph; D4 an arc endpoint that is not a vertex; D5 a hyperedge
member that is not a vertex, a sink that is not a member or a label outside
[1, h - 2]; D9 witness or link keys other than the hyperedge indices.  A
flaw of the next entry fails its condition; a flaw of the previous entry
was reported by the pair before (the start check requires the first entry
to be exactly the initial one).  Either way D2-D12 are skipped with one
reason, and D1's own clauses run unless the flaw is D1's.  q, U and U+ are
not shape fields: D8 checks them.  Each entry is shaped once: the entry
keeps the verdict (``shape_flaws``) for the pair that reads it as the
previous entry, for a later certification of the same entry objects and
for the colorer.

Each pair then builds its maps once (``_pair_maps``): absorb sends each
previous vertex to the next vertex whose model contains its model, persist
to the one with exactly its model, and the inverse of absorb lists the
previous vertices inside each next vertex.  D2, D3, D4, D7 and D8 read
absorb, D3, D7, D8a and D8h persist, and D2, D6a and D8e the inverse.
Only D3's new-model clause still tests models for inclusion: it checks the
relation absorb encodes, and absorb, which follows one holder per id,
differs from it on overlapping next models (a D1 failure).  D2 is set
algebra per next vertex u: the edges at u must lie in the absorb image of
the previous edges, and when u is a singleton, its singleton neighbours must
be exactly the holders of its original's neighbours.  That costs O(n + m)
set work over the previous, next and original graphs.  The same image
answers the question of D8g's gc and D8h's hd clauses, whether a previous
edge is dropped (its ends absorbed into two distinct, non-adjacent next
vertices): exactly when image(u) - adj(u) - {u, None} is nonempty for some
u.  Those clauses scan the previous edges for their witness only when D2
did not rule such an edge out, or failed before it saw every image.

The conditions scan the entry graphs and the original graph in O(n + m)
per pair, apart from the model scan of D3, which takes O(n) for each new
vertex.  A contracted model and a witness family persist unchanged across
entries, so one certification decides each clause that reads no entry
once, in one table (``_Facts``): whether an id set is connected in the
original graph, which D1 asks of multi-vertex models and D10 of witness
and link sets; whether sets are disjoint (D10's witness and link
overlap); a link's first flaw against a family (it meets a witness, or is
adjacent to none of one's ids); and the minor clause per (family, label).
D10 is one scan of its clauses in order, per hyperedge: it asks these
facts and checks the rest on the entry, the empty sets, the zones, the
link count and link-misses-members.  The shape pass puts every model id in
the original graph, so a set lies in the sink (member) zone exactly when
its ids are in the graph and those in some model lie in the sink's
(members') models; an id outside the original graph fails a zone clause
before any clause reads the original adjacency.  D11 takes one pass over
an owner map from each original id to the sinks of the hyperedges holding
it, and scans the pairs of hyperedges in order for the first failure only
when that map finds a conflict.

D8g's gd clause and D8h's hg clause search the previous hyperedges for a
partner (``_find_gd_partner``, ``_find_hg_partner``) only for a hyperedge
whose sink the step absorbs into q (gd) or deletes (hg).  No scheme the
builder makes does either, so only the hand-built pairs of
``TestPartnerClauses`` in ``tests/test_certify.py`` reach them.

``certify_scheme`` ends with the frozen tail, the last entry L paired with
itself.  When the last real pair (P, L) is clean, the tail runs D3 alone,
and its report equals that of the full pair (L, L):

- the shape pass, the conditions that read only the next entry (D1, D5,
  D6b, D9-D12) and the clauses of D2 and D4 on L alone passed in (P, L);
- D1 disjointness makes the pair maps of (L, L) the identity, so each edge
  is its own preimage (D2) and each arc its own inherited arc (D4);
- D6a counts one absorbed vertex per special vertex, and N >= 1;
- D7 derives every hyperedge of L unchanged, as D5 puts an arc from each
  non-sink member into the sink and D4 puts that arc on an edge;
- D8 returns early on an unchanged state;
- so only D3's frozen clause can fail: L must be frozen.

After any other last pair, and for a one-entry scheme, the tail certifies
the pair (L, L) in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Optional

from ..graphs import Graph, induced_components
from .entry import SchemeEntry, parse_groups
from .params import SchemeParams

CONDITIONS = (
    "D1",
    "D2",
    "D3",
    "D4",
    "D5",
    "D6a",
    "D6b",
    "D7",
    "D8a",
    "D8b",
    "D8c",
    "D8d",
    "D8e",
    "D8f",
    "D8g",
    "D8h",
    "D8i",
    "D9",
    "D10",
    "D11",
    "D12",
)


@dataclass
class Verdict:
    status: str = "pass"  # pass | fail | skipped
    witness: Optional[dict] = None
    reason: Optional[str] = None

    def to_json(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = {
                k: sorted(v) if isinstance(v, (set, frozenset)) else v
                for k, v in self.witness.items()
            }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass
class CertReport:
    verdicts: dict[str, Verdict] = field(
        default_factory=lambda: {c: Verdict() for c in CONDITIONS}
    )

    def fail(self, cond: str, **witness):
        # first failure per condition wins; it carries the replay witness
        v = self.verdicts[cond]
        if v.status != "fail":
            v.status = "fail"
            v.witness = witness

    def skip(self, cond: str, reason: str):
        v = self.verdicts[cond]
        if v.status == "pass":
            v.status = "skipped"
            v.reason = reason

    def clean(self) -> bool:
        """True when every verdict passed: none failed or was skipped."""
        return all(v.status == "pass" for v in self.verdicts.values())

    def failures(self) -> list[str]:
        return [c for c, v in self.verdicts.items() if v.status == "fail"]

    def to_json(self):
        return {c: v.to_json() for c, v in self.verdicts.items()}


# indexed by previous vertex: a next vertex, or None
Images = list[Optional[int]]
# the inverse of absorb: next vertex -> the least previous vertex absorbed
# into it, and next vertex -> a list of any others
Inverse = tuple[dict[int, int], dict[int, list[int]]]


def _pair_maps(prev: SchemeEntry, nxt: SchemeEntry) -> tuple[Images, Images, Inverse]:
    """The absorb and persist images of every previous vertex, and the
    inverse of absorb.

    A vertex is absorbed into the next vertex whose model contains its whole
    model, and persists as the next vertex with exactly its model; None
    when there is none.
    """
    # by vertex, not in model order: a parsed model is in key-string order
    models = list(map(prev.model.__getitem__, range(prev.graph.n)))
    holder, next_model = nxt.holder, nxt.model
    absorb: Images = []
    for m in models:
        w = holder.get(next(iter(m)))
        absorb.append(w if w is not None and m <= next_model[w] else None)
    persist: Images = list(map(nxt.by_model.get, models))
    first: dict[int, int] = {}
    more: dict[int, list[int]] = {}
    for a, w in enumerate(absorb):
        if w in first:
            more.setdefault(w, []).append(a)
        elif w is not None:
            first[w] = a
    return absorb, persist, (first, more)


def _same_state(prev: SchemeEntry, nxt: SchemeEntry) -> bool:
    return (
        prev.graph == nxt.graph
        and prev.model == nxt.model
        and prev.arcs == nxt.arcs
        and set(prev.hyperedges) == set(nxt.hyperedges)
    )


def _shape(
    entry: SchemeEntry, params: SchemeParams, original: Graph
) -> Optional[tuple[str, dict]]:
    """The entry's first shape flaw as (condition, witness), or None,
    found once per entry and (h, original order)."""
    key = (params.h, original.n)
    if key not in entry.shape_flaws:
        entry.shape_flaws[key] = _first_flaw(entry, *key)
    return entry.shape_flaws[key]


def _first_flaw(
    entry: SchemeEntry, h: int, original_n: int
) -> Optional[tuple[str, dict]]:
    n = entry.graph.n
    model = entry.model
    if len(model) != n or (n and (min(model) < 0 or max(model) >= n)):
        return "D1", {"clause": "model-keys", "expected": n}
    cover = entry.cover
    if frozenset() in entry.by_model or (
        cover and (min(cover) < 0 or max(cover) >= original_n)
    ):
        for v in range(n):
            if not model[v]:
                return "D1", {"clause": "empty-model", "vertex": v}
            for o in model[v]:
                if not 0 <= o < original_n:
                    return "D1", {"clause": "id-range", "vertex": v, "original": o}
    stray = [(a, b) for a, b in entry.arcs if not (0 <= a < n and 0 <= b < n)]
    if stray:
        return "D4", {"clause": "arc-not-on-edge", "arc": list(min(stray))}
    for edge in entry.hyperedges:
        if not all(0 <= v < n for v in edge.members):
            return "D5", {"clause": "member-out-of-range", "members": edge.members}
        if not 1 <= edge.label <= h - 2:
            return "D5", {"clause": "label-out-of-range", "label": edge.label}
        if edge.sink not in edge.members:
            return "D5", {"clause": "sink-not-a-member", "sink": edge.sink}
    idx = set(range(len(entry.hyperedges)))
    if entry.witnesses.keys() != idx or entry.witness_links.keys() != idx:
        return "D9", {
            "witness_keys": sorted(entry.witnesses),
            "link_keys": sorted(entry.witness_links),
            "expected": sorted(idx),
        }
    return None


class _Facts:
    """What one certification decides once, whatever entry asks: each
    clause that reads id sets of the original graph but no entry, in one
    table whose key's shape names the clause: an id set (connected), a
    tuple of id sets (disjoint), (link, family) (the link's first flaw
    against the family) and (family, label) (the minor clause)."""

    def __init__(self, params: SchemeParams, original: Graph):
        self.params = params
        self.original = original
        self._known: dict = {}

    @cached_property
    def ids(self) -> frozenset[int]:
        """The vertices of the original graph."""
        return frozenset(range(self.original.n))

    def _recall(self, key, decide, *args):
        known = self._known.get(key)
        if known is None:
            known = self._known[key] = decide(*args)
        return known

    def connected(self, ids: frozenset[int]) -> bool:
        """Whether the original graph induces one component (or none) on
        ``ids``, which must lie in its range."""
        return self._recall(ids, _connected, self.original, ids)

    def disjoint(self, sets: tuple[frozenset[int], ...]) -> bool:
        """Whether no two of ``sets`` share an id."""
        return self._recall(sets, _disjoint, sets)

    def link_flaw(self, link: frozenset[int], fam) -> str:
        """The clause of D10 that ``link``, in the original graph's range,
        fails first against the family's witnesses in order, or "": it
        meets one, or is adjacent to none of its ids."""
        return self._recall((link, fam), _link_flaw, self.original, link, fam)

    def minors(self, fam, label: int) -> bool:
        """D10's minor clause, for nonempty, connected and disjoint
        witnesses in the original graph's range."""
        return self._recall(
            (fam, label), _has_witnessed_minors, fam, label, self.params, self.original
        )


def _connected(g: Graph, ids: frozenset[int]) -> bool:
    return len(induced_components(g, ids)) <= 1


def _disjoint(sets) -> bool:
    return sum(map(len, sets)) == len(frozenset().union(*sets))


def _link_flaw(g: Graph, link: frozenset[int], fam) -> str:
    reach = frozenset().union(*(g.adj[v] for v in link))
    for a in fam:
        if not link.isdisjoint(a):
            return "link-meets-witness"
        if reach.isdisjoint(a):
            return "link-not-adjacent-to-witness"
    return ""


def _certify_pair(
    prev: SchemeEntry,
    nxt: SchemeEntry,
    params: SchemeParams,
    original: Graph,
    facts: _Facts,
) -> CertReport:
    report = CertReport()
    flaw = _shape(nxt, params, original)
    if flaw is not None:
        cond, witness = flaw
        report.fail(cond, **witness)
        reason = f"a field of the entry is out of range, flagged by {cond}"
    elif (flaw := _shape(prev, params, original)) is not None:
        reason = f"previous entry out of range, flagged by {flaw[0]} of the pair before"
    # after a D1 flaw the models are not one nonempty id set per vertex
    if report.verdicts["D1"].status == "pass":
        _check_d1(report, nxt, facts)
    if flaw is not None:
        for cond in CONDITIONS[1:]:
            report.skip(cond, reason)
        return report
    absorb, persist, inverse = _pair_maps(prev, nxt)
    dropped = _check_d2(report, prev, nxt, original, absorb, inverse)
    if _check_d3(report, prev, nxt, params):
        _check_d3_step(report, prev, nxt, absorb, persist)
    _check_d4(report, prev, nxt, absorb)
    _check_d5(report, nxt, params)
    _check_d6(report, nxt, params, inverse)
    _check_d7(report, prev, nxt, absorb, persist)
    _check_d8(report, prev, nxt, params, original, absorb, persist, inverse, dropped)
    _check_d10(report, nxt, facts)
    _check_d11(report, nxt)
    _check_d12(report, nxt, params)
    return report


# ---------------------------------------------------------------------------


def _check_d1(report: CertReport, nv: SchemeEntry, facts: _Facts):
    seen: dict[int, int] = {}
    for v in range(nv.graph.n):
        m = nv.model[v]
        for o in m:
            if o in seen:
                report.fail(
                    "D1", clause="disjointness", vertices=[seen[o], v], shared=o
                )
                return
            seen[o] = v
        if len(m) > 1 and not facts.connected(m):
            report.fail("D1", clause="connectivity", vertex=v, model=m)
            return


def _check_d2(
    report: CertReport,
    pv: SchemeEntry,
    nv: SchemeEntry,
    original: Graph,
    absorb: Images,
    inverse: Inverse,
) -> Optional[bool]:
    """Check D2 and answer whether some previous edge is dropped: its ends
    are absorbed into two distinct next vertices that are not adjacent.

    The answer is None when D2 fails before it has seen every image.
    """
    g = nv.graph
    prev_adj = pv.graph.adj
    image_of = absorb.__getitem__
    first, more = inverse
    # the singletons holding each original id: one in ``by_orig``, the others
    # of a duplicated id in ``shared``
    single_id = nv.singles
    singles = frozenset(single_id)
    by_orig = nv.by_orig
    shared: dict[int, list[int]] = {}
    if len(by_orig) < len(single_id):
        for v, o in single_id.items():
            if by_orig[o] != v:
                shared.setdefault(o, []).append(v)
    # the edges at a multi-vertex model that the contraction lacks, both ways
    foreign: dict[int, set[int]] = {}
    for w, m in nv.model.items():
        if len(m) > 1:
            reach = frozenset().union(*(original.adj[o] for o in m))
            for v in g.adj[w]:
                if reach.isdisjoint(nv.model[v]):
                    foreign.setdefault(w, set()).add(v)
                    foreign.setdefault(v, set()).add(w)
    missing_pair = None
    dropped = False
    for u, adj in enumerate(g.adj):
        outside = near = frozenset()
        o = single_id.get(u)
        if o is not None:
            # the singletons whose originals are adjacent to u's original
            near = set(map(by_orig.get, original.adj[o]))
            near.discard(None)
            if shared:
                near.update(
                    v for x in original.adj[o] if x in shared for v in shared[x]
                )
            adj_singles = adj & singles
            if near != adj_singles:
                outside = adj_singles - near
                missing = [v for v in near - adj_singles if v > u]
                if missing_pair is None and missing:
                    missing_pair = [u, min(missing)]
        if u in foreign:
            outside = outside | foreign[u]
        # where the previous neighbours of the vertices absorbed into u went:
        # an edge (u, v) has a preimage iff v is in the image, a short-lived
        # set, not one of n sets kept for the whole pass
        a = first.get(u)
        image = set() if a is None else set(map(image_of, prev_adj[a]))
        for b in more.get(u, ()):
            image.update(map(image_of, prev_adj[b]))
        # both clauses are symmetric, so the first vertex with a failing edge
        # holds the least failing edge (u, v), with v > u
        if outside or not adj <= image:
            v = min(outside | (adj - image))
            clause = (
                "edge-not-in-contraction" if v in outside else "edge-without-preimage"
            )
            report.fail("D2", clause=clause, edge=[u, v])
            return None
        # adj lies in the image, so the image adds a vertex only when longer
        if not dropped and len(image) > len(adj):
            dropped = not (image - adj) <= {u, None}
    if missing_pair is not None:
        report.fail("D2", clause="missing-edge-between-originals", pair=missing_pair)
    return dropped


def _check_d3(
    report: CertReport, pv: SchemeEntry, nv: SchemeEntry, params: SchemeParams
) -> bool:
    """The frozen clause: a frozen entry stays, an unfrozen one changes.

    True when the pair is a step, whose models ``_check_d3_step`` checks.
    """
    frozen = pv.graph.n <= params.n_freeze
    same = _same_state(pv, nv)
    if frozen and not same:
        report.fail("D3", clause="frozen-entry-changed", size=pv.graph.n)
    elif same and not frozen:
        report.fail("D3", clause="unfrozen-entry-unchanged", size=pv.graph.n)
    return not (frozen or same)


def _check_d3_step(
    report: CertReport,
    pv: SchemeEntry,
    nv: SchemeEntry,
    absorb: Images,
    persist: Images,
):
    if len(nv.model) >= len(pv.model):
        report.fail(
            "D3",
            clause="model-count-not-decreasing",
            sizes=[len(pv.model), len(nv.model)],
        )
        return
    for v in range(pv.graph.n):
        kept = persist[v] is not None or absorb[v] is not None
        if not kept and not pv.model[v].isdisjoint(nv.cover):
            report.fail("D3", clause="model-split-across-entries", vertex=v)
            return
    for w in range(nv.graph.n):
        m = nv.model[w]
        if m in pv.by_model:
            continue
        parts = [v for v in range(pv.graph.n) if pv.model[v] <= m]
        if frozenset().union(*(pv.model[v] for v in parts)) != m:
            report.fail("D3", clause="new-model-not-a-union", vertex=w)
            return
        if len(induced_components(pv.graph, parts)) > 1:
            report.fail("D3", clause="contracted-set-disconnected", vertex=w)
            return


def _check_d4(report: CertReport, pv: SchemeEntry, nv: SchemeEntry, absorb: Images):
    g = nv.graph
    arcset = nv.arcs
    arcs = sorted(arcset)
    for a, b in arcs:
        if not g.has_edge(a, b):
            report.fail("D4", clause="arc-not-on-edge", arc=[a, b])
            return
    for a, b in arcs:
        if (b, a) in arcset:
            report.fail("D4", clause="two-cycle", arc=[a, b])
            return
    tails = {a for a, _ in arcs}
    for a, b in arcs:
        if b in tails:
            c = next(c for (x, c) in arcs if x == b)
            report.fail("D4", clause="directed-two-path", path=[a, b, c])
            return
    for a, b in sorted(pv.arcs):
        wa, wb = absorb[a], absorb[b]
        if wa is not None and wb is not None and g.has_edge(wa, wb):
            if (wa, wb) not in arcset:
                report.fail("D4", clause="arc-not-inherited", arc=[a, b])
                return
    # arc tails are original vertices; hyperedge members and the greedy
    # coloring rely on it
    for a, b in arcs:
        if len(nv.model[a]) != 1:
            report.fail("D4", clause="tail-not-original", arc=[a, b])
            return


def _check_d5(report: CertReport, nv: SchemeEntry, params: SchemeParams):
    arcset = set(nv.arcs)
    for edge in nv.hyperedges:
        if len(edge.members) > params.r + 1:
            report.fail(
                "D5", clause="oversized", members=edge.members, limit=params.r + 1
            )
            return
        valid = [
            v
            for v in sorted(edge.members)
            if all((u, v) in arcset for u in edge.members - {v})
        ]
        if edge.sink not in valid:
            report.fail(
                "D5", clause="sink-missing-arcs", sink=edge.sink, members=edge.members
            )
            return
        if len(valid) > 1:
            report.fail("D5", clause="sink-not-unique", candidates=valid)
            return


def _check_d6(
    report: CertReport, nv: SchemeEntry, params: SchemeParams, inverse: Inverse
):
    first, more = inverse
    for v in range(nv.graph.n):
        if v not in nv.special:
            continue
        count = (v in first) + len(more.get(v, ()))
        if count > params.n_freeze:
            report.fail("D6a", vertex=v, absorbed=count, limit=params.n_freeze)
        for u in nv.graph.adj[v]:
            if u > v and u in nv.special:
                report.fail("D6b", edge=[v, u])


def _check_d7(
    report: CertReport,
    pv: SchemeEntry,
    nv: SchemeEntry,
    absorb: Images,
    persist: Images,
):
    present = {(e.members, e.label) for e in nv.hyperedges}
    for edge in pv.hyperedges:
        rest = edge.members - {edge.sink}
        images = {v: persist[v] for v in rest}
        if any(w is None for w in images.values()):
            continue
        w_sink = absorb[edge.sink]
        if w_sink is None:
            continue
        derived = frozenset({w_sink}) | frozenset(
            w for w in images.values() if w in nv.graph.adj[w_sink]
        )
        if (derived, edge.label) not in present:
            report.fail(
                "D7",
                source_members=edge.members,
                label=edge.label,
                expected=derived,
            )
            return


def _check_d8(
    report: CertReport,
    pv: SchemeEntry,
    nv: SchemeEntry,
    params: SchemeParams,
    original: Graph,
    absorb: Images,
    persist: Images,
    inverse: Inverse,
    dropped: Optional[bool],
):
    if _same_state(pv, nv):
        return
    meta = nv.step_meta
    d8_all = [c for c in CONDITIONS if c.startswith("D8")]
    if meta is None:
        for c in d8_all:
            report.fail(c, clause="missing-step-meta")
        return
    q, u_set, u_plus = meta.q, meta.u_set, meta.u_plus
    if not 0 <= q < nv.graph.n:
        for c in d8_all:
            report.fail(c, clause="q-out-of-range", q=q)
        return
    if not u_set <= u_plus:
        report.fail("D8b", clause="u-not-in-u-plus", extra=u_set - u_plus)
    for o in sorted(u_plus):
        if o not in pv.by_orig or o not in nv.by_orig:
            for c in d8_all:
                report.fail(c, clause="u-plus-not-shared-original", original=o)
            return

    d = params.d
    # D8a: vanished or absorbed singletons had low degree
    for v in range(pv.graph.n):
        if len(pv.model[v]) != 1:
            continue
        if persist[v] is None and pv.graph.degree(v) > d:
            report.fail("D8a", vertex=v, degree=pv.graph.degree(v), limit=d)
            break

    expected_u = frozenset(
        o for o in u_plus if nv.graph.degree(nv.by_orig[o]) > d
    )
    if u_set != expected_u:
        report.fail("D8b", clause="u-mismatch", u=u_set, expected=expected_u)

    if nv.orig_at.get(q) in u_plus:
        report.fail("D8c", clause="q-in-u-plus", q=q)
    for x in sorted(nv.graph.adj[q]):
        if nv.graph.degree(x) > d:
            o = nv.orig_at.get(x)
            if o is None or o not in u_set:
                report.fail("D8c", clause="hot-neighbor-outside-u", vertex=x)
                break

    for edge in pv.hyperedges:
        if absorb[edge.sink] != q:
            continue
        for x in sorted(edge.members - {edge.sink}):
            if pv.graph.degree(x) > d:
                o = pv.orig_at.get(x)
                if o is None or o not in u_plus:
                    report.fail("D8d", member=x, edge_members=edge.members)
                    break

    _check_d8e(report, pv, nv, d, q, u_set, u_plus, inverse)

    # an id of U that is not an original of the next entry fails D8b
    wanted = frozenset({q}) | frozenset(
        nv.by_orig[o] for o in u_set if nv.by_orig.get(o) in nv.graph.adj[q]
    )
    if not any(
        e.members == wanted and e.label == 1 and e.sink == q
        for e in nv.hyperedges
    ):
        report.fail("D8f", expected_members=wanted)

    # gc and hd scan the previous edges only when D2 did not rule out a
    # dropped one
    if pv.cover == nv.cover:
        _check_d8g(report, pv, nv, params, q, u_plus, absorb, dropped)
        # D8h vacuous on contraction-type steps
    else:
        _check_d8h(
            report, pv, nv, params, original, q, u_set, u_plus, absorb, persist,
            dropped,
        )
        # D8g vacuous on deletion-type steps

    _check_d8i(report, pv, nv, original, q, u_set, u_plus, absorb)


def _check_d8e(report, pv, nv, d, q, u_set, u_plus, inverse):
    first, more = inverse
    absorbed_into_q = [first[q], *more.get(q, ())] if q in first else []
    for vp in absorbed_into_q:
        for v in sorted(pv.graph.adj[vp]):
            o = pv.orig_at.get(v)
            if o is None or o in u_plus or pv.graph.degree(v) > d:
                continue
            w_img = nv.by_orig.get(o)
            if w_img is None:
                continue
            for x in sorted(nv.graph.adj[w_img]):
                ox = nv.orig_at.get(x)
                if ox is not None and nv.graph.degree(x) > d and ox not in u_set:
                    report.fail("D8e", around=o, hot_neighbor=ox)
                    return


def _check_d8g(report, pv, nv, params, q, u_plus, absorb, dropped):
    if nv.model[q] in pv.by_model:
        report.fail("D8g", clause="ga-q-not-new", q=q)
    for v in range(pv.graph.n):
        if pv.model[v] not in nv.by_model and absorb[v] != q:
            report.fail("D8g", clause="gb-model-lost", vertex=v)
            return
    for u, v in pv.graph.edges() if dropped is not False else ():
        wu, wv = absorb[u], absorb[v]
        if wu is None or wv is None or wu == wv or nv.graph.has_edge(wu, wv):
            continue
        if q not in (wu, wv):
            report.fail("D8g", clause="gc-edge-dropped-away-from-q", edge=[u, v])
            return
        x_next = wu if wv == q else wv
        x_prev = u if wv == q else v
        o = pv.orig_at.get(x_prev)
        if (
            o is None
            or o in u_plus
            or pv.graph.degree(x_prev) > params.d
            or x_prev in pv.sinks
        ):
            report.fail("D8g", clause="gc-endpoint-unqualified", edge=[u, v])
            return
    for edge in pv.hyperedges:
        if absorb[edge.sink] != q:
            continue
        if not _find_gd_partner(pv, edge, q, u_plus, absorb):
            report.fail(
                "D8g", clause="gd-no-partner-edge", members=edge.members
            )
            return


def _u_part(pv: SchemeEntry, vertices, u_plus: frozenset[int]) -> frozenset[int]:
    """Originals of the given vertices that lie in U+."""
    return frozenset(o for o in map(pv.orig_at.get, vertices) if o in u_plus)


def _sig_multiset(sigs) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(s)) for s in sigs)


def _find_gd_partner(pv, edge, q, u_plus, absorb) -> bool:
    rest = [
        v for v in sorted(edge.members - {edge.sink})
        if pv.orig_at.get(v) not in u_plus
    ]
    want = _sig_multiset(_u_part(pv, pv.graph.adj[v], u_plus) for v in rest)
    s_upart = _u_part(pv, edge.members, u_plus)
    for cand in pv.hyperedges:
        if cand.label != edge.label:
            continue
        if pv.orig_at.get(cand.sink) in u_plus:
            continue
        outside = [
            v
            for v in cand.members - {cand.sink}
            if pv.orig_at.get(v) not in u_plus
        ]
        if _u_part(pv, cand.members, u_plus) != s_upart:
            continue
        if not all(absorb[v] == q for v in [*outside, cand.sink]):
            continue
        got = _sig_multiset(_u_part(pv, pv.graph.adj[v], u_plus) for v in outside)
        if got == want:
            return True
    return False


def _check_d8h(
    report, pv, nv, params, original, q, u_set, u_plus, absorb, persist, dropped
):
    vanished = []
    for v in range(pv.graph.n):
        m = pv.model[v]
        if m in nv.by_model or absorb[v] == q:
            continue
        if not m.isdisjoint(nv.cover):
            report.fail("D8h", clause="ha-model-partially-kept", vertex=v)
            return
        vanished.append(v)
    vanished_set = set(vanished)
    allowed = set()
    for o in u_plus:
        if nv.by_orig[o] in nv.graph.adj[q]:
            allowed.add(pv.by_orig[o])
    for v in vanished:
        for u in pv.graph.adj[v]:
            if u not in vanished_set and u not in allowed:
                report.fail("D8h", clause="hb-vanished-neighbor", edge=[v, u])
                return
    for x in sorted(nv.graph.adj[q]):
        o = nv.orig_at.get(x)
        if o is None:
            report.fail("D8h", clause="hc-neighbor-not-original", vertex=x)
            return
        if pv.by_orig.get(o) in pv.heads:
            report.fail("D8h", clause="hc-neighbor-is-head", vertex=x)
            return
    for u, v in pv.graph.edges() if dropped is not False else ():
        wu, wv = absorb[u], absorb[v]
        if wu is not None and wv is not None and wu != wv:
            if not nv.graph.has_edge(wu, wv):
                report.fail("D8h", clause="hd-edge-dropped", edge=[u, v])
                return
    gone = persist.count(None)
    if gone > params.n_freeze:
        report.fail("D8h", clause="he-too-many-removed", removed=gone)
    # the U-neighborhoods of the originals in q, once
    twins = {original.adj[o] & u_set for o in nv.model[q] if o in pv.by_orig}
    for v in range(pv.graph.n):
        o = pv.orig_at.get(v)
        if o is None or o in nv.cover:
            continue
        if original.adj[o] & u_set not in twins:
            report.fail("D8h", clause="hf-no-twin-in-q", original=o)
            return
    for edge in pv.hyperedges:
        sink_model = pv.model[edge.sink]
        if sink_model & nv.cover:
            continue
        if not _find_hg_partner(pv, original, edge, q, u_set, absorb, persist):
            report.fail("D8h", clause="hg-no-partner-edge", members=edge.members)
            return


def _find_hg_partner(pv, original, edge, q, u_set, absorb, persist) -> bool:
    surviving = frozenset(
        v for v in edge.members - {edge.sink} if persist[v] is not None
    )
    gone = [v for v in sorted(edge.members - {edge.sink}) if persist[v] is None]
    if any(pv.orig_at.get(v) is None for v in gone):
        return False
    want = _sig_multiset(
        frozenset(original.adj[pv.orig_at[v]] & u_set) for v in gone
    )
    for cand in pv.hyperedges:
        if cand.label != edge.label or len(cand.members) != len(edge.members):
            continue
        if absorb[cand.sink] != q:
            continue
        cand_surviving = frozenset(
            v for v in cand.members - {cand.sink} if persist[v] is not None
        )
        if cand_surviving != surviving:
            continue
        in_q = [
            v
            for v in sorted(cand.members - {cand.sink})
            if v in pv.orig_at and absorb[v] == q
        ]
        if len(in_q) != len(gone):
            continue
        got = _sig_multiset(
            frozenset(original.adj[pv.orig_at[v]] & u_set) for v in in_q
        )
        if got == want:
            return True
    return False


def _check_d8i(report, pv, nv, original, q, u_set, u_plus, absorb):
    present = {(e.members, e.label) for e in nv.hyperedges}
    # an id of U that is not an original of the next entry fails D8b
    u_set = frozenset(o for o in u_set if o in nv.by_orig)
    for edge in pv.hyperedges:
        rest = edge.members - {edge.sink}
        if absorb[edge.sink] != q or all(absorb[v] != q for v in rest):
            continue
        outside = [v for v in sorted(rest) if pv.orig_at.get(v) not in u_plus]
        u_part = frozenset(nv.by_orig[o] for o in _u_part(pv, edge.members, u_plus))
        zones = {}
        for v in outside:
            o = pv.orig_at.get(v)
            if o is not None and original.adj[o] & u_set:
                zones[v] = sorted(original.adj[o] & u_set)
        # no skipped member: the derived edge (ia); a skipped member: the
        # upgraded edge on the rest (ib)
        for skip in [None] + outside:
            choices = [zone for v, zone in zones.items() if v != skip]
            if skip is not None and not u_part and not choices:
                continue
            label = edge.label if skip is None else edge.label + 1
            for pick in product(*choices):
                members = (
                    frozenset({q})
                    | u_part
                    | frozenset(nv.by_orig[o] for o in pick)
                )
                if (members, label) not in present:
                    report.fail(
                        "D8i",
                        clause="ia-missing-derived-edge"
                        if skip is None
                        else "ib-missing-upgraded-edge",
                        source=edge.members,
                        expected=members,
                    )
                    return


def _check_d10(report: CertReport, nv: SchemeEntry, facts: _Facts):
    """D10's clauses in order, per hyperedge; those that read no entry are
    facts of the certification."""
    # the shape pass puts every model id in the original graph: a set lies
    # in the sink (member) zone when its ids are in the graph and those in
    # ``cover`` lie in the sink's (members') models
    ids = facts.ids
    cover = nv.cover
    for ei, edge in enumerate(nv.hyperedges):
        fam = nv.witnesses[ei]
        links = nv.witness_links[ei]
        sink_ids = nv.model[edge.sink]
        for a in fam:
            if not a:
                report.fail("D10", clause="empty-witness", edge=ei)
                return
            if not (a <= ids and (a - sink_ids).isdisjoint(cover)):
                report.fail("D10", clause="witness-outside-zone", edge=ei, bad=a)
                return
            if len(a) > 1 and not facts.connected(a):
                report.fail("D10", clause="witness-disconnected", edge=ei, bad=a)
                return
        if not facts.disjoint(fam):
            report.fail("D10", clause="witness-overlap", edge=ei)
            return
        if len(links) != len(edge.members) - 1:
            report.fail(
                "D10",
                clause="link-count",
                edge=ei,
                got=len(links),
                expected=len(edge.members) - 1,
            )
            return
        member_ids = frozenset().union(*(nv.model[v] for v in edge.members))
        member_origs = frozenset(
            nv.orig_at[v] for v in edge.members - {edge.sink} if v in nv.orig_at
        )
        for l in links:
            if not (l and l <= ids and (l & cover) <= member_ids):
                report.fail("D10", clause="link-outside-zone", edge=ei, bad=l)
                return
            if len(l) > 1 and not facts.connected(l):
                report.fail("D10", clause="link-disconnected", edge=ei, bad=l)
                return
            if l.isdisjoint(member_origs):
                report.fail("D10", clause="link-misses-members", edge=ei, bad=l)
                return
            flaw = facts.link_flaw(l, fam)
            if flaw:
                report.fail("D10", clause=flaw, edge=ei)
                return
        if not facts.disjoint(links):
            report.fail("D10", clause="link-overlap", edge=ei)
            return
        if not facts.minors(fam, edge.label):
            report.fail("D10", clause="minor-missing", edge=ei)
            return


def _has_witnessed_minors(fam, label: int, params: SchemeParams, original) -> bool:
    """Whether G with each family member contracted has ``k + h - label``
    disjoint ct(label, k) minors, read from the family alone.

    The clauses before this one made the members nonempty, connected and
    disjoint.  Label 1 is then a vertex count.  A higher label needs the
    family to parse into ``k + h - label`` witness trees in which each set
    is adjacent to every set below it: contracting a tree's sets gives
    ct(label, k), whose edges are exactly its ancestor pairs.
    """
    if label == 1:
        contracted_n = original.n - sum(len(a) - 1 for a in fam)
        return contracted_n >= params.k + params.h - 1
    groups = parse_groups(fam, label, params.k, params.k + params.h - label)
    return groups is not None and all(_reaches_below(t, (), original) for t in groups)


def _reaches_below(node, above: tuple, g: Graph) -> bool:
    """Whether ``node``'s set meets each neighbourhood in ``above`` (those
    of its ancestors' sets), and the same holds below each child."""
    if any(reach.isdisjoint(node.root) for reach in above):
        return False
    above += (frozenset().union(*(g.adj[v] for v in node.root)),)
    return all(_reaches_below(child, above, g) for child in node.children)


def _check_d11(report: CertReport, nv: SchemeEntry):
    """D11 by an owner map; the pairwise scan runs only on a conflict.

    Two hyperedges with distinct sinks conflict exactly at an original id
    that both hold, where one holds it in a witness, or both in links and
    the id's singleton is not a member of both.  So an id held under two
    sinks is a conflict when a witness holds it, or when its singleton is
    not a member of every hyperedge whose link holds it.  The rule pays
    for itself: in 158 of the 160 entries of the caterpillar(1, 801)
    prefix, links under two sinks share an id (no witness does), in about
    4,200 pairs of hyperedges per entry, and scanning just those pairs
    took certifying the prefix from 0.38 s to 2.8-4.0 s (best of 9 each,
    2-vCPU VM).
    """
    edges = nv.hyperedges
    by_sink: dict[int, list[frozenset[int]]] = {}
    for ei, edge in enumerate(edges):
        by_sink.setdefault(edge.sink, []).extend(
            (*nv.witnesses[ei], *nv.witness_links[ei])
        )
    seen: set[int] = set()
    mixed: set[int] = set()
    for sets in by_sink.values():
        ids = frozenset().union(*sets)
        mixed |= seen & ids
        seen |= ids
    if not mixed:
        return
    by_orig = nv.by_orig
    for ei, edge in enumerate(edges):
        if not all(mixed.isdisjoint(a) for a in nv.witnesses[ei]) or any(
            by_orig.get(o) not in edge.members
            for l in nv.witness_links[ei]
            for o in mixed & l
        ):
            _scan_d11(report, nv)
            return


def _scan_d11(report: CertReport, nv: SchemeEntry):
    edges = nv.hyperedges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if edges[i].sink == edges[j].sink:
                continue
            fam_i, fam_j = nv.witnesses[i], nv.witnesses[j]
            links_i, links_j = nv.witness_links[i], nv.witness_links[j]
            for a in fam_i:
                for b in fam_j:
                    if a & b:
                        report.fail("D11", clause="witness-overlap", edges=[i, j])
                        return
            for a in fam_i:
                for l in links_j:
                    if a & l:
                        report.fail(
                            "D11", clause="witness-meets-link", edges=[i, j]
                        )
                        return
            for a in fam_j:
                for l in links_i:
                    if a & l:
                        report.fail(
                            "D11", clause="witness-meets-link", edges=[j, i]
                        )
                        return
            shared_members = frozenset(
                nv.orig_at[v]
                for v in edges[i].members & edges[j].members
                if v in nv.orig_at
            )
            for a in links_i:
                for b in links_j:
                    shared = a & b
                    if shared and not shared <= shared_members:
                        report.fail(
                            "D11",
                            clause="link-overlap-outside-shared-members",
                            edges=[i, j],
                            shared=shared,
                        )
                        return


def _check_d12(report: CertReport, nv: SchemeEntry, params: SchemeParams):
    for v in range(nv.graph.n):
        if v in nv.special and nv.graph.degree(v) > params.r:
            report.fail("D12", vertex=v, degree=nv.graph.degree(v), limit=params.r)
            return


# ---------------------------------------------------------------------------


@dataclass
class SchemeReport:
    """Certification of a whole scheme: the start shape plus every pair."""

    start: Verdict
    pair_reports: list[CertReport]

    def clean(self) -> bool:
        return self.start.status == "pass" and all(
            r.clean() for r in self.pair_reports
        )

    def to_json(self):
        return {
            "start": self.start.to_json(),
            "pairs": [r.to_json() for r in self.pair_reports],
            "clean": self.clean(),
        }


def _is_initial(entry: SchemeEntry, original: Graph) -> bool:
    """``entry == initial_entry(original)``, field by field, without
    building the n singleton models."""
    n = original.n
    return (
        entry.graph == original
        and entry.arcs == frozenset()
        and entry.hyperedges == ()
        and entry.witnesses == {}
        and entry.witness_links == {}
        and entry.step_meta is None
        and len(entry.model) == n
        and len(entry.singles) == n
        and all(v == o and 0 <= v < n for v, o in entry.singles.items())
    )


def certify_scheme(
    scheme: list[SchemeEntry], params: SchemeParams, original: Graph
) -> SchemeReport:
    """Certify the start entry, all consecutive pairs, and the frozen tail.

    The tail pairs the last entry with itself.  After a clean last pair it
    checks D3 alone, which gives the report of the full pair (see the
    module docstring for each condition's reason); otherwise, and for a
    one-entry scheme, it is certified in full.
    """
    start = Verdict()
    if not scheme:
        start = Verdict("fail", witness={"clause": "empty-scheme"})
        return SchemeReport(start, [])
    # the pairs after a malformed entry read nothing past D1 of it, so the
    # first entry must be exactly the initial one
    if not _is_initial(scheme[0], original):
        start = Verdict("fail", witness={"clause": "nonstandard-first-entry"})
    facts = _Facts(params, original)
    reports = []
    for prev, nxt in zip(scheme, scheme[1:]):
        reports.append(_certify_pair(prev, nxt, params, original, facts))
    last = scheme[-1]
    if reports and reports[-1].clean():
        # the last pair passed every clause on ``last``: only D3 is left
        tail = CertReport()
        _check_d3(tail, last, last, params)
    else:
        tail = _certify_pair(last, last, params, original, facts)
    reports.append(tail)
    return SchemeReport(start, reports)
