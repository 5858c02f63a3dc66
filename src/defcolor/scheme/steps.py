"""The entry-extension step.

``step`` consumes a homogeneous triple (X, Z, W): far-apart low-degree
balls with identical outside boundaries.  It checks the hypotheses with
``check_homogeneous``, which computes the ball of every center once and
hands the balls on, and applies the one branch rule:

``del_step`` runs when no ball's boundary meets X, so every ball's full
neighborhood is W: it buckets ball centers by type vectors, contracts one
ball of a uniform bucket of size k + h and deletes the rest.

``contract_step`` runs from the least center whose ball reaches further
into X: it types the ball's vertices, splits a geodesic from the center
into uniformly typed chunks, and contracts a neighborhood O of the split
path, cutting the new vertex off from X.

Both branches read W-neighborhoods in the entry graph, and only at
singletons: W itself and the non-sink hyperedge members, which are arc
tails (D5) and so singletons (D4).  Between singletons D2 makes the entry
graph's adjacency equal the original graph's, so the original graph is
never read.

Each step rebuilds arcs, hyperedges (the surviving, re-rooted and
label-upgraded families) and their witness structures exactly as the
construction prescribes; certification is the caller's job.  Both steps
hand that work to one routine, ``_next_entry``; they differ only in the
source balls the witnesses come from (the deleted balls, or the anchor
balls along the split path) and in how a hyperedge is matched to its
type-equal counterpart in such a ball.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from ..constants import split_path_budget
from ..errors import (
    BucketTooSmallError,
    GeodesicTooShortError,
    HypothesisViolationError,
)
from ..graphs import Graph, ball, geodesic_from
from .entry import (
    Hyperedge,
    SchemeEntry,
    StepMeta,
    WitnessNode,
    flatten_groups,
    sort_hyperedges,
)
from .homogeneous import HomogeneousTriple, boundary, check_homogeneous
from .params import SchemeParams
from .split import geodesic_split


def _subsets(items: list[int]):
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def _member_orig(entry: SchemeEntry, v: int) -> int:
    o = entry.orig_at[v]
    if o is None:
        raise HypothesisViolationError(
            f"hyperedge member {v} has a multi-vertex model"
        )
    return o


def _edge_type(g: Graph, edge: Hyperedge, w: frozenset[int]) -> tuple:
    """Type of a hyperedge relative to W: label, size, W-part, mask counts."""
    counts: dict[frozenset[int], int] = {}
    for v in edge.members - {edge.sink}:
        m = g.adj[v] & w
        counts[m] = counts.get(m, 0) + 1
    canon = tuple(sorted((tuple(sorted(m)), c) for m, c in counts.items()))
    return (edge.label, len(edge.members), tuple(sorted(edge.members & w)), canon)


def _same_type(
    entry: SchemeEntry, edge: Hyperedge, region, w: frozenset[int]
) -> Optional[int]:
    """Index of a hyperedge of the type of ``edge`` whose sink lies in region."""
    wanted = _edge_type(entry.graph, edge, w)
    for ej, other in enumerate(entry.hyperedges):
        if other.sink in region and _edge_type(entry.graph, other, w) == wanted:
            return ej
    return None


def _mask_bijection(g: Graph, source, target, w: frozenset[int]) -> dict[int, int]:
    """Bijection source -> target matching W-neighborhood masks groupwise."""
    groups_s: dict[frozenset[int], list[int]] = {}
    groups_t: dict[frozenset[int], list[int]] = {}
    for vs, groups in ((source, groups_s), (target, groups_t)):
        for v in sorted(vs):
            groups.setdefault(g.adj[v] & w, []).append(v)
    if {m: len(vs) for m, vs in groups_s.items()} != {
        m: len(vs) for m, vs in groups_t.items()
    }:
        raise HypothesisViolationError(
            "type-equal hyperedges disagree on W-neighborhood mask counts"
        )
    out = {}
    for m, vs in groups_s.items():
        out.update(zip(vs, groups_t[m]))
    return out


def _matching(
    entry: SchemeEntry, t_origs: tuple[int, ...], cands: list[int]
) -> Optional[dict[int, int]]:
    """Match each original in t_origs to a distinct candidate entry vertex
    adjacent to it in the entry graph (Kuhn's augmenting paths)."""
    adj = {}
    for u in t_origs:
        uv = entry.by_orig.get(u)
        if uv is None:
            return None
        adj[u] = [c for c in cands if entry.graph.has_edge(uv, c)]
    match_of: dict[int, int] = {}

    def augment(u, seen):
        for c in adj[u]:
            if c in seen:
                continue
            seen.add(c)
            if c not in match_of or augment(match_of[c], seen):
                match_of[c] = u
                return True
        return False

    for u in t_origs:
        if not augment(u, set()):
            return None
    return {u: c for c, u in match_of.items()}


def _require_link(entry: SchemeEntry, edge_index: int, member_orig: int):
    link = entry.link_for(edge_index, member_orig)
    if link is None:
        raise HypothesisViolationError(
            f"hyperedge {edge_index} has no witness link containing {member_orig}"
        )
    return link


class _Rebuild:
    """Shared mechanics of producing the next entry from a chosen region."""

    def __init__(
        self,
        entry: SchemeEntry,
        contracted: frozenset[int],
        deleted: frozenset[int],
        cut_x_edges: Optional[frozenset[int]],
    ):
        self.entry = entry
        g = entry.graph
        removed = contracted | deleted
        survivors = [v for v in range(g.n) if v not in removed]
        self.idx = {v: i for i, v in enumerate(survivors)}
        self.v_new = len(survivors)
        # one pass over the survivors' rows; the new vertex's row is the
        # survivors next to the contracted set, less those cut off from it
        get = self.idx.get
        rows = []
        new_row = []
        for v in survivors:
            nbrs = g.adj[v]
            if nbrs.isdisjoint(removed):
                rows.append(frozenset(map(get, nbrs)))
                continue
            row = set(map(get, nbrs))
            row.discard(None)
            if not nbrs.isdisjoint(contracted) and (
                cut_x_edges is None or v not in cut_x_edges
            ):
                row.add(self.v_new)
                new_row.append(len(rows))
            rows.append(frozenset(row))
        rows.append(frozenset(new_row))
        self.graph = Graph(self.v_new + 1, rows)
        self.orig = list(map(entry.orig.__getitem__, survivors))
        self.other = {get(v): m for v, m in entry.other.items() if v in self.idx}
        merged = entry.ids_of(contracted)
        if len(merged) == 1:  # a lone singleton contracted
            self.orig.extend(merged)
        else:
            self.orig.append(None)
            self.other[self.v_new] = merged

    def map_members(self, vertices) -> frozenset[int]:
        return frozenset(self.idx[v] for v in vertices)

    def arcs_and_meta(self, w_orig: dict[int, int], d: int):
        entry = self.entry
        arcs = {
            (self.idx[a], self.idx[b])
            for a, b in entry.arcs
            if a in self.idx and b in self.idx
        }
        arcs |= {(self.idx[wv], self.v_new) for wv in w_orig}
        u_plus = frozenset(w_orig.values())
        u_set = frozenset(
            o
            for wv, o in w_orig.items()
            if self.graph.degree(self.idx[wv]) > d
        )
        meta = StepMeta(q=self.v_new, u_set=u_set, u_plus=u_plus)
        return frozenset(arcs), meta


def _next_entry(
    entry: SchemeEntry,
    rb: _Rebuild,
    region: frozenset[int],
    w_orig: dict[int, int],
    params: SchemeParams,
    sources: dict,
    correspond,
    e1_from_self: bool,
) -> SchemeEntry:
    """The next entry: surviving hyperedges, then E1/E2/E3 on the new vertex.

    This is the one witness-upgrade routine of both steps.  ``region`` is
    the contracted vertex set (one ball or O) and ``w_orig`` the boundary
    of the new vertex, {entry vertex: original}.  ``sources`` maps a key to
    a source region, in order: the deleted balls of ``del_step`` or the
    anchor balls of ``contract_step``.  ``correspond(edge, key)`` returns
    (ej, iota): a hyperedge of the type of ``edge`` whose sink lies in that
    region, and a bijection of the members of ``edge`` onto its members.

    E3 (the new vertex and its high-degree boundary, label 1) takes one
    witness per source region.  E1 (label kept) reuses the witness family
    of the first region's counterpart, or with ``e1_from_self`` the family
    of ``edge`` itself.  E2 (label + 1, one member u_mid dropped) glues one
    upgraded witness per region, from the first k + h - label - 1 regions.
    Links extend the counterparts' links by the members taken over from
    the boundary.  The first hyperedge built wins: surviving ones, then E3,
    then E1/E2 in hyperedge order.
    """
    arcs, meta = rb.arcs_and_meta(w_orig, params.d)
    u_set = meta.u_set
    w_vertices = frozenset(w_orig)
    keys = list(sources)
    collected: dict[Hyperedge, tuple] = {}
    for ei, edge in enumerate(entry.hyperedges):
        if all(v in rb.idx for v in edge.members):
            he = Hyperedge(
                rb.map_members(edge.members), edge.label, rb.idx[edge.sink]
            )
            collected[he] = (
                entry.witnesses.get(ei, ()),
                entry.witness_links.get(ei, ()),
            )

    e3_members = frozenset({rb.v_new}) | frozenset(
        rb.idx[entry.by_orig[u]] for u in u_set
    )
    groups = tuple(WitnessNode(entry.ids_of(s)) for s in sources.values())
    links = tuple(frozenset([u]) for u in sorted(u_set))
    collected[Hyperedge(e3_members, 1, rb.v_new)] = (flatten_groups(groups), links)

    def lifted(edge, counterparts, t_sub, m, u_mid):
        """Witness family and links of a derived hyperedge."""
        pairs, upgraded = [], []
        for ej, iota in counterparts:
            pairs.append((ej, iota))
            if u_mid is None:
                continue
            sub_groups = entry.groups_for(ej, params)
            if sub_groups is None or len(sub_groups) < params.k + 1:
                raise HypothesisViolationError(
                    f"witness groups of hyperedge {ej} unusable for an upgrade"
                )
            glued = _require_link(entry, ej, _member_orig(entry, iota[u_mid]))
            for s in sub_groups[0].sets():
                glued = glued | s
            upgraded.append(WitnessNode(glued, sub_groups[1 : params.k + 1]))
        if u_mid is None:
            flat = tuple(entry.witnesses.get(pairs[0][0], ()))
        else:
            flat = flatten_groups(tuple(upgraded))
        links = []
        for v in sorted(edge.members & w_vertices):
            merged: frozenset[int] = frozenset()
            for ej, _ in pairs:
                merged = merged | _require_link(entry, ej, w_orig[v])
            links.append(merged)
        for u in t_sub:
            merged = frozenset([u])
            for ej, iota in pairs:
                merged = merged | _require_link(
                    entry, ej, _member_orig(entry, iota[m[u]])
                )
            links.append(merged)
        return flat, tuple(links)

    for ei, edge in enumerate(entry.hyperedges):
        if edge.sink not in region:
            continue
        base_w = sorted(edge.members & w_vertices)
        base_w_origs = frozenset(w_orig[v] for v in base_w)
        cands_all = sorted((edge.members - {edge.sink}) & region)
        t_pool = sorted(u_set - base_w_origs)
        # u_mid None gives E1; a dropped member u_mid gives E2
        for u_mid in [None] + cands_all:
            cands = [c for c in cands_all if c != u_mid]
            for t_sub in _subsets(t_pool):
                if u_mid is not None and not base_w and not t_sub:
                    continue
                m = _matching(entry, t_sub, cands)
                if m is None:
                    continue
                members = (
                    frozenset({rb.v_new})
                    | rb.map_members(base_w)
                    | frozenset(rb.idx[entry.by_orig[u]] for u in t_sub)
                )
                label = edge.label if u_mid is None else edge.label + 1
                he = Hyperedge(members, label, rb.v_new)
                if he in collected:
                    continue
                if u_mid is None and e1_from_self:
                    pairs = [(ei, {v: v for v in edge.members})]
                else:
                    count = 1 if u_mid is None else params.k + params.h - label
                    pairs = (correspond(edge, key) for key in keys[:count])
                collected[he] = lifted(edge, pairs, t_sub, m, u_mid)

    hyperedges, witnesses, links = sort_hyperedges(collected)
    return SchemeEntry(
        graph=rb.graph,
        orig=rb.orig,
        other=rb.other,
        arcs=arcs,
        hyperedges=hyperedges,
        witnesses=witnesses,
        witness_links=links,
        step_meta=meta,
    )


# ---------------------------------------------------------------------------
# the step: hypotheses and the branch rule


def step(
    entry: SchemeEntry, triple: HomogeneousTriple, params: SchemeParams
) -> SchemeEntry:
    """The next entry of an unfrozen entry from a homogeneous triple.

    Checks the hypotheses, then takes the deletion branch when no ball's
    boundary meets X (every ball's full neighborhood is W) and otherwise
    the contraction branch from the least center whose ball reaches X.
    """
    g = entry.graph
    if g.n <= params.n_freeze:
        raise HypothesisViolationError(
            f"entry has {g.n} <= N = {params.n_freeze} vertices; frozen"
        )
    balls = check_homogeneous(g, triple, params.t, params.l0, params.d, params.r)
    w_orig = {}
    for wv in sorted(triple.w_set):
        o = entry.orig_at[wv]
        if o is None:
            raise HypothesisViolationError(
                f"boundary vertex {wv} has a multi-vertex model"
            )
        if wv in entry.heads or wv in entry.sinks:
            raise HypothesisViolationError(
                f"boundary vertex {wv} is an arc head or a hyperedge sink"
            )
        w_orig[wv] = o
    # W-neighborhood masks are read at non-sink members; they must be singletons
    for edge in entry.hyperedges:
        for v in sorted(edge.members - {edge.sink}):
            _member_orig(entry, v)
    x = triple.x_set
    z_star = next((zi for zi, b in balls.items() if boundary(g, b) & x), None)
    if z_star is None:
        return del_step(entry, triple, params, balls, w_orig)
    return contract_step(entry, triple, params, balls, w_orig, z_star)


# ---------------------------------------------------------------------------
# deletion branch


def del_step(
    entry: SchemeEntry,
    triple: HomogeneousTriple,
    params: SchemeParams,
    balls: dict[int, frozenset[int]],
    w_orig: dict[int, int],
) -> SchemeEntry:
    """Contract one ball of a uniform type bucket; delete the bucket's rest.

    The body of ``step`` when every ball's entire boundary is exactly W.
    The witnesses of the derived hyperedges come from the deleted balls of
    the bucket.
    """
    g = entry.graph
    w = triple.w_set
    buckets: dict[tuple, list[int]] = {}
    for zi, b in balls.items():  # centers ascending
        edge_sig = frozenset(
            _edge_type(g, e, w) for e in entry.hyperedges if e.sink in b
        )
        vertex_sig = frozenset(g.adj[v] & w for v in b if v not in entry.other)
        buckets.setdefault((edge_sig, vertex_sig), []).append(zi)
    need = params.k + params.h
    eligible = [b for b in buckets.values() if len(b) >= need]
    if not eligible:
        raise BucketTooSmallError(max(len(b) for b in buckets.values()), need)
    group = min(eligible, key=lambda b: b[0])
    z_chosen = group[:need]
    region = balls[z_chosen[0]]
    deleted = frozenset().union(*(balls[zi] for zi in z_chosen[1:]))
    # D8h(e): the deleted vertices and a contracted region of two or more
    # lose their models, and at most N may
    removed = len(deleted) + (len(region) if len(region) > 1 else 0)
    if removed > params.n_freeze:
        raise HypothesisViolationError(
            f"deletion step removes {removed} > N = {params.n_freeze} vertices' models"
        )
    rb = _Rebuild(entry, contracted=region, deleted=deleted, cut_x_edges=None)

    def correspond(edge: Hyperedge, zi: int):
        ej = _same_type(entry, edge, balls[zi], w)
        if ej is None:
            raise HypothesisViolationError(
                f"no type-equal hyperedge with sink in the ball of {zi}"
            )
        other = entry.hyperedges[ej]
        src = (edge.members - {edge.sink}) & region
        tgt = (other.members - {other.sink}) & balls[zi]
        return ej, _mask_bijection(g, src, tgt, w)

    sources = {zi: balls[zi] for zi in z_chosen[1:]}
    return _next_entry(
        entry, rb, region, w_orig, params, sources, correspond, e1_from_self=True
    )


# ---------------------------------------------------------------------------
# contraction branch


def contract_step(
    entry: SchemeEntry,
    triple: HomogeneousTriple,
    params: SchemeParams,
    balls: dict[int, frozenset[int]],
    w_orig: dict[int, int],
    z_star: int,
) -> SchemeEntry:
    """Contract a typed neighborhood of a split geodesic; cut it from X.

    The body of ``step`` when the ball of ``z_star`` reaches X.  The
    witnesses of the derived hyperedges come from the anchor balls around
    the split chunks.
    """
    g = entry.graph
    x, w = triple.x_set, triple.w_set
    region0 = balls[z_star]

    # type every ball vertex by its W-neighborhood and hyperedge roles
    by_type: dict[tuple, list[Hyperedge]] = {}
    for e in entry.hyperedges:
        by_type.setdefault(_edge_type(g, e, w), []).append(e)
    types = sorted(by_type)

    def phi(v: int) -> tuple:
        flags = []
        for ty in types:
            a = 0
            for e in by_type[ty]:
                if v == e.sink:
                    a = 1
                    break
                if v in e.members:
                    a = 2
            flags.append(a)
        return (tuple(sorted(g.adj[v] & w)), tuple(flags))

    phi_of = {v: phi(v) for v in region0}
    palette = sorted(set(phi_of.values()))
    t1 = len(palette)
    color_index = {ty: i + 1 for i, ty in enumerate(palette)}
    # chunk spacing keeps the radius-3(|Y|-1) anchor balls disjoint for any
    # live type set Y (|Y| <= t1); h+k-1 anchors are consumed downstream
    spacing = 6 * (t1 - 1) + 1
    n_anchors = params.h + params.k - 1
    k0 = 1 + (n_anchors - 1) * spacing
    needed = split_path_budget(t1, k0, 3)
    if params.l0 != needed + 1:
        raise HypothesisViolationError(
            f"l0 must equal n(t1,k0,3)+1 = {needed + 1} for the realized type "
            f"count t1={t1} (k0={k0}); got l0={params.l0}"
        )

    sub, ids = g.subgraph(region0)
    fwd = {v: i for i, v in enumerate(ids)}
    f_colors = [color_index[phi_of[ids[i]]] for i in range(sub.n)]
    path = geodesic_from(sub, fwd[z_star], needed - 3 * t1 - 1)
    if path is None:
        raise GeodesicTooShortError(
            f"no geodesic on {needed - 3 * t1} vertices from the ball center"
        )
    split = geodesic_split(sub, fwd[z_star], f_colors, path, t1, k0, 3)
    ny = len(split.color_set)
    q_path = [ids[v] for v in split.subpath]

    region_core = ball(g, q_path, 3 * (ny - 1) + 1, within=x)
    extra = frozenset(
        v
        for v in boundary(g, region_core)
        if v in x and (v in entry.other or v in entry.sinks)
    )
    region = frozenset(region_core | extra)

    anchor = {
        alpha: ball(
            g,
            [ids[v] for v in split.chunks[(alpha - 1) * spacing]],
            3 * (ny - 1),
            within=x,
        )
        for alpha in range(1, n_anchors + 1)
    }

    u_plus_vertices = frozenset(boundary(g, region) - x)
    if not u_plus_vertices <= w:
        raise HypothesisViolationError(
            "contraction boundary escapes W outside X"
        )
    w_orig_used = {wv: w_orig[wv] for wv in u_plus_vertices}
    rb = _Rebuild(entry, contracted=region, deleted=frozenset(), cut_x_edges=x)

    def correspond(edge: Hyperedge, alpha: int):
        ej = _same_type(entry, edge, anchor[alpha], w)
        if ej is None:
            raise HypothesisViolationError(
                f"no type-equal hyperedge with sink in anchor ball {alpha}"
            )
        other = entry.hyperedges[ej]
        src = edge.members - {edge.sink} - u_plus_vertices
        tgt = other.members - {other.sink} - u_plus_vertices
        iota = _mask_bijection(g, src, tgt, w)
        for a, b in iota.items():
            if g.adj[a] & u_plus_vertices != g.adj[b] & u_plus_vertices:
                raise HypothesisViolationError(
                    "bijection does not preserve boundary neighborhoods"
                )
        return ej, iota

    return _next_entry(
        entry, rb, region, w_orig_used, params, anchor, correspond, e1_from_self=False
    )
