"""Shared strategies and independent brute-force oracles.

The oracles here deliberately avoid the algorithms they check: plain
enumeration over labeled rooted trees, the unbounded depth recurrence
without pruning, raw assignment enumeration and the plain unpruned
branch-set search for minors, the split-path budget by its recurrence,
exhaustive coloring enumeration, closures of rooted forests by their
forbidden induced subgraphs, the packing of homogeneous balls and the
homogeneous search by BFS distances in g[X], degeneracy by min-degree
peeling, connected vertex sets by testing every mask, and the plain
backtracking coloring search over neighbor sets.  The path, star
and level-coloring constructors, the slotwise order on HugeInt power forms,
the one-pair certification and the depth translations at the end are not
oracles: only tests call them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Optional

from hypothesis import strategies as st

from defcolor.check import Coloring
from defcolor.depth import ClusteredBounds, connected_tree_depth
from defcolor.graphs import Graph, RootedTree, induced_components
from defcolor.hugeint import PLAIN_LIMIT, HugeInt
from defcolor.scheme import CertReport, SchemeEntry, SchemeParams, certify_scheme


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def graphs_st(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1)) if pairs else 0
    edges = [p for b, p in enumerate(pairs) if (mask >> b) & 1]
    return Graph.from_edges(n, edges)


@st.composite
def connected_graphs_st(draw, min_n=1, max_n=8):
    g = draw(graphs_st(min_n=min_n, max_n=max_n))
    if g.n <= 1:
        return g
    # force connectivity with a random spanning tree over the drawn edges
    extra = []
    for v in range(1, g.n):
        parent = draw(st.integers(0, v - 1))
        extra.append((parent, v))
    return Graph.from_edges(g.n, list(g.edges()) + extra)


# ---------------------------------------------------------------------------
# small-graph utilities


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def level_coloring(tree: RootedTree) -> Coloring:
    """Color the closure of ``tree`` by depth: root color 1, children 2, ...

    Uses height(tree) colors and has defect 0, because same-depth vertices
    are never ancestor-related.
    """
    return Coloring(tree.height, tuple(d + 1 for d in tree.depths()))


def bfs_dist_oracle(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = [source]
    while queue:
        nxt = []
        for u in queue:
            for w in g.adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        queue = nxt
    return dist


def max_clique_oracle(g: Graph) -> int:
    """Bron-Kerbosch with pivoting on bitmasks."""
    adj = [0] * g.n
    for v in range(g.n):
        for u in g.adj[v]:
            adj[v] |= 1 << u
    best = 0

    def expand(r_size: int, p: int, x: int):
        nonlocal best
        if p == 0 and x == 0:
            best = max(best, r_size)
            return
        if r_size + bin(p).count("1") <= best:
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best_cover = -1
        m = pivot_pool
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            cover = bin(p & adj[v]).count("1")
            if cover > best_cover:
                best_cover = cover
                pivot = v
        cand = p & ~adj[pivot]
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            expand(r_size + 1, p & adj[v], x & adj[v])
            p ^= b
            x |= b
    expand(0, (1 << g.n) - 1, 0)
    return best


def all_graphs(n: int, connected_only=False) -> list[Graph]:
    """All graphs on exactly n vertices up to isomorphism.

    Grown incrementally: every n-vertex graph extends an (n-1)-vertex one
    by a new vertex with some neighborhood, so extending a complete list of
    smaller graphs and deduplicating canonically is complete.
    """
    graphs = _all_graphs_exact(n)
    if connected_only:
        return [
            g
            for g in graphs
            if g.n > 0 and len(induced_components(g, range(g.n))) == 1
        ]
    return graphs


@lru_cache(maxsize=None)
def _all_graphs_exact(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph.from_edges(0, []),)
    seen = set()
    out = []
    for smaller in _all_graphs_exact(n - 1):
        base = smaller.edges()
        for mask in range(1 << (n - 1)):
            extra = [(u, n - 1) for u in range(n - 1) if (mask >> u) & 1]
            g = Graph.from_edges(n, base + extra)
            key = canonical_key(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical forms (exact, for small graphs)


def _refine(g: Graph, colors: list[int]) -> list[int]:
    """1-dimensional color refinement until stable."""
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in g.adj[v]))) for v in range(g.n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranks[sig[v]] for v in range(g.n)]
        if new == colors:
            return colors
        colors = new


def _adjacency_code(g: Graph, order: list[int]) -> tuple[int, ...]:
    pos = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        row = 0
        for u in g.adj[v]:
            row |= 1 << pos[u]
        rows.append(row)
    return tuple(rows)


def canonical_key(g: Graph) -> tuple:
    """Exact canonical form; two graphs are isomorphic iff keys are equal.

    Color refinement plus individualization backtracking with prefix
    pruning.  Exponential worst case; intended for the small graphs this
    toolkit manipulates (tens of vertices).
    """
    n = g.n
    if n == 0:
        return (0, ())
    m = g.edge_count()
    if m == 0 or m == n * (n - 1) // 2:
        # edgeless and complete graphs are canonical under any ordering
        return (n, _adjacency_code(g, list(range(n))))
    best: list[Optional[tuple[int, ...]]] = [None]

    def cells_of(colors: list[int]) -> list[list[int]]:
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        return [cells[c] for c in sorted(cells)]

    def search(colors: list[int]) -> None:
        colors = _refine(g, colors)
        cells = cells_of(colors)
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            order = [v for cell in cells for v in cell]
            code = _adjacency_code(g, order)
            if best[0] is None or code < best[0]:
                best[0] = code
            return
        # branch on the first non-singleton cell; cell boundaries are
        # isomorphism-invariant so the minimum code is canonical
        for v in target:
            nxt = list(colors)
            nxt[v] = -1  # individualize below every existing color
            search(nxt)

    search([0] * n)
    return (n, best[0])


def _peeling_code(g: Graph, vs: frozenset[int]) -> Optional[tuple]:
    """Canonical code for closures of rooted forests (trivially perfect
    graphs): peel universal vertices, recurse on components.  None when the
    graph is outside the class."""
    if not vs:
        return ()
    comps = induced_components(g, vs)
    if len(comps) > 1:
        codes = [_peeling_code(g, c) for c in sorted(comps, key=min)]
        if any(c is None for c in codes):
            return None
        return ("forest", tuple(sorted(codes)))
    comp = comps[0]
    universal = frozenset(v for v in comp if comp - {v} <= g.adj[v])
    if not universal:
        return None
    rest = _peeling_code(g, comp - universal)
    if rest is None:
        return None
    return ("chain", len(universal), rest)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    code_a = _peeling_code(a, frozenset(range(a.n)))
    if code_a is not None:
        code_b = _peeling_code(b, frozenset(range(b.n)))
        if code_b is not None:
            return code_a == code_b
        return False
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# tree-depth oracle: enumerate labeled rooted trees once per order


@lru_cache(maxsize=None)
def _rooted_trees(n: int) -> list[tuple[int, int]]:
    """(height, comparable-pair bitmask) for every labeled rooted tree on n
    vertices; pair (u, v), u < v, is bit u * n + v."""
    out = []
    for root in range(n):
        others = [v for v in range(n) if v != root]
        for parents in product(range(n), repeat=len(others)):
            parent = {v: p for v, p in zip(others, parents)}
            depth = {root: 0}
            ok = True
            for v in others:
                seen = {v}
                u = v
                hops = 0
                while u != root:
                    u = parent.get(u)
                    if u is None or u in seen or hops > n:
                        ok = False
                        break
                    seen.add(u)
                    hops += 1
                if not ok:
                    break
            if not ok:
                continue
            # depths and ancestor closure
            anc_mask = 0
            height = 1
            for v in others:
                chain = []
                u = v
                while u != root:
                    u = parent[u]
                    chain.append(u)
                height = max(height, len(chain) + 1)
                for a in chain:
                    lo, hi = min(a, v), max(a, v)
                    anc_mask |= 1 << (lo * n + hi)
            out.append((height, anc_mask))
    return out


def ctd_oracle(g: Graph) -> int:
    """Least height of a rooted tree on exactly V(g) whose closure contains
    g; extra tree vertices never help, so this is exact."""
    if g.n == 0:
        return 0
    edge_mask = 0
    for u, v in g.edges():
        edge_mask |= 1 << (u * g.n + v)
    best = g.n + 1
    for height, anc in _rooted_trees(g.n):
        if height < best and edge_mask & ~anc == 0:
            best = height
    return best


def depth_oracle(g: Graph) -> tuple[int, int, list]:
    """(td, ctd, witness parent list) by the plain recurrence
    ctd(S) = 1 + min over v of max component ctd of S - v, memoised on
    frozensets, with no bounds and no pruning.  The witness roots each
    connected S at the least v whose forest value is ctd(S) - 1, and the
    packed top level orders components by (-ctd, least vertex)."""
    if g.n == 0:
        return 0, 0, []

    def comps(vs: frozenset) -> list[frozenset]:
        out, seen = [], set()
        for s in sorted(vs):
            if s in seen:
                continue
            comp, stack = {s}, [s]
            while stack:
                u = stack.pop()
                for w in g.adj[u] & vs:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out

    @lru_cache(maxsize=None)
    def ctd(vs: frozenset) -> int:
        if len(vs) == 1:
            return 1
        return 1 + min(forest(vs - {v}) for v in vs)

    def forest(vs: frozenset) -> int:
        return max((ctd(c) for c in comps(vs)), default=0)

    parent: list = [None] * g.n

    def tree(vs: frozenset) -> int:
        for v in sorted(vs):
            if 1 + forest(vs - {v}) == ctd(vs):
                for c in comps(vs - {v}):
                    parent[tree(c)] = v
                return v
        raise AssertionError("no root attains ctd")

    top = sorted(comps(frozenset(range(g.n))), key=lambda c: (-ctd(c), min(c)))
    vals = [ctd(c) for c in top]
    root = tree(top[0])
    for c in top[1:]:
        parent[tree(c)] = root
    packed = vals[0] + 1 if len(vals) >= 2 and vals[1] == vals[0] else vals[0]
    return vals[0], packed, parent


def degeneracy_oracle(g: Graph, vs=None) -> int:
    """Degeneracy of g[vs] (all of g by default): the largest degree met
    while peeling a minimum-degree vertex at a time, on frozensets."""
    rest = frozenset(range(g.n) if vs is None else vs)
    best = 0
    while rest:
        v = min(rest, key=lambda u: len(g.adj[u] & rest))
        best = max(best, len(g.adj[v] & rest))
        rest = rest - {v}
    return best


# ---------------------------------------------------------------------------
# minor oracle: raw partition enumeration (numpy-vectorized)


# the minor hosts of the benchmark's exact-mix workload: G(12, 0.25),
# G(12, 0.35), G(14, 0.25) and G(14, 0.35)
EXACT_MIX_G12 = Graph.from_edges(12, [
    (0, 3), (0, 11), (1, 5), (1, 8), (1, 11), (2, 3), (2, 7), (3, 4),
    (4, 5), (5, 10), (7, 8), (7, 11), (8, 11),
])
EXACT_MIX_G12_DENSE = Graph.from_edges(12, [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 8), (0, 10), (0, 11), (1, 2),
    (1, 6), (1, 7), (1, 10), (1, 11), (2, 5), (2, 8), (2, 11), (3, 6),
    (3, 9), (4, 6), (4, 8), (4, 9), (5, 6), (5, 8), (5, 10), (6, 7),
    (6, 8), (6, 9), (7, 8), (8, 11), (9, 10),
])
EXACT_MIX_G14 = Graph.from_edges(14, [
    (0, 10), (0, 11), (1, 7), (1, 11), (2, 4), (2, 6), (2, 7), (3, 7),
    (3, 8), (4, 6), (4, 11), (4, 12), (4, 13), (5, 10), (5, 11), (5, 12),
    (6, 9), (7, 8), (7, 10), (7, 12), (10, 12),
])
EXACT_MIX_G14_DENSE = Graph.from_edges(14, [
    (0, 1), (0, 5), (0, 9), (0, 11), (0, 13), (1, 2), (1, 3), (1, 5),
    (1, 6), (1, 7), (1, 9), (1, 10), (2, 5), (2, 7), (2, 8), (2, 9),
    (2, 12), (3, 4), (3, 5), (3, 6), (3, 9), (4, 7), (4, 12), (5, 6),
    (5, 9), (5, 12), (5, 13), (6, 8), (6, 12), (7, 8), (7, 10), (7, 12),
    (8, 12), (8, 13), (12, 13),
])


def minor_oracle(host: Graph, pattern: Graph) -> bool:
    import numpy as np

    p, n = pattern.n, host.n
    if p == 0:
        return True
    if p > n:
        return False
    masks, reach = _connected_assignments(host.adj, p)
    valid = np.ones(masks.shape[1], dtype=bool)
    for a, b in pattern.edges():
        valid &= (reach[a] & masks[b]) != 0
    return bool(valid.any())


# a result is reused only by the next calls on the same host and pattern
# size, so one is kept: a (p, count) pair is up to 16 MB at n = 8, p = 5
@lru_cache(maxsize=1)
def _connected_assignments(adj: tuple[frozenset[int], ...], p: int):
    """The assignments of the host's vertices to p branch sets or to none
    in which every branch set is nonempty and connected: their branch-set
    bitmasks and the union of each set's neighborhoods, both (p, count)."""
    conn, adj_union = _host_tables(adj)
    masks = _branch_masks(len(adj), p)
    keep = conn[masks[0]]
    for j in range(1, p):
        keep &= conn[masks[j]]
    masks = masks[:, keep]
    reach = adj_union[masks]
    masks.flags.writeable = reach.flags.writeable = False
    return masks, reach


@lru_cache(maxsize=8)
def _host_tables(adj: tuple[frozenset[int], ...]):
    """Per vertex subset of the host: is it connected, and the union of its
    neighborhoods (both indexed by bitmask)."""
    import numpy as np

    n = len(adj)
    conn = np.zeros(1 << n, dtype=bool)
    adj_bits = [0] * n
    for v in range(n):
        for u in adj[v]:
            adj_bits[v] |= 1 << u
    for mask in range(1, 1 << n):
        low = mask & -mask
        reach = low
        frontier = low
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= adj_bits[b.bit_length() - 1]
            frontier = nxt & mask & ~reach
            reach |= frontier
        conn[mask] = reach == mask
    adj_union = np.zeros(1 << n, dtype=np.int64)
    for mask in range(1, 1 << n):
        low = mask & -mask
        adj_union[mask] = adj_union[mask ^ low] | adj_bits[low.bit_length() - 1]
    # cached and shared between calls, so read-only
    conn.flags.writeable = adj_union.flags.writeable = False
    return conn, adj_union


@lru_cache(maxsize=8)
def _branch_masks(n: int, p: int):
    """Every assignment of n host vertices to p branch sets or to none, as
    a (p, (p + 1) ** n) array of branch-set bitmasks."""
    import numpy as np

    total = (p + 1) ** n
    masks = np.zeros((p, total), dtype=np.int64)
    # peel the base-(p + 1) digits of every code in place, so the only
    # full-length temporaries are rest, digit and one boolean row
    rest = np.arange(total, dtype=np.int64)
    digit = np.empty_like(rest)
    for i in range(n):
        np.divmod(rest, p + 1, out=(rest, digit))
        for j in range(p):
            masks[j][digit == j] |= 1 << i
    masks.flags.writeable = False
    return masks


def connected_masks_oracle(g: Graph) -> list[int]:
    """Every vertex mask of g inducing a connected subgraph, by plain
    enumeration of all 2^n masks and a search from each mask's least
    vertex, sorted by (popcount, mask)."""
    out = []
    for mask in range(1, 1 << g.n):
        vs = frozenset(v for v in range(g.n) if mask >> v & 1)
        seen, todo = set(), [min(vs)]
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(g.adj[v] & vs)
        if seen == vs:
            out.append(mask)
    return sorted(out, key=lambda m: (m.bit_count(), m))


def minor_dfs_oracle(host: Graph, pattern: Graph):
    """The plain branch-set DFS without pruning: ``(model, nodes)``.

    Pattern vertices are placed by degree (descending), then id.  Each takes
    the host's connected vertex sets in order of size, then bitmask value,
    skipping those that meet a placed set; every set not skipped is one
    node.  A set is tried when it touches every placed neighbor's set and
    leaves a vertex for each pattern vertex still to place.  ``model`` is
    the first full placement (pattern vertex -> frozenset) or None; ``nodes``
    counts every node the search visited up to that point.
    """
    n, p = host.n, pattern.n
    candidates = [
        frozenset(v for v in range(n) if mask >> v & 1)
        for mask in connected_masks_oracle(host)
    ]
    order = sorted(range(p), key=lambda v: (-pattern.degree(v), v))
    branch: dict[int, frozenset] = {}
    nodes = 0

    def place(i: int, used: frozenset):
        nonlocal nodes
        if i == p:
            return dict(branch)
        pv = order[i]
        for vs in candidates:
            if vs & used:
                continue
            nodes += 1
            if not all(
                any(host.adj[v] & branch[u] for v in vs)
                for u in pattern.adj[pv]
                if u in branch
            ):
                continue
            if n - len(used) - len(vs) < p - i - 1:
                continue
            branch[pv] = vs
            got = place(i + 1, used | vs)
            if got is not None:
                return got
            del branch[pv]
        return None

    model = place(0, frozenset())
    return model, nodes


# ---------------------------------------------------------------------------
# scheme oracle: condition D2 by a scan over every vertex pair


def d2_oracle(prev, nxt, original: Graph) -> dict:
    """Verdict JSON of condition D2 for the pair (prev, nxt), found by the
    plain quadratic scan: every edge of the next graph, then every pair of
    its vertices in lexicographic order.  Models may share ids only between
    singletons; a previous model inside several next models is absorbed
    into the last of them in model order, the certifier's rule for a shared
    key."""
    g, pg = nxt.graph, prev.graph
    absorbed = {w: [] for w in range(g.n)}
    for v in range(pg.n):
        into = [w for w in nxt.model if prev.model[v] <= nxt.model[w]]
        if into:
            absorbed[into[-1]].append(v)

    def fail(**witness):
        return {"status": "fail", "witness": witness}

    for u, v in g.edges():
        if not any(
            original.has_edge(a, b) for a in nxt.model[u] for b in nxt.model[v]
        ):
            return fail(clause="edge-not-in-contraction", edge=[u, v])
        if not any(pg.has_edge(a, b) for a in absorbed[u] for b in absorbed[v]):
            return fail(clause="edge-without-preimage", edge=[u, v])
    for u in range(g.n):
        for v in range(u + 1, g.n):
            mu, mv = nxt.model[u], nxt.model[v]
            if g.has_edge(u, v) or len(mu) != 1 or len(mv) != 1:
                continue
            if original.has_edge(min(mu), min(mv)):
                return fail(clause="missing-edge-between-originals", pair=[u, v])
    return {"status": "pass"}


# ---------------------------------------------------------------------------
# scheme oracle: homogeneous triples by plain BFS distances in g[X]


def certify_entry(
    prev: SchemeEntry, nxt: SchemeEntry, params: SchemeParams, original: Graph
) -> CertReport:
    """The report of the one pair (prev, nxt): ``certify_scheme`` decides
    each pair's facts once, so its first pair report is the pair's own."""
    return certify_scheme([prev, nxt], params, original).pair_reports[0]


def skipped(report: CertReport) -> list[str]:
    """The conditions a pair report skipped, in order."""
    return [c for c, v in report.verdicts.items() if v.status == "skipped"]


def homogeneous_oracle(
    g: Graph,
    x_set: frozenset[int],
    z_set: frozenset[int],
    w_set: frozenset[int],
    t: int,
    length: int,
    d: int,
    r: int,
) -> Optional[str]:
    """The first failed condition of a homogeneous triple, worded as the
    step words it, or None.  Packing by its definition: no other center
    within distance 2 * length - 2 of a center in g[X]."""
    if len(z_set) != t:
        return f"need exactly {t} ball centers, got {len(z_set)}"
    if not z_set <= x_set:
        return "ball centers must lie inside X"
    if w_set & x_set:
        return "W must avoid X"
    if len(w_set) > r - 1:
        return f"|W| = {len(w_set)} exceeds r - 1 = {r - 1}"
    for v in x_set:
        if g.degree(v) > d:
            return f"vertex {v} in X has degree {g.degree(v)} > {d}"
    for z in sorted(z_set):
        dist = {z: 0}
        queue = [z]
        for u in queue:
            for v in g.adj[u]:
                if v in x_set and v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if any(dist.get(y, 2 * length) <= 2 * length - 2 for y in z_set - {z}):
            return f"ball centers within distance {2 * length - 2} of {z} in g[X]"
        ball = {v for v, dv in dist.items() if dv <= length - 1}
        got = {u for v in ball for u in g.adj[v]} - ball - x_set
        if got != w_set:
            return f"ball of {z} has boundary {sorted(got)} != W {sorted(w_set)}"
    return None


def find_homogeneous_oracle(
    g: Graph, t: int, length: int, d: int, r: int
) -> Optional[tuple[frozenset[int], frozenset[int], frozenset[int]]]:
    """The (X, Z, W) that ``find_homogeneous`` must return, or None: one
    plain BFS per X vertex gives its distances in g[X], its W is the
    outside boundary of its radius-(length - 1) ball, groups of equal W are
    tried by least center, and each takes centers ascending while they lie
    at distance at least 2 * length - 1 from every center taken."""
    x_set = frozenset(v for v in range(g.n) if g.degree(v) <= d)
    dist = {}
    for z in sorted(x_set):
        dist[z] = {z: 0}
        queue = [z]
        for u in queue:
            for v in g.adj[u]:
                if v in x_set and v not in dist[z]:
                    dist[z][v] = dist[z][u] + 1
                    queue.append(v)
    groups: dict[frozenset[int], list[int]] = {}
    for z, dz in dist.items():
        ball = {v for v, dv in dz.items() if dv <= length - 1}
        w = frozenset(u for v in ball for u in g.adj[v]) - x_set
        if len(w) <= r - 1:
            groups.setdefault(w, []).append(z)
    for w in sorted(groups, key=lambda w: min(groups[w])):
        chosen: list[int] = []
        for z in groups[w]:
            if all(dist[c].get(z, 2 * length) >= 2 * length - 1 for c in chosen):
                chosen.append(z)
            if len(chosen) == t:
                return x_set, frozenset(chosen), w
    return None


# ---------------------------------------------------------------------------
# constants oracle: the split-path budget by its defining recurrence


def split_path_budget_recurrence(t: int, k: int, length: int) -> int:
    """Direct evaluation of the defining recurrence (test oracle)."""
    val = k + length
    for x in range(2, t + 1):
        val = k * (val - (x - 1) * length) + x * length
    return val


def huge_slotwise_le(x, y) -> bool:
    """A sufficient test for x <= y on HugeInts: True only when it holds.

    coeff * base ** exp + addend is monotone in every slot, so a power form
    whose coeff, base, exp and addend are each at most the other's (the last
    three recursively) is at most the other.  A plain value below
    ``PLAIN_LIMIT`` is below every power form, which is at least that
    limit.  False means "not shown", not "greater".
    """
    x, y = (v if isinstance(v, HugeInt) else HugeInt(val=v) for v in (x, y))
    if y.val is not None:
        return x.val is not None and x.val <= y.val
    if x.val is not None:
        return x.val < PLAIN_LIMIT
    return x.coeff <= y.coeff and all(
        huge_slotwise_le(a, b)
        for a, b in ((x.base, y.base), (x.exp, y.exp), (x.addend, y.addend))
    )


# ---------------------------------------------------------------------------
# coloring oracle: full enumeration


def decide_defective_oracle(g: Graph, k: int, d: int) -> bool:
    for colors in product(range(1, k + 1), repeat=g.n):
        ok = True
        for v in range(g.n):
            same = sum(1 for u in g.adj[v] if colors[u] == colors[v])
            if same > d:
                ok = False
                break
        if ok:
            return True
    return False


def backtrack_coloring_oracle(g: Graph, k: int, d: int):
    """The backtracking search over neighbor sets: ``(colors, nodes)``.

    Vertices by descending degree, then id; colors ascending, where a vertex
    may open at most one fresh color.  A color is refused when a neighbor of
    that color already has d same-colored neighbors, or the vertex would
    have more than d.  Every color tried is one node.  ``colors`` is the
    first complete coloring (a tuple of 1-based colors) or None; ``nodes``
    counts every node visited up to that point.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    color = [0] * g.n  # 0 = uncolored
    same = [0] * g.n  # same-colored neighbor count, colored vertices only
    nodes = 0

    def assign(i: int, used: int) -> bool:
        nonlocal nodes
        if i == g.n:
            return True
        v = order[i]
        for c in range(1, min(used + 1, k) + 1):
            nodes += 1
            peers = [u for u in g.adj[v] if color[u] == c]
            if len(peers) > d or any(same[u] + 1 > d for u in peers):
                continue
            color[v] = c
            same[v] = len(peers)
            for u in peers:
                same[u] += 1
            if assign(i + 1, max(used, c)):
                return True
            color[v] = same[v] = 0
            for u in peers:
                same[u] -= 1
        return False

    found = assign(0, 0)
    return (tuple(color) if found else None), nodes


# ---------------------------------------------------------------------------
# closure-of-forest oracle: forbidden induced subgraphs


def forest_closure_oracle(g: Graph) -> bool:
    """True iff g has no induced P4 or C4 over all 4-vertex subsets.

    Those are exactly the closures of rooted forests (the trivially perfect
    graphs, Wolk 1962 and Golumbic 1978).
    """
    from itertools import combinations

    for quad in combinations(range(g.n), 4):
        degs = sorted(sum(1 for u in quad if u in g.adj[v]) for v in quad)
        if degs in ([1, 1, 2, 2], [2, 2, 2, 2]):
            return False
    return True


# ---------------------------------------------------------------------------
# depth translations (wrappers over the solver, not oracles)


def tree_depth(g: Graph) -> int:
    return connected_tree_depth(g).td


def omega_delta_excluded(h_pattern: Graph) -> int:
    """ctd(H) - 1: the defective chromatic number of the H-minor-free class."""
    if h_pattern.n == 0:
        raise ValueError("pattern must be nonempty")
    return connected_tree_depth(h_pattern).ctd - 1


def clustered_bounds(h_pattern: Graph) -> ClusteredBounds:
    """Clustered-coloring bounds for the class excluding ``h_pattern``."""
    return ClusteredBounds.from_ctd(connected_tree_depth(h_pattern).ctd)
