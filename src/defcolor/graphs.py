"""Core graph representation, rooted trees and their closures, vertex-set
bitmasks, and metric primitives (balls, geodesics) used by every other
module.

Graphs are immutable values: simple, undirected, vertex ids dense in
``range(n)``.  All operations return new graphs and are safe to share
across workers.

The compact, sorted-key JSON documents (edge lists here, schemes in
``scheme.serialize``) go through one write/read pair, ``write_json`` and
``read_json``.  They run ``orjson`` and fall back to the standard library
exactly where the two would differ, so documents and reader outcomes are
byte-identical to ``json``'s; their docstrings say why the rule is exact.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Container, Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, InputFormatError

DEFAULT_VERTEX_BUDGET = 10**6


class Graph:
    """Simple undirected graph with dense vertex ids 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[frozenset[int]]):
        self.n = n
        self.adj = tuple(adj)
        if len(self.adj) != n:
            raise ValueError("adjacency length does not match n")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, [frozenset(s) for s in adj])

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as (u, v) with u < v."""
        # one sort of the packed keys u * n + v, whose order is the pairs'
        n = self.n
        keys = [u * n + v for u, vs in enumerate(self.adj) for v in vs if v > u]
        keys.sort()
        return list(map(divmod, keys, repeat(n)))

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def subgraph(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on ``vertices``; returns (graph, old-id list).

        New ids follow ascending old ids, so the mapping is reproducible.
        """
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        adj = [frozenset(index[u] for u in self.adj[v] if u in index) for v in vs]
        return Graph(len(vs), adj), vs


# ---------------------------------------------------------------------------
# Vertex sets as int bitmasks (bit v is vertex v)


def _mask(vs: Iterable[int]) -> int:
    out = 0
    for v in vs:
        out |= 1 << v
    return out


def _bits(s: int) -> list[int]:
    out = []
    while s:
        low = s & -s
        out.append(low.bit_length() - 1)
        s ^= low
    return out


# ---------------------------------------------------------------------------
# Named small graphs


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# ---------------------------------------------------------------------------
# Rooted trees and closures


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree given by a parent array; ``parent[root] is None``.

    ``height`` counts the vertices on a longest root-to-leaf path, so the
    single-vertex tree has height 1 and the empty tree height 0.
    """

    parent: tuple[Optional[int], ...]
    root: Optional[int]
    height: int

    @staticmethod
    def from_parents(parent: Sequence[Optional[int]]) -> "RootedTree":
        n = len(parent)
        roots = [v for v in range(n) if parent[v] is None]
        if n == 0:
            return RootedTree((), None, 0)
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        root = roots[0]
        depth = [0] * n
        for v in range(n):
            seen = set()
            u, d = v, 0
            while parent[u] is not None:
                if u in seen:
                    raise ValueError("parent links contain a cycle")
                seen.add(u)
                u = parent[u]
                d += 1
                if d > n:
                    raise ValueError("parent links contain a cycle")
            depth[v] = d
        height = max(depth) + 1
        return RootedTree(tuple(parent), root, height)

    @property
    def n(self) -> int:
        return len(self.parent)

    def depth(self, v: int) -> int:
        """Number of edges from v up to the root."""
        d = 0
        while self.parent[v] is not None:
            v = self.parent[v]
            d += 1
        return d

    def depths(self) -> list[int]:
        out = [0] * self.n
        for v in range(self.n):
            out[v] = self.depth(v)
        return out

    def ancestors(self, v: int) -> Iterator[int]:
        """Proper ancestors of v, nearest first."""
        while self.parent[v] is not None:
            v = self.parent[v]
            yield v


def balanced_tree(height: int, arity: int) -> RootedTree:
    """Balanced ``arity``-ary tree of the given height, ids in BFS order."""
    if height < 1 or arity < 1:
        raise ValueError("height and arity must be positive")
    parent: list[Optional[int]] = [None]
    level = [0]
    for _ in range(height - 1):
        nxt = []
        for p in level:
            for _ in range(arity):
                parent.append(p)
                nxt.append(len(parent) - 1)
        level = nxt
    return RootedTree.from_parents(parent)


def closure(tree: RootedTree) -> Graph:
    """Ancestor-descendant comparability graph on the tree's vertices."""
    edges = []
    for v in range(tree.n):
        for a in tree.ancestors(v):
            edges.append((a, v))
    return Graph.from_edges(tree.n, edges)


def closure_forest(g: Graph) -> Optional[list[Optional[int]]]:
    """Parent list of a rooted forest whose closure is g, or None.

    In a closure every vertex's closed neighborhood lies inside those of its
    ancestors, so ancestors come first in order of descending degree (equal
    degrees among comparable vertices mean twins, which may swap).  Taking
    that order, each vertex's parent is its latest earlier neighbor, and g
    is the closure of the resulting forest iff every vertex's earlier
    neighbors are exactly its parent and the parent's earlier neighbors.
    O(n + m).  The maximum-degree vertex is tested first: each of its
    neighbors' closed neighborhoods must lie inside its own, which rejects
    most other graphs before anything is sorted.
    """
    n = g.n
    adj = g.adj
    if n == 0:
        return []
    degs = list(map(len, adj))
    top_deg = max(degs)
    top = degs.index(top_deg)
    top_closed = adj[top] | {top}
    for u in adj[top]:
        if not adj[u] <= top_closed:
            return None
    buckets: list[list[int]] = [[] for _ in range(top_deg + 1)]
    for v in range(n):
        buckets[degs[v]].append(v)
    pos = [0] * n
    order = [v for bucket in reversed(buckets) for v in bucket]
    for i, v in enumerate(order):
        pos[v] = i
    parent: list[Optional[int]] = [None] * n
    earlier = [0] * n
    for v in order:
        pv = pos[v]
        best, count = -1, 0
        for u in adj[v]:
            if pos[u] < pv:
                count += 1
                if pos[u] > best:
                    best = pos[u]
        if count == 0:
            continue
        p = order[best]
        if count != earlier[p] + 1:
            return None
        adj_p = adj[p]
        for u in adj[v]:
            if pos[u] < best and u not in adj_p:
                return None
        parent[v] = p
        earlier[v] = count
    return parent


def ct_order(height: int, arity: int) -> int:
    """Vertex count of ct(height, arity), exact in arbitrary precision."""
    if arity == 1:
        return height
    return (arity**height - 1) // (arity - 1)


def ct(height: int, arity: int, budget: int | None = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Closure of the balanced ``arity``-ary tree of the given height."""
    if height < 1 or arity < 1:
        raise ValueError("height and arity must be positive")
    size = ct_order(height, arity)
    if budget is not None and size > budget:
        raise BudgetExceededError(
            f"ct({height},{arity}) would have {size} vertices, budget {budget}",
            size=size,
        )
    return closure(balanced_tree(height, arity))


def join(g: Graph, h: Graph, budget: int | None = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Disjoint union of g and h plus all edges between the two sides.

    Vertices of g keep their ids; vertices of h are shifted by g.n.
    """
    n = g.n + h.n
    if budget is not None and n > budget:
        raise BudgetExceededError(f"join would have {n} vertices", size=n)
    edges = list(g.edges())
    edges += [(u + g.n, v + g.n) for u, v in h.edges()]
    edges += [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return Graph.from_edges(n, edges)


def disjoint_copies(
    count: int, g: Graph, budget: int | None = DEFAULT_VERTEX_BUDGET
) -> Graph:
    """Union of ``count`` disjoint copies of g, copies relabeled contiguously."""
    if count < 1:
        raise ValueError("count must be positive")
    n = count * g.n
    if budget is not None and n > budget:
        raise BudgetExceededError(f"{count} copies would have {n} vertices", size=n)
    edges = []
    for c in range(count):
        off = c * g.n
        edges += [(u + off, v + off) for u, v in g.edges()]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Metric primitives


def bfs_distances(g: Graph, sources: Iterable[int]) -> list[int]:
    """BFS distance from the source set; -1 for unreachable vertices."""
    dist = [-1] * g.n
    frontier = []
    for s in sources:
        if dist[s] == -1:
            dist[s] = 0
            frontier.append(s)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if dist[w] == -1:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def ball(
    g: Graph,
    sources: Iterable[int],
    radius: int,
    within: Optional[Container[int]] = None,
) -> frozenset[int]:
    """Vertices within distance ``radius`` of the sources (sources included).

    With ``within``, paths pass only through vertices of that set, so the
    result is the ball of g[within | sources].  A frontier BFS that stops at
    ``radius``: it costs the size of the ball and its boundary, not of g.
    """
    seen = set(sources)
    for v in seen:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return frozenset(grow_ball(g.adj, seen, radius, within))


def grow_ball(
    adj: Sequence[Container[int]],
    seen: set[int],
    radius: int,
    within: Optional[Container[int]] = None,
    exits: Optional[set[int]] = None,
) -> set[int]:
    """The BFS of ``ball``, unchecked: grows ``seen`` from the sources in it
    to their ball in place and returns it.

    With ``exits`` (and ``within``), the same pass also adds to ``exits``
    every neighbour of the ball that lies outside it and outside ``within``.
    """
    frontier = list(seen)
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    if within is None or v in within:
                        seen.add(v)
                        nxt.append(v)
                    elif exits is not None:
                        exits.add(v)
        if not nxt:
            return seen
        frontier = nxt
    if exits is not None:
        # the last layer's neighbours: only the exits are still wanted
        for u in frontier:
            for v in adj[u]:
                if v not in within and v not in seen:
                    exits.add(v)
    return seen


def induced_components(g: Graph, vs: Iterable[int]) -> list[frozenset[int]]:
    """Components of g[vs] expressed in g's vertex ids."""
    vset = set(vs)
    seen = set()
    out = []
    for s in sorted(vset):
        if s in seen:
            continue
        comp = []
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.adj[u]:
                if w in vset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def geodesic_from(g: Graph, v: int, length: int) -> Optional[list[int]]:
    """Geodesic of exactly ``length`` edges starting at v, or None.

    Among all such geodesics, returns the lexicographically least vertex
    sequence.  A path whose every step increases BFS depth from v is a
    geodesic, and conversely.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if length < 0:
        raise ValueError("length must be nonnegative")
    dist = bfs_distances(g, [v])
    if length == 0:
        return [v]
    # can_reach[u] = True if some strictly depth-increasing path from u hits
    # depth ``length``.
    by_depth: dict[int, list[int]] = {}
    for u in range(g.n):
        if dist[u] >= 0:
            by_depth.setdefault(dist[u], []).append(u)
    if length not in by_depth:
        return None
    can_reach = set(by_depth[length])
    for d in range(length - 1, -1, -1):
        for u in by_depth.get(d, []):
            if any(w in can_reach for w in g.adj[u] if dist[w] == d + 1):
                can_reach.add(u)
    if v not in can_reach:
        return None
    path = [v]
    cur = v
    for d in range(1, length + 1):
        nxt = min(
            w for w in g.adj[cur] if dist[w] == d and w in can_reach
        )
        path.append(nxt)
        cur = nxt
    return path


# ---------------------------------------------------------------------------
# graph6 and edge-list JSON interchange

_G6_HEADER = ">>graph6<<"


def to_graph6(g: Graph) -> str:
    """Canonical graph6 encoding (no header, no trailing newline)."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    elif n <= 68719476735:
        prefix = "~~" + "".join(
            chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0)
        )
    else:
        raise BudgetExceededError("graph6 supports at most 2^36-1 vertices", size=n)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return prefix + "".join(chars)


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line; raises InputFormatError with a byte offset."""
    s = text.strip()
    offset = 0
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
        offset = len(_G6_HEADER)
    if not s:
        raise InputFormatError("empty graph6 string", offset)
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise InputFormatError(f"invalid graph6 byte {ch!r}", offset + i)
    if s.startswith("~~"):
        if len(s) < 8:
            raise InputFormatError("truncated graph6 size field", offset)
        n = 0
        for ch in s[2:8]:
            n = (n << 6) | (ord(ch) - 63)
        body, body_off = s[8:], offset + 8
    elif s.startswith("~"):
        if len(s) < 4:
            raise InputFormatError("truncated graph6 size field", offset)
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body, body_off = s[4:], offset + 4
    else:
        n = ord(s[0]) - 63
        body, body_off = s[1:], offset + 1
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise InputFormatError(
            f"graph6 body has {len(body)} chars, expected {expected} for n={n}",
            body_off + min(len(body), expected),
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise InputFormatError("nonzero padding bits", body_off + len(body) - 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)


def to_edge_json(g: Graph) -> str:
    """Byte-stable edge-list JSON document (sorted edges, newline-terminated)."""
    return write_json({"n": g.n, "edges": g.edges()}) + "\n"


def parse_edge_json(text: str) -> Graph:
    return read_json(text, graph_from_doc)


def graph_from_doc(doc) -> Graph:
    """The graph of an edge-list document ``{"n": n, "edges": [[u, v], ...]}``.

    ``n`` and every endpoint must be JSON integers, not booleans, and every
    edge must join two distinct vertices; raises InputFormatError otherwise.
    """
    if type(doc) is not dict or "n" not in doc or "edges" not in doc:
        raise InputFormatError('edge-list JSON needs keys "n" and "edges"')
    n, edges = doc["n"], doc["edges"]
    if type(n) is not int or n < 0:
        raise InputFormatError('"n" must be a nonnegative integer')
    if type(edges) is not list:
        raise InputFormatError('"edges" must be a list of [u,v] pairs')
    adj = [set() for _ in range(n)]
    for item in edges:
        try:
            u, v = item
        except (TypeError, ValueError):
            u = v = None
        if type(u) is not int or type(v) is not int or u == v or not (
            0 <= u < n and 0 <= v < n
        ):
            raise InputFormatError(f"bad edge entry {item!r:.40} for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, [frozenset(s) for s in adj])


def parse_graph(text: str) -> Graph:
    """Parse either format: JSON object or graph6 line (auto-detected)."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return parse_edge_json(stripped)
    return parse_graph6(stripped)


def int_lists(value, what: str, depth: int = 1):
    """``value`` if it is a JSON list nested ``depth`` deep whose leaves are
    integers (not booleans): a list of ints at depth 1, of int lists at 2."""
    items = [value]
    for level in range(depth):
        if not set(map(type, items)) <= {list}:
            break
        items = chain.from_iterable(items)
        if level + 1 < depth:
            items = list(items)
    else:
        if set(map(type, items)) <= {int}:
            return value
    raise InputFormatError(f"{what}: expected integers, got {value!r:.40}")


def int_keyed(value, what: str, depth: int) -> tuple[list[int], list]:
    """The keys, as ints, and the values of a JSON object keyed by ASCII
    decimal strings.  Two keys that read as one int ("1" and "01") are an
    error; every value must pass ``int_lists(value, what, depth - 1)``."""
    if type(value) is dict and "" not in value:
        digits = "".join(value) or "0"  # the empty object has no keys to check
        if digits.isascii() and digits.isdecimal():
            keys = list(map(int, value))
            if len(set(keys)) == len(keys):
                values = list(value.values())
                int_lists(values, what, depth)
                return keys, values
    raise InputFormatError(f"{what} must be an object keyed by distinct integers")


def write_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, written
    by ``orjson``; int keys are written and sorted as strings.

    For a document of dicts, lists, tuples, ints, bools and None whose
    only strings are printable ASCII keys, as every scheme and edge-list
    document is, the two write the same bytes (they differ on floats and
    on other strings).  orjson raises TypeError on an int outside
    64 bits (and on a type it cannot write); then ``json`` writes the
    document, after a round trip that makes its int keys strings (``json``
    would sort them as numbers), or raises its own TypeError.
    """
    import orjson

    options = orjson.OPT_SORT_KEYS | orjson.OPT_NON_STR_KEYS
    try:
        return orjson.dumps(doc, option=options).decode()
    except TypeError:
        doc = json.loads(json.dumps(doc))
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def read_json(text: str, read):
    """``read(json.loads(text))``, with invalid JSON an InputFormatError;
    the text is parsed by ``orjson``.

    ``read`` checks the type of every value it uses and raises
    InputFormatError otherwise.  The result, or the error, is the same as
    with ``json``:

    - orjson rejects what ``json`` alone accepts (NaN, Infinity, a number
      that overflows a float such as 1e400, a lone surrogate).  On any
      orjson error ``json`` parses the text, so such documents, and bad
      JSON with ``json``'s message and position, read as before.
    - Otherwise the two parse to equal values, but for one difference:
      orjson reads an integer literal outside [-2**63, 2**64) as a float.
      Such a value fails ``read``'s int checks wherever it is used, and
      its literal has at least 19 digits.  So only when ``read`` raises
      InputFormatError on a text with a run of 19 digits does ``json``
      parse it again for ``read``.
    """
    import orjson

    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError:
        pass
    else:
        try:
            return read(doc)
        except InputFormatError:
            if re.search("[0-9]{19}", text) is None:
                raise
        del doc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    return read(doc)
