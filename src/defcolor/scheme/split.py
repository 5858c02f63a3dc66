"""Splitting a colored geodesic into uniformly covered equal chunks.

Given a graph that is a radius-n ball around v*, a coloring f of its
vertices with t colors and a geodesic from v* of prescribed length, the
search finds a subpath Q and a nonempty color set S such that

  1. no color outside S appears within distance |S| * l of Q, and
  2. Q splits into k equal subpaths, each seeing every color of S within
     distance (|S| - 1) * l.

Both conclusions are re-verified mechanically before returning.  The
required radius/path budget is n(t, k, l) from
:func:`defcolor.constants.split_path_budget`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import split_path_budget
from ..errors import HypothesisViolationError
from ..graphs import Graph, ball, bfs_distances


@dataclass(frozen=True)
class SplitResult:
    subpath: tuple[int, ...]
    color_set: frozenset[int]
    chunks: tuple[tuple[int, ...], ...]


def _check_preconditions(g: Graph, v_star: int, f, p, t: int, k: int, length: int):
    n = split_path_budget(t, k, length)
    want = n - t * length
    if len(p) != want:
        raise HypothesisViolationError(
            f"path must have {want} vertices (n(t,k,l)={n}, t*l={t * length}); got {len(p)}"
        )
    if p[0] != v_star:
        raise HypothesisViolationError("path must start at the center vertex")
    for a, b in zip(p, p[1:]):
        if not g.has_edge(a, b):
            raise HypothesisViolationError(f"path step {a}-{b} is not an edge")
    if len(set(p)) != len(p):
        raise HypothesisViolationError("path repeats a vertex")
    dist = bfs_distances(g, [v_star])
    if any(dist[v] < 0 or dist[v] > n for v in range(g.n)):
        raise HypothesisViolationError(
            f"graph is not the radius-{n} ball around the center"
        )
    if dist[p[-1]] != len(p) - 1:
        raise HypothesisViolationError("path is not a geodesic")
    for v in range(g.n):
        if not 1 <= f[v] <= t:
            raise HypothesisViolationError(f"color {f[v]} of vertex {v} outside [{t}]")


def check_split_conclusions(
    g: Graph, f, t: int, k: int, length: int, result: SplitResult
) -> None:
    """Raise AssertionError unless both conclusions hold (mechanical check)."""
    q, s, chunks = result.subpath, result.color_set, result.chunks
    if not s or not s <= set(range(1, t + 1)):
        raise AssertionError("color set must be a nonempty subset of [t]")
    near = ball(g, q, len(s) * length)
    for v in near:
        if f[v] not in s:
            raise AssertionError(f"excluded color {f[v]} within {len(s) * length} of Q")
    if len(chunks) != k or sum(len(c) for c in chunks) != len(q):
        raise AssertionError("chunks must partition Q into k pieces")
    if len(set(len(c) for c in chunks)) != 1:
        raise AssertionError("chunks must have equal length")
    if tuple(v for c in chunks for v in c) != tuple(q):
        raise AssertionError("chunks must be consecutive along Q")
    for c in chunks:
        seen = {f[v] for v in ball(g, c, (len(s) - 1) * length)}
        if not s <= seen:
            raise AssertionError(f"chunk misses colors {set(s) - seen}")


def geodesic_split(
    g: Graph, v_star: int, f, p, t: int, k: int, length: int
) -> SplitResult:
    """Find (Q, S, chunks) for the given colored ball; deterministic.

    ``f`` lists each vertex's color in [t]; ``p`` is a geodesic
    starting at v_star on exactly n(t, k, l) - t*l vertices.  Preconditions
    are checked and both conclusions re-verified.
    """
    f = list(f)
    _check_preconditions(g, v_star, f, p, t, k, length)
    result = _split(g, f, list(p), t, k, length)
    check_split_conclusions(g, f, t, k, length, result)
    return result


def _split(g: Graph, f: list[int], p: list[int], t: int, k: int, length: int):
    if t == 1:
        q = tuple(p[:k])
        return SplitResult(q, frozenset([1]), tuple((v,) for v in q))
    w_len = split_path_budget(t - 1, k, length) - (t - 1) * length
    # first window missing some color wins; otherwise every window sees all
    for start in range(len(p) - w_len + 1):
        window = p[start : start + w_len]
        present = {f[v] for v in ball(g, window, (t - 1) * length)}
        missing = sorted(set(range(1, t + 1)) - present)
        if missing:
            return _descend(g, f, window, missing[0], t, k, length)
    chunk = w_len
    q = tuple(p[: k * chunk])
    chunks = tuple(tuple(q[i * chunk : (i + 1) * chunk]) for i in range(k))
    return SplitResult(q, frozenset(range(1, t + 1)), chunks)


def _descend(g: Graph, f, window, dropped: int, t: int, k: int, length: int):
    region = ball(g, window, (t - 1) * length)
    sub, ids = g.subgraph(region)
    back = {i: v for i, v in enumerate(ids)}
    fwd = {v: i for i, v in enumerate(ids)}
    # renumber the surviving colors onto [t-1], order preserved
    keep = [c for c in range(1, t + 1) if c != dropped]
    to_small = {c: i + 1 for i, c in enumerate(keep)}
    f_sub = [to_small[f[back[i]]] for i in range(sub.n)]
    p_sub = [fwd[v] for v in window]
    inner = _split(sub, f_sub, p_sub, t - 1, k, length)
    q = tuple(back[v] for v in inner.subpath)
    s = frozenset(keep[c - 1] for c in inner.color_set)
    chunks = tuple(tuple(back[v] for v in c) for c in inner.chunks)
    return SplitResult(q, s, chunks)
