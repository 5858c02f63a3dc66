"""Search for homogeneous low-degree structures: many far-apart balls with
identical outside boundaries.

``find_homogeneous`` is a best-effort search: a returned triple satisfies
all conditions (the step that uses it verifies them with
``check_homogeneous``), while ``None`` only means this strategy failed,
never that no triple exists.

``find_homogeneous`` labels each component C of g[X] once.  When
|C| <= l0, C is the radius-(l0 - 1) ball of each of its vertices (two
vertices of a connected C are at most |C| - 1 apart), so they share one
W = N(C) - X; when |C| <= 2 l0 - 1, C is likewise each center's
radius-(2 l0 - 2) packing ball.  A vertex of a larger component keeps its
own BFS.

``check_homogeneous`` grows each center's radius-(l0 - 1) ball in g[X]
with its neighbours outside X in one BFS and returns the balls.  They also
decide packing: two centers lie within 2 l0 - 2 of each other in g[X]
exactly when their balls meet.  It stays independent of the search: it is
the step's verification of the triple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from ..errors import HypothesisViolationError
from ..graphs import Graph, ball, grow_ball


@dataclass(frozen=True)
class HomogeneousTriple:
    x_set: frozenset[int]
    z_set: frozenset[int]
    w_set: frozenset[int]


def boundary(g: Graph, region: frozenset[int]) -> frozenset[int]:
    out: set[int] = set()
    for v in region:
        out |= g.adj[v]
    return frozenset(out - region)


def check_homogeneous(
    g: Graph,
    triple: HomogeneousTriple,
    t: int,
    length: int,
    d: int,
    r: int,
) -> dict[int, frozenset[int]]:
    """Verify the four conditions; returns {center: its ball in g[X]},
    centers ascending.

    The part outside X of every ball's boundary must equal W.  Distances
    between distinct components of g[X] count as infinite.  Raises
    ``HypothesisViolationError`` describing the first failure.
    """
    x_set, z_set, w_set = triple.x_set, triple.z_set, triple.w_set
    if len(z_set) != t:
        raise HypothesisViolationError(
            f"need exactly {t} ball centers, got {len(z_set)}"
        )
    if not z_set <= x_set:
        raise HypothesisViolationError("ball centers must lie inside X")
    if w_set & x_set:
        raise HypothesisViolationError("W must avoid X")
    if len(w_set) > r - 1:
        raise HypothesisViolationError(f"|W| = {len(w_set)} exceeds r - 1 = {r - 1}")
    for v in x_set:
        if g.degree(v) > d:
            raise HypothesisViolationError(
                f"vertex {v} in X has degree {g.degree(v)} > {d}"
            )
    balls, exits = {}, {}
    for z in sorted(z_set):
        exits[z] = set()
        balls[z] = frozenset(grow_ball(g.adj, {z}, length - 1, x_set, exits[z]))
    hits = Counter(v for b in balls.values() for v in b)  # balls holding each v
    for z, b in balls.items():
        if any(hits[v] > 1 for v in b):
            raise HypothesisViolationError(
                f"ball centers within distance {2 * length - 2} of {z} in g[X]"
            )
        if exits[z] != w_set:
            raise HypothesisViolationError(
                f"ball of {z} has boundary {sorted(exits[z])} != W {sorted(w_set)}"
            )
    return balls


def find_homogeneous(
    g: Graph, t: int, length: int, d: int, r: int
) -> Optional[HomogeneousTriple]:
    """Exhaustive boundary grouping over the full low-degree set.

    X is the set of all vertices of degree at most d; centers are grouped
    by their ball boundary outside X and packed greedily at pairwise
    distance >= 2 * length - 1 in g[X].  Deterministic: groups are tried
    by least center, centers ascending, so with t = 1 the first center
    with a small enough W is the answer.  Each component of g[X] is
    labelled when its least vertex comes up (the small-component rule of
    the module docstring).
    """
    if min(t, length, d, r) < 1:
        raise ValueError("parameters must be positive")
    adj = g.adj
    xs = [v for v in range(g.n) if len(adj[v]) <= d]
    if not xs:
        return None
    x_set = frozenset(xs)
    comp_of: dict[int, Optional[frozenset[int]]] = {}
    w_of: dict[int, frozenset[int]] = {}
    groups: dict[frozenset[int], list[int]] = {}
    for z in xs:
        if z not in comp_of:
            # z is the least vertex of its component C; one BFS gives C and
            # N(C) - X
            outside: set[int] = set()
            comp = grow_ball(adj, {z}, len(xs), x_set, outside)
            small = frozenset(comp) if len(comp) < 2 * length else None
            comp_of.update(dict.fromkeys(comp, small))
            if len(comp) <= length:
                w_of.update(dict.fromkeys(comp, frozenset(outside)))
        w = w_of.get(z)
        if w is None:
            # W of z: the neighbours outside X of its ball, from the same BFS
            exits: set[int] = set()
            grow_ball(adj, {z}, length - 1, x_set, exits)
            w = frozenset(exits)
        if len(w) <= r - 1:
            if t == 1:
                return HomogeneousTriple(x_set, frozenset({z}), w)
            groups.setdefault(w, []).append(z)
    for w in sorted(groups, key=lambda w: min(groups[w])):
        centers = groups[w]
        if len(centers) < t:
            continue
        chosen: list[int] = []
        blocked: set[int] = set()
        for z in centers:
            if z in blocked:
                continue
            chosen.append(z)
            if len(chosen) == t:
                break
            blocked |= comp_of[z] or ball(g, [z], 2 * length - 2, within=x_set)
        if len(chosen) == t:
            return HomogeneousTriple(x_set, frozenset(chosen), w)
    return None
