"""Search for homogeneous low-degree structures: many far-apart balls with
identical outside boundaries.

``find_homogeneous`` is a best-effort search: a returned triple satisfies
all conditions (the step that uses it verifies them with
``check_homogeneous``), while ``None`` only means this strategy failed,
never that no triple exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
) -> Optional[str]:
    """Verify the four conditions; returns a failure description or None.

    The part outside X of every ball's boundary must equal W.  Distances
    between distinct components of g[X] count as infinite.
    """
    x_set, z_set, w_set = triple.x_set, triple.z_set, triple.w_set
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
        reach = ball(g, [z], 2 * length - 2, within=x_set)
        if len(reach & z_set) > 1:  # reach always holds z itself
            return f"ball centers within distance {2 * length - 2} of {z} in g[X]"
        b = ball(g, [z], length - 1, within=x_set)
        got = boundary(g, b) - x_set
        if got != w_set:
            return f"ball of {z} has boundary {sorted(got)} != W {sorted(w_set)}"
    return None


def find_homogeneous(
    g: Graph, t: int, length: int, d: int, r: int
) -> Optional[HomogeneousTriple]:
    """Exhaustive boundary grouping over the full low-degree set.

    X is the set of all vertices of degree at most d; centers are grouped
    by their ball boundary outside X and packed greedily at pairwise
    distance >= 2 * length - 1 in g[X].  Deterministic: groups are tried
    by least center, centers ascending.
    """
    if min(t, length, d, r) < 1:
        raise ValueError("parameters must be positive")
    adj = g.adj
    xs = [v for v in range(g.n) if len(adj[v]) <= d]
    if not xs:
        return None
    x_set = frozenset(xs)
    groups: dict[frozenset[int], list[int]] = {}
    for z in xs:
        # W of z: the neighbours outside X of its ball, from the same BFS
        w: set[int] = set()
        grow_ball(adj, {z}, length - 1, x_set, w)
        if len(w) <= r - 1:
            groups.setdefault(frozenset(w), []).append(z)
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
            blocked |= ball(g, [z], 2 * length - 2, within=x_set)
        if len(chosen) == t:
            return HomogeneousTriple(x_set, frozenset(chosen), w)
    return None
