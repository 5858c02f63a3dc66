"""Checkers of the toolkit's certificates, kept apart from the searches.

A certificate is a coloring, a branch-set model of a minor or a depth
witness tree.  Each checker here decides one by reading the certificate
against the graph it is about, and this module imports nothing but
``graphs`` and ``errors``: a fault in a search cannot hide in code its
checker shares, so only these checkers must be trusted (McConnell,
Mehlhorn, Näher and Schweitzer, Computer Science Review 2011).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import PartialColoringError
from .graphs import Graph, induced_components


@dataclass(frozen=True)
class Coloring:
    """Total assignment of 1-based colors in [k] to vertices 0..n-1."""

    k: int
    colors: tuple[int, ...]


def _same_colored(g: Graph, coloring: Coloring) -> list[int]:
    """Each vertex's number of same-colored neighbors.  Raises
    PartialColoringError unless the coloring covers exactly g's vertices
    with colors in [1, k]."""
    colors = coloring.colors
    if len(colors) != g.n:
        raise PartialColoringError(f"coloring covers {len(colors)} of {g.n} vertices")
    for v, c in enumerate(colors):
        if not 1 <= c <= coloring.k:
            raise PartialColoringError(f"vertex {v} has color {c} outside [1,{coloring.k}]")
    return [sum(1 for u in nbrs if colors[u] == c) for nbrs, c in zip(g.adj, colors)]


def class_degrees(g: Graph, coloring: Coloring) -> dict[int, int]:
    """Maximum induced degree per color class: each of colors 1..min(k, n),
    0 for an empty class, then any other color in use."""
    counts = _same_colored(g, coloring)
    out = dict.fromkeys(range(1, min(coloring.k, g.n) + 1), 0)
    for c, deg in zip(coloring.colors, counts):
        out[c] = max(out.get(c, 0), deg)
    return out


def verify_coloring(
    g: Graph, coloring: Coloring, d: int
) -> tuple[bool, Optional[int]]:
    """True iff every color class induces maximum degree <= d.

    On failure returns the least vertex with more than d same-colored
    neighbors.
    """
    for v, deg in enumerate(_same_colored(g, coloring)):
        if deg > d:
            return False, v
    return True, None


@dataclass(frozen=True)
class MinorModel:
    """Map pattern vertex -> disjoint connected branch set in the host."""

    branch_sets: dict[int, frozenset[int]]

    def __post_init__(self):
        object.__setattr__(
            self, "branch_sets", dict(sorted(self.branch_sets.items()))
        )


@dataclass(frozen=True)
class Violation:
    """First violated model clause plus witness vertices."""

    clause: str
    witness: tuple


def verify_model(
    host: Graph, pattern: Graph, model: MinorModel
) -> tuple[bool, Optional[Violation]]:
    """Check all MinorModel invariants; on failure return the first violation.

    Clause order: missing-branch-set, disjointness, connectivity,
    edge-coverage.  Ids out of range raise ValueError.
    """
    bs = model.branch_sets
    for pv, s in bs.items():
        if not 0 <= pv < pattern.n:
            raise ValueError(f"pattern vertex {pv} out of range")
        for v in s:
            if not 0 <= v < host.n:
                raise ValueError(f"host vertex {v} out of range")
    for pv in range(pattern.n):
        if pv not in bs or not bs[pv]:
            return False, Violation("missing-branch-set", (pv,))
    for pu in range(pattern.n):
        for pv in range(pu + 1, pattern.n):
            shared = bs[pu] & bs[pv]
            if shared:
                return False, Violation("disjointness", (pu, pv, min(shared)))
    for pv in range(pattern.n):
        comps = induced_components(host, bs[pv])
        if len(comps) > 1:
            return False, Violation("connectivity", (pv, min(comps[0]), min(comps[1])))
    for pu, pv in pattern.edges():
        if not any(host.adj[v] & bs[pv] for v in bs[pu]):
            return False, Violation("edge-coverage", (pu, pv))
    return True, None


def verify_depth_witness(g: Graph, report) -> bool:
    """Whether a ``depth.DepthReport`` holds for g: its witness tree spans
    g's vertices (identity embedding), has height ``ctd``, and maps every
    edge of g to an ancestor pair."""
    tree = report.witness
    if tree.n != g.n or report.embedding != tuple(range(g.n)):
        return False
    depth = tree.depths()
    anc = [set(tree.ancestors(v)) for v in range(tree.n)]
    for u, v in g.edges():
        lo, hi = (u, v) if depth[u] <= depth[v] else (v, u)
        if lo not in anc[hi]:
            return False
    return tree.height == report.ctd
