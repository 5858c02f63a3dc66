"""Exact decision procedure for defect-bounded colorings.

A k-coloring has defect d when every color class induces a subgraph of
maximum degree at most d.  ``decide_defective`` is complete: an infeasible
answer is reported only after exhausting the pruned search space, and a
budget stop is a distinct error, never an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, PartialColoringError, SizeLimitError
from .graphs import Graph, RootedTree

DEFAULT_EXACT_LIMIT = 16


@dataclass(frozen=True)
class Coloring:
    """Total assignment of 1-based colors in [k] to vertices 0..n-1."""

    k: int
    colors: tuple[int, ...]

    def classes(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, c in enumerate(self.colors):
            out.setdefault(c, []).append(v)
        return out


@dataclass(frozen=True)
class DefectReport:
    feasible: bool
    coloring: Optional[Coloring]
    max_class_degree: Optional[dict[int, int]]


def _check_total(g: Graph, coloring: Coloring) -> None:
    if len(coloring.colors) != g.n:
        raise PartialColoringError(
            f"coloring covers {len(coloring.colors)} of {g.n} vertices"
        )
    for v, c in enumerate(coloring.colors):
        if not 1 <= c <= coloring.k:
            raise PartialColoringError(f"vertex {v} has color {c} outside [1,{coloring.k}]")


def class_degrees(g: Graph, coloring: Coloring) -> dict[int, int]:
    """Maximum induced degree per color class (0 for empty classes)."""
    _check_total(g, coloring)
    out = {c: 0 for c in range(1, coloring.k + 1)}
    for v in range(g.n):
        c = coloring.colors[v]
        deg = sum(1 for u in g.adj[v] if coloring.colors[u] == c)
        out[c] = max(out[c], deg)
    return out


def verify_coloring(
    g: Graph, coloring: Coloring, d: int
) -> tuple[bool, Optional[int]]:
    """True iff every color class induces maximum degree <= d.

    On failure returns the least vertex with more than d same-colored
    neighbors.
    """
    _check_total(g, coloring)
    for v in range(g.n):
        c = coloring.colors[v]
        deg = sum(1 for u in g.adj[v] if coloring.colors[u] == c)
        if deg > d:
            return False, v
    return True, None


def decide_defective(
    g: Graph,
    k: int,
    d: int,
    max_vertices: int = DEFAULT_EXACT_LIMIT,
    node_budget: Optional[int] = None,
) -> DefectReport:
    """Complete search for a k-coloring of defect d.

    Vertices are tried by descending degree, colors ascending with symmetry
    breaking (a vertex may open at most one fresh color); a branch dies as
    soon as some class's internal degree exceeds d.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if g.n > max_vertices:
        raise SizeLimitError(
            f"decide_defective limited to {max_vertices} vertices (got {g.n}); "
            "raise max_vertices to extend"
        )
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
            if node_budget is not None and nodes > node_budget:
                raise BudgetExceededError(
                    f"coloring search exceeded {node_budget} nodes", size=nodes
                )
            cnt = 0
            ok = True
            for u in g.adj[v]:
                if color[u] == c:
                    if same[u] + 1 > d:
                        ok = False
                        break
                    cnt += 1
            if not ok or cnt > d:
                continue
            color[v] = c
            for u in g.adj[v]:
                if color[u] == c:
                    same[u] += 1
            same[v] = cnt
            if assign(i + 1, max(used, c)):
                return True
            color[v] = 0
            same[v] = 0
            for u in g.adj[v]:
                if color[u] == c:
                    same[u] -= 1
        return False

    if assign(0, 0):
        found = Coloring(k, tuple(color))
        ok, _ = verify_coloring(g, found, d)
        if not ok:
            raise AssertionError("internal: search produced an invalid coloring")
        return DefectReport(True, found, class_degrees(g, found))
    return DefectReport(False, None, None)


def min_defect(
    g: Graph,
    k: int,
    max_vertices: int = DEFAULT_EXACT_LIMIT,
    node_budget: Optional[int] = None,
) -> int:
    """Least d such that g has a k-coloring with defect d (binary search)."""
    if g.n == 0:
        return 0
    lo, hi = 0, max(g.degree(v) for v in range(g.n))
    # defect Delta(g) is always feasible: a single class realizes it
    while lo < hi:
        mid = (lo + hi) // 2
        report = decide_defective(g, k, mid, max_vertices, node_budget)
        if report.feasible:
            hi = mid
        else:
            lo = mid + 1
    return lo


def level_coloring(tree: RootedTree) -> Coloring:
    """Color the closure of ``tree`` by depth: root color 1, children 2, ...

    Uses height(tree) colors and has defect 0, because same-depth vertices
    are never ancestor-related.
    """
    depths = tree.depths()
    return Coloring(tree.height, tuple(d + 1 for d in depths))
