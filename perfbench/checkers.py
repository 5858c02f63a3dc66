"""Certificate checks written inside the benchmark.

They read only the plain data of a graph (``n`` and ``adj``) and of an
answer, never a ``defcolor.verify_*`` routine, so a defect in the code under
test cannot also hide itself from the check.
"""

from __future__ import annotations

import hashlib


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:20]


def coloring_ok(g, colors, k: int, d: int) -> bool:
    """Every vertex has a color in [1, k] and at most d same-colored neighbors."""
    if len(colors) != g.n or any(not 1 <= c <= k for c in colors):
        return False
    return all(
        sum(1 for u in g.adj[v] if colors[u] == colors[v]) <= d for v in range(g.n)
    )


def model_ok(host, pattern, branch_sets: dict[int, frozenset[int]]) -> bool:
    """Disjoint, nonempty, connected branch sets covering every pattern edge."""
    if set(branch_sets) != set(range(pattern.n)):
        return False
    owner: dict[int, int] = {}
    for pv, s in branch_sets.items():
        if not s:
            return False
        for v in s:
            if not 0 <= v < host.n or v in owner:
                return False
            owner[v] = pv
    for s in branch_sets.values():
        start = next(iter(s))
        seen = {start}
        todo = [start]
        while todo:
            v = todo.pop()
            for u in host.adj[v]:
                if u in s and u not in seen:
                    seen.add(u)
                    todo.append(u)
        if len(seen) != len(s):
            return False
    for pu in range(pattern.n):
        for pv in pattern.adj[pu]:
            if not any(owner.get(u) == pv for v in branch_sets[pu] for u in host.adj[v]):
                return False
    return True


def depth_witness_ok(g, parent: list, height: int) -> bool:
    """One rooted tree on g's vertices, of the given height, in whose closure
    every edge of g joins an ancestor-descendant pair."""
    if len(parent) != g.n:
        return False
    if g.n == 0:
        return height == 0
    if sum(1 for p in parent if p is None) != 1:
        return False
    ancestors: list[set[int]] = []
    for v in range(g.n):
        chain: set[int] = set()
        u = parent[v]
        while u is not None:
            if u in chain or not 0 <= u < g.n or len(chain) > g.n:
                return False
            chain.add(u)
            u = parent[u]
        ancestors.append(chain)
    if max(len(a) for a in ancestors) + 1 != height:
        return False
    return all(
        u in ancestors[v] or v in ancestors[u] for v in range(g.n) for u in g.adj[v]
    )
