"""Driving loop: shrink a graph entry by entry until it freezes.

Each round finds a homogeneous triple and hands it to ``step``, which
picks the deletion or the contraction branch.  The builder only produces:
it checks no pair it makes.  ``certify_scheme`` is the check, run by the
consumer on the returned scheme (``defcolor scheme build`` runs it before
printing).
"""

from __future__ import annotations

from ..errors import SearchFailureError
from ..graphs import Graph
from .entry import SchemeEntry, initial_entry
from .homogeneous import find_homogeneous
from .params import SchemeParams
from .steps import step


def build_scheme(g: Graph, params: SchemeParams) -> list[SchemeEntry]:
    """Build a scheme for g, ending in a frozen entry; unchecked until
    ``certify_scheme`` reads it."""
    entries = [initial_entry(g)]
    while entries[-1].graph.n > params.n_freeze:
        cur = entries[-1]
        triple = find_homogeneous(
            cur.graph, params.t, params.l0, params.d, params.r
        )
        if triple is None:
            raise SearchFailureError(
                f"no homogeneous structure at {cur.graph.n} vertices "
                f"(t={params.t}, l0={params.l0}, d={params.d}, r={params.r})",
                entries_built=len(entries),
            )
        nxt = step(cur, triple, params)
        if nxt.graph.n >= cur.graph.n:
            raise SearchFailureError(
                "step did not shrink the graph", entries_built=len(entries)
            )
        entries.append(nxt)
    return entries
