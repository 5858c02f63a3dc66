"""Driving loop: shrink a graph entry by entry until it freezes.

Each round finds a homogeneous triple, hands it to ``step`` (which picks
the deletion or the contraction branch) and certifies the produced pair
at once; a dirty pair aborts the build with its report, so a returned
scheme is certifier-clean by construction.
"""

from __future__ import annotations

from ..errors import CertificationError, SearchFailureError
from ..graphs import Graph
from .certify import certify_entry
from .entry import SchemeEntry, initial_entry
from .homogeneous import find_homogeneous
from .params import SchemeParams
from .steps import step


def build_scheme(g: Graph, params: SchemeParams) -> list[SchemeEntry]:
    """Build a certifier-clean scheme for g, ending in a frozen entry."""
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
        report = certify_entry(cur, nxt, params, g)
        if not report.clean():
            raise CertificationError(report)
        if nxt.graph.n >= cur.graph.n:
            raise SearchFailureError(
                "step did not shrink the graph", entries_built=len(entries)
            )
        entries.append(nxt)
    return entries
