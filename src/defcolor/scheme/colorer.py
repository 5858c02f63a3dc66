"""Backward greedy coloring driven by a scheme.

The frozen tail is monochromatic; walking the scheme backward, every
original vertex dropped between consecutive entries takes the least color
not used by its already-colored high-degree boundary neighbors.  On a
certifier-clean scheme this uses at most h - 1 colors and realizes defect
at most 2 * N + d, both of which are re-verified before returning.  Each
entry must first pass the certifier's shape rule (model keys and ids, arcs,
hyperedges and witness keys in range); the first flaw raises
``HypothesisViolationError``.
"""

from __future__ import annotations

from ..check import Coloring, verify_coloring
from ..errors import DefcolorError, EmptyPaletteError, HypothesisViolationError
from ..graphs import Graph
from .certify import _shape
from .entry import SchemeEntry
from .params import SchemeParams


def color_from_scheme(
    scheme: list[SchemeEntry], params: SchemeParams, original: Graph
) -> Coloring:
    if not scheme:
        raise HypothesisViolationError("empty scheme")
    final = scheme[-1]
    if final.graph.n > params.n_freeze:
        raise HypothesisViolationError(
            f"final entry has {final.graph.n} > N = {params.n_freeze} vertices"
        )
    for i, entry in enumerate(scheme):
        flaw = _shape(entry, params, original)
        if flaw is not None:
            cond, witness = flaw
            raise HypothesisViolationError(f"entry {i} fails {cond}: {witness}")
    colors: dict[int, int] = {o: 1 for o in final.by_orig}
    for prev, nxt in reversed(list(zip(scheme, scheme[1:]))):
        fresh = [o for o in sorted(prev.by_orig) if o not in colors]
        if not fresh:
            continue
        meta = nxt.step_meta
        if meta is None:
            raise HypothesisViolationError(
                "entry drops vertices but carries no step data"
            )
        for o in fresh:
            used = {
                colors[u]
                for u in original.adj[o] & meta.u_set
                if u in colors
            }
            # the least free color is at most |used| + 1, whatever h is
            least = next(c for c in range(1, len(used) + 2) if c not in used)
            if least >= params.h:
                raise EmptyPaletteError(
                    f"no color left for vertex {o}: boundary uses {sorted(used)}; "
                    "the scheme cannot be certifier-clean"
                )
            colors[o] = least
    if len(colors) != original.n:
        raise HypothesisViolationError(
            f"scheme colors {len(colors)} of {original.n} vertices; "
            "the first entry must be the original graph"
        )
    out = Coloring(params.h - 1, tuple(colors[v] for v in range(original.n)))
    ok, witness = verify_coloring(original, out, params.defect_bound)
    if not ok:
        raise DefcolorError(
            f"coloring exceeds the guaranteed defect {params.defect_bound} "
            f"at vertex {witness}; the scheme cannot be certifier-clean"
        )
    return out
