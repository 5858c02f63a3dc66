"""Elimination-scheme state: entries, hyperedges, and witness families.

An entry is one tuple (G_i, M_i, E_i, D_i, A_i, A'_i): the working graph,
the model mapping its vertices to disjoint connected sets of the original
graph, labeled hyperedges with arcs, and per-hyperedge witness families
living in the original graph.

Witness families are stored flat (tuples of original-vertex sets) in a
canonical grouped pre-order so their branch structure is recoverable:
``witnesses[i]`` concatenates ``k + h - j`` groups, each the pre-order of
a height-``j`` branch tree whose contraction yields one ct(j, k) minor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..graphs import Graph, ct_order
from .params import SchemeParams


@dataclass(frozen=True)
class Hyperedge:
    """Labeled constraint (S, j) with its distinguished sink vertex."""

    members: frozenset[int]
    label: int
    sink: int

    def sort_key(self):
        return (tuple(sorted(self.members)), self.label, self.sink)


@dataclass(frozen=True)
class WitnessNode:
    """Branch tree of one ct-minor witness: a root set over child subtrees.

    Contracting every set of the tree yields a ct(height, k) minor whose
    root branch is ``root``; the root set must be adjacent in the original
    graph to every set of every descendant.
    """

    root: frozenset[int]
    children: tuple["WitnessNode", ...] = ()

    def sets(self) -> Iterator[frozenset[int]]:
        yield self.root
        for child in self.children:
            yield from child.sets()


def flatten_groups(groups: tuple[WitnessNode, ...]) -> tuple[frozenset[int], ...]:
    out: list[frozenset[int]] = []
    for g in groups:
        out.extend(g.sets())
    return tuple(out)


def parse_groups(
    flat: tuple[frozenset[int], ...], label: int, k: int, expected_groups: int
) -> Optional[tuple[WitnessNode, ...]]:
    """Rebuild witness trees from the canonical flat order, or None."""
    if label < 1:
        return None
    size = ct_order(label, k)  # the flat length of one witness group
    if size * expected_groups != len(flat):
        return None

    def build(sets: list[frozenset[int]], height: int) -> tuple[WitnessNode, int]:
        root = sets[0]
        consumed = 1
        children = []
        if height > 1:
            for _ in range(k):
                child, used = build(sets[consumed:], height - 1)
                children.append(child)
                consumed += used
        return WitnessNode(root, tuple(children)), consumed

    groups = []
    pos = 0
    for _ in range(expected_groups):
        node, used = build(list(flat[pos : pos + size]), label)
        if used != size:
            return None
        groups.append(node)
        pos += size
    return tuple(groups)


@dataclass(frozen=True)
class StepMeta:
    """The (q, U, U+) triple produced by the step that created an entry.

    ``q`` is a vertex of the entry's graph; ``u_set`` and ``u_plus`` are
    original-graph vertex ids.
    """

    q: int
    u_set: frozenset[int]
    u_plus: frozenset[int]


@dataclass(frozen=True)
class SchemeEntry:
    graph: Graph
    model: dict[int, frozenset[int]]
    arcs: frozenset[tuple[int, int]]
    hyperedges: tuple[Hyperedge, ...]
    witnesses: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)
    witness_links: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)
    step_meta: Optional[StepMeta] = None

    # -- identity between entry vertices and original vertices -------------

    def orig_of(self, v: int) -> Optional[int]:
        """The original vertex an entry vertex stands for, if a singleton."""
        m = self.model[v]
        if len(m) == 1:
            return next(iter(m))
        return None

    def originals(self) -> dict[int, int]:
        """original id -> entry vertex, over singleton models."""
        out = {}
        for v, m in self.model.items():
            if len(m) == 1:
                out[next(iter(m))] = v
        return out

    def covered(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.model.values():
            out |= m
        return frozenset(out)

    def heads(self) -> frozenset[int]:
        return frozenset(v for _, v in self.arcs)

    def sinks(self) -> frozenset[int]:
        return frozenset(e.sink for e in self.hyperedges)

    def is_special(self, v: int) -> bool:
        """Multi-vertex model, arc head, or hyperedge sink."""
        return len(self.model[v]) >= 2 or v in self.heads() or v in self.sinks()

    def link_for(
        self, edge_index: int, member_orig: int
    ) -> Optional[frozenset[int]]:
        """The witness-link set containing a given hyperedge member's original."""
        for link in self.witness_links.get(edge_index, ()):
            if member_orig in link:
                return link
        return None

    def groups_for(
        self, edge_index: int, params: SchemeParams
    ) -> Optional[tuple[WitnessNode, ...]]:
        edge = self.hyperedges[edge_index]
        expected = params.k + params.h - edge.label
        return parse_groups(
            self.witnesses.get(edge_index, ()), edge.label, params.k, expected
        )


def initial_entry(g: Graph) -> SchemeEntry:
    """The canonical first entry: singleton models, no arcs or hyperedges."""
    return SchemeEntry(
        graph=g,
        model={v: frozenset([v]) for v in range(g.n)},
        arcs=frozenset(),
        hyperedges=(),
        witnesses={},
        witness_links={},
        step_meta=None,
    )


def sort_hyperedges(
    edges: dict[Hyperedge, tuple],
) -> tuple[tuple[Hyperedge, ...], dict[int, tuple], dict[int, tuple]]:
    """Canonically order hyperedges and re-key their witness data by index.

    ``edges`` maps each hyperedge to a (flat_witnesses, links) pair.
    """
    ordered = sorted(edges, key=Hyperedge.sort_key)
    witnesses = {}
    links = {}
    for i, e in enumerate(ordered):
        w, l = edges[e]
        witnesses[i] = tuple(w)
        links[i] = tuple(l)
    return tuple(ordered), witnesses, links
