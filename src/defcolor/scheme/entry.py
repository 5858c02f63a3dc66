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
from functools import cached_property
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
    """One entry of a scheme, with its derived lookups.

    An entry checks nothing about itself: the certifier's shape pass
    decides once per entry whether its keys, ids, arcs, hyperedges and
    witness keys are in range (see ``certify``).

    The lookups below are computed once per entry, on first use, and shared
    by the certifier, the steps and the colorer; they are read-only.  They
    are well defined on any parseable entry, valid or not, so the shape
    pass can read them before it has checked the entry.  Where two vertices
    compete for one key (a shared id or model), the later in model order
    wins.

    ``singles``
        entry vertex -> original id, for every singleton model (a shared
        id keeps every holder).
    ``by_orig``
        original id -> entry vertex, the inverse of ``singles``.
    ``orig_at``
        entry vertex -> original id, the inverse of ``by_orig``.
    ``holder``
        original id -> a vertex whose model contains it.
    ``by_model``
        model -> vertex with that model.
    ``heads``, ``sinks``
        arc heads and hyperedge sinks.
    ``special``
        multi-vertex models, arc heads and hyperedge sinks.
    ``cover``
        the union of the models.
    ``shape_flaws``
        the certifier's shape verdicts on the entry, keyed by h and the
        order of the original graph, the only other values they read.
    """

    graph: Graph
    model: dict[int, frozenset[int]]
    arcs: frozenset[tuple[int, int]]
    hyperedges: tuple[Hyperedge, ...]
    witnesses: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)
    witness_links: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)
    step_meta: Optional[StepMeta] = None

    @cached_property
    def singles(self) -> dict[int, int]:
        return {v: next(iter(m)) for v, m in self.model.items() if len(m) == 1}

    @cached_property
    def by_orig(self) -> dict[int, int]:
        return {o: v for v, o in self.singles.items()}

    @cached_property
    def orig_at(self) -> dict[int, int]:
        return {v: o for o, v in self.by_orig.items()}

    @cached_property
    def holder(self) -> dict[int, int]:
        return {o: v for v, m in self.model.items() for o in m}

    @cached_property
    def by_model(self) -> dict[frozenset[int], int]:
        return {m: v for v, m in self.model.items()}

    @cached_property
    def heads(self) -> frozenset[int]:
        return frozenset(v for _, v in self.arcs)

    @cached_property
    def sinks(self) -> frozenset[int]:
        return frozenset(e.sink for e in self.hyperedges)

    @cached_property
    def special(self) -> frozenset[int]:
        multi = frozenset(v for v, m in self.model.items() if len(m) >= 2)
        return multi | self.heads | self.sinks

    @cached_property
    def cover(self) -> frozenset[int]:
        return frozenset().union(*self.model.values())

    @cached_property
    def shape_flaws(self) -> dict:
        return {}

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
