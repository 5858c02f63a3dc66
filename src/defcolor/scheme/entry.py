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
    return tuple(s for g in groups for s in g.sets())


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

    Almost every model is one original vertex, so the models are one list
    and a small dict: ``orig[v]`` is the id of v's model when it is a
    singleton, else None, and ``other`` maps the other vertices, in order,
    to their models (two or more ids, or none in a malformed document).
    Model keys other than 0..n-1 leave ``orig`` empty and every model in
    ``other``, which the shape pass reports.  An entry checks nothing about
    itself: the certifier's shape pass decides once per entry whether its
    keys, ids, arcs, hyperedges and witness keys are in range.

    The lookups below are computed once per entry, on first use, and shared
    by the certifier, the steps and the colorer; they are read-only.  They
    are well defined on any parseable entry, valid or not, so the shape
    pass can read them before it has checked the entry.  Where two vertices
    compete for one key (a shared id or model), the later vertex wins.

    ``by_orig``
        original id -> the singleton vertex holding it.
    ``orig_at``
        the inverse of ``by_orig``: ``orig``, but with None at the other
        holders of a shared id.
    ``holder``
        original id -> a vertex whose model contains it.
    ``by_other``
        model -> vertex with that model, for the models in ``other``.
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
    orig: list[Optional[int]]
    other: dict[int, frozenset[int]]
    arcs: frozenset[tuple[int, int]]
    hyperedges: tuple[Hyperedge, ...]
    witnesses: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)
    witness_links: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)
    step_meta: Optional[StepMeta] = None

    def model_of(self, v: int) -> frozenset[int]:
        o = self.orig[v]
        return self.other[v] if o is None else frozenset((o,))

    def ids_of(self, vertices) -> frozenset[int]:
        """The union of the models of ``vertices``."""
        return frozenset().union(*map(self.model_of, vertices))

    @cached_property
    def by_orig(self) -> dict[int, int]:
        by_orig = dict(zip(self.orig, range(len(self.orig))))
        by_orig.pop(None, None)
        return by_orig

    @cached_property
    def orig_at(self) -> list[Optional[int]]:
        orig, by_orig = self.orig, self.by_orig
        if len(by_orig) == len(orig) - len(self.other):
            return orig
        return [o if o is None or by_orig[o] == v else None for v, o in enumerate(orig)]

    @cached_property
    def holder(self) -> dict[int, int]:
        if not self.other:
            return self.by_orig
        holder = dict(self.by_orig)
        for v, m in self.other.items():
            for o in m:
                if holder.get(o, -1) < v:
                    holder[o] = v
        return holder

    @cached_property
    def by_other(self) -> dict[frozenset[int], int]:
        return {m: v for v, m in self.other.items()}

    @cached_property
    def heads(self) -> frozenset[int]:
        return frozenset(v for _, v in self.arcs)

    @cached_property
    def sinks(self) -> frozenset[int]:
        return frozenset(e.sink for e in self.hyperedges)

    @cached_property
    def special(self) -> frozenset[int]:
        multi = frozenset(v for v, m in self.other.items() if len(m) >= 2)
        return multi | self.heads | self.sinks

    @cached_property
    def cover(self) -> frozenset[int]:
        return frozenset(self.holder)

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


def split_models(keys: list[int], models: list) -> tuple[list, dict]:
    """``orig`` and ``other`` of the entry whose vertex ``keys[i]`` has the
    ids ``models[i]``; the keys are distinct and nonnegative."""
    if keys and max(keys) >= len(keys):  # the keys are not 0..n-1
        return [], dict(zip(keys, map(frozenset, models)))
    orig: list[Optional[int]] = [None] * len(keys)
    other = {}
    for v, ids in zip(keys, models):
        # a set only where the list is not one id: [3, 3] is a singleton
        if len(ids) == 1 or len(ids := frozenset(ids)) == 1:
            (orig[v],) = ids
        else:
            other[v] = ids
    return orig, dict(sorted(other.items()))


def initial_entry(g: Graph) -> SchemeEntry:
    """The canonical first entry: singleton models, no arcs or hyperedges."""
    return SchemeEntry(
        graph=g,
        orig=list(range(g.n)),
        other={},
        arcs=frozenset(),
        hyperedges=(),
    )


def sort_hyperedges(
    edges: dict[Hyperedge, tuple],
) -> tuple[tuple[Hyperedge, ...], dict[int, tuple], dict[int, tuple]]:
    """Canonically order hyperedges and re-key their witness data by index.

    ``edges`` maps each hyperedge to a (flat_witnesses, links) pair.
    """
    ordered = sorted(edges, key=Hyperedge.sort_key)
    witnesses = {i: tuple(edges[e][0]) for i, e in enumerate(ordered)}
    links = {i: tuple(edges[e][1]) for i, e in enumerate(ordered)}
    return tuple(ordered), witnesses, links
