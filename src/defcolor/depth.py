"""Exact tree-depth and connected tree-depth with verifying witnesses,
plus the parameter translations used for excluded-minor coloring bounds.

Connected tree-depth ctd(G) is the least height of a single rooted tree
whose closure contains G as a subgraph; tree-depth is the maximum of ctd
over components.  For a possibly-disconnected graph the single-tree value
follows the packing rule: the maximum component ctd, plus one unless the
maximum is attained by exactly one component.

The solver is a branch and bound over the recurrence, for connected S,

    ctd(S) = 1 + min over v in S of max over components C of S - v of ctd(C).

Vertex sets are int bitmasks and components come from bit-BFS over one
neighbor mask per vertex.  Calls are bounded: ``ctd(S, ub)`` and
``forest(S, ub)`` (the largest component ctd) return the exact value when
it is below ``ub`` and otherwise a proven lower bound of at least ``ub``.
Only connected masks reach ``ctd``, and their forest value is their ctd,
so one pair of tables keyed on the mask holds the exact values and the
proven lower bounds of both calls.  Each connected set starts from the
lower bound degeneracy + 1 (td >= tw + 1 >= degeneracy + 1, which also
covers the clique bound).  Degeneracy is peeled on the masks, starting
from ceil(m / n), a lower bound on it: a vertex of degree at most the
largest recorded so far goes at once, since it cannot raise it, and a pass
that finds none records and peels a minimum degree.
A root v is dropped as soon as one component of S - v, visited largest
first, reaches the best value found so far.

Roots are tried by degree in S, largest first, then least id, and a
dominated root is not tried at all.  For connected S, u dominates v when
u != v and N_S(v) lies within N_S[u]; then td(S - u) <= td(S - v).  Take
an elimination forest of g[S - v] and rename u to v: every neighbour of v
other than u is a neighbour of u, so the result is an elimination forest
of g[S - u] of the same height.  A root is skipped when a root before it
in the order dominates it.  A dominator never has a smaller degree, so
the tie rule is: the larger degree wins, then the smaller id.  Dominance
is transitive and (degree, -id) strictly rises along a chain of skips, so
every skipped root has a kept dominator.  Hence the least value over the
kept roots is ctd(S), the ``best <= lb`` break stays sound, and when every
kept root reaches ``ub`` the least of their bounds (``floor``) is still a
proven lower bound on ctd(S).  A checker of such a bound needs no search
for a skipped root v: given the kept dominator u, it recomputes that
N(v) lies within N[u] in g[S].  The witness takes the least root, in
ascending id, whose forest value is ctd(S) - 1.  It skips a root v that a
failed root u before it dominates: td(S - v) >= td(S - u) >= ctd(S), so v
fails too, and the chosen root is the same as when every root is tried.

Every set whose roots are tried counts as expanded; ``node_budget`` caps
that count and the search raises ``BudgetExceededError`` past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import BudgetExceededError, SizeLimitError
from .graphs import Graph, RootedTree, _bits, _mask

DEFAULT_EXACT_LIMIT = 20


@dataclass(frozen=True)
class DepthReport:
    """Exact depth values plus a verifying witness tree.

    ``witness`` is a rooted tree on exactly the input's vertices (identity
    embedding) whose closure contains the input as a subgraph and whose
    height equals ``ctd``.  ``ctd - 1 <= td <= ctd`` always holds.
    ``expanded`` is the number of vertex sets the search expanded.
    """

    td: int
    ctd: int
    witness: RootedTree
    embedding: tuple[int, ...]
    expanded: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ClusteredBounds:
    """Coloring-number bounds for the class excluding the given pattern.

    ``conditional_planar`` applies only when the excluded pattern is planar;
    planarity is not decided here, the field is informational.
    """

    lower: int
    general: int
    conditional_planar: int

    @classmethod
    def from_ctd(cls, ctd: int) -> "ClusteredBounds":
        return cls(lower=ctd - 1, general=3 * ctd - 3, conditional_planar=2 * ctd - 2)


def _dominators(nbr: list[int], s: int, v: int, among: int) -> int:
    """The vertices u of the mask ``among`` with N_S(v) within N_S[u], as a
    mask: each neighbour x of v in S is u or a neighbour of u."""
    rest = nbr[v] & s
    while among and rest:
        low = rest & -rest
        among &= nbr[low.bit_length() - 1] | low
        rest ^= low
    return among


class _DepthSolver:
    def __init__(self, g: Graph, node_budget: Optional[int] = None):
        self.g = g
        self.nbr = [_mask(g.adj[v]) for v in range(g.n)]
        self.exact: dict[int, int] = {}
        self.lower: dict[int, int] = {}
        self.node_budget = node_budget
        self.expanded = 0

    # -- sets ----------------------------------------------------------------

    def components(self, s: int) -> list[int]:
        """Components of g[s], ordered by least vertex."""
        nbr = self.nbr
        out = []
        while s:
            comp = frontier = s & -s
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= nbr[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & s & ~comp
                comp |= frontier
            out.append(comp)
            s &= ~comp
        return out

    def degeneracy_bound(self, s: int) -> int:
        """degeneracy(g[s]) + 1, a lower bound on td(g[s])."""
        nbr = self.nbr
        # peeling removes at most degeneracy edges per vertex, so the
        # degeneracy is at least ceil(m / n); start the maximum there
        rest, twice_m = s, 0
        while rest:
            low = rest & -rest
            rest ^= low
            twice_m += (nbr[low.bit_length() - 1] & s).bit_count()
        best = -(-twice_m // (2 * s.bit_count())) if s else 0
        # the last best + 1 vertices cannot raise the maximum min-degree
        while s.bit_count() > best + 1:
            rest, pick, low_deg, peeled = s, 0, s.bit_count(), False
            while rest:
                low = rest & -rest
                rest ^= low
                d = (nbr[low.bit_length() - 1] & s).bit_count()
                if d <= best:
                    s ^= low  # it cannot raise the maximum
                    peeled = True
                elif d < low_deg:
                    pick, low_deg = low, d
            if not peeled:
                # no degree changed during the pass: low_deg is the minimum
                best = low_deg
                s ^= pick
        return best + 1

    # -- bounded values --------------------------------------------------------

    def ctd(self, s: int, ub: int) -> int:
        """ctd of connected g[s]: exact if below ``ub``, else a lower bound >= ub."""
        got = self.exact.get(s)
        if got is not None:
            return got
        size = s.bit_count()
        if size <= 2:
            return size
        lb = self.lower.get(s)
        if lb is None:
            lb = self.degeneracy_bound(s)
            if lb >= size:
                # a clique: the chain of its vertices is optimal
                self.exact[s] = size
                return size
            self.lower[s] = lb
        if lb >= ub:
            return lb
        self.expanded += 1
        if self.node_budget is not None and self.expanded > self.node_budget:
            raise BudgetExceededError(
                f"depth search exceeded {self.node_budget} expanded sets",
                size=self.expanded,
            )
        best = ub
        floor = size + 1
        for v in self.roots(s):
            val = 1 + self.forest(s & ~(1 << v), best - 1)
            if val < best:
                best = val
            if val < floor:
                floor = val
            if best <= lb:
                break
        if best < ub:
            self.exact[s] = best
            return best
        # every kept root reached ub: the least of their bounds is proven
        self.lower[s] = floor
        return floor

    def roots(self, s: int) -> Iterator[int]:
        """The roots of connected g[s] that no earlier root dominates, in
        the search order: degree in s descending, then least id."""
        nbr = self.nbr
        ahead = 0  # the roots before v in the order, kept or not
        # a stable sort, so equal degrees keep the ascending ids of _bits
        for v in sorted(_bits(s), key=lambda u: (nbr[u] & s).bit_count(), reverse=True):
            if not _dominators(nbr, s, v, ahead):
                yield v
            ahead |= 1 << v

    def forest(self, s: int, ub: int) -> int:
        """Max component ctd of g[s]: exact if below ``ub``, else a lower bound >= ub."""
        got = self.exact.get(s)
        if got is not None:
            return got
        lb = self.lower.get(s)
        if lb is not None and lb >= ub:
            return lb
        worst = 0
        for c in sorted(self.components(s), key=int.bit_count, reverse=True):
            if c.bit_count() <= worst:
                break  # this and every later component has ctd <= its size
            val = self.ctd(c, ub)
            if val >= ub:
                self.lower[s] = val
                return val
            if val > worst:
                worst = val
        self.exact[s] = worst
        return worst

    # -- witness extraction ----------------------------------------------------

    def exact_ctd(self, s: int) -> int:
        return self.ctd(s, s.bit_count() + 1)

    def packed_tree(self, s: int, parent: list) -> int:
        """Fill parent links for a packed single tree on s; returns its root.

        Components besides the deepest hang off the top tree's root, which
        realizes exactly the packed value.
        """
        comps = self.components(s)
        comps.sort(key=lambda c: (-self.exact_ctd(c), c & -c))
        top = self.connected_tree(comps[0], parent)
        for comp in comps[1:]:
            parent[self.connected_tree(comp, parent)] = top
        return top

    def connected_tree(self, s: int, parent: list) -> int:
        # the least root whose forest value is ctd - 1, as a bounded call; a
        # root that a failed root dominates fails too, and is not tried
        value = self.exact_ctd(s)
        failed = 0
        for v in _bits(s):
            rest = s & ~(1 << v)
            if not rest:
                return v
            if _dominators(self.nbr, s, v, failed):
                continue
            if self.forest(rest, value) < value:
                for comp in self.components(rest):
                    parent[self.connected_tree(comp, parent)] = v
                return v
            failed |= 1 << v
        raise AssertionError("internal: no root attains the memoized value")


def connected_tree_depth(
    g: Graph, limit: int = DEFAULT_EXACT_LIMIT, node_budget: Optional[int] = None
) -> DepthReport:
    """Exact ctd, td, and a verifying height-ctd witness tree.

    ``ctd`` is the single-tree value of the whole input (packing rule when
    disconnected); ``td`` is the maximum over components.  Raises
    ``BudgetExceededError`` once more than ``node_budget`` vertex sets are
    expanded (no limit when None).
    """
    if g.n > limit:
        raise SizeLimitError(f"exact mode limited to {limit} vertices (got {g.n})")
    if g.n == 0:
        return DepthReport(0, 0, RootedTree((), None, 0), ())
    solver = _DepthSolver(g, node_budget)
    full = (1 << g.n) - 1
    vals = sorted((solver.exact_ctd(c) for c in solver.components(full)), reverse=True)
    td = vals[0]
    # at most one maximum-ctd component embeds through the tree's root; any
    # second one pays one extra level
    ctd = td + 1 if len(vals) >= 2 and vals[1] == td else td
    parent: list[Optional[int]] = [None] * g.n
    solver.packed_tree(full, parent)
    witness = RootedTree.from_parents(parent)
    if witness.height != ctd:
        raise AssertionError("internal: witness height disagrees with ctd")
    return DepthReport(td, ctd, witness, tuple(range(g.n)), solver.expanded)
