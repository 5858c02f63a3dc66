"""Exact decision procedures for defect-bounded colorings.

A k-coloring has defect d when every color class induces a subgraph of
maximum degree at most d.  ``decide_defective`` and ``min_defect`` take one
of two complete routes:

- **Forest DP**, when g is the closure of a rooted forest (every ancestor
  pair adjacent, nothing else; ``graphs.closure_forest`` recognizes it in
  O(n + m)).  The dynamic program of ``_forest_dp`` runs over that forest;
  a budget node is one memo entry, a (subtree shape, root-path key) pair,
  where the key is the multiplicities of the root path's colors.  ct(h, k)
  is such a closure.  The forest is found and shaped once per call of
  either function.
- **Backtracking** for every other graph: vertices by descending degree,
  colors ascending with symmetry breaking; a budget node is one color tried
  at one vertex.  It runs on adjacency bitmask rows, built once per call of
  either function, and two masks per color: its members, and the vertices
  it blocks, the neighbors of members that already have d same-colored
  neighbors.  A vertex is refused a color that blocks it or of which it has
  more than d neighbors.  Once all k colors may be used, a color is also
  refused when taking it leaves a later vertex blocked in every color
  (forward checking, Haralick and Elliott 1980).  No block is lifted below
  a node, so that vertex could never be colored: the cut drops only
  subtrees without a coloring.  The first coloring, or the infeasibility,
  is that of the search without the cut, and the nodes visited a subset of
  its nodes (a cut color still counts as one), so a budget that sufficed
  without the cut still does.  A cut needs no search to recheck: the later
  vertex and, per color, one neighbor of that color with d same-colored
  neighbors.  The coloring found and the node count are those of the
  search over neighbor sets in ``tests/helpers.py``.  The search is one
  loop over an explicit stack: per depth, the highest color the vertex may
  try, its color, and that color's masks from before it was taken.

Either route reports infeasible only after exhausting its search space; a
budget stop is a distinct error, never an answer.  Every feasible answer is
rechecked: ``check.class_degrees`` recounts its class degrees, which
must not exceed d.
``min_defect`` starts from a coloring, asks the route for one less than its
defect, and repeats from each coloring found until the route refutes: one
infeasible probe, at the least defect minus one.  On the backtracking route
the start is a local-search coloring of defect at most floor(Delta / k)
(Lovász 1966).  On closures, which have no rows, it colors the forest's
levels 1, 2, ..., with every level from the k-th down in color k: for
ct(h, k') with h - 1 colors that is defect k', the least, so the one probe
is the refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .check import Coloring, class_degrees
from .errors import BudgetExceededError, SizeLimitError
from .graphs import Graph, _mask, closure_forest

DEFAULT_EXACT_LIMIT = 16


@dataclass(frozen=True)
class DefectReport:
    feasible: bool
    coloring: Optional[Coloring]
    max_class_degree: Optional[dict[int, int]]


def _check_args(k: int, d: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")


def _check_size(g: Graph, max_vertices: int, caller: str) -> None:
    if g.n > max_vertices:
        raise SizeLimitError(
            f"{caller} limited to {max_vertices} vertices (got {g.n}); "
            "raise max_vertices to extend"
        )


def _feasible(g: Graph, k: int, colors: Sequence[int], d: int) -> DefectReport:
    found = Coloring(k, tuple(colors))
    degrees = class_degrees(g, found)
    if max(degrees.values(), default=0) > d:
        raise AssertionError("internal: search produced an invalid coloring")
    return DefectReport(True, found, degrees)


_INFEASIBLE = DefectReport(False, None, None)


def decide_defective(
    g: Graph,
    k: int,
    d: int,
    max_vertices: int = DEFAULT_EXACT_LIMIT,
    node_budget: Optional[int] = None,
) -> DefectReport:
    """Complete search for a k-coloring of defect d.

    Closures of rooted forests go to the forest DP; every other graph to
    backtracking (see the module docstring).
    """
    _check_args(k, d)
    _check_size(g, max_vertices, "decide_defective")
    return _decide(g, _route(g), k, d, node_budget)


class _Rows(NamedTuple):
    order: list[int]  # vertices by descending degree, then id
    nbr: list[int]  # adjacency mask per vertex


def _rows(g: Graph) -> _Rows:
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    return _Rows(order, [_mask(s) for s in g.adj])


def _route(g: Graph) -> "_Forest | _Rows":
    """The shaped forest whose closure is g, else g's rows (then backtrack)."""
    parent = closure_forest(g)
    return _rows(g) if parent is None else _forest_shapes(parent)


def _decide(
    g: Graph,
    route: "_Forest | _Rows",
    k: int,
    d: int,
    node_budget: Optional[int],
) -> DefectReport:
    """The forest DP when a forest is given; otherwise backtracking on the
    given rows.

    Backtracking tries vertices by descending degree, colors ascending with
    symmetry breaking (a vertex may open at most one fresh color).  Color c
    is refused at v when a neighbor of color c already has d same-colored
    neighbors, or v has more than d neighbors of color c.  Once all k colors
    may be used, c is also refused when taking it leaves a later vertex u
    next to such a saturated neighbor in every color.  Saturation is never
    undone below the node, so u can take no color there: the cut drops only
    subtrees without a coloring, so it keeps the first coloring and never
    adds a node, and no budget needs to grow.  Its certificate is u with
    one saturated neighbor per color, each recountable from the partial
    coloring.
    """
    if isinstance(route, _Forest):
        return _forest_dp(g, route, k, d, node_budget)
    order, nbr = route
    n = g.n
    rows = [nbr[v] for v in order]  # per depth i, of vertex order[i]
    bits = [1 << v for v in order]
    later = [0] * n  # per depth i, the vertices at the depths after i
    for i in range(n - 1, 0, -1):
        later[i - 1] = later[i] | bits[i]
    top = [1] * (n + 1)  # one above the highest color in use, at most k
    cur, saved = [0] * n, [(0, 0)] * n  # color, and its masks from before
    # a vertex opens at most one fresh color, so at most n are ever used
    slots = min(k, n) + 1
    cls = [0] * slots  # members per color
    blk = [0] * slots  # neighbors of members with d same-colored neighbors
    limit = float("inf") if node_budget is None else node_budget
    nodes = i = c = 0  # c: the last color tried at depth i
    while i < n:
        if c == top[i]:
            if not i:
                return _INFEASIBLE
            i -= 1
            c = cur[i]
            cls[c], blk[c] = saved[i]
            continue
        c += 1
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError(
                f"coloring search exceeded {node_budget} nodes", size=nodes
            )
        hit = rows[i] & cls[c]
        cnt = hit.bit_count()
        if cnt > d or blk[c] & bits[i]:
            continue
        saved[i] = was_cls, was_blk = cls[c], blk[c]
        cls[c] = members = was_cls | bits[i]
        # v and each neighbor in hit gain one; those reaching d block their
        # neighbors
        blocked = was_blk | rows[i] if cnt == d else was_blk
        while hit:
            low = hit & -hit
            hit ^= low
            row = nbr[low.bit_length() - 1]
            if (row & members).bit_count() == d:
                blocked |= row
        if blocked != was_blk:
            blk[c] = blocked
            if top[i] == k:
                # all k colors may be used: a later vertex blocked in every
                # one (a color nobody holds blocks nobody) stays so below
                rest = later[i]
                for m in blk[1:]:
                    rest &= m
                if rest:
                    cls[c], blk[c] = was_cls, was_blk
                    continue
        cur[i] = c
        top[i + 1] = top[i] + (c == top[i] < k)
        i += 1
        c = 0
    return _feasible(g, k, [c for _, c in sorted(zip(order, cur))], d)


# ---------------------------------------------------------------------------
# Dynamic program over the forest of a closure


class _Forest(NamedTuple):
    order: list[int]  # preorder
    children: list[list[int]]  # sorted by shape code
    code: list[int]  # shape code per vertex
    shapes: list[tuple[int, ...]]  # kid codes, ascending; below the shape's code
    roots: set[int]  # shape codes of the roots


def _forest_shapes(parent: Sequence[Optional[int]]) -> _Forest:
    """Group the subtrees of a ``closure_forest`` forest by shape.

    The shape code is an AHU-style code (sorted kid codes), exact up to
    isomorphism of rooted subtrees.  Depth is no part of it: every root-path
    key asked of a shape sums to the shape's depth, so shapes at different
    depths never share a memo entry.
    """
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for v, p in enumerate(parent):
        if p is None:
            roots.append(v)
        else:
            children[p].append(v)
    order: list[int] = []
    stack = roots[::-1]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    intern: dict[tuple, int] = {}
    shapes: list[tuple[int, ...]] = []
    code = [0] * n
    for v in reversed(order):
        kids = children[v]
        if len(kids) > 1:
            kids.sort(key=code.__getitem__)
        kid_codes = tuple([code[c] for c in kids])
        c = intern.get(kid_codes)
        if c is None:
            c = intern[kid_codes] = len(shapes)
            shapes.append(kid_codes)
        code[v] = c
    return _Forest(order, children, code, shapes, {code[v] for v in roots})


def _pareto(vectors, guard: int) -> list[int]:
    """Componentwise-minimal vectors among packed ones, ascending.

    Packed vectors hold one field per slot with its top bit (``guard``)
    clear, so ``a <= b`` in every field iff subtracting a from b with the
    guards set borrows from none of them.  A vector can be dominated only
    by a numerically smaller one.
    """
    kept: list[int] = []
    for s in sorted(vectors):
        sg = s | guard
        for a in kept:
            if (sg - a) & guard == guard:
                break
        else:
            kept.append(s)
    return kept


def _forest_dp(
    g: Graph, forest: _Forest, k: int, d: int, node_budget: Optional[int]
) -> DefectReport:
    """Exact k-coloring of defect d by dynamic programming over the forest
    whose closure is g.

    Every vertex sees all of its ancestors, so once the colors on a vertex
    v's root path are fixed, only how often each color occurs there
    matters, and the subtrees of v's children are independent.  A subtree's
    table holds its Pareto-minimal count vectors with one slot per color of
    the root path: how many vertices of that color the subtree holds, each
    slot capped so no ancestor exceeds d.  At v, for each color, the
    children's vectors are summed (Minkowski), v's own count is checked and
    its slot dropped; the union over colors is v's table.  Tables are
    memoized on (shape code, root-path key), where the key is the
    multiplicities of the path's colors in non-increasing order, and each
    memo entry is one node against ``node_budget``.  Long chains of twins
    (K_n is a path's closure) thus cost polynomially many keys instead of
    one per coloring of the chain.

    A feasible answer is rebuilt from the tables and its class degrees are
    recounted.
    """
    order, children, code, shapes, roots = forest
    # Count vectors are packed into ints, one field per slot.  A field holds
    # up to 2 * cap below its guard bit, so a sum of two vectors within
    # their caps never carries; adding (half - 1 - cap) to a field sets its
    # guard bit iff the field exceeds its cap.
    width = d.bit_length() + 1
    half = 1 << (width - 1)
    ones = [0]
    for i in range(min(k, g.n) + 1):
        ones.append(ones[-1] | 1 << (width * i))

    def choices_at(kid_codes: tuple[int, ...], key: tuple[int, ...]):
        """Slots are path colors; key[i] is how often color i occurs.

        The deepest ancestor of color i already has key[i] - 1 same-colored
        ancestors, so the subtree may hold at most d - key[i] + 1 vertices
        of color i.  If v takes color i, that cap is also v's own bound;
        only a color new to the path needs v's own slot.
        """
        slots = len(key)
        over = (half - 1 - d) << (width * slots)
        for i, m in enumerate(key):
            over += (half - 1 - (d - m + 1)) << (width * i)
        for j in range(min(slots + 1, k)):
            if j < slots:
                if key[j] > d:
                    continue
                mult = list(key)
                mult[j] += 1
                start = 1 << (width * j)
            else:
                mult = list(key) + [1]
                start = 0
            perm = sorted(range(len(mult)), key=lambda i: -mult[i])
            kkey = tuple(mult[i] for i in perm)
            kid = (kkey, None if perm == list(range(len(mult))) else tuple(perm))
            kids = tuple((c,) + kid for c in kid_codes)
            yield (j if j < slots else None), start, over, kids

    # Top-down: the root-path keys each shape is asked about, each with its
    # allowed colors as (label, start vector, cap addend, kids).  A label is
    # the slot whose color v takes, None for a color absent from the path;
    # kids are (code, key, perm): kid slot i feeds slot perm[i] (slot i when
    # perm is None), where slot len(key) is v's own.  Codes of kids are below
    # their parent's, so descending codes visit parents first.
    asked: list[dict[tuple[int, ...], list]] = [{} for _ in shapes]
    nodes = 0

    def ask(c: int, key: tuple[int, ...]) -> None:
        nonlocal nodes
        if key not in asked[c]:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise BudgetExceededError(
                    f"forest coloring DP exceeded {node_budget} memo entries",
                    size=nodes,
                )
            asked[c][key] = []

    for c in roots:
        ask(c, ())
    for c in range(len(shapes) - 1, -1, -1):
        for key, choices in asked[c].items():
            for choice in choices_at(shapes[c], key):
                for kid, kkey, _ in choice[3]:
                    ask(kid, kkey)
                choices.append(choice)

    # Bottom-up: each table maps a result vector to (label, kids, kid
    # vectors), enough to rebuild a coloring without search.
    tables: list[dict[tuple[int, ...], dict]] = [{} for _ in shapes]
    mask = (1 << width) - 1
    for c in range(len(shapes)):
        for key, choices in asked[c].items():
            slots = len(key)
            low = (1 << (width * slots)) - 1
            guard = half * ones[slots + 1]
            finals = {}  # result vector -> (choice, packed sum, fold stages)
            for choice in choices:
                _, start, over, kids = choice
                fold, stages = [start], []
                spread: dict[tuple, list] = {}
                for kid in kids:
                    pairs = spread.get(kid)
                    if pairs is None:
                        code_, kkey, perm = kid
                        result = tables[code_][kkey]
                        if perm is None:
                            pairs = [(r, r) for r in result]
                        else:
                            shifts = [width * p for p in perm]
                            pairs = [
                                (sum(((r >> (width * i)) & mask) << s for i, s in enumerate(shifts)), r)
                                for r in result
                            ]
                        spread[kid] = pairs
                    step = {}
                    for s in fold:
                        for ru, r in pairs:
                            t = s + ru
                            if (t + over) & guard or t in step:
                                continue
                            step[t] = (s, r)
                    fold = _pareto(step, guard)
                    if not fold:
                        break
                    stages.append(step)
                for s in fold:
                    finals.setdefault(s & low, (choice, s, stages))
            entry = {}
            for out in _pareto(finals, half * ones[slots]):
                (label, _, _, kids), s, stages = finals[out]
                vecs = []
                for step in reversed(stages):
                    s, r = step[s]
                    vecs.append(r)
                entry[out] = (label, kids, vecs[::-1])
            tables[c][key] = entry

    if any(not tables[c][()] for c in roots):
        return _INFEASIBLE
    # Rebuild top-down; ``slot_colors[v]`` holds the actual color of each
    # slot of v's key.
    colors = [0] * g.n
    key_at: list[tuple[int, ...]] = [()] * g.n
    slot_colors: list[list[int]] = [[]] * g.n
    target = [0] * g.n
    for v in order:
        mine = slot_colors[v]
        label, kids, vecs = tables[code[v]][key_at[v]][target[v]]
        if label is None:
            colors[v] = next(c for c in range(1, k + 1) if c not in mine)
        else:
            colors[v] = mine[label]
        on_slots = mine + [colors[v]]
        for child, (_, kkey, perm), vec in zip(children[v], kids, vecs):
            if perm is None:
                slot_colors[child] = on_slots[: len(kkey)]
            else:
                slot_colors[child] = [on_slots[p] for p in perm]
            key_at[child] = kkey
            target[child] = vec
    return _feasible(g, k, colors, d)


def _lovasz(nbr: Sequence[int], order: Sequence[int], k: int) -> list[int]:
    """Colors 1..min(k, n) where no class holds fewer neighbors of a vertex
    than its own, so the defect is at most floor(Delta / k) (Lovász 1966).

    Vertices in ``order`` take the class with the fewest colored neighbors;
    then sweeps by ascending id move a vertex to its least-loaded class when
    that is strictly less loaded than its own, until a sweep moves none.
    Ties go to the least color.  Each move drops the monochromatic edges.
    """
    members = [0] * min(k, len(nbr))  # class c + 1 as a vertex mask
    colors = [0] * len(nbr)
    for v in order:
        row = nbr[v]
        cnts = [(row & m).bit_count() for m in members]
        colors[v] = c = cnts.index(min(cnts))
        members[c] |= 1 << v
    moved = True
    while moved:
        moved = False
        for v, row in enumerate(nbr):
            cnts = [(row & m).bit_count() for m in members]
            least = min(cnts)
            own = colors[v]
            if least < cnts[own]:
                colors[v] = c = cnts.index(least)
                members[own] ^= 1 << v
                members[c] |= 1 << v
                moved = True
    return [c + 1 for c in colors]


def min_defect(
    g: Graph,
    k: int,
    max_vertices: int = DEFAULT_EXACT_LIMIT,
    node_budget: Optional[int] = None,
) -> int:
    """Least d such that g has a k-coloring with defect d.

    Descends from a start coloring: Lovász's local search on the
    backtracking route, and the forest's levels on closures, where the
    deepest levels share the last color and no rows are built.  ``hi``
    is the start's recounted defect, and while the exact route finds a
    coloring of defect hi - 1, ``hi`` becomes that coloring's recounted
    defect.  So ``hi`` is always the defect of a concrete coloring, and the
    loop ends on a refuted hi - 1 (or at 0): exactly one probe is
    infeasible.  ``node_budget`` bounds each probe.  The route is chosen,
    and the forest shaped or the rows built, once per call, not per probe.
    """
    _check_args(k, 0)
    if not any(g.adj):
        return 0  # no edges: every coloring has defect 0
    _check_size(g, max_vertices, "min_defect")
    route = _route(g)
    if isinstance(route, _Rows):
        start = _lovasz(route.nbr, route.order, k)
    else:  # levels from the roots down, the deepest sharing color k
        depth = [0] * g.n
        for v in route.order:
            for c in route.children[v]:
                depth[c] = depth[v] + 1
        start = [min(t, k - 1) + 1 for t in depth]
    hi = max(class_degrees(g, Coloring(k, tuple(start))).values())
    while hi:
        report = _decide(g, route, k, hi - 1, node_budget)
        if not report.feasible:
            break
        hi = max(report.max_class_degree.values())
    return hi
