"""Minor containment with explicit branch-set certificates.

``has_minor`` picks its search from the input size.  Within the exhaustive
limits (host <= 14, pattern <= 8 vertices) the exhaustive search below is
complete: ``None`` means the pattern is not a minor.  Past them a greedy
heuristic with a fixed seed runs: it returns a verified model or raises
SizeLimitError, as it never decides an absence.  ``None`` is therefore always
a decided absence.  ``node_budget`` bounds both searches, and either raises
BudgetExceededError past it: the exhaustive search counts the candidate sets
it passes, the heuristic each vertex that its path searches take off a
frontier, over all its restarts.

The exhaustive search places the pattern vertices by degree (descending),
then id.  Each takes the host's connected vertex sets in order of size, then
bitmask value, as its branch set; a node is one such set that is disjoint
from the sets already placed, and ``node_budget`` bounds the nodes visited.
A set is tried when it touches the set of every placed pattern neighbor and
is no larger than the size bound below, and its subtree is cut when some
placed vertex x has fewer free host vertices next to B_x than unplaced
pattern neighbors (their branch sets are disjoint and each needs its own
vertex next to B_x).  The cuts remove only subtrees without a model, so the
first model in this order is the answer, and the search never visits more
nodes than the same search without these cuts: any budget under which that
search answers gives the same model here.

Twins are broken by a lex-leader rule (Crawford, Ginsberg, Luks and Roy,
KR 1996).  Pattern vertices u and v are twins when N(u) - v = N(v) - u,
i.e. when swapping them is an automorphism of the pattern; transpositions
compose, so twins fall into classes.  When positions i < j hold twins,
position j only tries the sets after B_i in the candidate order.  Proof
that this keeps the answer: the first model is the least one in the
lexicographic order of (B_0, B_1, ...).  Swapping the branch sets of two
twins gives another valid model, so if the least model had B_j before B_i,
the swap would give a smaller one.  Hence the least model meets every twin
constraint, and the search restricted to them finds it first: the first
model, every verdict and the absence answers are unchanged, and the node
count can only fall.  Within a class the sets then increase along the
positions, so each position is bounded by the last earlier twin alone; the
bound is one ``bisect_right`` on the node's pool, which holds the bound's
whole size class.  Nodes are counted from the twin bound: the sets before
it are skipped uncounted.

The twin rule also bounds the size of B_i.  For a later position j > i let
t_j be the last twin of j at or before i, if there is one.  B_j comes after
B_{t_j}, and the candidate order ranks by size first, so |B_j| >= |B_{t_j}|;
without t_j, |B_j| >= 1.  The later sets are disjoint from B_i and from each
other, inside the free vertices (those in no earlier set).  With c the
number of later positions whose t_j is i, and F the sum of |B_{t_j}| over
those whose t_j is earlier plus 1 for each without one,

    (1 + c) |B_i| + F <= free,  so  |B_i| <= s_max = (free - F) // (1 + c).

The least model meets every twin constraint, so each of its sets meets this
bound: the bound cuts only subtrees without that model, the first model,
every verdict and the absence answers are unchanged, and the node count can
only fall.  Without twins c = 0 and F is the number of later positions, the
test that each of them keeps a free vertex.  ``_Plan.share`` holds (1 + c,
the earlier t_j, the count of 1s) per position, and a node adds the sizes of
its earlier t_j.  The pool is sorted by size, so a node stops at its first
candidate past s_max and grows no class past it.  A node counts its
candidates over the complete candidate list, from its twin bound up to its
size limit: up to each candidate it tries, and the whole range when it is
exhausted.

When every position j > i has a twin bound at a position t >= i
(``_Plan.after``), the subtree below B_i reads only sets after B_i.  Proof,
by induction on j: the bound B_t of position j is B_i (t = i) or a set
placed in the subtree (t > i), which is after B_i, and j tries only sets
after its bound.  So the child's pool is filtered from the sets after B_i
in the parent's pool, not from the whole pool, and the child at i + 1,
whose bound is B_i, needs no bisect.  A node's pool then lacks only sets
before its own twin bound, which it skips uncounted anyway: node counts,
budget stops and first models are unchanged.  A child whose pool is empty
and complete holds no node and is not made.

The candidate sets are grown one size class at a time, only as far as the
search reads them.  A node's pool is filtered from its parent's and covers
the classes grown when the node was made.  When it runs out while a later
class has sets of at most s_max vertices, it extends itself from its
parent's extension, the parent first, up to the root, whose pool is the
grown list and which grows the next class.  So each pool filters each class
once.  A pool cut after B_i extends itself the same way: the classes grown
later hold larger sets, which all come after B_i.  A node that reaches a
set past s_max holds every smaller one already, and one that runs out
extends its pool until no class within s_max is left, so the range up to
its size limit is complete when it is counted: node counts, budget stops
and first models do not depend on how far the classes were grown.

The search runs on a kernel of the host.  With δ the least pattern degree,
δ >= 1 drops the isolated host vertices, and δ >= 2 also peels vertices of
degree <= 1 until none is left (the islet and twig rules of Bodlaender,
Koster and van den Eijkhof), in O(n + m).  No model has a branch set that
is one removed vertex, and a removed vertex inside a larger branch set is a
leaf of it that covers no pattern edge: dropping it leaves a valid model
that comes earlier in the order.  So the first model avoids the removed
vertices.  The survivors keep their relative order, so the kernel's
candidate sets are the raw ones without the removed vertices, in the same
order; each candidate pool is a subsequence of the raw one and both cuts
fire at least as often.  The first model is the same and the node count
never grows.

With δ >= 3, absence is decided first on the series-reduced kernel: each
vertex of degree 2 is suppressed (deleted, its two neighbours joined) and
each of degree <= 1 deleted until none is left (the series rule of the same
authors), in O(n + m).  A degree-2 vertex v is never a whole branch set, as
it has too few neighbours.  Either v is in no branch set, and the model lives
in the host without v, a subgraph of the host with v suppressed; or v shares
its set with a neighbour a, and contracting va maps the model onto the host
with v suppressed.  That host is itself a minor of the host, so each step
keeps exactly the δ >= 3 minors, and the reduced host is searched for
absence only.  If its search finds no model, the answer is "absent".  If it
finds one, that model is discarded and the kernel search above runs
unchanged, so a "present" answer keeps its first model and node count.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional

from .check import MinorModel, verify_model
from .errors import BudgetExceededError, SizeLimitError
from .graphs import Graph, _bits, _mask

EXHAUSTIVE_HOST_LIMIT = 14
EXHAUSTIVE_PATTERN_LIMIT = 8
DEFAULT_NODE_BUDGET = 5_000_000


def _connected_classes(adj: list[int], nbhd: dict[int, int]):
    """Yield the connected vertex masks of the graph with adjacency masks
    ``adj`` one size class at a time, each sorted by mask, and record each
    set's neighbourhood in ``nbhd``.  A set grown from its least vertex v
    takes one frontier vertex above v at a time, and a frontier vertex passed
    over is excluded from the later children, so each set is reached once."""
    nbhd.update((1 << v, a) for v, a in enumerate(adj))
    frontier = [
        (1 << v, ext, (2 << v) - 1)
        for v, a in enumerate(adj)
        if (ext := a & ~((2 << v) - 1))
    ]
    yield [1 << v for v in range(len(adj))]
    while frontier:
        grown = []
        last, frontier = frontier, []
        for s, ext, excl in last:
            s_adj = nbhd[s]
            while ext:
                b = ext & -ext
                ext ^= b
                t = s | b
                grown.append(t)
                nbhd[t] = t_adj = s_adj | adj[b.bit_length() - 1]
                if t_ext := t_adj & ~(excl | t):
                    frontier.append((t, t_ext, excl))
                excl |= b
        grown.sort()
        yield grown


def too_large(host: Graph, pattern: Graph) -> bool:
    """Whether size alone rules the pattern out: it has more vertices or
    more edges than the host.  ``has_minor`` answers None then at every
    size, and that None is a decided absence."""
    return pattern.n > host.n or pattern.edge_count() > host.edge_count()


def has_minor(
    host: Graph,
    pattern: Graph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[MinorModel]:
    """Search for a branch-set model of ``pattern`` in ``host``.

    ``None`` means the pattern is not a minor.  The limits and the shortcuts
    apply to the raw host.  Within the limits the search is exhaustive; past
    them the heuristic runs, and a miss raises SizeLimitError (absence
    undecided).  The exhaustive search runs on the host's leaf-free kernel
    and caps each branch set at the size its later twins leave room for
    (see the module docstring); its model, mapped back to host ids and
    checked on the raw host, is the one the search would find on the raw
    host, within the same node budget.  For patterns of least degree >= 3 a
    search of the series-reduced kernel runs first and can only answer
    "absent".  The pattern's tables (order, placed neighbors, demand and
    twins) are built once per call and shared by both searches.  Each of the
    two searches is bounded by ``node_budget`` (at most twice that many nodes
    in total); a stop of the first is inconclusive and only the kernel search
    raises BudgetExceededError.  Past the limits the heuristic charges one
    node for each vertex taken off a path search's frontier, over all its
    restarts, and raises BudgetExceededError past ``node_budget``.
    """
    if pattern.n == 0:
        return MinorModel({})
    if too_large(host, pattern):
        return None
    if pattern.edge_count() == 0:
        # minors of edgeless patterns only need enough vertices
        return MinorModel({pv: frozenset([pv]) for pv in range(pattern.n)})
    if host == pattern:
        return MinorModel({v: frozenset([v]) for v in range(pattern.n)})
    if host.n > EXHAUSTIVE_HOST_LIMIT or pattern.n > EXHAUSTIVE_PATTERN_LIMIT:
        model = _heuristic_search(host, pattern, node_budget)
        if model is None:
            raise SizeLimitError(
                f"no model found; absence undecided past the exhaustive limits "
                f"host<={EXHAUSTIVE_HOST_LIMIT}, pattern<={EXHAUSTIVE_PATTERN_LIMIT} "
                f"vertices (got {host.n}, {pattern.n})"
            )
        return model
    kernel, survivors = host.subgraph(_kernel(host, pattern))
    plan = _plan(pattern)
    if min(pattern.degree(v) for v in range(pattern.n)) >= 3:
        reduced = _series_reduced(kernel)
        if reduced.n < kernel.n:
            if too_large(reduced, pattern):
                return None
            try:
                if _exhaustive_search(reduced, plan, node_budget) is None:
                    return None
            except BudgetExceededError:
                pass  # inconclusive: the kernel search decides
    found = _exhaustive_search(kernel, plan, node_budget)
    if found is None:
        return None
    model = MinorModel({
        pv: frozenset(v for i, v in enumerate(survivors) if mask >> i & 1)
        for pv, mask in found.items()
    })
    ok, violation = verify_model(host, pattern, model)
    if not ok:
        raise AssertionError(f"internal: search produced invalid model: {violation}")
    return model


def _kernel(host: Graph, pattern: Graph) -> list[int]:
    """The host vertices that can lie in the first model, ascending.

    With least pattern degree δ, vertices of degree below min(δ, 2) are
    peeled until none is left: such a vertex is either a whole branch set,
    which has too few neighbours, or a leaf of one, which covers no pattern
    edge.
    """
    low = min(2, *(pattern.degree(v) for v in range(pattern.n)))
    deg = [len(s) for s in host.adj]
    alive = [d >= low for d in deg]
    stack = [v for v in range(host.n) if not alive[v]]
    while stack:
        for u in host.adj[stack.pop()]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] < low:
                    alive[u] = False
                    stack.append(u)
    return [v for v in range(host.n) if alive[v]]


def _series_reduced(g: Graph) -> Graph:
    """``g`` with each vertex of degree 2 suppressed (deleted, its two
    neighbours joined) and each of degree <= 1 deleted, until none is left.

    No step raises a degree, and each deleted vertex queues at most its two
    neighbours, so the reduction is O(n + m).
    """
    adj = [set(s) for s in g.adj]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if len(adj[v]) <= 2]
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        nbrs = adj[v]
        for u in nbrs:
            adj[u].discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
        stack += (u for u in nbrs if len(adj[u]) <= 2)
    vs = [v for v in range(g.n) if alive[v]]
    index = {v: i for i, v in enumerate(vs)}
    return Graph(len(vs), [frozenset(index[u] for u in adj[v]) for v in vs])


class _Plan(NamedTuple):
    """The pattern's tables, by order position."""

    order: list[int]  # pattern vertices by degree (descending), then id
    placed_nbrs: list[list[int]]  # positions of the neighbors placed before
    demand: list[list[tuple[int, int]]]  # after i: (placed j, its unplaced nbrs)
    twin: list[Optional[int]]  # the last earlier position of a twin, or None
    after: list[bool]  # every later position has a twin at i or later
    share: list[tuple[int, tuple[int, ...], int]]  # size bound: (1 + c, ts, ones)


def _plan(pattern: Graph) -> _Plan:
    p = pattern.n
    order = sorted(range(p), key=lambda v: (-pattern.degree(v), v))
    pos = [0] * p
    for i, v in enumerate(order):
        pos[v] = i
    # pattern adjacency by position, as masks over positions
    nbr = [_mask(pos[u] for u in pattern.adj[v]) for v in order]
    placed_nbrs = [_bits(nbr[i] & ((1 << i) - 1)) for i in range(p)]
    demand = [
        [(j, c) for j in range(i + 1) if (c := (nbr[j] >> (i + 1)).bit_count())]
        for i in range(p)
    ]
    twin: list[Optional[int]] = [None] * p
    for j in range(p):
        for i in range(j):
            if nbr[i] & ~(1 << j) == nbr[j] & ~(1 << i):
                twin[j] = i
    # the size bound's terms at i, from each later position's last twin at
    # or before i (None: no such twin), updated from i + 1
    share = [(1, (), 0)] * p
    last: list[Optional[int]] = []
    for i in range(p - 2, -1, -1):
        t = twin[i + 1]
        last = [t if x == i + 1 else x for x in last]
        last.append(t)
        c, ones = last.count(i), last.count(None)
        earlier = () if c + ones == len(last) else tuple(
            x for x in last if x is not None and x < i
        )
        share[i] = (1 + c, earlier, ones)
    # every twin bound after i is at i or later exactly when every later set
    # is bounded by B_i
    after = [ways + i == p for i, (ways, _, _) in enumerate(share)]
    return _Plan(order, placed_nbrs, demand, twin, after, share)


def _counter(node_budget: int):
    """A function that charges k nodes and raises BudgetExceededError once
    more than ``node_budget`` are charged in all."""
    nodes = 0

    def count(k: int) -> None:
        nonlocal nodes
        nodes += k
        if nodes > node_budget:
            raise BudgetExceededError(
                f"minor search exceeded {node_budget} nodes", size=node_budget + 1
            )

    return count


def _exhaustive_search(
    host: Graph, plan: _Plan, node_budget: int
) -> Optional[dict[int, int]]:
    """The first model as pattern vertex -> branch-set mask, or None."""
    order, placed_nbrs, demand, twin, after, share = plan
    p = len(order)
    n = host.n
    host_adj = [_mask(s) for s in host.adj]
    full = (1 << n) - 1
    nbhd: dict[int, int] = {}  # grown set -> its neighbourhood
    classes = _connected_classes(host_adj, nbhd)
    lattice = next(classes)  # the candidates grown so far, in order
    size = 1  # of the last class grown
    # extension record: [pool, parent's record, mask, parent pool read, covered]
    root = [lattice, None, 0, 0, len(lattice)]

    def extend(rec: list, limit: int) -> bool:
        # extend rec's pool, first growing the next class if it has all the
        # grown ones; False when no class left has sets of at most limit
        nonlocal size
        if rec[4] == len(lattice):
            if size >= limit or (grown := next(classes, None)) is None:
                return False
            size += 1
            lattice.extend(grown)
            root[4] = len(lattice)
        chain = []
        while rec[4] < len(lattice):
            chain.append(rec)
            rec = rec[1]
        for rec in reversed(chain):
            above = rec[1][0]
            rec[0] += [m for m in above[rec[3]:] if not m & rec[2]]
            rec[3] = len(above)
            rec[4] = len(lattice)
        return True

    def rank(mask: int) -> int:
        # the candidate order: size, then mask
        return mask.bit_count() << n | mask

    branch = [0] * p  # mask per order position
    branch_adj = [0] * p  # union of host adjacency over the branch
    branch_size = [0] * p  # |B_i|
    count = _counter(node_budget)

    def place(
        i: int, used: int, pool: list[int], rec: Optional[list]
    ) -> Optional[dict[int, int]]:
        # pool: the candidates disjoint from used, in candidate order, as far
        # as rec has extended it (None: complete); each is one node, counted
        # in bulk up to the next candidate tried
        nbrs = placed_nbrs[i]
        first = branch_adj[nbrs[0]] if nbrs else full
        nbrs = nbrs[1:]
        free = full & ~used
        last = i + 1 == p
        # the later positions' sets fit beside B_i in the free vertices, and
        # a later twin's set is no smaller than its earlier twin's
        ways, earlier, ones = share[i]
        for t in earlier:
            ones += branch_size[t]
        s_max = (free.bit_count() - ones) // ways
        # a twin's set comes after the set of the twin placed before it; the
        # pool holds that set's whole class, so later extensions lie beyond.
        # A pool cut after B_{i-1} holds only such sets already.
        t = twin[i]
        if t is None or after[i - 1]:
            counted = start = 0
        else:
            counted = start = bisect_right(pool, rank(branch[t]), key=rank)
        cut = after[i]
        while True:
            end = len(pool)
            capped = end > start and pool[-1].bit_count() > s_max
            if capped:
                # (s_max + 1) << n is the least rank of a set past s_max
                end = bisect_left(pool, (s_max + 1) << n, start, end, key=rank)
            for k in [k for k, m in enumerate(pool[start:end], start) if m & first]:
                count(k + 1 - counted)
                counted = k + 1
                mask = pool[k]
                touches = True
                for j in nbrs:
                    if not branch_adj[j] & mask:
                        touches = False
                        break
                if not touches:
                    continue
                branch[i] = mask
                branch_adj[i] = nbhd[mask]
                if last:
                    return {order[j]: b for j, b in enumerate(branch)}
                branch_size[i] = mask.bit_count()
                # each unplaced neighbor of a placed x needs its own free
                # vertex next to B_x, as their branch sets are disjoint
                rest = free & ~mask
                short = False
                for j, c in demand[i]:
                    if (branch_adj[j] & rest).bit_count() < c:
                        short = True
                        break
                if short:
                    continue
                # the subtree reads only sets after B_i when every later
                # position is bounded by a twin at i or later
                sub = [m for m in (pool[k + 1:] if cut else pool) if not m & mask]
                # sub is complete when no class left fits in rest
                grows = rec is not None and (
                    rec[4] < len(lattice) or size < rest.bit_count()
                )
                sub_rec = [sub, rec, mask, len(pool), rec[4]] if grows else None
                if not sub and sub_rec is None:
                    continue  # an empty complete pool holds no node
                got = place(i + 1, used | mask, sub, sub_rec)
                if got is not None:
                    return got
            start = end
            if capped:
                break  # the sets left are all past s_max
            # the pool holds every set of at most s_max vertices once rec
            # cannot extend it
            if start == len(pool) and (rec is None or not extend(rec, s_max)):
                break
        count(end - counted)
        return None

    try:
        found = place(0, 0, lattice, root)
    finally:
        # place reaches itself through its closure; break that cycle so the
        # candidate masks are freed on return, not at a later full collection
        place = None
    return found


def _heuristic_search(
    host: Graph, pattern: Graph, node_budget: int
) -> Optional[MinorModel]:
    """Greedy BFS-grown branch sets with restarts from a fixed seed; a model
    it returns is verified, and None decides nothing.  Each vertex a path
    search takes off its frontier is one node, over all restarts, and
    BudgetExceededError is raised past ``node_budget`` of them."""
    rng = random.Random(0)
    count = _counter(node_budget)
    attempts = 64
    for _ in range(attempts):
        verts = list(range(host.n))
        rng.shuffle(verts)
        seeds = verts[: pattern.n]
        owner = {v: pv for pv, v in enumerate(seeds)}
        branch = [{seeds[pv]} for pv in range(pattern.n)]
        ok = True
        for pu, pv in sorted(pattern.edges(), key=lambda e: rng.random()):
            if any(host.adj[v] & branch[pv] for v in branch[pu]):
                continue
            # absorb a connecting path into pu's branch set
            path = _connect(host, branch[pu], branch[pv], owner, count)
            if path is None:
                ok = False
                break
            for v in path:
                owner[v] = pu
                branch[pu].add(v)
        if not ok:
            continue
        model = MinorModel({pv: frozenset(branch[pv]) for pv in range(pattern.n)})
        valid, _ = verify_model(host, pattern, model)
        if valid:
            return model
    return None


def _connect(
    host: Graph, src: set[int], dst: set[int], owner: dict[int, int], count
):
    """Interior of a shortest path from src to dst through unowned vertices;
    ``count(1)`` charges each vertex taken off the frontier."""
    prev: dict[int, Optional[int]] = {v: None for v in src}
    frontier = list(src)
    while frontier:
        nxt = []
        for u in frontier:
            count(1)
            for w in host.adj[u]:
                if w in prev:
                    continue
                if w in dst:
                    path = []
                    cur = u
                    while cur is not None and cur not in src:
                        path.append(cur)
                        cur = prev[cur]
                    return path
                if w not in owner:
                    prev[w] = u
                    nxt.append(w)
        frontier = nxt
    return None

