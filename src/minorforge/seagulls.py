"""Seagulls: induced three-vertex paths, exact packing and partitioning.

Contracting a seagull of an alpha<=2 graph yields a vertex adjacent to
everything else, which is why partitions into seagulls drive the minor
construction.  The searches here are exhaustive; NotFound (returned as
None) is a definitive answer, never a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import greedy_clique_lb
from .errors import BudgetExhausted, TooLarge, WrongOrder
from .graph import Graph, bits, complement_rows, unpack_rows

BRUTEFORCE_LIMIT = 15

# seagull_partition gives up (BudgetExhausted) after this many search nodes
# rather than guess, and bounds its memo of failed vertex sets.
SEAGULL_NODE_BUDGET = 5_000_000
SEAGULL_MEMO_CAP = 2_000_000


def is_seagull(g: Graph, triple: tuple[int, int, int]) -> bool:
    """True when the three distinct vertices induce a path."""
    a, b, c = triple
    if len({a, b, c}) != 3:
        raise ValueError("seagull candidates must be three distinct vertices")
    edges = int(g.has_edge(a, b)) + int(g.has_edge(a, c)) + int(g.has_edge(b, c))
    return edges == 2


@dataclass(frozen=True)
class SeagullPartition:
    """Disjoint ordered triples (end, mid, end) covering their host subset."""

    triples: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.triples)

    def vertex_mask(self) -> int:
        m = 0
        for a, mid, b in self.triples:
            m |= (1 << a) | (1 << mid) | (1 << b)
        return m

    def serialize(self) -> str:
        """Report form: one line `s <end> <mid> <end>` per triple, 1-based."""
        return "".join(f"s {a + 1} {mid + 1} {b + 1}\n" for a, mid, b in self.triples)


def _seagulls_at(g: Graph, u: int, rest: int):
    """Every seagull of u and two vertices of `rest`, in branching order."""
    # u as an endpoint: u - mid - b, partner b drawn from the scarce pool
    for b in bits(rest & ~g.adj[u]):
        for mid in bits(g.adj[u] & g.adj[b] & rest):
            yield u, mid, b
    # u as the midpoint: a - u - b with a < b both adjacent to u, a,b non-adjacent
    nb = g.adj[u] & rest
    for a in bits(nb):
        for boff in bits((nb & ~(g.adj[a] | (1 << a))) >> (a + 1)):
            yield a, u, a + 1 + boff


def _clique_room(d: np.ndarray, k_res: int, non_edges: int) -> bool:
    """Whether a search node's 3 * k_res unused vertices, with `non_edges`
    non-adjacent pairs and counts d (each unused vertex's unused
    non-neighbours, then at least 3 * k_res per used one, so unused values
    sort first), may hold a clique of more than 2 * k_res.  A clique misses
    an end of every non-edge; one that large leaves out at most k_res - 1
    vertices, so their d values, at most the k_res - 1 largest, must reach
    non_edges."""
    # sorted in place and summed as a list: at a few hundred entries the call
    # overheads of np.sort and ndarray.sum cost more than the work
    top = d.copy()
    top.sort()
    return sum(top[2 * k_res + 1 : 3 * k_res].tolist()) >= non_edges


def seagull_partition(g: Graph) -> SeagullPartition | None:
    """Partition all vertices into |V|/3 seagulls, or None when impossible.

    Exhaustive backtracking with sound pruning only: too few non-adjacent
    pairs left, or a clique certified to exceed twice the remaining triple
    count (each triple meets a clique in at most two vertices).  The clique
    is searched greedily, and only where the non-neighbour counts leave room
    for one that large, so the search is skipped only where it cannot
    prune.  Branches on the unused vertex with the fewest non-neighbours
    left (scarcest endpoint partners; ties to the lowest index) and
    memoizes failed states, which keeps generic instances near-greedy.  Both
    counts are kept up to date as seagulls are placed and taken back rather
    than recounted at each node, so the branch vertex, its tie-break and the
    nodes visited are those of a recount.  Raises WrongOrder unless 3
    divides |V|, and BudgetExhausted instead of guessing when the budget
    runs out.
    """
    if g.n % 3 != 0:
        raise WrongOrder(f"|V| = {g.n} is not divisible by 3")
    k = g.n // 3
    if k == 0:
        return SeagullPartition(())
    # non[v]: v's complement row as 0/1 bytes, from complement_rows.  Each
    # placement sums three rows: an int32 copy of the whole matrix, made per
    # call, raised peak RSS by about 6 MB over a few hundred trials at n = 400.
    non = unpack_rows(complement_rows(g), g.n).view(np.int8)
    # d[v]: v's unused non-neighbours; a used vertex stays at g.n or more,
    # so argmin (first minimum: lowest index) only picks unused vertices
    d = non.sum(axis=1, dtype=np.int32)
    nodes = 0
    out: list[tuple[int, int, int]] = []
    failed: set[int] = set()

    def rec(unused: int, k_res: int, non_edges: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > SEAGULL_NODE_BUDGET:
            raise BudgetExhausted(f"seagull search exceeded {SEAGULL_NODE_BUDGET} nodes")
        if not unused:
            return True
        if unused in failed:
            return False
        if non_edges < k_res or (
            _clique_room(d, k_res, non_edges) and greedy_clique_lb(g, unused) > 2 * k_res
        ):
            if len(failed) < SEAGULL_MEMO_CAP:
                failed.add(unused)
            return False
        # scarcest vertex first: fewest unused non-neighbours
        u = int(d.argmin())
        for a, mid, b in _seagulls_at(g, u, unused & ~(1 << u)):
            # a seagull has one non-edge, which d[a] + d[mid] + d[b] counts twice
            gone = d.item(a) + d.item(mid) + d.item(b) - 1
            # each non-neighbour of the seagull loses one per seagull vertex
            # it misses, and the three placed vertices rise by g.n
            step = (non[a] + non[mid] + non[b]).astype(np.int32)
            step[a] = step[mid] = step[b] = -g.n
            np.subtract(d, step, out=d)
            out.append((a, mid, b))
            if rec(unused & ~((1 << a) | (1 << mid) | (1 << b)), k_res - 1, non_edges - gone):
                return True
            out.pop()
            np.add(d, step, out=d)
        if len(failed) < SEAGULL_MEMO_CAP:
            failed.add(unused)
        return False

    try:
        found = rec(g.vertex_mask, k, int(d.sum()) // 2)
    finally:
        # rec's closure holds rec: break that cycle, so non, d and the memo
        # go when the call returns, not at the next cyclic collection
        rec = None
    return SeagullPartition(tuple(out)) if found else None


def max_disjoint_seagulls_bruteforce(g: Graph) -> int:
    """Exact maximum number of pairwise disjoint seagulls, |V| <= 15 only.

    Subset dynamic program: the lowest vertex of a mask is either skipped or
    consumed by one of its seagulls inside the mask.
    """
    if g.n > BRUTEFORCE_LIMIT:
        raise TooLarge(f"|V| = {g.n} exceeds the exhaustive guard {BRUTEFORCE_LIMIT}")
    n = g.n
    per_vertex: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                e = g.has_edge(i, j) + g.has_edge(i, l) + g.has_edge(j, l)
                if e == 2:
                    t = (1 << i) | (1 << j) | (1 << l)
                    per_vertex[i].append(t)
                    per_vertex[j].append(t)
                    per_vertex[l].append(t)
    f = [0] * (1 << n)
    for mask in range(1, 1 << n):
        u = (mask & -mask).bit_length() - 1
        best = f[mask & (mask - 1)]
        for t in per_vertex[u]:
            if t & mask == t:
                cand = 1 + f[mask & ~t]
                if cand > best:
                    best = cand
        f[mask] = best
    return f[(1 << n) - 1]
