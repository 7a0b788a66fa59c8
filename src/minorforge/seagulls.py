"""Seagulls: induced three-vertex paths, exact packing and partitioning.

Contracting a seagull of an alpha<=2 graph yields a vertex adjacent to
everything else, which is why partitions into seagulls drive the minor
construction.  The searches here are exhaustive; NotFound (returned as
None) is a definitive answer, never a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import greedy_clique_lb
from .errors import BudgetExhausted, TooLarge, WrongOrder
from .graph import Graph, bits, complement_edge_count

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


def seagull_partition(g: Graph) -> SeagullPartition | None:
    """Partition all vertices into |V|/3 seagulls, or None when impossible.

    Exhaustive backtracking with sound pruning only: too few non-adjacent
    pairs left, or a clique certified to exceed twice the remaining triple
    count (each triple meets a clique in at most two vertices).  Branches on
    the unused vertex with the fewest non-neighbours left (scarcest endpoint
    partners; ties to the lowest index) and memoizes failed states, which
    keeps generic instances near-greedy.  Raises WrongOrder unless 3 divides
    |V|, and BudgetExhausted instead of guessing when the budget runs out.
    """
    if g.n % 3 != 0:
        raise WrongOrder(f"|V| = {g.n} is not divisible by 3")
    k = g.n // 3
    if k == 0:
        return SeagullPartition(())
    nodes = 0
    out: list[tuple[int, int, int]] = []
    failed: set[int] = set()

    def rec(unused: int, k_res: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > SEAGULL_NODE_BUDGET:
            raise BudgetExhausted(f"seagull search exceeded {SEAGULL_NODE_BUDGET} nodes")
        if not unused:
            return True
        if unused in failed:
            return False
        if (
            complement_edge_count(g, unused) < k_res
            or greedy_clique_lb(g, unused) > 2 * k_res
        ):
            if len(failed) < SEAGULL_MEMO_CAP:
                failed.add(unused)
            return False
        # scarcest vertex first: fewest unused non-neighbours
        u = -1
        best = -1
        rem = unused
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            d = (unused & ~(g.adj[v] | (1 << v))).bit_count()
            if u < 0 or d < best:
                u, best = v, d
                if d == 0:
                    break
        ub = 1 << u
        rest = unused & ~ub
        # u as an endpoint: u - mid - b, partner b drawn from the scarce pool
        for b in bits(rest & ~g.adj[u]):
            for mid in bits(g.adj[u] & g.adj[b] & rest):
                out.append((u, mid, b))
                if rec(rest & ~((1 << mid) | (1 << b)), k_res - 1):
                    return True
                out.pop()
        # u as the midpoint: a - u - b with a < b both adjacent to u, a,b non-adjacent
        nb = g.adj[u] & rest
        for a in bits(nb):
            for boff in bits((nb & ~(g.adj[a] | (1 << a))) >> (a + 1)):
                b = a + 1 + boff
                out.append((a, u, b))
                if rec(rest & ~((1 << a) | (1 << b)), k_res - 1):
                    return True
                out.pop()
        if len(failed) < SEAGULL_MEMO_CAP:
            failed.add(unused)
        return False

    if rec(g.vertex_mask, k):
        return SeagullPartition(tuple(out))
    return None


def max_disjoint_seagulls_bruteforce(g: Graph) -> int:
    """Exact maximum number of pairwise disjoint seagulls, |V| <= 15 only.

    Subset dynamic program: the lowest vertex of a mask is either skipped or
    consumed by one of its seagulls inside the mask.
    """
    if g.n > BRUTEFORCE_LIMIT:
        raise TooLarge(f"|V| = {g.n} exceeds the exhaustive guard {BRUTEFORCE_LIMIT}")
    n = g.n
    per_vertex: list[list[int]] = [[] for _ in range(n)]
    verts = list(range(n))
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
