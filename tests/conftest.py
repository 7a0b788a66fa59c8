"""Shared oracles and instance samplers for the test suite.

Oracles here are deliberately independent of the library code paths they
check: subset enumeration, mask dynamic programs and BFS cut search.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from minorforge.analysis import _maximum_matching_size
from minorforge.graph import Graph, bit_matrix, bits, complement, mask_of


def brute_max_clique_size(g: Graph) -> int:
    """Largest clique by subset enumeration (use only for small graphs)."""
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = size
                break
    return best


def brute_max_independent_size(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for sub in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = size
                break
    return best


def brute_matching_size(g: Graph) -> int:
    """Maximum matching by dynamic programming over vertex masks."""
    memo = {0: 0}

    def rec(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        best = rec(mask & (mask - 1))
        for u in bits(g.adj[v] & mask):
            best = max(best, 1 + rec(mask & ~((1 << v) | (1 << u))))
        memo[mask] = best
        return best

    return rec(g.vertex_mask)


def maximum_matching_size(g: Graph) -> int:
    """The library's blossom matching run on g itself; the library runs it
    only on complements (complement_matching_size)."""
    return _maximum_matching_size(g.adj, g.n)


def brute_is_k_connected(g: Graph, k: int) -> bool:
    """Definition check: |V| > k and no cut of size below k (enumerated)."""
    from minorforge.graph import is_connected_subset

    if g.n <= k:
        return False
    if k <= 0:
        return True
    for size in range(0, k):
        for cut in combinations(range(g.n), size):
            rest = g.vertex_mask & ~mask_of(cut)
            if rest and not is_connected_subset(g, rest):
                return False
    return True


def brute_st_cut(g: Graph, s: int, t: int) -> int:
    """The smallest vertex set separating non-adjacent s and t and, among
    sets of that size, the one whose s-side component is smallest (the
    s-sides of minimum cuts are closed under intersection, so it is unique);
    found by enumerating sets by size and searching from s around each."""
    inner = [v for v in range(g.n) if v not in (s, t)]
    for size in range(len(inner) + 1):
        best = None
        for cut in combinations(inner, size):
            blocked = mask_of(cut)
            side, frontier = 1 << s, 1 << s
            while frontier:
                reach = 0
                for v in bits(frontier):
                    reach |= g.adj[v]
                frontier = reach & ~side & ~blocked
                side |= frontier
            if not side >> t & 1 and (best is None or side.bit_count() < best[0]):
                best = (side.bit_count(), blocked)
        if best is not None:
            return best[1]
    raise AssertionError("s and t are adjacent")


def small_alpha2_graphs(count: int, seed: int = 0, min_n: int = 6, max_n: int = 12):
    """Deterministic mix of alpha<=2 instances of order min_n..max_n."""
    from minorforge.generators import (
        c5_blowup_complement,
        named_graph,
        triangle_free_process_complement,
        two_clique_complement,
    )
    from minorforge.rng import trial_rng

    out = [named_graph("five_wheel"), c5_blowup_complement(2), two_clique_complement(3, 3)]
    rng = trial_rng(seed, 999)
    i = 0
    while len(out) < count:
        n = int(rng.integers(min_n, max_n + 1))
        out.append(triangle_free_process_complement(n, trial_rng(seed, i)))
        i += 1
    return out[:count]


@pytest.fixture(scope="session")
def petersen():
    from minorforge.generators import named_graph

    return named_graph("petersen")


# --- edge-set oracles for the graph primitives ----------------------------------
#
# These work on a Python set of (u, v) pairs with u < v and on plain vertex
# lists, never on the library's neighbour masks, so they share no code with
# the restriction, contraction and minor checks they are compared against.


def members(mask: int) -> list[int]:
    """Vertices of a nonnegative mask, ascending, by testing every bit."""
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def vertex_mask(vertices) -> int:
    return sum(1 << v for v in set(vertices))


def oracle_neighbours(n: int, edges) -> list[list[int]]:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def oracle_connected(edges, vertices) -> bool:
    """Nonempty and connected inside the vertex list (BFS over the edge set)."""
    inside = set(vertices)
    if not inside:
        return False
    start = min(inside)
    seen, queue = {start}, [start]
    while queue:
        v = queue.pop()
        for u in inside - seen:
            if (min(u, v), max(u, v)) in edges:
                seen.add(u)
                queue.append(u)
    return seen == inside


def oracle_induced(edges, vertices) -> set[tuple[int, int]]:
    """Edges of the subgraph induced on the sorted vertices, relabelled by rank."""
    old = sorted(vertices)
    return {
        (i, j)
        for i in range(len(old))
        for j in range(i + 1, len(old))
        if (old[i], old[j]) in edges
    }


def oracle_joined(edges, part_a, part_b) -> bool:
    return any((min(u, v), max(u, v)) in edges for u in part_a for v in part_b)


def oracle_contract(edges, parts) -> set[tuple[int, int]]:
    """i ~ j exactly when some edge joins parts i and j."""
    vs = [members(p) for p in parts]
    return {
        (i, j)
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
        if oracle_joined(edges, vs[i], vs[j])
    }


def oracle_minor_violation(n: int, edges, h_n: int, h_edges, parts) -> str | None:
    """The first reason, in the library's order and wording, that the parts
    fail to witness the minor (h_n, h_edges) of (n, edges); None if they do."""
    if len(parts) != h_n:
        return f"part_count: {len(parts)} parts for {h_n} minor vertices"
    vs = [members(p) for p in parts]
    used: set[int] = set()
    for i in range(len(parts)):
        if not vs[i]:
            return f"empty_part: {i}"
        if vs[i][-1] >= n:
            return f"out_of_range: part {i}"
        if used & set(vs[i]):
            return f"overlap: part {i}"
        used |= set(vs[i])
    for i in range(len(parts)):
        if not oracle_connected(edges, vs[i]):
            return f"disconnected_part: {i}"
    for i, j in sorted(h_edges):
        if not oracle_joined(edges, vs[i], vs[j]):
            return f"missing_cross_edge: ({i},{j})"
    return None


def oracle_adjacency_error(masks) -> str | None:
    """The message the bool matrix whose rows are these n masks must be
    refused with, or None: the first loop, then the first asymmetric pair in
    row-major order."""
    n = len(masks)
    for v, a in enumerate(masks):
        if (a >> v) & 1:
            return f"loop at vertex {v}"
    for v in range(n):
        for u in range(n):
            if (masks[v] >> u) & 1 and not (masks[u] >> v) & 1:
                return f"asymmetric adjacency {v}->{u}"
    return None


def row_masks(mat: np.ndarray) -> list[int]:
    """One int mask per row of a bool matrix, read entry by entry."""
    return [mask_of(np.flatnonzero(r).tolist()) for r in mat]


# --- the paper's bad structures -------------------------------------------------


def enumerate_bad_triples(g: Graph, z: int) -> list[tuple[int, int, int]]:
    """All 3-sets with exactly one clique vertex, non-adjacent to the other
    two.  At most a(k-1)/2 of them exist."""
    out = []
    outside = g.vertex_mask & ~z
    for zv in bits(z):
        nonnb = outside & ~g.adj[zv]
        for u in bits(nonnb):
            for voff in bits(nonnb >> (u + 1)):
                out.append((zv, u, u + 1 + voff))
    return out


def enumerate_bad_quadruples(g_prime: Graph) -> list[tuple[int, int, int, int]]:
    """All 4-sets inducing exactly a perfect matching of size two.

    Quadratic in the edge count; meant for desk-scale verification.
    """
    edges = list(g_prime.edges())
    out = []
    for i, (u1, v1) in enumerate(edges):
        e1 = (1 << u1) | (1 << v1)
        for u2, v2 in edges[i + 1 :]:
            if e1 & ((1 << u2) | (1 << v2)):
                continue
            if (
                not g_prime.has_edge(u1, u2)
                and not g_prime.has_edge(u1, v2)
                and not g_prime.has_edge(v1, u2)
                and not g_prime.has_edge(v1, v2)
            ):
                out.append(tuple(sorted((u1, v1, u2, v2))))
    return out


# --- reference pairings: the tuple sampler, event and subsample -----------------


def oracle_uniform_pairing(x_size: int, rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    """The pairs of a uniform pairing, from the same rng.permutation call:
    consecutive entries paired up, each made (low, high), sorted."""
    perm = rng.permutation(x_size).tolist()
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in zip(perm[0::2], perm[1::2])))


def oracle_in_concentration_event(pairs, g: Graph, lam) -> bool:
    """|M intersect E(g)| >= |E(g)|/(x-1) - lambda in exact rationals."""
    if g.n < 2:
        return True
    count = sum((g.adj[u] >> v) & 1 for u, v in pairs)
    return Fraction(count) >= Fraction(g.edge_count, g.n - 1) - Fraction(lam)


def oracle_subsample(pairs, g: Graph, count: int, rng: np.random.Generator):
    """The same rng.choice call over the pairs that are edges of g, the
    chosen ones sorted; None when fewer than count are edges."""
    inside = [(u, v) for u, v in pairs if (g.adj[u] >> v) & 1]
    if len(inside) < count:
        return None
    idx = rng.choice(len(inside), size=count, replace=False)
    return tuple(sorted(inside[int(i)] for i in idx))


# --- reference alpha check ------------------------------------------------------


def oracle_first_independent_triple(g: Graph) -> tuple[int, int, int] | None:
    """The lexicographically first sorted independent triple of g, or None:
    an exhaustive search over u < v < w in lexicographic order, on
    non-neighbour sets built from the edge list."""
    non = [set(range(g.n)) - {v} for v in range(g.n)]
    for u, v in g.edges():
        non[u].discard(v)
        non[v].discard(u)
    for u in range(g.n):
        for v in sorted(x for x in non[u] if x > u):
            ws = [w for w in non[u] & non[v] if w > v]
            if ws:
                return (u, v, min(ws))
    return None


# --- reference local search -----------------------------------------------------


def oracle_large_clique(g: Graph, restarts: int, iters: int) -> int:
    """The one-draw-at-a-time (1,2)-swap search that analysis.large_clique
    must reproduce mask for mask: every restart calls rnd.randrange once per
    iteration and tests each draw against the current set."""
    full = (1 << g.n) - 1
    cadj = [full & ~(g.adj[v] | (1 << v)) for v in range(g.n)]
    n = g.n
    best_mask = 1 if n else 0
    best_size = 1 if n else 0
    for seed in range(restarts):
        rnd = random.Random((0x5EA9 << 16) | seed)
        cur = 0
        forb = 0
        order = list(range(n))
        rnd.shuffle(order)
        for v in order:
            if not (forb >> v) & 1:
                cur |= 1 << v
                forb |= (1 << v) | cadj[v]
        cursize = cur.bit_count()
        if cursize > best_size:
            best_size, best_mask = cursize, cur
        for _ in range(iters):
            v = rnd.randrange(n)
            if (cur >> v) & 1:
                continue
            nb = cadj[v] & cur
            c = nb.bit_count()
            if c == 0:
                cur |= 1 << v
                cursize += 1
            elif c == 1:
                u = nb.bit_length() - 1
                cur = (cur ^ nb) | (1 << v)
                for x in bits(cadj[u] & ~cur):
                    if x != u and not (cadj[x] & cur) and not ((cur >> x) & 1):
                        cur |= 1 << x
                cursize = cur.bit_count()
            if cursize > best_size:
                best_size, best_mask = cursize, cur
    return best_mask


# --- reference seagull search ----------------------------------------------------


def oracle_seagull_partition(g: Graph) -> tuple[tuple[tuple[int, int, int], ...] | None, int]:
    """The recounting backtracking search that seagulls.seagull_partition
    must reproduce node for node: (triples or None, search nodes visited).
    It recounts the unused set's non-edges and scans for the branch vertex
    at every node; |V| must be a positive multiple of 3.  Its memo of
    failed sets is unbounded: no instance it is used on gets near
    seagulls.SEAGULL_MEMO_CAP."""
    from minorforge.analysis import greedy_clique_lb
    from minorforge.graph import complement_edge_count

    k = g.n // 3
    nodes = 0
    out: list[tuple[int, int, int]] = []
    failed: set[int] = set()

    def rec(unused: int, k_res: int) -> bool:
        nonlocal nodes
        nodes += 1
        if not unused:
            return True
        if unused in failed:
            return False
        if (
            complement_edge_count(g, unused) < k_res
            or greedy_clique_lb(g, unused) > 2 * k_res
        ):
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
        failed.add(unused)
        return False

    found = rec(g.vertex_mask, k)
    return (tuple(out) if found else None), nodes


def clique_bound(d: np.ndarray, size: int, non_edges: int) -> int:
    """Upper bound on the clique number of a seagull-search node's unused set.

    The set has `size` vertices and `non_edges` non-adjacent pairs; d holds
    each unused vertex's count of unused non-neighbours and, for each used
    vertex, a value of at least `size`.  A clique misses an end of every
    non-edge, so it leaves out at least the fewest unused vertices whose d
    values sum to non_edges: the bound is `size` less that count.  The
    search prunes with greedy_clique_lb only where this bound exceeds twice
    the triples still to place.
    """
    if not non_edges:
        return size
    # unused values sort below used ones: the first `size`, largest first
    largest = np.sort(d)[size - 1 :: -1].cumsum()
    return size - 1 - int(largest.searchsorted(non_edges))


# --- reference generators and garbage count -------------------------------------


def oracle_c5_blowup_complement(t: int) -> Graph:
    n = 5 * t
    part = [v // t for v in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if (part[u] - part[v]) % 5 in (1, 4):
                edges.append((u, v))
    return complement(Graph(n, edges))


def oracle_two_clique_complement(s: int, t: int) -> Graph:
    edges = []
    for u in range(s):
        for v in range(u + 1, s):
            edges.append((u, v))
    for u in range(s, s + t):
        for v in range(u + 1, s + t):
            edges.append((u, v))
    return Graph(s + t, edges)


def oracle_k_n(order: int) -> Graph:
    return Graph(order, [(u, v) for u in range(order) for v in range(u + 1, order)])


def oracle_triangle_free_process_complement(num_vertices: int, rng: np.random.Generator) -> Graph:
    """The triangle-free process on the explicit pair tables: the pairs u < v
    of np.triu_indices, visited in rng.permutation order (12 n^2 bytes)."""
    n = num_vertices
    us, vs = np.triu_indices(n, 1)
    order = rng.permutation(len(us))
    adj = [0] * n
    for start in range(0, len(order), 8192):
        chunk = order[start : start + 8192]
        for u, v in zip(us[chunk].tolist(), vs[chunk].tolist()):
            if adj[u] & adj[v]:
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return complement(Graph.from_adj(bit_matrix(adj, n)))


def cyclic_garbage(action) -> int:
    """How many objects action() leaves that only the cyclic collector
    frees: automatic collection is off while it runs."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()
