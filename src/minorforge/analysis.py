"""Structural analysis of graphs with independence number at most two.

A graph has no independent triple exactly when its complement is
triangle-free, so every check here leans on the sparse complement:
clique search is independent-set search there, capacity and the packing
conditions come from the clique/non-neighbour structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AlphaTooLarge, BudgetExhausted, NotAClique
from .graph import Graph, bits, complement_adj, complement_edge_count, complement_rows
from .graph import is_connected_subset, reach_within, unpack_rows

# Exact clique search is exponential in the worst case; above this order the
# pipeline switches to the verified local-search path (see working_clique).
EXACT_CLIQUE_LIMIT = 150

LOCAL_SEARCH_RESTARTS = 12
LOCAL_SEARCH_ITERS = 60_000

# enumerate_cliques (and so min_capacity) raises BudgetExhausted beyond this
# many cliques instead of running on for an exponential time.
CLIQUE_BUDGET = 1_000_000

# find_independent_triple's arrays stay near this many bytes; no result changes
_TRIPLE_CHUNK = 1 << 20


def find_independent_triple(g: Graph) -> tuple[int, int, int] | None:
    """The lexicographically first independent 3-set of g, or None: (u, v, w)
    for the first complement edge u < v whose ends share a complement
    neighbour, and w the lowest of those.  A shared w < u would put a triangle
    on the earlier pair (w, u), and u < w < v on (u, w), so every w lies past v."""
    packed = complement_rows(g)
    n, width = packed.shape
    rows, step = max(1, _TRIPLE_CHUNK // (16 * n + 1)), max(1, _TRIPLE_CHUNK // (width + 1))
    for a in range(0, n, rows):
        # the columns from a's byte on hold every edge u < v of these rows, and
        # a few v < u near the diagonal: (v, u) shares their bits and comes first
        us, vs = unpack_rows(packed[a : a + rows, a // 8 :], n - a // 8 * 8).nonzero()
        us, vs = us + a, vs + a // 8 * 8
        for e in range(0, len(us), step):
            shared = packed[us[e : e + step]] & packed[vs[e : e + step]]
            # a whole-chunk any first: the per-row any is slower, and at most one chunk hits
            if shared.any():
                i = int(shared.any(axis=1).argmax())
                w = int(unpack_rows(shared[i : i + 1], n).argmax())
                return (int(us[e + i]), int(vs[e + i]), w)
    return None


def is_alpha_le_2(g: Graph) -> bool:
    """True when g has no independent set of size three."""
    return find_independent_triple(g) is None


def is_clique(g: Graph, c: int) -> bool:
    for v in bits(c):
        if (g.adj[v] & c) != c ^ (1 << v):
            return False
    return True


# --- exact independent-set search (drives max_clique) ------------------------


def _greedy_matching_bound(adj, alive: int) -> int:
    """Upper bound for the independence number of adj[alive]: vertices minus
    a greedily built matching (every matched edge kills one candidate)."""
    nv = alive.bit_count()
    used = 0
    msize = 0
    rem = alive
    while rem:
        v = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        if (used >> v) & 1:
            continue
        cand = adj[v] & alive & ~used
        if cand:
            used |= (1 << v) | (cand & -cand)
            msize += 1
    return nv - msize


def _components(adj, alive: int) -> list[int]:
    comps = []
    rem = alive
    while rem:
        comp = reach_within(adj, rem & -rem, alive)
        comps.append(comp)
        rem &= ~comp
    return comps


def _mis_size(adj, alive: int, target: int | None = None) -> int:
    """Exact independence number of the subgraph on `alive`.

    With `target` set, stops early once an independent set of that size is
    known to exist (returned value is then >= target but maybe not alpha).
    """

    def rec(alive: int, cur: int, best: int) -> int:
        # take isolated and degree-1 vertices outright
        changed = True
        while changed:
            changed = False
            rem = alive
            while rem:
                v = (rem & -rem).bit_length() - 1
                rem &= rem - 1
                nb = adj[v] & alive
                d = nb.bit_count()
                if d == 0:
                    alive ^= 1 << v
                    cur += 1
                    changed = True
                elif d == 1:
                    alive &= ~(nb | (1 << v))
                    cur += 1
                    changed = True
                    break
        if not alive:
            return max(best, cur)
        if cur + _greedy_matching_bound(adj, alive) <= best:
            return best
        if target is not None and best >= target:
            return best
        comps = _components(adj, alive)
        if len(comps) > 1:
            for comp in comps:
                cur += rec(comp, 0, 0)
            return max(best, cur)
        # branch on a maximum-degree vertex (lowest index among ties)
        bestd = -1
        bv = -1
        rem = alive
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            d = (adj[v] & alive).bit_count()
            if d > bestd:
                bestd, bv = d, v
        best = rec(alive & ~(adj[bv] | (1 << bv)), cur + 1, best)
        if target is not None and best >= target:
            return best
        return rec(alive & ~(1 << bv), cur, best)

    try:
        return rec(alive, 0, 0)
    finally:
        rec = None  # rec's closure holds rec: break the cycle


def max_clique(g: Graph) -> int:
    """Mask of a maximum clique; ties broken by lexicographically smallest
    vertex set.  Exact (independent-set search in the complement)."""
    cadj = complement_adj(g)
    omega = clique_number(g)
    chosen = 0
    size = 0
    cand = g.vertex_mask
    v = 0
    while size < omega:
        # smallest candidate whose inclusion still completes to omega
        b = 1 << v
        if cand & b:
            rest = cand & ~((b << 1) - 1) & ~cadj[v]
            need = omega - size - 1
            if need == 0 or _mis_size(cadj, rest, target=need) >= need:
                chosen |= b
                size += 1
                cand = rest
        v += 1
    return chosen


def clique_number(g: Graph) -> int:
    """Exact clique number."""
    return _mis_size(complement_adj(g), g.vertex_mask)


# --- heuristic clique for instances beyond the exact wall --------------------


# large_clique takes its draws from each restart's Random this many 32-bit
# words at a time, and looks for a draw that can change the set this many
# draws at a time.  Neither changes a result.
_DRAW_BLOCK = 4096
_SCAN_WINDOW = 256


def _bulk_randrange(mt: np.random.MT19937, rnd: random.Random, n: int, count: int):
    """Yield intp arrays that together are [rnd.randrange(n) for _ in
    range(count)], for 1 <= n < 2**32, re-keying mt to draw them.

    CPython's randrange(n) takes the top n.bit_length() bits of one 32-bit
    Mersenne Twister output and draws again while the value is >= n.  numpy's
    MT19937, given rnd's key and position, continues the same output stream;
    rnd itself is not advanced.
    """
    shift = 32 - n.bit_length()
    *key, pos = rnd.getstate()[1]  # a list: the setter reads an array 25x slower
    mt.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}
    while count > 0:
        vals = mt.random_raw(_DRAW_BLOCK) >> shift
        vals = vals[vals < n][:count].astype(np.intp)
        count -= len(vals)
        yield vals


def large_clique(g: Graph) -> int:
    """Deterministic multi-restart local search for a large clique.

    Independent-set (1,2)-swap search in the complement.  Returns the best
    clique mask found; no maximality certificate.  Fixed seeds make the
    result a pure function of the graph.

    Each restart makes LOCAL_SEARCH_ITERS uniform vertex draws, all from
    one MT19937 re-keyed per restart.  The set is kept maximal, so only a
    draw outside it with exactly one complement neighbour in it can change
    it, by a swap.  Tightness counters (Andrade, Resende & Werneck,
    J. Heuristics 2012) find those draws as the first minimum of each scan
    window, so the Python work follows the number of moves; drawing and
    scanning follow the draws.
    """
    n = g.n
    if n == 0:
        return 0
    cadj = complement_adj(g)
    # inc[x] (x's complement row, 2 at x) is what adding x adds to the state
    # below; no state entry exceeds max(D, 3), D the complement's max degree
    inc = unpack_rows(complement_rows(g), n).view(np.int8)
    np.fill_diagonal(inc, 2)
    rows = list(inc)
    dtype = np.min_scalar_type(-4 - max(c.bit_count() for c in cadj))  # holds D + 3
    mt = np.random.MT19937(0)  # re-keyed to each restart's stream
    best_mask = 1
    best_size = 1
    for seed in range(LOCAL_SEARCH_RESTARTS):
        rnd = random.Random((0x5EA9 << 16) | seed)
        cur = 0
        forb = 0
        order = list(range(n))
        rnd.shuffle(order)
        for v in order:
            if not (forb >> v) & 1:
                cur |= 1 << v
                forb |= (1 << v) | cadj[v]
        if cur.bit_count() > best_size:
            best_size, best_mask = cur.bit_count(), cur
        # state[x] = 2 * (x in the set) + the number of x's complement
        # neighbours in it; a set vertex has none, and the set is maximal, so
        # between moves no entry is 0 and a draw of x can change the set
        # exactly when state[x] == 1: a window's first minimum is its first
        # such draw whenever that minimum is 1
        state = inc[list(bits(cur))].sum(axis=0, dtype=dtype)
        for draws in _bulk_randrange(mt, rnd, n, LOCAL_SEARCH_ITERS):
            p = 0
            while p < len(draws):
                window = state[draws[p : p + _SCAN_WINDOW]]
                i = int(window.argmin())
                if window.item(i) != 1:
                    p += _SCAN_WINDOW
                    continue
                v = draws.item(p + i)
                p += i + 1
                u = (cadj[v] & cur).bit_length() - 1  # v's one neighbour in the set
                cur ^= (1 << u) | (1 << v)
                np.add(state, rows[v], state)
                np.subtract(state, rows[u], state)
                # the zeros now are the complement neighbours of u that the
                # swap freed; the loop only adds, so a vertex blocked now
                # stays blocked
                if np.count_nonzero(state) != n:
                    for x in np.flatnonzero(state == 0).tolist():
                        if not (cadj[x] & cur):
                            cur |= 1 << x
                            np.add(state, rows[x], state)
                    if cur.bit_count() > best_size:
                        best_size, best_mask = cur.bit_count(), cur
    return best_mask


def working_clique(g: Graph) -> tuple[int, str]:
    """Clique the pipeline builds around: exact search up to EXACT_CLIQUE_LIMIT
    vertices, verified local search beyond.  Returns (mask, method)."""
    if g.n <= EXACT_CLIQUE_LIMIT:
        return max_clique(g), "exact"
    return large_clique(g), "local_search"


# --- clique statistics & capacity --------------------------------------------


@dataclass(frozen=True)
class CliqueStats:
    """Non-adjacency statistics around a clique Z.

    a counts non-neighbour incidences summed over Z; b counts non-adjacent
    pairs outside Z.  For a maximum clique of an alpha<=2 graph these obey
    a <= k*k and a + 2b <= k*(|V|-k).
    """

    k: int
    a: int
    b: int


def clique_stats(g: Graph, z: int) -> CliqueStats:
    if not is_clique(g, z):
        raise NotAClique(f"vertex set {sorted(bits(z))} is not a clique")
    a = sum(g.n - 1 - g.degree(v) for v in bits(z))
    b = complement_edge_count(g, g.vertex_mask & ~z)
    return CliqueStats(k=z.bit_count(), a=a, b=b)


def capacity(g: Graph, c: int) -> Fraction:
    """(|V - C| + |X|)/2 where X holds the outside vertices with both a
    neighbour and a non-neighbour in the clique c.  Exact half-integer."""
    if not is_clique(g, c):
        raise NotAClique(f"vertex set {sorted(bits(c))} is not a clique")
    outside = g.vertex_mask & ~c
    x = 0
    for v in bits(outside):
        hits = g.adj[v] & c
        if hits and hits != c:
            x += 1
    return Fraction(outside.bit_count() + x, 2)


def enumerate_cliques(g: Graph):
    """Yield every nonempty clique mask (lexicographic order of vertex sets).

    Raises BudgetExhausted when more than CLIQUE_BUDGET cliques would be emitted.
    """
    count = 0

    def rec(base: int, cand: int):
        nonlocal count
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            new = base | (1 << v)
            count += 1
            if count > CLIQUE_BUDGET:
                raise BudgetExhausted(f"more than {CLIQUE_BUDGET} cliques")
            yield new
            yield from rec(new, cand & g.adj[v] & ~((1 << (v + 1)) - 1))

    try:
        yield from rec(0, g.vertex_mask)
    finally:
        rec = None  # rec's closure holds rec: break the cycle


def greedy_clique_lb(g: Graph, alive: int) -> int:
    """Greedy clique inside `alive`: a lower bound on its clique number."""
    best = 0
    rem = alive
    # a few deterministic starts keep the bound useful at negligible cost
    for _ in range(3):
        if not rem:
            break
        v = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        cur = 1 << v
        cand = g.adj[v] & alive
        while cand:
            u = (cand & -cand).bit_length() - 1
            cur |= 1 << u
            cand &= g.adj[u]
        best = max(best, cur.bit_count())
    return best


def min_capacity(g: Graph) -> tuple[Fraction, int]:
    """Exact minimum capacity over all nonempty cliques, with a witness.

    Raises BudgetExhausted when g has more than CLIQUE_BUDGET nonempty cliques.
    """
    # every nonempty subset of a clique is a clique, so a clique of size c
    # proves 2^c - 1 of them: refuse at once instead of after enumerating
    if (1 << greedy_clique_lb(g, g.vertex_mask)) - 1 > CLIQUE_BUDGET:
        raise BudgetExhausted(f"more than {CLIQUE_BUDGET} cliques")
    best = None
    witness = 0
    for c in enumerate_cliques(g):
        cap = capacity(g, c)
        if best is None or cap < best:
            best, witness = cap, c
    if best is None:
        return Fraction(g.n, 2), 0
    return best, witness


def greedy_coloring_size(g: Graph) -> int:
    """Number of colours used by smallest-index-first greedy colouring;
    an upper bound for the clique number."""
    color = [-1] * g.n
    used_count = 0
    for v in range(g.n):
        taken = 0
        for u in bits(g.adj[v]):
            if color[u] >= 0:
                taken |= 1 << color[u]
        c = 0
        while (taken >> c) & 1:
            c += 1
        color[v] = c
        used_count = max(used_count, c + 1)
    return used_count


# --- connectivity (max-flow with unit vertex capacities) ----------------------


def _st_vertex_connectivity(g: Graph, s: int, t: int, cap: int) -> tuple[int, int]:
    """(min(cap, local connectivity), vertex cut mask when value < cap).

    Shortest augmenting paths on the split digraph, where v_in -> v_out has
    capacity one and each edge gives u_out -> v_in and v_out -> u_in of
    unbounded capacity.  The flow is kept as masks: into[v] holds the u whose
    arc u_out -> v_in carries a path, busy the inner vertices a path uses.
    s and t must be distinct non-adjacent.
    """
    adj = g.adj
    into = [0] * g.n
    busy = flow = 0
    while flow < cap:
        # BFS over split nodes: node 2v is v_in, node 2v + 1 is v_out
        parent = {}
        queue = [2 * s + 1]
        reached_in, reached_out = 0, 1 << s
        for node in queue:
            v = node >> 1
            if node & 1:
                new = (adj[v] | (busy & 1 << v)) & ~reached_in
                reached_in |= new
            else:
                new = (into[v] | (~busy & 1 << v)) & ~reached_out
                reached_out |= new
            side = 1 - (node & 1)
            for u in bits(new):
                parent[2 * u + side] = node
                queue.append(2 * u + side)
            if reached_in >> t & 1:
                break
        else:
            # the search missed t, so the reached masks hold the residual
            # reachability from s, and that gives the cut
            return flow, reached_in & ~reached_out
        node = 2 * t
        while node != 2 * s + 1:
            prev = parent[node]
            u, v = prev >> 1, node >> 1
            if u == v:
                busy ^= 1 << v
            elif prev & 1:
                into[v] |= 1 << u
            else:
                into[u] &= ~(1 << v)
            node = prev
        flow += 1
    return cap, 0


def is_k_connected_with_cut(g: Graph, k: int) -> tuple[bool, int | None]:
    """k-connectivity check plus a violating cut mask when it fails.

    |V| > k is required; a sub-k cut is searched exactly via max-flow once
    the cheap degree shortcuts cannot decide.
    """
    n = g.n
    if n <= k:
        return False, None
    if k <= 0:
        return True, None
    degs = [g.degree(v) for v in range(n)]
    mind = min(degs)
    v0 = degs.index(mind)
    if mind < k:
        # the neighbourhood of a minimum-degree vertex is a cut (graph not complete)
        return False, g.adj[v0]
    if 2 * mind + 2 - n >= k:
        # every cut has at least 2*mindeg+2-|V| vertices
        return True, None
    nonnb = g.vertex_mask & ~(g.adj[v0] | (1 << v0))
    for u in bits(nonnb):
        val, cut = _st_vertex_connectivity(g, v0, u, k)
        if val < k:
            return False, cut
    nb = list(bits(g.adj[v0]))
    for i, x in enumerate(nb):
        for y in nb[i + 1 :]:
            if not g.has_edge(x, y):
                val, cut = _st_vertex_connectivity(g, x, y, k)
                if val < k:
                    return False, cut
    return True, None


def is_k_connected(g: Graph, k: int) -> bool:
    """True when |V| > k and no vertex cut of size below k exists."""
    ok, _ = is_k_connected_with_cut(g, k)
    return ok


# --- maximum matching (general graphs, blossom contraction) -------------------


def _maximum_matching_size(adj, n: int) -> int:
    """Maximum matching in the graph given by neighbour masks; augmenting
    BFS with blossom contraction, O(V^3)."""
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))

    def lca(a, b):
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = p[match[b]]

    def find_path(root) -> bool:
        nonlocal p, base
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for u in bits(adj[v]):
                if base[v] == base[u] or match[v] == u:
                    continue
                if u == root or (match[u] != -1 and p[match[u]] != -1):
                    # odd cycle: contract the blossom
                    cur = lca(v, u)
                    blossom = [False] * n

                    def mark(x, child):
                        while base[x] != cur:
                            blossom[base[x]] = True
                            blossom[base[match[x]]] = True
                            p[x] = child
                            child = match[x]
                            x = p[match[x]]

                    mark(v, u)
                    mark(u, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[u] == -1:
                    p[u] = v
                    if match[u] == -1:
                        # augment along parents
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[u]] = True
                    queue.append(match[u])
        return False

    size = 0
    for v in range(n):
        if match[v] == -1 and find_path(v):
            size += 1
    return size


def complement_matching_size(g: Graph) -> int:
    """Size of a maximum matching in the complement of g."""
    cadj = complement_adj(g)
    return _maximum_matching_size(cadj, g.n)


# --- five-wheel recognition ---------------------------------------------------


def is_five_wheel(g: Graph) -> bool:
    """Six vertices: a five-cycle plus a hub adjacent to all of it."""
    if g.n != 6 or g.edge_count != 10:
        return False
    degs = sorted(g.degree(v) for v in range(6))
    if degs != [3, 3, 3, 3, 3, 5]:
        return False
    hub = next(v for v in range(6) if g.degree(v) == 5)
    rim = g.vertex_mask & ~(1 << hub)
    # rim must induce a 2-regular connected graph on 5 vertices, i.e. C5
    for v in bits(rim):
        if (g.adj[v] & rim).bit_count() != 2:
            return False
    return is_connected_subset(g, rim)


# --- the disjoint-seagull condition report ------------------------------------


@dataclass(frozen=True)
class SeagullConditionReport:
    """The five conditions characterising k pairwise disjoint seagulls in an
    alpha<=2 graph, each with a witness for failures.

    cond_capacity may be certified by the bound (|V|-omega)/2 >= k without
    enumerating cliques; min_cap/capacity_witness are then None.
    """

    k: int
    cond_size: bool
    cond_connectivity: bool
    cond_capacity: bool
    cond_matching: bool
    cond_five_wheel: bool
    order: int
    connectivity_cut: int | None
    min_cap: Fraction | None
    capacity_witness: int | None
    matching_size: int
    five_wheel: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.cond_size
            and self.cond_connectivity
            and self.cond_capacity
            and self.cond_matching
            and self.cond_five_wheel
        )


def seagull_conditions(g: Graph, k: int) -> SeagullConditionReport:
    """Evaluate all five packing conditions for parameter k; no silent
    short-circuits.  Requires alpha(g) <= 2."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    triple = find_independent_triple(g)
    if triple is not None:
        raise AlphaTooLarge(f"independent triple {triple}")
    cond_size = g.n >= 3 * k
    conn, cut = is_k_connected_with_cut(g, k)
    # capacity: every clique C satisfies cap(C) >= (|V|-|C|)/2, so an upper
    # bound on the clique number can certify the condition without enumeration
    omega_ub = greedy_coloring_size(g)
    min_cap = None
    cap_witness = None
    if Fraction(g.n - omega_ub, 2) >= k:
        cond_capacity = True
    else:
        min_cap, cap_witness = min_capacity(g)
        cond_capacity = min_cap >= k
        if cond_capacity:
            cap_witness = None
    msize = complement_matching_size(g)
    fw = is_five_wheel(g)
    return SeagullConditionReport(
        k=k,
        cond_size=cond_size,
        cond_connectivity=conn,
        cond_capacity=cond_capacity,
        cond_matching=msize >= k,
        cond_five_wheel=not (k == 2 and fw),
        order=g.n,
        connectivity_cut=cut,
        min_cap=min_cap,
        capacity_witness=cap_witness,
        matching_size=msize,
        five_wheel=fw,
    )
