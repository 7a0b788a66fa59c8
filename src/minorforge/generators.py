"""Generators for graphs with independence number at most two.

Every construction is the complement of a triangle-free graph, so the
alpha <= 2 guarantee is by construction; tests re-verify it anyway.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownName
from .graph import MAX_ORDER, Graph, bit_matrix, complement
from .rng import trial_rng

# The triangle-free process visits the pairs in batches of this many, so
# only one batch at a time exists as Python ints.
TFP_CHUNK = 8192


def check_tfp_order(n: int) -> None:
    """Refuse a triangle-free process order before anything is allocated.
    The build grows about as n^3: 9.2 s at 6400 and 19.3 s at 8192 (2-core
    VM), so orders above 8192 are refused."""
    if n < 0:
        raise ValueError(f"tfp order {n} must be nonnegative")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the limit {MAX_ORDER}")
    if n > 8192:
        raise ValueError(f"tfp order {n} exceeds the limit 8192 (the build grows as n^3)")


def triangle_free_process_complement(num_vertices: int, rng: np.random.Generator) -> Graph:
    """Complement of a maximal triangle-free graph grown by the random
    process: visit all vertex pairs in uniform order, insert each edge
    unless it closes a triangle."""
    check_tfp_order(num_vertices)
    n = num_vertices
    # pair q is the q-th pair u < v in row-major order; shuffling a uint32
    # arange draws what rng.permutation does (N < 2**32 up to MAX_ORDER) in
    # a sixth of the memory of the int64 permutation plus triu_indices
    order = np.arange(n * (n - 1) // 2, dtype=np.uint32)
    rng.shuffle(order)
    # row u's pairs start at u(2n - u - 1)/2, so u is the floor of the
    # smaller root of u^2 - bu + 2q with b = 2n - 1: exact in doubles, since
    # a row start makes the discriminant a perfect square and any other q
    # keeps the root at least 1/n from an integer
    b = 2 * n - 1
    adj = [0] * n
    for start in range(0, len(order), TFP_CHUNK):
        q = order[start : start + TFP_CHUNK].astype(np.int64)
        us = (b - np.sqrt(b * b - 8 * q)).astype(np.int64) >> 1
        vs = q - (us * (b - us) >> 1) + us + 1
        for u, v in zip(us.tolist(), vs.tolist()):
            if adj[u] & adj[v]:
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    del order  # 2n^2 bytes, freed before the n^2-byte matrices that set the peak
    cadj = ~bit_matrix(adj, n)
    np.fill_diagonal(cadj, False)
    return Graph.from_adj(cadj)


def _blowup(pattern: np.ndarray, sizes) -> Graph:
    """Part i is sizes[i] consecutive vertices (or sizes each, for an int);
    parts i and j are joined when pattern[i, j], a part is a clique when
    pattern[i, i]."""
    adj = np.repeat(np.repeat(pattern, sizes, axis=0), sizes, axis=1)
    np.fill_diagonal(adj, False)
    return Graph.from_adj(adj)


def c5_blowup_complement(t: int) -> Graph:
    """Complement of the five-cycle blow-up with parts of size t: 5t
    vertices, clique number 2t."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if 5 * t > MAX_ORDER:
        raise ValueError(f"order {5 * t} exceeds the limit {MAX_ORDER}")
    # part i is joined to every part but i +- 1 (mod 5), its five-cycle neighbours
    step = np.roll(np.eye(5, dtype=bool), 1, axis=1)
    return _blowup(~(step | step.T), t)


def two_clique_complement(s: int, t: int) -> Graph:
    """Two disjoint cliques of sizes s and t (the complement of a complete
    bipartite graph).  Pipeline-ineligible; an edge-case supplier."""
    if s < 0 or t < 0:
        raise ValueError("sizes must be nonnegative")
    if s + t > MAX_ORDER:
        raise ValueError(f"order {s + t} exceeds the limit {MAX_ORDER}")
    return _blowup(np.eye(2, dtype=bool), (s, t))


def _petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))            # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))    # inner pentagram
        edges.append((i, 5 + i))                  # spokes
    return Graph(10, edges)


def _five_wheel() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    return Graph(6, edges)


def _circulant13_minus_one_complement() -> Graph:
    # circulant on 13 vertices with connection set {1, 5}: triangle-free with
    # independence number 4; dropping one vertex leaves 12 = 3*4 vertices
    edges = []
    for u in range(13):
        for d in (1, 5):
            v = (u + d) % 13
            edges.append((min(u, v), max(u, v)))
    c13 = Graph(13, sorted(set(edges)))
    kept = [(u, v) for u, v in c13.edges() if u != 12 and v != 12]
    return complement(Graph(12, kept))


# The fixed named graphs; k_n, which also takes an order, is named_graph's own case.
_NAMED = {
    "five_wheel": _five_wheel,
    "c5": lambda: Graph(5, [(i, (i + 1) % 5) for i in range(5)]),
    "p3": lambda: Graph(3, [(0, 1), (1, 2)]),
    "petersen": _petersen,
    "petersen_complement": lambda: complement(_petersen()),
    "circulant13_minus_one_complement": _circulant13_minus_one_complement,
}
NAMED_GRAPHS = (*_NAMED, "k_n")


def named_graph(name: str, order: int | None = None) -> Graph:
    """Fixed-labelling named graphs; k_n additionally takes the order."""
    if name == "k_n":
        if order is None or order < 0:
            raise UnknownName("k_n needs a nonnegative order")
        if order > MAX_ORDER:
            raise ValueError(f"order {order} exceeds the limit {MAX_ORDER}")
        return Graph.from_adj(~np.eye(order, dtype=bool))
    if name not in _NAMED:
        raise UnknownName(f"unknown named graph {name!r}")
    return _NAMED[name]()


def generate(family: str, *, n=None, t=None, sizes=None, name=None, order=None, seed=0) -> Graph:
    """Build an instance of a family: tfp (n vertices, seed), c5blowup (part
    size t), two_clique (sizes S, T) or named (name, and order for k_n); a
    missing argument raises ValueError naming the command-line option that
    supplies it."""
    if family == "tfp":
        if n is None:
            raise ValueError("tfp needs --n")
        return triangle_free_process_complement(n, trial_rng(seed))
    if family == "c5blowup":
        if t is None:
            raise ValueError("c5blowup needs --t")
        return c5_blowup_complement(t)
    if family == "two_clique":
        if sizes is None or len(sizes) != 2:
            raise ValueError("two_clique needs --sizes S,T")
        return two_clique_complement(*sizes)
    if family == "named":
        if name is None:
            raise ValueError("named needs --named")
        return named_graph(name, order)
    raise ValueError(f"unknown family {family!r}")
