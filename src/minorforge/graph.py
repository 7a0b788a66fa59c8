"""Immutable simple graphs over dense 0-based vertex indices.

Adjacency is one Python int bitmask per vertex, so complement, contraction
and triangle scans are word-parallel.  Vertex sets everywhere in this
package are plain int bitmasks over the host graph's indices.

Every graph also carries the same bits as packed rows (Graph.rows, the
masks' own size), set when it is built; only this module knows their
layout.  The bulk steps that would otherwise loop over every edge in Python
gather the rows they need and unpack only those (unpack_rows), and
complement_rows gives the complement's rows.  from_adj builds a graph from
a square bool matrix.  A branch decomposition lists its parts once, by size
or from its part arrays, and contract and minor_violation share the listing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidDecomposition, ParseError


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _packed(masks: Sequence[int], n: int) -> np.ndarray:
    """len(masks) x ceil(n/8) uint8 rows; bit v of masks[i] is bit v % 8 of
    byte v // 8 of row i.  Every mask must be nonnegative and below
    2**(8 * ceil(n / 8))."""
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)


def unpack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The bool matrix of packed rows: bits 0..n-1 of each row."""
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)


def bit_matrix(masks: Sequence[int], n: int) -> np.ndarray:
    """len(masks) x n bool matrix; row i holds bits 0..n-1 of masks[i].

    Every mask must be nonnegative and below 2**(8 * ceil(n / 8)).
    """
    return unpack_rows(_packed(masks, n), n)


def _packed_masks(rows: np.ndarray) -> list[int]:
    """The inverse of _packed: one int mask per packed row."""
    count, width = rows.shape
    if not width:
        return [0] * count
    raw = rows.tobytes()
    from_bytes = int.from_bytes
    return [from_bytes(raw[i : i + width], "little") for i in range(0, count * width, width)]


def _part_listing(parts) -> list[tuple[int, list[int], np.ndarray]]:
    """(size, part indices, their vertices part after part) for each part
    size, in order of first appearance; parts are nonempty."""
    by_size: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    for i, p in enumerate(parts):
        which, verts = by_size[p.bit_count()]  # a new pair of lists per size only
        which.append(i)
        while p:  # bits(p) inlined: a generator per part cost more than this loop
            low = p & -p
            verts.append(low.bit_length() - 1)
            p ^= low
    return [(s, which, np.array(verts, dtype=np.intp)) for s, (which, verts) in by_size.items()]


def _or_rows_over_parts(mat: np.ndarray, listing, count: int) -> np.ndarray:
    """count x cols matrix whose row i ORs the rows of mat (one per host
    vertex, bool or packed) at the vertices of part i; listing is
    _part_listing's.

    Parts of one size are done together: with their vertices' rows gathered
    part after part, row slice o::s holds the o-th vertex of every part of
    size s, so s whole-slice ORs cover them all.
    """
    out = np.zeros((count, mat.shape[1]), dtype=mat.dtype)
    for s, which, verts in listing:
        rows = mat[verts]
        acc = rows[0::s]
        for o in range(1, s):
            acc |= rows[o::s]
        out[which] = acc
    return out


class Graph:
    """Simple undirected graph; immutable after construction.  rows is the
    adjacency as read-only packed rows: _packed(adj, n), pad bits clear."""

    __slots__ = ("n", "adj", "_m", "rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._m = sum(a.bit_count() for a in adj) // 2
        self.rows = _packed(adj, n)

    @classmethod
    def from_adj(cls, adj: np.ndarray) -> "Graph":
        """Build from a square bool adjacency matrix, which must be
        symmetric and loop-free."""
        square = isinstance(adj, np.ndarray) and adj.ndim == 2 and adj.shape[0] == adj.shape[1]
        if not square or adj.dtype != bool:
            raise ValueError("adjacency matrix must be a square bool array")
        loops = np.flatnonzero(adj.diagonal())
        if loops.size:
            raise ValueError(f"loop at vertex {loops[0]}")
        if (adj > adj.T).any():  # v->u without u->v (freed before the rows are packed)
            v, u = np.argwhere(adj > adj.T)[0]  # row-major: the first v, then its first u
            raise ValueError(f"asymmetric adjacency {v}->{u}")
        g = cls.__new__(cls)
        g.rows = np.packbits(adj, axis=1, bitorder="little")
        g.rows.flags.writeable = False
        g.n = len(adj)
        g.adj = tuple(_packed_masks(g.rows))
        g._m = int(np.count_nonzero(adj)) // 2
        return g

    def __reduce__(self):
        # rebuilt, and so re-checked, by from_adj
        return Graph.from_adj, (unpack_rows(self.rows, self.n),)

    @property
    def edge_count(self) -> int:
        return self._m

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """has_edge for each (us[i], vs[i]), as a bool array: one gather from rows."""
        return ((self.rows[us, vs >> 3] >> (vs & 7)) & 1).astype(bool)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def complement_adj(g: Graph) -> list[int]:
    """Per-vertex non-neighbour masks of g: the complement's adjacency."""
    full = g.vertex_mask
    return [full & ~(g.adj[v] | (1 << v)) for v in range(g.n)]


def complement_rows(g: Graph) -> np.ndarray:
    """The complement's adjacency as writable packed rows in Graph.rows'
    layout: ~g.rows with the pad bits past n and each vertex's own bit clear."""
    rows = ~g.rows
    if g.n % 8:
        rows[:, -1] &= 0xFF >> (8 - g.n % 8)
    v = np.arange(g.n)
    rows[v, v >> 3] &= ~(np.uint8(1) << (v & 7).astype(np.uint8))
    return rows


def complement(g: Graph) -> Graph:
    """Graph with edge uv exactly when uv is a non-edge of g (u != v)."""
    return Graph.from_adj(unpack_rows(complement_rows(g), g.n))


def induced_subgraph(g: Graph, subset: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on a vertex mask, relabelled to 0..|s|-1.

    Returns (subgraph, index_map) where index_map[new] = old vertex.
    """
    if subset & ~g.vertex_mask:
        raise ValueError("subset not within the vertex range")
    idx = np.flatnonzero(unpack_rows(_packed([subset], g.n), g.n)[0])
    # take gathers the columns in C order, which packbits packs about ten
    # times faster than the Fortran-ordered result of [:, idx]
    return Graph.from_adj(unpack_rows(g.rows[idx], g.n).take(idx, axis=1)), tuple(idx.tolist())


def complement_edge_count(g: Graph, subset: int) -> int:
    """Number of non-adjacent pairs of distinct vertices inside a mask."""
    total = 0
    for v in bits(subset):
        total += ((subset & ~g.adj[v]) >> (v + 1)).bit_count()
    return total


def reach_within(adj, start: int, subset: int) -> int:
    """Vertices of `subset` reachable from the mask `start` (inside it)
    along paths that stay in `subset`; adj[v] is v's neighbour mask."""
    reached = frontier = start
    while frontier:
        grow = 0
        for v in bits(frontier):
            grow |= adj[v]
        frontier = grow & subset & ~reached
        reached |= frontier
    return reached


def is_connected_subset(g: Graph, subset: int) -> bool:
    """True when the subgraph induced on a nonempty vertex mask is connected."""
    return bool(subset) and reach_within(g.adj, subset & -subset, subset) == subset


def _first_disconnected(g: Graph, parts, linked) -> int | None:
    """Index of the first part that induces a disconnected subgraph, or None.

    linked[i] says whether each vertex of part i has a neighbour inside it.
    A part of at most 3 vertices is connected exactly when it is one vertex
    or linked; larger parts are searched.
    """
    for i, p in enumerate(parts):
        size = p.bit_count()
        if size <= 3:
            if size > 1 and not linked[i]:
                return i
        elif not is_connected_subset(g, p):
            return i
    return None


@dataclass(frozen=True)
class BranchDecomposition:
    """Pairwise-disjoint vertex masks of a host graph, one per minor vertex.

    Construction checks disjointness, nonemptiness and range; connectivity of
    each part is checked by contract() and verify_minor().
    """

    host: Graph
    parts: tuple[int, ...]

    @cached_property
    def _listing(self):
        """_part_listing(self.parts), built on first use unless from_kinds set
        it: contract and minor_violation share it."""
        return _part_listing(self.parts)

    @classmethod
    def from_kinds(cls, host: Graph, *kinds: np.ndarray) -> "BranchDecomposition":
        """Parts from the rows of (parts x size) intp vertex arrays, listed from the arrays."""
        parts, listing = [], []
        for kind in filter(len, kinds):
            first, *rest = kind.T.tolist()  # a part's mask ORs its row's bits, column by column
            masks = [1 << v for v in first]
            for col in rest:
                masks = [m | 1 << v for m, v in zip(masks, col)]
            start = len(parts)
            parts += masks
            if rest and min(map(int.bit_count, masks)) <= len(rest):
                i = next(i for i, m in enumerate(masks) if m.bit_count() <= len(rest))
                raise InvalidDecomposition(f"part {start + i} repeats a vertex")
            listing.append((len(rest) + 1, list(range(start, len(parts))), kind.ravel()))
        d = cls(host=host, parts=tuple(parts))
        vars(d)["_listing"] = listing
        return d

    def __post_init__(self):
        n = self.host.n
        seen = 0
        for i, p in enumerate(self.parts):
            if p == 0:
                raise InvalidDecomposition(f"part {i} is empty")
            if p >> n:  # a bit past the last vertex, or p < 0
                raise InvalidDecomposition(f"part {i} is out of range")
            if p & seen:
                raise InvalidDecomposition(f"part {i} overlaps an earlier part")
            seen |= p

    def __len__(self) -> int:
        return len(self.parts)


def contract(g: Graph, d: BranchDecomposition) -> Graph:
    """Contract each branch set to one vertex; edge between parts when a
    g-edge joins them.  Every surviving vertex must be covered by a part
    (singletons included); uncovered vertices are simply deleted."""
    if d.host is not g and d.host != g:
        raise InvalidDecomposition("decomposition built for a different host")
    listing = d._listing
    # reach[i]: the vertices adjacent to part i, its neighbour masks ORed
    # slice by slice as in _or_rows_over_parts
    reach = [0] * len(d.parts)
    for s, which, verts in listing:
        nbrs = [g.adj[v] for v in verts.tolist()]
        acc = nbrs[0::s]
        for o in range(1, s):
            acc = [a | b for a, b in zip(acc, nbrs[o::s])]
        for i, r in zip(which, acc):
            reach[i] = r
    i = _first_disconnected(g, d.parts, [(p & r) == p for p, r in zip(d.parts, reach)])
    if i is not None:
        raise InvalidDecomposition(f"part {i} induces a disconnected subgraph")
    # h[i, j]: part i reaches some vertex of part j.  Row v of reach's
    # transpose holds the parts that reach host vertex v, so ORing those rows
    # over part j's vertices gives column j of h, which is its row j because
    # the host, and so h, is symmetric.
    h = _or_rows_over_parts(np.ascontiguousarray(bit_matrix(reach, g.n).T), listing, len(d.parts))
    np.fill_diagonal(h, False)
    return Graph.from_adj(h)


def minor_violation(g: Graph, h: Graph, d: BranchDecomposition) -> str | None:
    """Reason the decomposition fails to witness h as a minor of g, or None.

    Re-checks everything from scratch; trusts no invariant of the inputs.
    """
    if len(d.parts) != h.n:
        return f"part_count: {len(d.parts)} parts for {h.n} minor vertices"
    n = g.n
    seen = 0
    for i, p in enumerate(d.parts):
        if p == 0:
            return f"empty_part: {i}"
        if p >> n:
            return f"out_of_range: part {i}"
        if p & seen:
            return f"overlap: part {i}"
        seen |= p
    # near[i]: the host vertices adjacent to part i, from the host's packed
    # rows alone (OR over the part's rows); joined[i, j]: some g-edge runs
    # between parts i and j (near's columns, as rows, ORed over part j)
    listing = d._listing
    near = unpack_rows(_or_rows_over_parts(g.rows, listing, len(d.parts)), g.n)
    linked = np.empty(len(d.parts), dtype=bool)
    for s, which, verts in listing:
        linked[which] = near[np.repeat(which, s), verts].reshape(-1, s).all(axis=1)
    i = _first_disconnected(g, d.parts, linked.tolist())
    if i is not None:
        return f"disconnected_part: {i}"
    joined = _or_rows_over_parts(np.ascontiguousarray(near.T), listing, len(d.parts))
    bad = unpack_rows(h.rows, h.n) & ~joined
    if not bad.any():
        return None
    rows, cols = np.nonzero(bad)  # row-major; h and joined are symmetric
    first = (cols > rows).argmax()  # the first in h.edges() order
    return f"missing_cross_edge: ({rows[first]},{cols[first]})"


def verify_minor(g: Graph, h: Graph, d: BranchDecomposition) -> bool:
    """True when d witnesses h as a minor of g."""
    return minor_violation(g, h, d) is None


# --- text format ------------------------------------------------------------
#
# Line `p <n> <m>`, then m lines `e <u> <v>` with 1-based endpoints, u < v,
# no duplicates.  Lines starting with `c` are comments.  The writer emits the
# e lines sorted, so equal graphs produce equal bytes; the reader accepts any
# order.

# Largest order the reader accepts.  A graph of order n takes up to n^2/8
# bytes in n-bit adjacency ints (128 MiB at this order) and as much again in
# its packed rows; from_adj's input and symmetry check and the minor re-check
# hold n x n bool matrices of n^2 bytes each while they run (1 GiB each at
# this order).  A larger header is refused before anything is allocated.
MAX_ORDER = 1 << 15


def text_lines(g: Graph) -> Iterator[str]:
    """The text format of g in pieces: the p line, then the e lines of one
    vertex row at a time, so a writer never holds the whole text."""
    yield f"p {g.n} {g.edge_count}\n"
    ends = [f"{v + 1}\n" for v in range(g.n)]
    for u in range(g.n):
        head = f"e {u + 1} "
        later = np.flatnonzero(unpack_rows(g.rows[u : u + 1], g.n)[0, u + 1 :]) + (u + 1)
        yield "".join([head + ends[v] for v in later.tolist()])


def to_text(g: Graph) -> str:
    return "".join(text_lines(g))


def from_text(text: str) -> Graph:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate p line")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer p fields") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative count")
            if n > MAX_ORDER:
                raise ParseError(f"line {lineno}: order {n} exceeds the limit {MAX_ORDER}")
        elif fields[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: e line before p line")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoints") from None
            if not (1 <= u < v <= n):
                raise ParseError(f"line {lineno}: endpoints must satisfy 1 <= u < v <= n")
            if (u, v) in seen:
                raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
            seen.add((u, v))
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unknown line type {fields[0]!r}")
    if n is None:
        raise ParseError("missing p line")
    if m != len(edges):
        raise ParseError(f"p line announces {m} edges, found {len(edges)}")
    return Graph(n, edges)


def write_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(text_lines(g))


def read_graph(path) -> Graph:
    with open(path) as fh:
        return from_text(fh.read())
