"""Properties of the graph primitives against the edge-set oracles of conftest.

Every property runs once per byte-boundary order (a mask's byte length
changes between 7/8/9 and 63/64/65 vertices) and once with a drawn order.
"""

import pickle
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    members,
    oracle_adjacency_error,
    oracle_contract,
    oracle_induced,
    oracle_minor_violation,
    oracle_neighbours,
    row_masks,
    vertex_mask,
)
from minorforge.errors import InvalidDecomposition
from minorforge.generators import triangle_free_process_complement
from minorforge.graph import (
    BranchDecomposition,
    Graph,
    _packed,
    _part_listing,
    bit_matrix,
    complement,
    complement_adj,
    complement_rows,
    contract,
    from_text,
    induced_subgraph,
    minor_violation,
    to_text,
    unpack_rows,
)
from minorforge.pipeline import PipelineConfig, PreparedPipeline
from minorforge.rng import trial_rng

BYTE_EDGE_ORDERS = (0, 1, 7, 8, 9, 63, 64, 65)
MAX_DRAWN_ORDER = 70
ORDERS = pytest.mark.parametrize("order", BYTE_EDGE_ORDERS + (None,))
PROPERTY = settings(max_examples=30, deadline=None)


def draw_graph(data, order):
    """(graph, edge set, seeded Random) with the order fixed or drawn."""
    n = data.draw(st.integers(0, MAX_DRAWN_ORDER)) if order is None else order
    density = data.draw(st.sampled_from((0.0, 0.05, 0.3, 0.7, 1.0)))
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density}
    return Graph(n, edges), edges, rnd


def random_decomposition(n, edges, rnd) -> list[int]:
    """Disjoint connected parts grown from random seeds along edges; some
    vertices stay uncovered, and with cover 0 there are no parts at all."""
    nbrs = oracle_neighbours(n, edges)
    cover = rnd.choice((0.0, 0.3, 0.8, 1.0))
    free = set(range(n))
    order = list(range(n))
    rnd.shuffle(order)
    parts = []
    for s in order:
        if s not in free or rnd.random() >= cover:
            continue
        free.discard(s)
        part, size = [s], rnd.choice((1, 2, 3, 4, 9, MAX_DRAWN_ORDER))
        while len(part) < size:
            grow = sorted({u for v in part for u in nbrs[v] if u in free})
            if not grow:
                break
            u = rnd.choice(grow)
            free.discard(u)
            part.append(u)
        parts.append(vertex_mask(part))
    rnd.shuffle(parts)
    return parts


def unchecked_decomposition(g, parts) -> BranchDecomposition:
    """A decomposition that skips the constructor's checks, so the
    independent re-check in minor_violation sees malformed parts."""
    d = object.__new__(BranchDecomposition)
    object.__setattr__(d, "host", g)
    object.__setattr__(d, "parts", tuple(parts))
    return d


@ORDERS
@PROPERTY
@given(data=st.data())
def test_induced_subgraph_matches_oracle(order, data):
    g, edges, rnd = draw_graph(data, order)
    keep = rnd.choice((0.0, 0.5, 1.0))
    vertices = [v for v in range(g.n) if rnd.random() < keep]
    sub, idx = induced_subgraph(g, vertex_mask(vertices))
    assert idx == tuple(vertices)
    assert sub == Graph(len(vertices), oracle_induced(edges, vertices))


@ORDERS
@PROPERTY
@given(data=st.data())
def test_contract_matches_oracle(order, data):
    g, edges, rnd = draw_graph(data, order)
    parts = random_decomposition(g.n, edges, rnd)
    h = contract(g, BranchDecomposition(host=g, parts=tuple(parts)))
    assert h == Graph(len(parts), oracle_contract(edges, parts))


# disconnected parts: two non-adjacent vertices; two disjoint edges with no
# edge between them and one edge plus a vertex adjacent to neither end, the
# 4- and 3-vertex parts where the question is whether every vertex has a
# neighbour inside the part
DISCONNECTED = ("disconnected", "two_edges", "edge_and_vertex")
MUTATIONS = ("none", "remove_edge", "add_edge", "empty", "overlap", "out_of_range") + DISCONNECTED


def disconnected_part(kind, n, edges, parts, rnd) -> int:
    """A part of the given disconnected kind on vertices no part covers, or
    0 when there is none (for the two edge kinds: none in 200 random tries)."""
    covered = vertex_mask(v for p in parts for v in members(p))
    free = [v for v in range(n) if not (covered >> v) & 1]
    if kind == "disconnected":
        apart = [(u, v) for u, v in combinations(free, 2) if (u, v) not in edges]
        return vertex_mask(rnd.choice(apart)) if apart else 0
    inner = [(u, v) for u, v in combinations(free, 2) if (u, v) in edges]
    if not inner:
        return 0
    for _ in range(200):
        edge = rnd.choice(inner)
        other = rnd.choice(inner) if kind == "two_edges" else (rnd.choice(free),)
        if set(edge) & set(other):
            continue
        if all((min(u, v), max(u, v)) not in edges for u in edge for v in other):
            return vertex_mask(edge + other)
    return 0


def mutate(kind, n, edges, parts, h_edges, rnd):
    """Apply one defect to a valid (parts, minor edges) witness."""
    parts, h_edges = list(parts), set(h_edges)
    k = len(parts)
    if kind == "remove_edge" and h_edges:
        h_edges.discard(rnd.choice(sorted(h_edges)))
    elif kind == "add_edge":
        absent = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) not in h_edges]
        if absent:
            h_edges.add(rnd.choice(absent))
    elif kind == "empty":
        parts.insert(rnd.randint(0, k), 0)
    elif kind == "overlap" and n:
        v = rnd.randrange(n)
        if parts:
            i = rnd.randrange(k)
            parts[i] |= 1 << v
            parts.insert(rnd.randint(0, k), 1 << v)
        else:
            parts = [1 << v, 1 << v]
    elif kind == "out_of_range":
        extra = 1 << (n + rnd.randrange(9))
        if parts:
            parts[rnd.randrange(k)] |= extra
        else:
            parts = [extra]
    elif kind in DISCONNECTED:
        part = disconnected_part(kind, n, edges, parts, rnd)
        if part:
            parts.insert(rnd.randint(0, k), part)
    if len(parts) != k:
        # keep the part count equal to the minor's order so the structural
        # check, not part_count, is what reports the defect
        h_edges = {(i, j) for i, j in h_edges if j < len(parts)}
    return parts, h_edges


@pytest.mark.parametrize("kind", MUTATIONS)
@ORDERS
@PROPERTY
@given(data=st.data())
def test_minor_violation_matches_oracle(kind, order, data):
    g, edges, rnd = draw_graph(data, order)
    parts = random_decomposition(g.n, edges, rnd)
    parts, h_edges = mutate(kind, g.n, edges, parts, oracle_contract(edges, parts), rnd)
    h_n = len(parts)
    h = Graph(h_n, h_edges)
    expected = oracle_minor_violation(g.n, edges, h_n, h_edges, parts)
    assert minor_violation(g, h, unchecked_decomposition(g, parts)) == expected
    if kind in ("none", "remove_edge"):
        assert expected is None


@pytest.mark.parametrize("kind", DISCONNECTED)
@ORDERS
@PROPERTY
@given(data=st.data())
def test_contract_refuses_the_oracles_first_disconnected_part(kind, order, data):
    g, edges, rnd = draw_graph(data, order)
    parts = random_decomposition(g.n, edges, rnd)
    for _ in range(2):  # up to two disconnected parts, so "first" is tested
        parts, _ = mutate(kind, g.n, edges, parts, set(), rnd)
    d = BranchDecomposition(host=g, parts=tuple(parts))
    expected = oracle_minor_violation(g.n, edges, len(parts), set(), parts)
    if expected is None:
        assert contract(g, d) == Graph(len(parts), oracle_contract(edges, parts))
        return
    assert expected.startswith("disconnected_part: ")
    i = expected.removeprefix("disconnected_part: ")
    with pytest.raises(InvalidDecomposition, match=f"^part {i} induces a disconnected subgraph$"):
        contract(g, d)


def test_contract_and_minor_violation_match_oracles_on_tfp400_trials():
    # the properties draw hosts of at most MAX_DRAWN_ORDER vertices; these
    # are the decompositions a TFP(400) batch contracts and re-checks
    prep = PreparedPipeline(
        triangle_free_process_complement(400, trial_rng(0, 0)),
        PipelineConfig(lambda_policy="clamped", seed=0),
    )
    g = prep.g
    edges = set(g.edges())
    rnd = random.Random(400)
    for trial in range(3):
        parts = prep.run(trial).decomposition.parts
        assert {p.bit_count() for p in parts} == {1, 2, 3}
        d = BranchDecomposition(host=g, parts=parts)
        h_edges = oracle_contract(edges, parts)
        h = contract(g, d)
        assert h == Graph(len(parts), h_edges)
        assert minor_violation(g, h, d) is None
        assert oracle_minor_violation(g.n, edges, h.n, h_edges, parts) is None
        absent = [(i, j) for i, j in combinations(range(h.n), 2) if (i, j) not in h_edges]
        extra = h_edges | {rnd.choice(absent)}
        expected = oracle_minor_violation(g.n, edges, h.n, extra, parts)
        assert expected.startswith("missing_cross_edge: ")
        assert minor_violation(g, Graph(h.n, extra), d) == expected


@ORDERS
@PROPERTY
@given(data=st.data())
def test_minor_violation_part_count_matches_oracle(order, data):
    g, edges, rnd = draw_graph(data, order)
    parts = random_decomposition(g.n, edges, rnd)
    h_n = len(parts) + rnd.choice((-1, 1)) if parts else 1
    expected = oracle_minor_violation(g.n, edges, h_n, set(), parts)
    assert expected.startswith("part_count")
    assert minor_violation(g, Graph(h_n), BranchDecomposition(host=g, parts=tuple(parts))) == expected


@ORDERS
@PROPERTY
@given(data=st.data())
def test_from_adj_refuses_one_flipped_bit_like_the_oracle(order, data):
    g, _, rnd = draw_graph(data, order)
    mat = bit_matrix(g.adj, g.n)
    assert Graph.from_adj(mat) == g
    if not g.n:
        return
    mat[rnd.randrange(g.n), rnd.randrange(g.n)] ^= True
    expected = oracle_adjacency_error(row_masks(mat))
    assert expected is not None
    with pytest.raises(ValueError) as exc:
        Graph.from_adj(mat)
    assert str(exc.value) == expected


def draw_matrix(data, order):
    """A square bool matrix: a graph's adjacency, that with one bit flipped
    (a loop when the bit is on the diagonal), or independent random bits."""
    g, _, rnd = draw_graph(data, order)
    mat = bit_matrix(g.adj, g.n)
    kind = data.draw(st.sampled_from(("graph", "flipped", "random")))
    if kind == "flipped" and g.n:
        mat[rnd.randrange(g.n), rnd.randrange(g.n)] ^= True
    elif kind == "random":
        mat = np.array([rnd.random() < 0.5 for _ in range(g.n * g.n)], dtype=bool).reshape(g.n, g.n)
        if g.n and data.draw(st.booleans()):
            mat |= mat.T  # symmetric, loops left as drawn
    return mat


@ORDERS
@PROPERTY
@given(data=st.data())
def test_from_adj_on_a_matrix_is_from_adj_on_its_masks(order, data):
    mat = draw_matrix(data, order)
    expected = oracle_adjacency_error(row_masks(mat))
    if expected is None:
        g = Graph.from_adj(mat)
        assert g == Graph(len(mat), np.argwhere(np.triu(mat)).tolist())
        assert g.edge_count == int(mat.sum()) // 2
        return
    with pytest.raises(ValueError) as exc:
        Graph.from_adj(mat)
    assert str(exc.value) == expected


@pytest.mark.parametrize(
    "mat",
    [
        np.zeros((2, 3), dtype=bool),
        np.zeros((3,), dtype=bool),
        np.zeros((2, 2, 2), dtype=bool),
        np.zeros((3, 3), dtype=np.uint8),
        np.zeros((3, 3), dtype=np.int64),
    ],
    ids=["2x3", "1-d", "3-d", "uint8", "int64"],
)
def test_from_adj_refuses_a_matrix_that_is_not_square_bool(mat):
    with pytest.raises(ValueError, match="^adjacency matrix must be a square bool array$"):
        Graph.from_adj(mat)


@pytest.mark.parametrize("order", BYTE_EDGE_ORDERS)
def test_cached_rows_are_the_bit_matrix_and_equality_ignores_them(order):
    rnd = random.Random(order)
    edges = {(u, v) for u in range(order) for v in range(u + 1, order) if rnd.random() < 0.4}
    built = [Graph(order, edges), Graph.from_adj(bit_matrix(Graph(order, edges).adj, order))]
    for g in built + [pickle.loads(pickle.dumps(g)) for g in built]:
        rows = g.rows
        assert rows.shape == (order, (order + 7) // 8) and rows.dtype == np.uint8
        assert not rows.flags.writeable
        assert np.array_equal(rows, _packed(g.adj, order))
        assert np.array_equal(unpack_rows(rows, order), bit_matrix(g.adj, order))
        assert g == Graph(order, edges) and hash(g) == hash(Graph(order, edges))


@pytest.mark.parametrize("order", BYTE_EDGE_ORDERS)
def test_complement_rows_are_the_packed_complement_masks(order):
    rnd = random.Random(order)
    for density in (0.0, 0.4, 1.0):
        edges = {(u, v) for u in range(order) for v in range(u + 1, order) if rnd.random() < density}
        g = Graph(order, edges)
        assert np.array_equal(complement_rows(g), _packed(complement_adj(g), order))
        assert complement(complement(g)) == g


@pytest.mark.parametrize("order", BYTE_EDGE_ORDERS)
def test_cached_part_listing_is_the_listing_of_the_parts(order):
    rnd = random.Random(order)
    edges = {(u, v) for u in range(order) for v in range(u + 1, order) if rnd.random() < 0.4}
    g = Graph(order, edges)
    parts = tuple(random_decomposition(order, edges, rnd))
    for d in (BranchDecomposition(host=g, parts=parts), unchecked_decomposition(g, parts)):
        fresh = BranchDecomposition(host=g, parts=parts)
        listing = d._listing
        assert d._listing is listing
        expected = _part_listing(parts)
        assert [(s, which) for s, which, _ in listing] == [(s, which) for s, which, _ in expected]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(listing, expected))
        assert d == fresh and hash(d) == hash(fresh)  # fresh has no listing yet


@ORDERS
@PROPERTY
@given(data=st.data())
def test_kind_array_listing_is_the_listing_of_the_parts(order, data):
    g, edges, rnd = draw_graph(data, order)
    # disjoint parts, one kind per size in a drawn order, rows in any vertex
    # order, and a kind with no parts somewhere among them
    free = rnd.sample(range(g.n), g.n)
    kinds = []
    for size in rnd.sample((1, 2, 3, 5), rnd.randint(1, 4)):
        count = rnd.randint(0, len(free) // size)
        kinds.append(np.array(free[: size * count], dtype=np.intp).reshape(count, size))
        del free[: size * count]
    kinds.insert(rnd.randint(0, len(kinds)), np.empty((0, 4), dtype=np.intp))
    parts = tuple(vertex_mask(row) for kind in kinds for row in kind.tolist())
    d = BranchDecomposition.from_kinds(g, *kinds)
    fresh = BranchDecomposition(host=g, parts=parts)
    assert d == fresh
    listing, expected = d._listing, _part_listing(parts)
    assert [(s, which) for s, which, _ in listing] == [(s, which) for s, which, _ in expected]
    for (s, _, verts), (_, _, want) in zip(listing, expected):
        assert verts.dtype == np.intp
        assert np.sort(verts.reshape(-1, s)).tolist() == want.reshape(-1, s).tolist()
    full = Graph(len(parts), combinations(range(len(parts)), 2))
    assert minor_violation(g, full, d) == minor_violation(g, full, fresh)


def test_kind_arrays_are_refused_like_their_parts():
    g = Graph(6, [(0, 1), (1, 2)])
    singles = np.array([[0], [5]], dtype=np.intp)
    for pairs, message in (
        ([[1, 2], [3, 3]], "part 3 repeats a vertex"),
        ([[1, 2], [3, 5]], "part 3 overlaps an earlier part"),
        ([[1, 2], [3, 6]], "part 3 is out of range"),
    ):
        with pytest.raises(InvalidDecomposition) as exc:
            BranchDecomposition.from_kinds(g, singles, np.array(pairs, dtype=np.intp))
        assert str(exc.value) == message


@ORDERS
@PROPERTY
@given(data=st.data())
def test_text_roundtrip(order, data):
    g, _, _ = draw_graph(data, order)
    assert from_text(to_text(g)) == g


@ORDERS
@PROPERTY
@given(data=st.data())
def test_bit_matrix_rows_are_the_mask_bits(order, data):
    n = data.draw(st.integers(0, MAX_DRAWN_ORDER)) if order is None else order
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    mat = bit_matrix(masks, n)
    assert mat.shape == (len(masks), n) and mat.dtype == bool
    assert [[bool((m >> v) & 1) for v in range(n)] for m in masks] == mat.tolist()
    assert row_masks(mat) == masks
