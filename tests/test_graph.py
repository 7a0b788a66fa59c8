import math
import os
import tracemalloc

import numpy as np
import pytest

from minorforge.errors import InvalidDecomposition, ParseError
from minorforge.generators import named_graph, triangle_free_process_complement
from minorforge.graph import (
    MAX_ORDER,
    BranchDecomposition,
    Graph,
    bits,
    complement,
    complement_edge_count,
    contract,
    from_text,
    induced_subgraph,
    is_connected_subset,
    mask_of,
    minor_violation,
    text_lines,
    to_text,
    verify_minor,
    write_graph,
)
from minorforge.rng import trial_rng


def k_n(n):
    return named_graph("k_n", n)


def c_n(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_has_edges_reads_each_pair_from_the_rows():
    # ten vertices, so queries reach bits 4-7 of a row byte and a second byte
    edges = {(i, (i + 1) % 10) for i in range(10)} | {(0, 5), (3, 7), (2, 9)}
    g = Graph(10, edges)
    us, vs = np.divmod(np.arange(100), 10)
    expect = [(u, v) in edges or (v, u) in edges for u, v in zip(us.tolist(), vs.tolist())]
    got = g.has_edges(us, vs)
    assert got.dtype == bool and got.tolist() == expect


def test_complement_complete_is_empty():
    g = complement(k_n(3))
    assert g.edge_count == 0 and g.n == 3


def test_complement_c5_is_c5_isomorph():
    comp = complement(c_n(5))
    # explicit isomorphism: v -> 2v mod 5 maps C5 onto its complement
    expect = {(min(2 * u % 5, 2 * v % 5), max(2 * u % 5, 2 * v % 5)) for u, v in c_n(5).edges()}
    assert set(comp.edges()) == expect


def test_complement_involution_petersen(petersen):
    assert complement(complement(petersen)) == petersen


def test_complement_edge_count_identity():
    for i in range(5):
        g = triangle_free_process_complement(12, trial_rng(7, i))
        assert g.edge_count + complement(g).edge_count == math.comb(12, 2)


def test_complement_edge_count_within_mask():
    for i in range(5):
        g = triangle_free_process_complement(12, trial_rng(7, i))
        assert complement_edge_count(g, g.vertex_mask) == complement(g).edge_count
        sub, _ = induced_subgraph(g, mask_of([0, 3, 4, 8, 11]))
        assert complement_edge_count(g, mask_of([0, 3, 4, 8, 11])) == complement(sub).edge_count


def test_induced_subgraph_path_from_c5():
    sub, idx = induced_subgraph(c_n(5), mask_of([0, 1, 2]))
    assert idx == (0, 1, 2)
    assert set(sub.edges()) == {(0, 1), (1, 2)}


def test_induced_subgraph_identity():
    g = c_n(6)
    sub, idx = induced_subgraph(g, g.vertex_mask)
    assert sub == g and idx == tuple(range(6))


def test_induced_subgraph_k6_minus_two_is_k4():
    sub, _ = induced_subgraph(k_n(6), mask_of([1, 2, 4, 5]))
    assert sub == k_n(4)


def test_contract_k4_edge_gives_k3():
    g = k_n(4)
    d = BranchDecomposition(host=g, parts=(mask_of([0, 1]), 1 << 2, 1 << 3))
    assert contract(g, d) == k_n(3)


def test_contract_whole_path_gives_point():
    g = Graph(3, [(0, 1), (1, 2)])
    d = BranchDecomposition(host=g, parts=(mask_of([0, 1, 2]),))
    h = contract(g, d)
    assert h.n == 1 and h.edge_count == 0


def test_contract_rejects_overlap_and_disconnected():
    g = c_n(5)
    with pytest.raises(InvalidDecomposition):
        BranchDecomposition(host=g, parts=(mask_of([0, 1]), mask_of([1, 2])))
    d = BranchDecomposition(host=g, parts=(mask_of([0, 2]), 1 << 1))
    with pytest.raises(InvalidDecomposition):
        contract(g, d)


def test_contract_edge_count_cap():
    for i in range(5):
        g = triangle_free_process_complement(12, trial_rng(3, i))
        parts = tuple(1 << v for v in range(0, 12, 2))  # six singletons
        h = contract(g, BranchDecomposition(host=g, parts=parts))
        assert h.edge_count <= math.comb(len(parts), 2)


def test_verify_minor_k4_k3():
    g = k_n(4)
    d = BranchDecomposition(host=g, parts=(mask_of([0, 1]), 1 << 2, 1 << 3))
    assert verify_minor(g, k_n(3), d)


def test_verify_minor_missing_cross_edge():
    g = Graph(4, [(0, 1), (1, 2)])  # path; vertices 2,3 not adjacent
    d = BranchDecomposition(host=g, parts=(1 << 0, 1 << 2, 1 << 3))
    assert not verify_minor(g, k_n(3), d)
    assert "missing_cross_edge" in minor_violation(g, k_n(3), d)


def test_verify_minor_part_count_reason():
    g = k_n(4)
    d = BranchDecomposition(host=g, parts=(1 << 0, 1 << 1))
    assert minor_violation(g, k_n(3), d).startswith("part_count")


def test_contract_then_verify_roundtrip():
    for i in range(5):
        g = triangle_free_process_complement(14, trial_rng(11, i))
        parts = (mask_of([0, 1]) if g.has_edge(0, 1) else mask_of([0]),) + tuple(
            1 << v for v in range(2, 14)
        )
        d = BranchDecomposition(host=g, parts=parts)
        h = contract(g, d)
        assert verify_minor(g, h, d)


def test_connected_subset():
    g = c_n(6)
    assert is_connected_subset(g, mask_of([0, 1, 2]))
    assert not is_connected_subset(g, mask_of([0, 2]))
    assert not is_connected_subset(g, 0)


def test_text_roundtrip_bit_exact():
    for i in range(3):
        g = triangle_free_process_complement(13, trial_rng(5, i))
        text = to_text(g)
        assert from_text(text) == g
        assert to_text(from_text(text)) == text


def test_text_format_shape():
    g = Graph(3, [(0, 2)])
    assert to_text(g) == "p 3 1\ne 1 3\n"
    parsed = from_text("c comment line\np 3 1\ne 1 3\n")
    assert parsed == g


def test_text_lines_are_the_text_a_row_at_a_time(tmp_path):
    graphs = [Graph(0), Graph(1), Graph(3, [(0, 2)]), k_n(5)]
    graphs += [triangle_free_process_complement(13, trial_rng(5, i)) for i in range(3)]
    for g in graphs:
        pieces = list(text_lines(g))
        lines = [f"p {g.n} {g.edge_count}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()]
        assert "".join(pieces) == to_text(g) == "\n".join(lines) + "\n"
        # after the p line, one piece per vertex row, holding that row's edges
        assert pieces[0] == lines[0] + "\n" and len(pieces) == g.n + 1
        for u, piece in enumerate(pieces[1:], start=1):
            assert all(line.split()[1] == str(u) for line in piece.splitlines())
        write_graph(g, tmp_path / "g.txt")
        assert (tmp_path / "g.txt").read_text() == to_text(g)


def test_write_graph_streams_the_text():
    g = k_n(1024)  # 523,776 e lines, about 7 MB of text
    tracemalloc.start()
    try:
        write_graph(g, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one joined string of every line peaked at about 45 MB here
    assert peak < 1e6


@pytest.mark.parametrize(
    "bad",
    [
        "e 1 2\n",                # edge before header
        "p 3 2\ne 1 2\n",        # count mismatch
        "p 3 1\ne 2 1\n",        # u >= v
        "p 3 1\ne 1 4\n",        # out of range
        "p 3 2\ne 1 2\ne 1 2\n",  # duplicate
        "p 3 1\nq 1 2\n",        # unknown line
        "p x 1\ne 1 2\n",        # non-integer
        f"p {MAX_ORDER + 1} 0\n",  # order above the cap
    ],
)
def test_text_rejects_malformed(bad):
    with pytest.raises(ParseError):
        from_text(bad)


def test_text_accepts_the_largest_order():
    assert from_text(f"p {MAX_ORDER} 0\n").n == MAX_ORDER
