import tracemalloc

import numpy as np
import pytest

from conftest import (
    brute_max_clique_size,
    oracle_c5_blowup_complement,
    oracle_k_n,
    oracle_triangle_free_process_complement,
    oracle_two_clique_complement,
)
from minorforge.analysis import clique_number, is_alpha_le_2
from minorforge.errors import UnknownName
from minorforge.generators import (
    c5_blowup_complement,
    generate,
    named_graph,
    triangle_free_process_complement,
    two_clique_complement,
)
from minorforge.graph import Graph, complement
from minorforge.rng import trial_rng


def test_tfp_always_alpha2():
    for i in range(10):
        n = 5 + 3 * i
        g = triangle_free_process_complement(n, trial_rng(1, i))
        assert g.n == n and is_alpha_le_2(g)


def test_tfp_complement_is_maximal_triangle_free():
    g = triangle_free_process_complement(15, trial_rng(2))
    h = complement(g)
    # triangle-free
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if h.has_edge(u, v):
                assert not (h.adj[u] & h.adj[v])
    # maximal: every non-edge closes a triangle
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if not h.has_edge(u, v):
                assert h.adj[u] & h.adj[v], (u, v)


def test_tfp_deterministic():
    a = triangle_free_process_complement(20, trial_rng(5))
    b = triangle_free_process_complement(20, trial_rng(5))
    c = triangle_free_process_complement(20, trial_rng(6))
    assert a == b and a != c


def test_tfp_tiny():
    g = triangle_free_process_complement(3, trial_rng(0))
    assert is_alpha_le_2(g)


def test_c5_blowup_t1_is_c5():
    g = c5_blowup_complement(1)
    c5 = named_graph("c5")
    assert g.n == 5 and g.edge_count == 5
    assert all(g.degree(v) == 2 for v in range(5))
    assert is_alpha_le_2(g)  # 2-regular 5-vertex alpha<=2 graph must be C5
    assert clique_number(g) == clique_number(c5) == 2


def test_c5_blowup_t2():
    g = c5_blowup_complement(2)
    assert g.n == 10
    assert is_alpha_le_2(g)
    assert clique_number(g) == 4 == brute_max_clique_size(g)


def test_c5_blowup_omega_formula():
    for t in (1, 2, 3):
        g = c5_blowup_complement(t)
        assert is_alpha_le_2(g)
        assert clique_number(g) == 2 * t


def test_two_clique_complement():
    g = two_clique_complement(3, 4)
    assert g.n == 7 and is_alpha_le_2(g)
    assert clique_number(g) == 4
    assert complement(g).edge_count == 12  # K_{3,4}


def test_named_five_wheel():
    g = named_graph("five_wheel")
    assert g.n == 6 and g.edge_count == 10


def test_named_petersen_complement():
    g = named_graph("petersen_complement")
    assert is_alpha_le_2(g)
    assert clique_number(g) == 4 == brute_max_clique_size(g)


def test_named_circulant_instance():
    g = named_graph("circulant13_minus_one_complement")
    assert g.n == 12
    assert is_alpha_le_2(g)
    assert clique_number(g) == 4 == brute_max_clique_size(g)


def test_named_k_n():
    g = named_graph("k_n", 6)
    assert g.edge_count == 15
    with pytest.raises(UnknownName):
        named_graph("k_n")


def test_named_unknown():
    with pytest.raises(UnknownName):
        named_graph("dodecahedron")


def test_generate_dispatch():
    assert generate("tfp", n=10, seed=3).n == 10
    assert generate("c5blowup", t=2).n == 10
    assert generate("two_clique", sizes=(2, 3)).n == 5
    assert generate("named", name="c5").n == 5
    with pytest.raises(ValueError):
        generate("mystery")


@pytest.mark.parametrize("n", [0, 1, 2, 3, 12, 13, 110, 400])
def test_tfp_matches_the_pair_table_oracle(n):
    for seed in range(4):
        rng, oracle_rng = trial_rng(seed), trial_rng(seed)
        assert triangle_free_process_complement(n, rng) == oracle_triangle_free_process_complement(
            n, oracle_rng
        )
        # the same draws, so the generator leaves the same stream behind
        assert rng.integers(2**62) == oracle_rng.integers(2**62)


def test_tfp_800_traced_peak_below_4_mb():
    triangle_free_process_complement(800, trial_rng(0))  # numpy's first-use allocations
    tracemalloc.start()
    try:
        triangle_free_process_complement(800, trial_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 permutation plus triu_indices alone are 12 n^2 bytes (7.7 MB)
    assert peak < 4e6


def test_families_match_the_pair_loop_oracles():
    cases = [(c5_blowup_complement(t), oracle_c5_blowup_complement(t)) for t in range(1, 7)]
    sizes = [(s, t) for s in range(5) for t in range(5)]
    cases += [(two_clique_complement(*st), oracle_two_clique_complement(*st)) for st in sizes]
    cases += [(named_graph("k_n", n), oracle_k_n(n)) for n in range(9)]
    for g, want in cases:
        assert g == want and g.edge_count == want.edge_count
        assert np.array_equal(g.rows, want.rows)


def test_k_n_4096_traced_peak_below_64_mb():
    named_graph("k_n", 8)  # numpy's first-use allocations
    tracemalloc.start()
    try:
        g = named_graph("k_n", 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 4096 * 4095 // 2
    # an edge list of its 8.4 million pairs alone is several hundred MB
    assert peak < 64e6
