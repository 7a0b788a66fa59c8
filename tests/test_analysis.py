import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    brute_is_k_connected,
    brute_matching_size,
    brute_max_clique_size,
    brute_max_independent_size,
    brute_st_cut,
    cyclic_garbage,
    maximum_matching_size,
    oracle_first_independent_triple,
    oracle_large_clique,
    small_alpha2_graphs,
)
from minorforge import analysis
from minorforge.analysis import (
    capacity,
    clique_number,
    clique_stats,
    complement_matching_size,
    enumerate_cliques,
    is_alpha_le_2,
    is_five_wheel,
    is_k_connected,
    is_k_connected_with_cut,
    max_clique,
    min_capacity,
    seagull_conditions,
)
from minorforge.errors import AlphaTooLarge, BudgetExhausted, NotAClique
from minorforge.generators import (
    c5_blowup_complement,
    named_graph,
    triangle_free_process_complement,
    two_clique_complement,
)
from minorforge.graph import Graph, bits, complement, mask_of
from minorforge.rng import trial_rng


def k_n(n):
    return named_graph("k_n", n)


def c_n(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = trial_rng(seed, 123)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


# --- independence number flag -------------------------------------------------


def test_alpha_c5_true_c6_false():
    assert is_alpha_le_2(c_n(5))
    assert not is_alpha_le_2(c_n(6))


def test_alpha_petersen_complement(petersen):
    assert is_alpha_le_2(complement(petersen))


def test_alpha_matches_bruteforce_on_random():
    for i in range(40):
        g = random_graph(9, 0.55, i)
        assert is_alpha_le_2(g) == (brute_max_independent_size(g) <= 2)


def planted_triple(g, top=30):
    """g less the three edges of a triangle among its last `top` vertices:
    the triangle whose deletion makes the first independent triple start
    latest (each deleted edge uv adds the triples of u, v and every common
    non-neighbour)."""
    full = g.vertex_mask

    def first_common(u, v):
        free = full & ~(g.adj[u] | g.adj[v] | 1 << u | 1 << v)
        return (free & -free).bit_length() - 1

    _, tri = max(
        (min(first_common(x, y), first_common(x, z), first_common(y, z)), (x, y, z))
        for x, y, z in combinations(range(g.n - top, g.n), 3)
        if g.has_edge(x, y) and g.has_edge(x, z) and g.has_edge(y, z)
    )
    return Graph(g.n, [e for e in g.edges() if not set(e) <= set(tri)])


@pytest.fixture(scope="module")
def alpha_check_cases():
    small = [
        random_graph(n, p, 50 * n + i)
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 30, 40)
        for i, p in enumerate((0.0, 0.2, 0.5, 0.8, 0.9, 0.95, 1.0))
    ]
    planted = [planted_triple(triangle_free_process_complement(n, trial_rng(707, n))) for n in (400, 800)]
    return [(g, oracle_first_independent_triple(g)) for g in small + planted]


@pytest.mark.parametrize("chunk", [1, 64, analysis._TRIPLE_CHUNK])
def test_independent_triple_is_the_first_one(monkeypatch, alpha_check_cases, chunk):
    # chunks of one edge, of a few edges that split rows, and the default
    monkeypatch.setattr(analysis, "_TRIPLE_CHUNK", chunk)
    for g, want in alpha_check_cases:
        assert analysis.find_independent_triple(g) == want, g.n
    assert analysis.find_independent_triple(c_n(6)) == (0, 2, 4)
    # the planted TFP triples are late, so the packed check passes early chunks
    assert all(want[0] > g.n // 3 for g, want in alpha_check_cases[-2:])


def test_independent_triple_of_an_edgeless_graph_at_once():
    # the complement is complete: the first chunk's first pair already hits
    g = Graph(16384)
    start = time.perf_counter()
    assert analysis.find_independent_triple(g) == (0, 1, 2)
    assert time.perf_counter() - start < 1


# --- max clique -----------------------------------------------------------------


def test_max_clique_k5():
    assert max_clique(k_n(5)) == mask_of(range(5))


def test_max_clique_petersen_complement(petersen):
    z = max_clique(complement(petersen))
    assert z.bit_count() == 4 == brute_max_clique_size(complement(petersen))


def test_max_clique_c5_lex_smallest():
    assert max_clique(c_n(5)) == mask_of([0, 1])


def test_max_clique_size_matches_bruteforce():
    for i in range(30):
        g = random_graph(10, 0.5, 1000 + i)
        assert max_clique(g).bit_count() == brute_max_clique_size(g)
        assert clique_number(g) == brute_max_clique_size(g)


def test_max_clique_bruteforce_at_16_vertices():
    for i, p in ((0, 0.4), (1, 0.6), (2, 0.75)):
        g = random_graph(16, p, 4000 + i)
        assert clique_number(g) == brute_max_clique_size(g)


def test_max_clique_lex_tiebreak_explicit():
    # two maximum cliques {0,3,4} and {1,2,5}: lex order prefers {0,3,4}
    g = Graph(6, [(0, 3), (0, 4), (3, 4), (1, 2), (1, 5), (2, 5)])
    assert max_clique(g) == mask_of([0, 3, 4])


def test_max_clique_returns_actual_clique():
    for i in range(10):
        g = random_graph(12, 0.6, 77 + i)
        z = max_clique(g)
        vs = sorted(bits(z))
        assert all(g.has_edge(u, v) for u, v in combinations(vs, 2))


# --- local-search clique ---------------------------------------------------------

# TFP orders around the 8- and 9-bit draw widths, plus one pipeline size
LOCAL_SEARCH_ORDERS = (151, 255, 256, 257, 400)


@pytest.fixture(scope="module")
def local_search_graphs():
    tfp = [triangle_free_process_complement(n, trial_rng(707, n)) for n in LOCAL_SEARCH_ORDERS]
    # TFP(160) less a tenth of its edges: alpha > 2, so the complement has
    # triangles and the order of the re-adds after a swap changes the mask
    rng = trial_rng(9, 1)
    edges = triangle_free_process_complement(160, trial_rng(707, 160)).edges()
    thinned = Graph(160, [e for e in edges if rng.random() >= 0.1])
    degenerate = [k_n(160), Graph(160), two_clique_complement(80, 80), c5_blowup_complement(32)]
    return tfp, thinned, degenerate


def test_large_clique_matches_reference_search(monkeypatch, local_search_graphs):
    tfp, thinned, degenerate = local_search_graphs
    for g in tfp:
        z = analysis.large_clique(g)
        assert z == oracle_large_clique(g, analysis.LOCAL_SEARCH_RESTARTS, analysis.LOCAL_SEARCH_ITERS)
        assert analysis.is_clique(g, z)
    monkeypatch.setattr(analysis, "LOCAL_SEARCH_RESTARTS", 2)
    # re-adds of more than one vertex are rare, so give them enough draws
    monkeypatch.setattr(analysis, "LOCAL_SEARCH_ITERS", 30_000)
    assert analysis.large_clique(thinned) == oracle_large_clique(thinned, 2, 30_000)
    # short runs: one draw, and draw counts either side of the block size,
    # which end in the first or the second block depending on rejections
    block = analysis._DRAW_BLOCK
    for iters in (1, block - 1, block + 1):
        monkeypatch.setattr(analysis, "LOCAL_SEARCH_ITERS", iters)
        for g in tfp + [thinned] + degenerate:
            z = analysis.large_clique(g)
            assert z == oracle_large_clique(g, 2, iters), (g.n, iters)
            assert analysis.is_clique(g, z)


def test_large_clique_matches_reference_search_with_either_state_dtype(monkeypatch):
    # star: vertex 0 misses every other vertex, which miss about 1% of their
    # pairs; the cliques it finds have over 127 vertices, all non-neighbours
    # of vertex 0, so that vertex's state entry needs more than int8 (an int8
    # state gives another clique).  TFP(600) stays int8.  Both make plateau
    # swaps and re-adds over the full draw count.
    rng = trial_rng(9, 2)
    missing = {(0, v) for v in range(1, 240)}
    missing |= {(u, v) for u in range(1, 240) for v in range(u + 1, 240) if rng.random() < 0.01}
    star = Graph(240, [(u, v) for u in range(240) for v in range(u + 1, 240) if (u, v) not in missing])
    tfp = triangle_free_process_complement(600, trial_rng(707, 600))
    monkeypatch.setattr(analysis, "LOCAL_SEARCH_RESTARTS", 2)
    for g, wide in ((star, True), (tfp, False)):
        z = analysis.large_clique(g)
        assert z == oracle_large_clique(g, 2, analysis.LOCAL_SEARCH_ITERS)
        assert (z.bit_count() > 127) == wide
        assert (max(g.n - 1 - g.degree(v) for v in range(g.n)) + 3 > 127) == wide


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 1600, 32768, 2**31 - 1, 2**31, 2**32 - 1])
def test_bulk_draws_are_randrange_draws(n):
    # large_clique relies on this replay of CPython's sampler, with one
    # generator re-keyed at each restart: here a restart from a fresh stream
    # and then one from a stream a shuffle has left part way through a key
    # block, for each seed, all through the same generator
    m = 2 * analysis._DRAW_BLOCK + 17
    mt = np.random.MT19937(0)
    for seed in (0, 1, 0x5EA90000):
        for used in (0, min(n, 1000)):
            rnd = random.Random(seed)
            rnd.shuffle(list(range(used)))
            want = [rnd.randrange(n) for _ in range(m)]
            rnd = random.Random(seed)
            rnd.shuffle(list(range(used)))
            got = [int(v) for vals in analysis._bulk_randrange(mt, rnd, n, m) for v in vals]
            assert got == want


def test_large_clique_keeps_no_neighbour_lists():
    # two 1000-cliques: every vertex misses the 1000 of the other side, so
    # per-vertex intp neighbour arrays alone took 16 MB (a 23 MB peak)
    g = two_clique_complement(1000, 1000)
    tracemalloc.start()
    try:
        z = analysis.large_clique(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.bit_count() == 1000 and analysis.is_clique(g, z)
    assert peak < 12e6


def test_large_clique_of_empty_graph():
    assert analysis.large_clique(Graph(0)) == 0


# --- clique stats ----------------------------------------------------------------


def test_clique_stats_k6_zero():
    s = clique_stats(k_n(6), mask_of([0, 1, 2]))
    assert (s.a, s.b) == (0, 0)


def test_clique_stats_c5_hand_count():
    s = clique_stats(c_n(5), mask_of([0, 1]))
    assert (s.k, s.a, s.b) == (2, 4, 1)


def test_clique_stats_rejects_nonclique():
    with pytest.raises(NotAClique):
        clique_stats(c_n(5), mask_of([0, 2]))


def test_clique_stats_bounds_on_alpha2_instances():
    for g in small_alpha2_graphs(25, seed=5):
        z = max_clique(g)
        s = clique_stats(g, z)
        assert 0 <= s.a <= s.k * s.k
        assert s.a + 2 * s.b <= s.k * (g.n - s.k)


# --- capacity ---------------------------------------------------------------------


def test_capacity_k5_singleton():
    assert capacity(k_n(5), 1 << 0) == Fraction(2)


def test_capacity_c5_pair():
    assert capacity(c_n(5), mask_of([0, 1])) == Fraction(5, 2)


def test_capacity_full_vertex_set_zero():
    assert capacity(k_n(4), mask_of(range(4))) == Fraction(0)


def test_capacity_lower_bound_property():
    for g in small_alpha2_graphs(15, seed=9):
        z = max_clique(g)
        assert capacity(g, z) >= Fraction(g.n - z.bit_count(), 2)


def test_capacity_rejects_nonclique():
    with pytest.raises(NotAClique):
        capacity(c_n(5), mask_of([0, 2]))


def test_min_capacity_five_wheel():
    cap, witness = min_capacity(named_graph("five_wheel"))
    # triangles hub+rim-pair have capacity 3; rim pairs 5/2; singletons 5/2
    assert cap == Fraction(5, 2)
    assert witness.bit_count() in (1, 2)


def test_enumerate_cliques_counts():
    # K4: 4 + 6 + 4 + 1 nonempty cliques
    assert sum(1 for _ in enumerate_cliques(k_n(4))) == 15
    assert sum(1 for _ in enumerate_cliques(c_n(5))) == 10  # 5 vertices + 5 edges


def test_min_capacity_raises_when_clique_budget_runs_out(monkeypatch):
    monkeypatch.setattr(analysis, "CLIQUE_BUDGET", 14)
    with pytest.raises(BudgetExhausted, match="more than 14 cliques"):
        min_capacity(k_n(4))  # 15 nonempty cliques


# --- connectivity ------------------------------------------------------------------


def test_connectivity_examples():
    assert is_k_connected(c_n(5), 2)
    assert not is_k_connected(named_graph("p3"), 2)
    assert is_k_connected(k_n(6), 5)
    assert not is_k_connected(k_n(6), 6)  # |V| > k required


def test_connectivity_cut_witness():
    ok, cut = is_k_connected_with_cut(named_graph("p3"), 2)
    assert not ok and cut == 1 << 1  # middle vertex


def test_connectivity_matches_bruteforce():
    for i in range(25):
        g = random_graph(8, 0.45, 500 + i)
        for k in range(0, 5):
            assert is_k_connected(g, k) == brute_is_k_connected(g, k), (i, k)


def test_connectivity_cut_is_real_cut():
    from minorforge.graph import is_connected_subset

    for i in range(25):
        g = random_graph(9, 0.4, 900 + i)
        for k in range(1, 5):
            ok, cut = is_k_connected_with_cut(g, k)
            if not ok and cut is not None:
                assert cut.bit_count() < k
                rest = g.vertex_mask & ~cut
                assert rest and not is_connected_subset(g, rest)


def test_st_connectivity_matches_the_cut_oracle():
    """Value min(cap, kappa(s, t)); below cap, the cut nearest s."""
    for i in range(40):
        g = random_graph(2 + i % 8, (0.2, 0.4, 0.6, 0.8)[i // 8 % 4], 1300 + i)
        for s, t in combinations(range(g.n), 2):
            if g.has_edge(s, t):
                continue
            cut = brute_st_cut(g, s, t)
            kappa = cut.bit_count()
            for cap in range(1, g.n + 1):
                want = (kappa, cut) if kappa < cap else (cap, 0)
                assert analysis._st_vertex_connectivity(g, s, t, cap) == want, (i, s, t, cap)


def test_connectivity_of_a_long_path_needs_no_recursion():
    g = Graph(500, [(i, i + 1) for i in range(499)])
    t0 = time.perf_counter()
    assert is_k_connected(g, 1) is True
    assert time.perf_counter() - t0 < 2.0


# --- matching ----------------------------------------------------------------------


def test_complement_matching_examples():
    assert complement_matching_size(k_n(6)) == 0
    assert complement_matching_size(c_n(5)) == 2
    assert complement_matching_size(Graph(6, [])) == 3


def test_matching_matches_dp_oracle():
    for i in range(40):
        g = random_graph(10, 0.4, 2000 + i)
        assert maximum_matching_size(g) == brute_matching_size(g), i
    for i in range(10):
        g = random_graph(11, 0.25, 3000 + i)  # sparse, odd order
        assert maximum_matching_size(g) == brute_matching_size(g), i


def test_matching_blossom_cases():
    # odd cycles force blossom handling
    assert maximum_matching_size(c_n(5)) == 2
    assert maximum_matching_size(c_n(7)) == 3
    assert maximum_matching_size(c_n(9)) == 4
    # two triangles joined by an edge
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    assert maximum_matching_size(g) == 3


# --- five-wheel --------------------------------------------------------------------


def test_five_wheel_recognition():
    assert is_five_wheel(named_graph("five_wheel"))
    assert not is_five_wheel(k_n(6))
    assert not is_five_wheel(c_n(5))
    # relabelled copy: hub at index 0
    g = Graph(6, [(0, v) for v in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert is_five_wheel(g)
    # same degree sequence, rim replaced by triangle+edge is not a wheel
    g2 = Graph(6, [(0, v) for v in range(1, 6)] + [(1, 2), (2, 3), (3, 1), (4, 5), (5, 4)])
    assert not is_five_wheel(g2)


# --- condition report ---------------------------------------------------------------


def test_conditions_five_wheel_k2():
    rep = seagull_conditions(named_graph("five_wheel"), 2)
    assert rep.cond_size and rep.cond_connectivity and rep.cond_capacity
    assert rep.cond_matching
    assert not rep.cond_five_wheel
    assert not rep.all_hold


def test_conditions_p3_k1():
    rep = seagull_conditions(named_graph("p3"), 1)
    assert rep.all_hold


def test_conditions_reject_alpha3():
    with pytest.raises(AlphaTooLarge):
        seagull_conditions(c_n(6), 1)


def test_conditions_report_never_short_circuits():
    rep = seagull_conditions(named_graph("five_wheel"), 2)
    # all five fields are booleans even though one failed
    for name in ("cond_size", "cond_connectivity", "cond_capacity", "cond_matching", "cond_five_wheel"):
        assert isinstance(getattr(rep, name), bool)


def test_enumerate_cliques_leaves_no_cyclic_garbage():
    g = named_graph("petersen")
    assert cyclic_garbage(lambda: list(enumerate_cliques(g))) == 0
    # nor when the generator is dropped half-way
    assert cyclic_garbage(lambda: next(enumerate_cliques(g))) == 0
