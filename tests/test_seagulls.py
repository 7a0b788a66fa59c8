import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from conftest import (
    brute_max_clique_size,
    clique_bound,
    oracle_seagull_partition,
    small_alpha2_graphs,
)
from minorforge import analysis, seagulls
from minorforge.analysis import clique_number, is_alpha_le_2
from minorforge.errors import BudgetExhausted, TooLarge, WrongOrder
from minorforge.generators import named_graph, triangle_free_process_complement
from minorforge.graph import Graph, bits, complement_edge_count, induced_subgraph, mask_of
from minorforge.pipeline import PipelineConfig, PreparedPipeline
from minorforge.rng import trial_rng
from minorforge.seagulls import (
    _clique_room,
    is_seagull,
    max_disjoint_seagulls_bruteforce,
    seagull_partition,
)


def k_n(n):
    return named_graph("k_n", n)


def test_is_seagull_p3():
    assert is_seagull(named_graph("p3"), (0, 1, 2))


def test_is_seagull_triangle():
    assert not is_seagull(k_n(3), (0, 1, 2))


def test_is_seagull_five_wheel_rim():
    fw = named_graph("five_wheel")
    assert is_seagull(fw, (0, 1, 2))  # consecutive rim vertices, chord absent


def test_is_seagull_needs_distinct():
    with pytest.raises(ValueError):
        is_seagull(k_n(3), (0, 0, 1))


def _check_partition(g, part):
    assert part is not None
    used = 0
    for a, mid, b in part.triples:
        assert is_seagull(g, (a, mid, b))
        assert g.has_edge(a, mid) and g.has_edge(mid, b) and not g.has_edge(a, b)
        t = (1 << a) | (1 << mid) | (1 << b)
        assert not (used & t)
        used |= t
    assert used == g.vertex_mask


def test_partition_p3():
    part = seagull_partition(named_graph("p3"))
    assert len(part) == 1
    _check_partition(named_graph("p3"), part)


def test_partition_five_wheel_not_found():
    assert seagull_partition(named_graph("five_wheel")) is None


def test_partition_wrong_order():
    with pytest.raises(WrongOrder):
        seagull_partition(k_n(4))


def test_partition_empty_graph():
    part = seagull_partition(Graph(0, []))
    assert len(part) == 0


def test_partition_circulant_instance():
    g = named_graph("circulant13_minus_one_complement")
    assert g.n == 12 and is_alpha_le_2(g) and clique_number(g) == 4
    part = seagull_partition(g)
    _check_partition(g, part)
    assert len(part) == 4


def test_partition_complete_graph_fails():
    assert seagull_partition(k_n(6)) is None


def test_bruteforce_examples():
    assert max_disjoint_seagulls_bruteforce(named_graph("five_wheel")) == 1
    assert max_disjoint_seagulls_bruteforce(named_graph("p3")) == 1
    assert max_disjoint_seagulls_bruteforce(k_n(6)) == 0


def test_bruteforce_guard():
    with pytest.raises(TooLarge):
        max_disjoint_seagulls_bruteforce(k_n(16))


def test_partition_implies_bruteforce_bound():
    for g in small_alpha2_graphs(20, seed=21, min_n=6, max_n=12):
        if g.n % 3:
            continue
        part = seagull_partition(g)
        if part is not None:
            _check_partition(g, part)
            assert max_disjoint_seagulls_bruteforce(g) >= len(part)


def test_partition_matches_bruteforce_feasibility():
    # on 3k-vertex graphs: partition exists iff the exhaustive packing covers all
    for g in small_alpha2_graphs(30, seed=22, min_n=6, max_n=12):
        if g.n % 3:
            continue
        part = seagull_partition(g)
        full = max_disjoint_seagulls_bruteforce(g) == g.n // 3
        assert (part is not None) == full, g


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_partition_exists_exactly_when_bruteforce_packing_covers(data):
    # any graph, not only alpha <= 2: the search is exact on all of them
    n = data.draw(st.sampled_from(range(0, seagulls.BRUTEFORCE_LIMIT + 1, 3)))
    density = data.draw(st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)))
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density])
    part = seagull_partition(g)
    assert (part is not None) == (max_disjoint_seagulls_bruteforce(g) == n // 3)
    if part is not None:
        _check_partition(g, part)


def test_partition_raises_when_node_budget_runs_out(monkeypatch):
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert seagull_partition(c6) is not None
    monkeypatch.setattr(seagulls, "SEAGULL_NODE_BUDGET", 1)
    with pytest.raises(BudgetExhausted, match="exceeded 1 nodes"):
        seagull_partition(c6)


ALPHA2_UP_TO_15 = small_alpha2_graphs(40, seed=24, min_n=3, max_n=15)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_clique_bound_is_at_least_the_clique_number(data):
    # the counts the search keeps for an unused set: d per unused vertex,
    # a value of at least |unused| per used one, and the non-edge count
    if data.draw(st.booleans()):
        g = data.draw(st.sampled_from(ALPHA2_UP_TO_15))
    else:
        n = data.draw(st.integers(0, seagulls.BRUTEFORCE_LIMIT))
        density = data.draw(st.sampled_from((0.0, 0.2, 0.5, 0.8, 0.95, 1.0)))
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density])
    unused = data.draw(st.integers(0, g.vertex_mask))
    size = unused.bit_count()
    d = np.array(
        [
            (unused & ~(g.adj[v] | (1 << v))).bit_count()
            if (unused >> v) & 1
            else size + data.draw(st.integers(0, 20))
            for v in range(g.n)
        ],
        dtype=np.int32,
    )
    bound = clique_bound(d, size, complement_edge_count(g, unused))
    assert bound >= brute_max_clique_size(induced_subgraph(g, unused)[0])
    assert bound <= size


@st.composite
def search_counts(draw):
    """(d, k_res, non_edges) of the shape the search keeps: 3 * k_res unused
    values below 3 * k_res, used values of at least 3 * k_res, in any order,
    and any non-edge count."""
    k_res = draw(st.integers(1, 8))
    size = 3 * k_res
    unused = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    used = draw(st.lists(st.integers(size, size + 20), max_size=12))
    d = np.array(draw(st.permutations(unused + used)), dtype=np.int32)
    return d, k_res, draw(st.integers(0, sum(unused) + 2) | st.just(0))


@settings(max_examples=300, deadline=None)
@given(counts=search_counts())
@example(counts=(np.array([2, 2, 2], dtype=np.int32), 1, 0))
@example(counts=(np.array([0, 2, 1, 5, 1], dtype=np.int32), 1, 1))
@example(counts=(np.array([9, 4, 4, 0, 3, 3, 6, 2], dtype=np.int32), 2, 0))
@example(counts=(np.array([9, 4, 4, 0, 3, 3, 6, 2], dtype=np.int32), 2, 4))
@example(counts=(np.array([9, 4, 4, 0, 3, 3, 6, 2], dtype=np.int32), 2, 5))
def test_clique_room_is_the_clique_bound_exceeding_twice_the_triples(counts):
    # the search's prune decision against the reference bound
    d, k_res, non_edges = counts
    assert _clique_room(d, k_res, non_edges) == (clique_bound(d, 3 * k_res, non_edges) > 2 * k_res)


# --- reference search --------------------------------------------------------------


def _leftover_graphs(n, seed, trials):
    """The graphs PreparedPipeline.run hands to seagull_partition: the
    vertices left after the clique and the sampled matching."""
    prep = PreparedPipeline(
        triangle_free_process_complement(n, trial_rng(seed, 0)),
        PipelineConfig(lambda_policy="clamped", seed=seed),
    )
    out = []
    for trial in range(trials):
        covered = mask_of(v for e in prep._sample_matching(trial) for v in e)
        s_mask = prep.g.vertex_mask & ~prep.clique & ~covered
        out.append(induced_subgraph(prep.g, s_mask)[0])
    return out


def test_seagull_partition_matches_reference_search(monkeypatch):
    rnd = random.Random(31)
    graphs = []
    for _ in range(200):
        n = rnd.choice(range(3, 22, 3))
        density = rnd.random()
        graphs.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density])
        )
    graphs += [g for g in small_alpha2_graphs(60, seed=23, min_n=6, max_n=21) if g.n % 3 == 0]
    graphs += [k_n(6), named_graph("five_wheel")]
    # graphs where the clique prune fires: K_9 plus three isolated vertices,
    # and 12-vertex graphs with a planted 9-clique (K_9 alone is pruned by
    # its non-edge count first)
    graphs += [k_n(9), Graph(12, k_n(9).edges())]
    for _ in range(10):
        clique = rnd.sample(range(12), 9)
        graphs.append(
            Graph(12, {(min(u, v), max(u, v)) for u in clique for v in clique if u != v}
                  | {(u, v) for u in range(12) for v in range(u + 1, 12) if rnd.random() < 0.5})
        )
    graphs += _leftover_graphs(400, 0, 4)
    # TFP(800) leftovers: the clique prune is tried in trials 0, 1 and 4
    # and fires twice in trial 1, on pipeline input rather than a plant
    graphs += _leftover_graphs(800, 0, 5)
    # greedy_clique_lb: the reference calls it at every node it does not
    # prune by non-edge count, the search only where the bound leaves room;
    # it fires when it finds more than 2 * k_res = 2/3 |alive| vertices
    calls = Counter()
    greedy_clique_lb = analysis.greedy_clique_lb

    def counted(who):
        def greedy(h, alive):
            lb = greedy_clique_lb(h, alive)
            calls[who] += 1
            calls[who, "fired"] += 3 * lb > 2 * alive.bit_count()
            return lb
        return greedy

    monkeypatch.setattr(analysis, "greedy_clique_lb", counted("reference"))
    found = 0
    for g in graphs:
        want, nodes = oracle_seagull_partition(g)
        # the same search visits the same nodes: it succeeds with exactly
        # the reference's node count as budget and runs out one node short
        monkeypatch.setattr(seagulls, "SEAGULL_NODE_BUDGET", nodes)
        monkeypatch.setattr(seagulls, "greedy_clique_lb", counted("search"))
        part = seagull_partition(g)
        monkeypatch.setattr(seagulls, "greedy_clique_lb", greedy_clique_lb)
        assert (None if part is None else part.triples) == want, g
        monkeypatch.setattr(seagulls, "SEAGULL_NODE_BUDGET", nodes - 1)
        with pytest.raises(BudgetExhausted):
            seagull_partition(g)
        found += part is not None
    # both outcomes are exercised, and the clique prune is both skipped and
    # tried, and it fires
    assert 0 < found < len(graphs)
    assert 0 < calls["search"] < calls["reference"]
    assert calls["search", "fired"] == calls["reference", "fired"] > 0
