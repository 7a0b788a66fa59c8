from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conftest import cyclic_garbage
from minorforge.errors import NotEnoughEdges, OddGroundSet, RejectionExhausted
from minorforge.generators import named_graph
from minorforge.graph import Graph
from minorforge.pairings import (
    Pairing,
    all_pairings,
    chebyshev_bound,
    in_concentration_event,
    pairing_edge_count,
    sample_conditioned,
    sample_uniform_pairing,
    subsample_matching,
)
from minorforge.rng import trial_rng


def k_n(n):
    return named_graph("k_n", n)


def c_n(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_x2_unique():
    rng = trial_rng(0)
    m = sample_uniform_pairing(2, rng)
    assert m.pairs == ((0, 1),)


def test_odd_ground_set_rejected():
    with pytest.raises(OddGroundSet):
        sample_uniform_pairing(5, trial_rng(0))
    with pytest.raises(OddGroundSet):
        Pairing(ground_size=3, pairs=((0, 1),))


def test_all_pairings_counts():
    assert len(list(all_pairings(4))) == 3
    assert len(list(all_pairings(6))) == 15
    assert len(set(p.pairs for p in all_pairings(6))) == 15


def test_all_pairings_leaves_no_cyclic_garbage():
    assert cyclic_garbage(lambda: list(all_pairings(6))) == 0


def test_x4_uniform_over_three_pairings():
    rng = trial_rng(42)
    counts = {}
    trials = 30000
    for _ in range(trials):
        m = sample_uniform_pairing(4, rng)
        counts[m.pairs] = counts.get(m.pairs, 0) + 1
    assert len(counts) == 3
    _, p = stats.chisquare(list(counts.values()))
    assert p > 1e-4


def test_marginal_and_joint_probabilities_x6():
    rng = trial_rng(7)
    trials = 40000
    hit_e = 0
    hit_ef = 0
    for _ in range(trials):
        m = sample_uniform_pairing(6, rng)
        pairs = set(m.pairs)
        if (0, 1) in pairs:
            hit_e += 1
            if (2, 3) in pairs:
                hit_ef += 1
    p_e = hit_e / trials
    p_ef = hit_ef / trials
    se_e = (p_e * (1 - p_e) / trials) ** 0.5
    se_ef = (p_ef * (1 - p_ef) / trials) ** 0.5
    assert abs(p_e - 1 / 5) <= 4 * se_e
    assert abs(p_ef - 1 / 15) <= 4 * se_ef


def test_pairing_edge_count_examples():
    m = Pairing(ground_size=4, pairs=((0, 1), (2, 3)))
    assert pairing_edge_count(m, k_n(4)) == 2
    assert pairing_edge_count(m, Graph(4, [])) == 0
    diag = Pairing(ground_size=4, pairs=((0, 2), (1, 3)))
    assert pairing_edge_count(diag, c_n(4)) == 0


def test_event_examples():
    rng = trial_rng(0)
    m = sample_uniform_pairing(6, rng)
    assert in_concentration_event(m, k_n(6), 0)          # count = x/2 meets the mean
    assert in_concentration_event(m, Graph(6, []), 0)    # 0 >= 0
    diag = Pairing(ground_size=4, pairs=((0, 2), (1, 3)))
    assert not in_concentration_event(diag, c_n(4), 1)   # 0 >= 4/3 - 1 fails


def test_event_uses_exact_rationals():
    # threshold 4/3 - 4/3 = 0 exactly: a zero count passes
    diag = Pairing(ground_size=4, pairs=((0, 2), (1, 3)))
    from fractions import Fraction

    assert in_concentration_event(diag, c_n(4), Fraction(4, 3))


def test_conditioned_uniform_on_event_x6():
    g = c_n(6)
    lam = 0.5
    members = [m.pairs for m in all_pairings(6) if in_concentration_event(m, g, lam)]
    assert 0 < len(members) < 15  # proper nontrivial event
    rng = trial_rng(11)
    trials = 30000
    counts = dict.fromkeys(members, 0)
    for _ in range(trials):
        m = sample_conditioned(g, lam, max_tries=1000, rng=rng)
        assert m.pairs in counts  # never outside the event
        counts[m.pairs] += 1
    _, p = stats.chisquare(list(counts.values()))
    assert p > 1e-4


def test_conditioned_exhaustion():
    # lambda so tight no pairing of the empty graph qualifies
    g = Graph(4, [(0, 1)])
    with pytest.raises(RejectionExhausted):
        sample_conditioned(g, 1e-9, max_tries=1, rng=trial_rng(5))


def reference_conditioned(g, lam, max_tries, rng, min_edges):
    for _ in range(max_tries):
        m = sample_uniform_pairing(g.n, rng)
        inside = sum(g.has_edge(u, v) for u, v in m.pairs)
        if inside >= Fraction(g.edge_count, g.n - 1) - lam and inside >= min_edges:
            return m
    return None


@pytest.mark.parametrize("min_edges", [0, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_conditioned_min_edges_matches_reference_loop(seed, min_edges):
    g, lam = c_n(10), Fraction(1, 2)
    expected = reference_conditioned(g, lam, 200, trial_rng(seed), min_edges)
    m = sample_conditioned(g, lam, 200, trial_rng(seed), min_edges=min_edges)
    assert m == expected
    assert pairing_edge_count(m, g) >= min_edges


def test_conditioned_min_edges_exhaustion_names_the_edge_count():
    with pytest.raises(RejectionExhausted) as exc:
        sample_conditioned(c_n(10), 0.5, 50, trial_rng(4), min_edges=6)
    assert str(exc.value) == "no pairing with >= 6 edges hit the event in 50 tries"


def test_conditioned_accepts_complete_graph_first_try():
    g = k_n(8)
    m = sample_conditioned(g, 0.5, max_tries=1, rng=trial_rng(3))
    assert pairing_edge_count(m, g) == 4


def test_subsample_edges():
    g = c_n(6)
    rng = trial_rng(9)
    m = sample_conditioned(g, 0.5, 1000, rng)
    total = pairing_edge_count(m, g)
    assert len(subsample_matching(m, g, total, rng)) == total
    assert len(subsample_matching(m, g, 0, rng)) == 0
    with pytest.raises(NotEnoughEdges):
        subsample_matching(m, g, total + 1, rng)
    sub = subsample_matching(m, g, max(total - 1, 0), rng)
    assert all(g.has_edge(u, v) for u, v in sub)
    assert all(e in m.pairs for e in sub)


def test_subsample_inclusion_probability():
    # fixed pairing of K8 with 4 edges: picking 2 includes a fixed edge w.p. 1/2
    g = k_n(8)
    m = Pairing(ground_size=8, pairs=((0, 1), (2, 3), (4, 5), (6, 7)))
    rng = trial_rng(13)
    trials = 20000
    hits = sum(1 for _ in range(trials) if (0, 1) in subsample_matching(m, g, 2, rng))
    est = hits / trials
    se = (est * (1 - est) / trials) ** 0.5
    assert abs(est - 0.5) <= 4 * se


def test_chebyshev_bound_values():
    assert chebyshev_bound(10, 5) == pytest.approx(0.4)
    assert chebyshev_bound(4, 2) == pytest.approx(1.0)
    assert chebyshev_bound(400, 400 ** (2 / 3)) == pytest.approx(400 ** (-1 / 3))
    with pytest.raises(ValueError):
        chebyshev_bound(5, 1.0)
    with pytest.raises(ValueError):
        chebyshev_bound(10, 0)


def test_concentration_inequality_including_boundary_density():
    # arbitrary pair families F, including |F| near x(x-1)/4
    x = 8
    all_pairs = [(u, v) for u in range(x) for v in range(u + 1, x)]
    rng = trial_rng(17)
    for frac, lam in ((0.15, 2), (0.5, 2), (0.5, 3)):  # 0.5*C(8,2) = 14 = x(x-1)/4
        size = round(frac * len(all_pairs))
        idx = rng.choice(len(all_pairs), size=size, replace=False)
        fset = {all_pairs[int(i)] for i in idx}
        mean = size / (x - 1)
        trials = 20000
        dev = 0
        for _ in range(trials):
            m = sample_uniform_pairing(x, rng)
            count = sum(1 for e in m.pairs if e in fset)
            if abs(count - mean) >= lam:
                dev += 1
        assert dev / trials <= chebyshev_bound(x, lam)


def test_sampler_determinism():
    a = sample_uniform_pairing(10, trial_rng(99, 5))
    b = sample_uniform_pairing(10, trial_rng(99, 5))
    c = sample_uniform_pairing(10, trial_rng(99, 6))
    assert a == b
    assert a != c or a.pairs == c.pairs  # distinct streams usually differ
