import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    cyclic_garbage,
    oracle_in_concentration_event,
    oracle_subsample,
    oracle_uniform_pairing,
)
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
    sample_partners,
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
        sample_partners(5, 3, trial_rng(0))
    with pytest.raises(OddGroundSet):
        Pairing(ground_size=3, pairs=((0, 1),))


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(1, 40),
    count=st.integers(1, 30),
    seed=st.integers(0, 2**64 - 1),
)
def test_sample_partners_rows_are_fixed_point_free_involutions(half, count, seed):
    x = 2 * half
    partner = sample_partners(x, count, trial_rng(seed))
    assert partner.shape == (count, x)
    ids = np.arange(x)
    rows = np.arange(count)[:, None]
    assert (partner[rows, partner] == ids).all()
    assert (partner != ids).all()


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(1, 40),
    count=st.integers(1, 30),
    seed=st.integers(0, 2**64 - 1),
)
def test_sample_partners_rows_are_successive_uniform_pairings(half, count, seed):
    # the pairing suites draw a batch; the trial draws one pairing at a time
    x = 2 * half
    rng = trial_rng(seed)
    expected = np.empty((count, x), dtype=np.intp)
    for t in range(count):
        pairs = sample_uniform_pairing(x, rng).array
        expected[t, pairs[:, 0]], expected[t, pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    assert sample_partners(x, count, trial_rng(seed)).tolist() == expected.tolist()


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


@pytest.mark.parametrize(
    "size, pairs, error, message",
    [
        (3, ((1, 0), (0, 1)), OddGroundSet, "ground set of size 3"),
        (4, ((0, 1), (0, 1), (3, 2)), ValueError, "pairs must be (low, high)"),
        (4, ((0, 1), (2, 2)), ValueError, "pairs must be (low, high)"),
        (4, ((0, 1), (1, 2)), ValueError, "pairs overlap"),
        (4, ((0, 1), (2, 5), (2, 5)), ValueError, "pairs overlap"),
        (4, ((0, 1),), ValueError, "pairs do not cover the ground set"),
        (4, ((-1, 0), (1, 2)), ValueError, "pairs do not cover the ground set"),
    ],
    ids=["odd", "not-low-high", "loop", "overlap", "overlap-outside", "short", "outside"],
)
def test_pairing_refusals_in_order(size, pairs, error, message):
    # each case also breaks every later rule: odd, (low, high), overlap, cover
    with pytest.raises(error) as exc:
        Pairing(ground_size=size, pairs=pairs)
    assert str(exc.value) == message


LAMBDAS = st.one_of(
    st.just(0),
    st.integers(1, 12),
    st.just(Fraction(0.3)),
    st.fractions(0, 12, max_denominator=10**20),
    st.floats(0, 12),
)


@settings(max_examples=150, deadline=None)
@given(
    half=st.integers(0, 24),
    density=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
    seed=st.integers(0, 2**32 - 1),
    lam=LAMBDAS,
    min_edges=st.integers(0, 24),
)
@example(half=0, density=0.0, seed=0, lam=0, min_edges=0)
@example(half=1, density=1.0, seed=1, lam=Fraction(0.3), min_edges=1)
@example(half=3, density=0.3, seed=3, lam=1, min_edges=1)  # more than one pair, so order shows
def test_array_pairings_match_the_tuple_oracles(half, density, seed, lam, min_edges):
    x = 2 * half
    rnd = random.Random(seed)
    g = Graph(x, [(u, v) for u in range(x) for v in range(u + 1, x) if rnd.random() < density])
    ours, theirs = trial_rng(seed), trial_rng(seed)
    m = sample_uniform_pairing(x, ours)
    pairs = oracle_uniform_pairing(x, theirs)
    assert m.pairs == pairs and m.array.shape == (half, 2) and m.array.dtype == np.intp
    assert in_concentration_event(m, g, lam) == oracle_in_concentration_event(pairs, g, lam)
    count = min(min_edges, half)
    expected = oracle_subsample(pairs, g, count, theirs)
    if expected is None:
        with pytest.raises(NotEnoughEdges):
            subsample_matching(m, g, count, ours)
    else:
        assert tuple(map(tuple, subsample_matching(m, g, count, ours).tolist())) == expected
    assert ours.random(4).tolist() == theirs.random(4).tolist()  # the same draws before
    if lam > 0:  # the conditioned sampler, against a loop over the oracles
        ours, theirs = trial_rng(seed, 1), trial_rng(seed, 1)
        try:
            got = sample_conditioned(g, lam, 5, ours, min_edges).pairs
        except RejectionExhausted:
            got = None
        want = None
        for _ in range(5):
            pairs = oracle_uniform_pairing(x, theirs)
            inside = sum(g.has_edge(u, v) for u, v in pairs)
            if oracle_in_concentration_event(pairs, g, lam) and inside >= min_edges:
                want = pairs
                break
        assert got == want


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
    assert not in_concentration_event(diag, c_n(4), Fraction(4, 3) - Fraction(1, 10**12))


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
    sub = subsample_matching(m, g, max(total - 1, 0), rng).tolist()
    assert all(g.has_edge(u, v) for u, v in sub)
    assert all(tuple(e) in m.pairs for e in sub)


def test_subsample_inclusion_probability():
    # fixed pairing of K8 with 4 edges: picking 2 includes a fixed edge w.p. 1/2
    g = k_n(8)
    m = Pairing(ground_size=8, pairs=((0, 1), (2, 3), (4, 5), (6, 7)))
    rng = trial_rng(13)
    trials = 20000
    hits = sum(1 for _ in range(trials) if [0, 1] in subsample_matching(m, g, 2, rng).tolist())
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
