import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cyclic_garbage,
    enumerate_bad_quadruples,
    enumerate_bad_triples,
    members,
    oracle_contract,
    oracle_induced,
    oracle_joined,
    small_alpha2_graphs,
)
from minorforge import graph, pipeline
from minorforge.analysis import clique_stats, max_clique
from minorforge.errors import (
    AlphaTooLarge,
    Ineligible,
    MinorforgeError,
    NotCertifiable,
    RejectionExhausted,
)
from minorforge.generators import (
    c5_blowup_complement,
    named_graph,
    triangle_free_process_complement,
)
from minorforge.graph import Graph, bits, induced_subgraph, mask_of, verify_minor
from minorforge.pipeline import (
    PipelineConfig,
    PreparedPipeline,
    certify_batch,
    resolve_lambda,
    run_pipeline,
    strip_clique,
)
from minorforge.rng import trial_rng
from minorforge.seagulls import SeagullPartition, seagull_partition

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer  # noqa: E402
from workloads import TRACE_SITES  # noqa: E402


def k_n(n):
    return named_graph("k_n", n)


def c_n(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.fixture(scope="module")
def instance110():
    return triangle_free_process_complement(110, trial_rng(1))


@pytest.fixture(scope="module")
def prepared110(instance110):
    return PreparedPipeline(instance110, PipelineConfig(lambda_policy="clamped", seed=7))


# --- strip_clique ----------------------------------------------------------------


def test_strip_clique_even_remainder():
    g = k_n(8)
    sub, idx, deleted = strip_clique(g, mask_of([0, 1]))
    assert deleted is None and sub.n == 6 and idx == (2, 3, 4, 5, 6, 7)


def test_strip_clique_odd_remainder_deletes_lowest():
    g = k_n(8)
    sub, idx, deleted = strip_clique(g, mask_of([0, 1, 2]))
    assert deleted == 3 and sub.n == 4 and idx == (4, 5, 6, 7)


def test_strip_clique_size_lower_bound(instance110):
    z = max_clique(instance110)
    sub, _, _ = strip_clique(instance110, z)
    n, k = instance110.n // 2, z.bit_count()
    assert sub.n >= 2 * n - k - 1 and sub.n % 2 == 0


# --- bad structure enumeration -----------------------------------------------------


def test_bad_triples_complete_graph_empty():
    assert enumerate_bad_triples(k_n(6), mask_of([0, 1])) == []


def test_bad_triples_c5_hand_enumeration():
    out = enumerate_bad_triples(c_n(5), mask_of([0, 1]))
    assert sorted(tuple(sorted(t)) for t in out) == [(0, 2, 3), (1, 3, 4)]
    stats = clique_stats(c_n(5), mask_of([0, 1]))
    assert len(out) <= stats.a * (stats.k - 1) / 2  # tight here: 2 = 2


def test_bad_triples_bound_on_alpha2_instances():
    for g in small_alpha2_graphs(15, seed=31):
        z = max_clique(g)
        s = clique_stats(g, z)
        assert len(enumerate_bad_triples(g, z)) <= s.a * (s.k - 1) / 2


def test_bad_triples_shape():
    for g in small_alpha2_graphs(5, seed=33):
        z = max_clique(g)
        for zv, u, v in enumerate_bad_triples(g, z):
            assert (z >> zv) & 1 and not (z >> u) & 1 and not (z >> v) & 1
            assert not g.has_edge(zv, u) and not g.has_edge(zv, v)


def test_bad_quadruples_examples():
    assert enumerate_bad_quadruples(k_n(6)) == []
    assert enumerate_bad_quadruples(c_n(4)) == []
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert enumerate_bad_quadruples(two_k2) == [(0, 1, 2, 3)]


def test_bad_quadruples_definition():
    for g in small_alpha2_graphs(8, seed=35):
        for quad in enumerate_bad_quadruples(g):
            edges = [
                (u, v)
                for i, u in enumerate(quad)
                for v in quad[i + 1 :]
                if g.has_edge(u, v)
            ]
            assert len(edges) == 2
            assert len({x for e in edges for x in e}) == 4  # disjoint pair


# --- preconditions ------------------------------------------------------------------


def test_preconditions_k6_clique_too_large():
    pre = PreparedPipeline(k_n(6), PipelineConfig()).report
    assert not pre.clique_below_quarter
    assert not pre.strict_ok


def test_preconditions_odd_order():
    with pytest.raises(Ineligible, match=r"\|V\| = 15 must be even and at least 6"):
        PreparedPipeline(c5_blowup_complement(3), PipelineConfig())


def test_preconditions_q_recorded_when_invalid():
    prep = PreparedPipeline(k_n(8), PipelineConfig(lambda_policy=Fraction(1)))
    assert prep.bound.q < 0 and not prep.report.lambda_sq_gt_2n


def test_failed_flags_in_declared_order():
    pre = PreparedPipeline(k_n(8), PipelineConfig(lambda_policy=Fraction(1))).report
    assert pre.failed_flags == ("clique_below_quarter", "lambda_sq_gt_2n")
    assert not pre.strict_ok


def test_preconditions_strict_instance(prepared110):
    prep = prepared110
    assert prep.report.strict_ok
    assert prep.clique_method == "exact"
    assert prep.n == 55 and prep.x >= 2 * prep.n - prep.k - 1
    assert prep.bound.q == pytest.approx(1 - 2 * prep.n / prep.lam**2)


def test_resolve_lambda_policies():
    lam = resolve_lambda("n23", 64, 10)
    assert isinstance(lam, Fraction) and float(lam) == pytest.approx(16.0)
    assert resolve_lambda("clamped", 64, 10) == Fraction(9, 2)
    assert resolve_lambda(Fraction(7, 2), 64, 10) == Fraction(7, 2)
    with pytest.raises(ValueError):
        PipelineConfig(lambda_policy="bogus")
    with pytest.raises(ValueError):
        PipelineConfig(lambda_policy=-1)


# --- run_pipeline -------------------------------------------------------------------


def test_pipeline_rejects_ineligible_clique():
    with pytest.raises(Ineligible):
        run_pipeline(c5_blowup_complement(2), PipelineConfig())  # omega 4 >= 10/4


def test_pipeline_rejects_circulant_instance():
    g = named_graph("circulant13_minus_one_complement")
    with pytest.raises(Ineligible):
        run_pipeline(g, PipelineConfig())  # omega 4 >= 3 = 12/4


def test_pipeline_rejects_alpha3():
    with pytest.raises(AlphaTooLarge):
        run_pipeline(c_n(6), PipelineConfig())


def test_pipeline_rejects_odd_or_small():
    with pytest.raises(Ineligible):
        run_pipeline(named_graph("c5"), PipelineConfig())


@pytest.mark.parametrize(
    "g,error,message",
    [
        (c_n(6), AlphaTooLarge, "independent triple (0, 2, 4)"),
        (named_graph("c5"), Ineligible, "|V| = 5 must be even and at least 6"),
        (c5_blowup_complement(3), Ineligible, "|V| = 15 must be even and at least 6"),
    ],
    ids=["c6", "c5", "c5_blowup_15"],
)
def test_out_of_domain_graphs_are_refused_before_the_clique_search(monkeypatch, g, error, message):
    def no_clique_search(graph):
        raise AssertionError("working_clique called on an out-of-domain graph")

    monkeypatch.setattr(pipeline, "working_clique", no_clique_search)
    with pytest.raises(error) as info:
        PreparedPipeline(g, PipelineConfig())
    assert str(info.value) == message


def test_pipeline_rejection_exhaustion(monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_REJECTION_TRIES", 1)
    g = triangle_free_process_complement(110, trial_rng(1))
    cfg = PipelineConfig(lambda_policy=Fraction(1, 10**6), seed=0)
    with pytest.raises(RejectionExhausted):
        run_pipeline(g, cfg)


@pytest.fixture(scope="module")
def advisory110(prepared110):
    return PreparedPipeline(prepared110.g, replace(prepared110.cfg, mode="advisory"))


@pytest.fixture(scope="module")
def prepared240():
    # on TFP(110) only n - 2k = 3 pairs remain and about 1 trial in 100 has
    # a bad quadruple; here 36 pairs remain and about 1 trial in 6 has one
    g = triangle_free_process_complement(240, trial_rng(1))
    return PreparedPipeline(g, PipelineConfig(lambda_policy="clamped", seed=7))


@pytest.mark.parametrize("instance", ["prepared110", "advisory110", "prepared240"])
@settings(max_examples=25, deadline=None)
@given(trial=st.integers(0, 2**63 - 1))
def test_accounting_identity(instance, trial, prepared110, advisory110, prepared240):
    # missing edges are counted from host edges and the parts alone: every
    # non-joined part pair is a clique vertex against a pair (bad triple)
    # or a pair against a pair (bad quadruple)
    prep = {
        "prepared110": prepared110, "advisory110": advisory110, "prepared240": prepared240
    }[instance]
    res = prep.run(trial)
    parts = res.decomposition.parts
    joined = oracle_contract(set(prep.g.edges()), parts)
    assert set(res.h.edges()) == joined
    kinds = [
        tuple(sorted((parts[i].bit_count(), parts[j].bit_count())))
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        if (i, j) not in joined
    ]
    assert set(kinds) <= {(1, 2), (2, 2)}
    assert kinds.count((1, 2)) == res.realized_bad_triples
    assert kinds.count((2, 2)) == res.realized_bad_quadruples


def test_realized_counts_are_bad_triples_of_matched_pairs(prepared240):
    g = prepared240.g
    triples = enumerate_bad_triples(g, prepared240.clique)
    for trial in range(25):
        res = prepared240.run(trial)
        pairs = set(res.m_star)
        assert res.realized_bad_triples == sum((u, v) in pairs for _, u, v in triples)


def test_realized_quadruples_are_bad_quadruples_of_matched_pairs(prepared240):
    # each enumeration takes about a second, so only these trials, which
    # realize 0, 1, 2 and 1 bad quadruples
    edges = set(prepared240.g.edges())
    counts = []
    for trial in (0, 1, 12, 22):
        res = prepared240.run(trial)
        partner = {u: v for pair in res.m_star for u, v in (pair, pair[::-1])}
        matched = sorted(partner)
        sub = Graph(len(matched), oracle_induced(edges, matched))
        # a 4-set with exactly two edges, both matched pairs, is two pairs
        realized = 0
        for quad in enumerate_bad_quadruples(sub):
            ends = {matched[v] for v in quad}
            realized += all(partner[u] in ends for u in ends)
        assert res.realized_bad_quadruples == realized
        counts.append(realized)
    assert counts == [0, 1, 2, 1]


@pytest.mark.parametrize("kind", ["clique-clique", "clique-pair", "pair-pair", "pair-seagull"])
def test_accounting_catches_a_dropped_minor_edge(monkeypatch, prepared240, kind):
    # a contract that loses one host-joined edge still passes the witness
    # re-check (h stays inside the host's joins); only the accounting sees it
    k, n = prepared240.k, prepared240.n
    block = {"clique": range(k), "pair": range(k, n - k), "seagull": range(n - k, n)}
    first, second = (block[b] for b in kind.split("-"))
    real_contract = pipeline.contract

    def dropping_contract(g, d):
        h = real_contract(g, d)
        edges = list(h.edges())
        drop = next(e for e in edges if e[0] in first and e[1] in second)
        return Graph(h.n, [e for e in edges if e != drop])

    monkeypatch.setattr(pipeline, "contract", dropping_contract)
    with pytest.raises(MinorforgeError, match="^accounting mismatch: .* counted$"):  # no kind pair to name
        prepared240.run(0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unjoined_counts_the_part_pairs_the_oracle_leaves_unjoined(data):
    n = data.draw(st.integers(0, 12))
    density = data.draw(st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)))
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density}
    order = rnd.sample(range(n), n)
    # disjoint parts of sizes 1, 2 and 3, one kind per size, and a kind with no parts
    kinds, used = [], 0
    for size in (1, 2, 3):
        count = data.draw(st.integers(0, (n - used) // size))
        kinds.append(np.array(order[used : used + size * count], dtype=np.intp).reshape(-1, size))
        used += size * count
    kinds.append(np.empty((0, 2), dtype=np.intp))
    parts = [mask_of(row) for kind in kinds for row in kind.tolist()]
    joined = oracle_contract(edges, parts)
    starts = np.cumsum([0] + [len(kind) for kind in kinds]).tolist()
    index = [range(starts[i], starts[i + 1]) for i in range(len(kinds))]
    for r, rows in enumerate(kinds):
        counts = pipeline._unjoined(Graph(n, edges), rows, *kinds)
        for c in range(len(kinds)):
            pairs = [(i, j) for i in index[r] for j in index[c] if i != j]
            unjoined = sum((min(i, j), max(i, j)) not in joined for i, j in pairs)
            if r == c:  # a part against itself is joined when it spans an edge
                own = [members(parts[i]) for i in index[r]]
                unjoined += sum(not oracle_joined(edges, p, p) for p in own)
            assert counts[c] == unjoined


def _triangle_among_seagulls(prep):
    """A trial and a partition of its leftover set S, in S's local indices,
    into one triangle with a common non-neighbour z in the clique and true
    seagulls.  z's non-neighbours are a clique, since alpha <= 2."""
    g = prep.g
    for trial in range(20):
        covered = mask_of(prep._sample_matching(trial).ravel().tolist())
        s_verts = list(bits(g.vertex_mask & ~prep.clique & ~covered))
        g_s = induced_subgraph(g, mask_of(s_verts))[0]
        for z in bits(prep.clique):
            far = [i for i, v in enumerate(s_verts) if not g.has_edge(z, v)][:3]
            if len(far) < 3:
                continue
            g_rest, rest_map = induced_subgraph(g_s, g_s.vertex_mask & ~mask_of(far))
            others = seagull_partition(g_rest)
            if others is not None:
                return trial, (tuple(far),) + tuple(
                    tuple(rest_map[v] for v in t) for t in others.triples
                )
    pytest.fail("no trial had a clique vertex with three non-neighbours in S")


def test_a_seagull_part_that_is_not_a_seagull_is_refused(monkeypatch, prepared240):
    # the triangle passes every witness check, but z's singleton part is not
    # joined to it: a structural zero of the accounting fails, so the trial
    # must refuse the minor and name the kind pair that broke
    trial, planted = _triangle_among_seagulls(prepared240)
    monkeypatch.setattr(pipeline, "seagull_partition", lambda g_s: SeagullPartition(planted))
    with pytest.raises(MinorforgeError, match="^accounting mismatch: .*, 1 unjoined seagull × clique$"):
        prepared240.run(trial)


def test_a_trial_takes_its_part_listing_from_the_kind_arrays(monkeypatch, prepared110):
    def no_listing(parts):
        raise AssertionError("the trial listed its parts from their masks")

    monkeypatch.setattr(graph, "_part_listing", no_listing)
    res = prepared110.run(0)
    assert res.m_star and {(type(p), type(p[0])) for p in res.m_star} == {(tuple, int)}


# the trial's calls that perfbench traces as pipeline globals
TRIAL_SITES = (
    "sample_conditioned",
    "subsample_matching",
    "induced_subgraph",
    "seagull_partition",
    "contract",
    "minor_violation",
)


def test_every_traced_trial_call_records_a_span(prepared110):
    # a refactor that stops calling one of these through pipeline's namespace
    # would silently zero its per-layer benchmark metric
    sites = {s.attr: s for s in TRACE_SITES if s.owner is pipeline}
    assert set(TRIAL_SITES) <= set(sites)
    tracer = Tracer(TRACE_SITES)
    with tracer.recording(0):
        prepared110.run(0)
    recorded = {sp.name for sp in tracer.spans}
    assert [a for a in TRIAL_SITES if sites[a].name not in recorded] == []


def _structural_checks(prep, res):
    g = prep.g
    n = g.n // 2
    k = prep.k
    assert res.h.n == n
    assert verify_minor(g, res.h, res.decomposition)
    assert len(res.decomposition.parts) == n
    sizes = sorted(p.bit_count() for p in res.decomposition.parts)
    assert sizes.count(1) == k and sizes.count(2) == n - 2 * k and sizes.count(3) == k
    assert res.seagulls.vertex_mask().bit_count() == 3 * k
    assert res.missing_edges == math.comb(n, 2) - res.h.edge_count
    assert res.missing_edges == res.realized_bad_triples + res.realized_bad_quadruples
    stats = clique_stats(g, prep.clique)
    assert res.realized_bad_triples <= stats.a * (stats.k - 1) / 2
    assert res.realized_bad_quadruples <= stats.b * (stats.k - 1) ** 2 / 4


def test_pipeline_strict_run_exact_path(prepared110):
    res = prepared110.run(0)
    assert prepared110.clique_method == "exact"
    _structural_checks(prepared110, res)
    # minor vertices from seagull and clique parts are complete to the rest
    assert prepared110.certified_bound() > 0


def test_pipeline_deterministic_replay(instance110):
    cfg = PipelineConfig(lambda_policy="clamped", seed=42)
    r1 = run_pipeline(instance110, cfg, trial=3)
    r2 = run_pipeline(instance110, cfg, trial=3)
    assert r1.h == r2.h
    assert r1.m_star == r2.m_star
    assert r1.seagulls == r2.seagulls
    assert r1.missing_edges == r2.missing_edges


def test_pipeline_trials_differ(prepared110):
    r0 = prepared110.run(0)
    r1 = prepared110.run(1)
    assert r0.m_star != r1.m_star


def test_pipeline_advisory_mode(instance110):
    cfg = PipelineConfig(lambda_policy="clamped", seed=5, mode="advisory")
    prep = PreparedPipeline(instance110, cfg)
    _structural_checks(prep, prep.run(0))
    with pytest.raises(NotCertifiable):
        prep.certified_bound()


def test_certify_q_gate(instance110):
    cfg = PipelineConfig(lambda_policy=Fraction(5), seed=5)  # lambda^2 = 25 <= 110
    prep = PreparedPipeline(instance110, cfg)
    prep.run(0)
    with pytest.raises(NotCertifiable, match="lambda"):
        prep.certified_bound()


def test_certified_bound_names_the_failed_flag(instance110):
    prep = PreparedPipeline(instance110, PipelineConfig(seed=0))  # n23: lambda > (k-1)/2
    prep.run(0)
    with pytest.raises(NotCertifiable) as exc:
        prep.certified_bound()
    assert str(exc.value) == "hypothesis flags failed: lambda_le_half_k_minus_1"


def test_certify_batch(instance110):
    prep = PreparedPipeline(instance110, PipelineConfig(lambda_policy="clamped", seed=11))
    missing = [prep.run(t).missing_edges for t in range(8)]
    cert = certify_batch(prep.certified_bound(), missing)
    assert cert.status in ("PASS", "FAIL")
    assert cert.trials == 8 and cert.bound == prep.bound.missing_bound
    assert cert.observed == pytest.approx(sum(missing) / 8)


def test_batch_uses_distinct_trials(instance110):
    prep = PreparedPipeline(instance110, PipelineConfig(lambda_policy="clamped", seed=2))
    assert len({prep.run(t).m_star for t in range(4)}) > 1


def test_seagull_failure_is_loud(instance110, monkeypatch):
    # a partition miss must surface as a defect, never be retried silently
    import minorforge.pipeline as pl
    from minorforge.errors import SeagullFailure

    monkeypatch.setattr(pl, "seagull_partition", lambda g: None)
    with pytest.raises(SeagullFailure):
        pl.run_pipeline(instance110, PipelineConfig(lambda_policy="clamped", seed=1))


# --- reference cycles --------------------------------------------------------------


def test_preparation_and_trial_leave_no_cyclic_garbage(instance110):
    # n = 110 takes the exact clique search, whose recursion is _mis_size
    cfg = PipelineConfig(lambda_policy="clamped", seed=7)
    assert cyclic_garbage(lambda: PreparedPipeline(instance110, cfg).run(0)) == 0


def test_trials_leave_no_cyclic_garbage():
    prep = PreparedPipeline(
        triangle_free_process_complement(400, trial_rng(707)),
        PipelineConfig(lambda_policy="clamped", seed=1),
    )
    # each trial's seagull search would otherwise keep its n_s x n_s matrix
    # until a collection
    assert cyclic_garbage(lambda: [prep.run(t) for t in range(5)]) == 0
