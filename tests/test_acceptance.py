"""Acceptance suite: every criterion at its stated tolerance and runtime
budget, one printed pass/fail line each (run with -s to see them live).

Criteria 7 and 8 accumulate their pipeline runs; criterion 10 checks the
realized bad-structure counts of every accumulated run against the closed
-form caps, requiring zero violations.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats as scipy_stats

from minorforge.analysis import (
    clique_number,
    clique_stats,
    is_alpha_le_2,
    seagull_conditions,
)
from minorforge.bounds import (
    _fraction_raw,
    gamma_optimize,
    missing_fraction_extremal,
    zeta_monotonicity_check,
)
from minorforge.generators import (
    c5_blowup_complement,
    named_graph,
    triangle_free_process_complement,
    two_clique_complement,
)
from minorforge.graph import verify_minor
from minorforge.montecarlo import chebyshev
from minorforge.pairings import sample_partners
from minorforge.pipeline import PipelineConfig, PreparedPipeline, certify_batch
from minorforge.rng import trial_rng
from minorforge.seagulls import max_disjoint_seagulls_bruteforce, seagull_partition

# pipeline runs accumulated by criteria 7 and 8, consumed by criterion 10:
# entries are (k, a, b, realized_bad_triples, realized_bad_quadruples)
_ALL_RUNS: list[tuple[int, int, int, int, int]] = []


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        _report(num, name, False)
        raise
    elapsed = time.monotonic() - t0
    if elapsed > budget_s:
        _report(num, name, False)
        raise AssertionError(
            f"criterion {num} blew its runtime budget: {elapsed:.1f}s > {budget_s}s"
        )
    _report(num, name, True)


def test_01_gamma_reproduction():
    with criterion(1, "gamma reproduction", 1.0):
        z_star, gamma = gamma_optimize(1e-7)
        assert abs(gamma - 0.986882) <= 1e-5
        assert abs(z_star - 0.193984) <= 1e-4


def test_02_pairing_marginals():
    with criterion(2, "pairing marginals at |X|=10", 10.0):
        x, trials = 10, 100_000
        partner = sample_partners(x, trials, trial_rng(202))
        est = float(np.mean(partner[:, 0] == 1))
        se = (est * (1 - est) / trials) ** 0.5
        assert abs(est - 1 / 9) <= 4 * se
        joint = float(np.mean((partner[:, 0] == 1) & (partner[:, 2] == 3)))
        se_j = (joint * (1 - joint) / trials) ** 0.5
        assert abs(joint - 1 / 63) <= 4 * se_j


def test_03_exact_distribution_x6():
    with criterion(3, "exact pairing distribution at |X|=6", 30.0):
        trials = 1_000_000
        partner = sample_partners(6, trials, trial_rng(303))
        a = partner[:, 0].astype(np.int64)
        m = 1 + (a == 1)
        pm = partner[np.arange(trials), m].astype(np.int64)
        ids = a * 6 + pm
        counts = np.bincount(ids, minlength=36)
        counts = counts[counts > 0]
        assert len(counts) == 15
        _, p = scipy_stats.chisquare(counts)
        assert p > 1e-4


def test_04_chebyshev_suite():
    with criterion(4, "Chebyshev tail bound grid", 60.0):
        recs = chebyshev(trials=20_000, seed=404)
        assert len(recs) == 12  # |X| in {20,50} x densities {0.1,0.25} x lambda {2,5,10}
        for rec in recs:
            assert rec["estimate"] <= rec["bound"], rec["quantity"]


def _alpha2_sample(count: int) -> list:
    extras = [
        named_graph("five_wheel"),
        named_graph("c5"),
        named_graph("p3"),
        named_graph("k_n", 6),
        named_graph("k_n", 9),
        named_graph("k_n", 12),
        named_graph("circulant13_minus_one_complement"),
        c5_blowup_complement(2),
        two_clique_complement(3, 3),
        two_clique_complement(4, 4),
        two_clique_complement(2, 4),
        two_clique_complement(5, 5),
        two_clique_complement(6, 6),
    ]
    out = list(extras)
    rng = trial_rng(505, 0)
    i = 0
    while len(out) < count:
        n = int(rng.integers(6, 13))
        out.append(triangle_free_process_complement(n, trial_rng(505, i + 1)))
        i += 1
    return out[:count]


def test_05_condition_oracle_equivalence():
    with criterion(5, "packing conditions match exhaustive oracle", 300.0):
        graphs = _alpha2_sample(500)
        five_wheel_seen = False
        for g in graphs:
            assert is_alpha_le_2(g)
            best = max_disjoint_seagulls_bruteforce(g)
            for k in range(0, g.n // 3 + 1):
                rep = seagull_conditions(g, k)
                assert rep.all_hold == (best >= k), (g, k, rep, best)
                if (
                    k == 2
                    and rep.five_wheel
                    and not rep.cond_five_wheel
                    and rep.cond_size
                    and rep.cond_connectivity
                    and rep.cond_capacity
                    and rep.cond_matching
                ):
                    five_wheel_seen = True
        assert five_wheel_seen  # condition (v) must be the five-wheel's unique failure


def _check_partition(g, part):
    assert part is not None
    used = 0
    for a, mid, b in part.triples:
        assert g.has_edge(a, mid) and g.has_edge(mid, b) and not g.has_edge(a, b)
        t = (1 << a) | (1 << mid) | (1 << b)
        assert not (used & t)
        used |= t
    assert used == g.vertex_mask


def test_06_partition_guarantee():
    with criterion(6, "partition guarantee on 3k-vertex instances", 120.0):
        g = named_graph("circulant13_minus_one_complement")
        assert clique_number(g) == 4
        _check_partition(g, seagull_partition(g))

        found = {12: 0, 15: 0}
        want = {12: 50, 15: 50}
        seed = 0
        while (found[12] < want[12] or found[15] < want[15]) and seed < 200_000:
            n = 12 if found[12] < want[12] else 15
            k = n // 3
            cand = triangle_free_process_complement(n, trial_rng(606, seed))
            seed += 1
            if clique_number(cand) > k:
                continue
            found[n] += 1
            _check_partition(cand, seagull_partition(cand))
        assert found[12] + found[15] >= 100, found


def _structural(prep, res):
    g = prep.g
    n = g.n // 2
    k = prep.k
    assert res.h.n == n
    assert verify_minor(g, res.h, res.decomposition)
    assert res.seagulls.vertex_mask().bit_count() == 3 * k
    assert res.missing_edges == math.comb(n, 2) - res.h.edge_count
    assert res.missing_edges == res.realized_bad_triples + res.realized_bad_quadruples


def test_07_pipeline_structural_suite():
    with criterion(7, "structural suite: 50 instances x 4 seeds at |V|=400", 600.0):
        for inst in range(50):
            g = triangle_free_process_complement(400, trial_rng(707, inst))
            prep = PreparedPipeline(g, PipelineConfig(lambda_policy="clamped", seed=inst))
            s = prep.stats
            for trial in range(4):
                res = prep.run(trial)
                _structural(prep, res)
                _ALL_RUNS.append(
                    (s.k, s.a, s.b, res.realized_bad_triples, res.realized_bad_quadruples)
                )


def test_08_expectation_bound():
    with criterion(8, "mean missing edges within the expectation bound", 1800.0):
        sizes = (400, 500, 600)
        wanted, trials_per = 5, 40
        eligible = []
        sweep = 0
        while len(eligible) < wanted and sweep < 60:
            size = sizes[sweep % len(sizes)]
            g = triangle_free_process_complement(size, trial_rng(808, sweep))
            prep = PreparedPipeline(
                g, PipelineConfig(lambda_policy="clamped", seed=1000 + sweep)
            )
            if prep.report.strict_ok:
                eligible.append((g, prep))
            sweep += 1
        # the criterion demands an explicit report if no instance qualifies;
        # with these sizes the sweep must find them, or this fails loudly
        assert len(eligible) >= wanted, (
            f"only {len(eligible)} strict-eligible instances in {sweep} sweeps; "
            "advisory-mode structural coverage lives in criterion 7"
        )
        total_trials = 0
        for g, prep in eligible:
            results = [prep.run(t) for t in range(trials_per)]
            total_trials += len(results)
            cert = certify_batch(prep.certified_bound(), [r.missing_edges for r in results])
            assert cert.status == "PASS", (
                f"mean {cert.observed:.1f} > bound {cert.bound:.1f} + 3*{cert.stderr:.2f}"
            )
            s = prep.stats
            for r in results:
                _ALL_RUNS.append(
                    (s.k, s.a, s.b, r.realized_bad_triples, r.realized_bad_quadruples)
                )
        assert total_trials >= 200


def test_09_monotonicity_and_identity():
    with criterion(9, "zeta monotonicity and extremal identity", 5.0):
        assert zeta_monotonicity_check(1000)
        zs = np.linspace(0.0, 0.25, 10_000)
        diff = np.abs(
            _fraction_raw(zs, zs * zs)
            - np.array([missing_fraction_extremal(z) for z in zs])
        )
        assert float(np.max(diff)) <= 1e-12


def test_10_count_bounds_zero_violations():
    with criterion(10, "realized bad-structure counts within caps", 30.0):
        assert _ALL_RUNS, "criteria 7 and 8 must run first"
        violations = 0
        for k, a, b, triples, quads in _ALL_RUNS:
            if triples > a * (k - 1) / 2 or quads > b * (k - 1) ** 2 / 4:
                violations += 1
        assert violations == 0
        assert len(_ALL_RUNS) >= 400
