import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorforge import generators, montecarlo, pairings, pipeline
from minorforge.rng import trial_rng


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(1, 40),
    trials=st.integers(1, 30),
    seed=st.integers(0, 2**64 - 1),
)
def test_sample_partners_rows_are_fixed_point_free_involutions(half, trials, seed):
    x = 2 * half
    partner = montecarlo.sample_partners(x, trials, trial_rng(seed))
    assert partner.shape == (trials, x)
    ids = np.arange(x)
    rows = np.arange(trials)[:, None]
    assert (partner[rows, partner] == ids).all()
    assert (partner != ids).all()


@pytest.mark.parametrize("x", [2, 4, 10, 50])
def test_sample_partners_draws_the_pipelines_pairing(x):
    # the pairing suites check sample_partners; the trial draws sample_uniform_pairing
    for seed in range(20):
        pairs = pairings.sample_uniform_pairing(x, trial_rng(seed)).array
        partner = np.empty(x, dtype=np.intp)
        partner[pairs[:, 0]], partner[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        assert montecarlo.sample_partners(x, 1, trial_rng(seed))[0].tolist() == partner.tolist()


def test_expectation_bound_prepares_each_swept_instance_once(monkeypatch):
    calls = {"prepare": 0, "tfp": 0}
    init = pipeline.PreparedPipeline.__init__
    tfp = generators.triangle_free_process_complement

    def counting_init(self, *args, **kwargs):
        calls["prepare"] += 1
        init(self, *args, **kwargs)

    def counting_tfp(*args, **kwargs):
        calls["tfp"] += 1
        return tfp(*args, **kwargs)

    monkeypatch.setattr(pipeline.PreparedPipeline, "__init__", counting_init)
    monkeypatch.setattr(generators, "triangle_free_process_complement", counting_tfp)
    recs = montecarlo.expectation_bound([110], instances=2, trials=4, seed=2, sweep_limit=50)
    assert [r["pass"] for r in recs] == [True, True]
    swept = recs[-1]["instance_seed"] - 2 + 1
    assert calls == {"prepare": swept, "tfp": swept}


def test_instance_record_keeps_only_the_counts():
    prep = next(montecarlo._eligible_instances([110], 1, 2, 50))
    results = [prep.run(t) for t in range(40)]
    cert = pipeline.certify_batch(prep.certified_bound(), [r.missing_edges for r in results])
    rec = montecarlo._instance_record(prep, 40)
    assert (rec["estimate"], rec["stderr"], rec["bound"]) == (cert.observed, cert.stderr, cert.bound)
    assert rec["max_bad_triples"] == max(r.realized_bad_triples for r in results)
    assert rec["max_bad_quadruples"] == max(r.realized_bad_quadruples for r in results)
    del results
    peaks = []
    for trials in (10, 40):
        tracemalloc.start()
        try:
            montecarlo._instance_record(prep, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # holding every result grew the peak by about 9 KB per trial here
    assert peaks[1] - peaks[0] < 100_000


def test_certified_bound_needs_no_trial_and_is_the_mc_bound(monkeypatch):
    prep = next(montecarlo._eligible_instances([110], 1, 2, 50))
    with monkeypatch.context() as m:
        m.setattr(pipeline.PreparedPipeline, "run", lambda self, trial=0: pytest.fail("a trial ran"))
        bound = prep.certified_bound()
    assert bound == prep.bound.missing_bound
    (rec,) = montecarlo.expectation_bound([110], instances=1, trials=4, seed=2, sweep_limit=50)
    assert (rec["instance_seed"], rec["bound"]) == (prep.cfg.seed, bound)


def test_expectation_bound_pool_asks_for_no_more_workers_than_batches(monkeypatch):
    asked = []

    class InProcessPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    class Context:
        Pool = InProcessPool

    monkeypatch.setattr(montecarlo, "get_context", lambda method: Context())
    args = dict(sizes=[110], trials=4, seed=2, sweep_limit=50)
    want = montecarlo.expectation_bound(instances=2, jobs=1, **args)
    assert montecarlo.expectation_bound(instances=2, jobs=10**6, **args) == want
    assert len(asked) == 1 and 1 <= asked[0] <= 2
