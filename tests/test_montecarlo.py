import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minorforge import generators, montecarlo, pipeline
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
