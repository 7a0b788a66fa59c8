"""The stage bench script, run on one small instance: it must time the
library's own preparation and trial, and leave the library as it found it."""

import importlib.util
import sys
from pathlib import Path

from minorforge import pipeline
from minorforge.generators import generate

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_stages.py"


def test_stage_bench_times_the_real_preparation_and_trials(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds perfbench/
    originals = dict(vars(pipeline))
    spec = importlib.util.spec_from_file_location("bench_stages", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    row, clique, results = bench.bench_instance(200, 707, reps=1, trials=2)
    assert all(vars(pipeline)[name] is value for name, value in originals.items())
    prep = pipeline.PreparedPipeline(generate("tfp", n=200, seed=707), bench.CONFIG)
    assert clique == prep.clique
    assert results == [bench.result_bytes(prep.run(t)) for t in range(2)]
    assert (row["k"], row["clique_method"], row["trials"]) == (prep.k, prep.clique_method, 2)
    stages = ("tfp", "prepare", "run", "rest") + bench.PREPARE + bench.TRIAL
    assert all(row[f"{stage}_ms"] > 0 for stage in stages)
    assert row["tfp_peak_mb"] > 0
