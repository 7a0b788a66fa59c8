"""Tests of the benchmark's own helpers: the percentile rule, span self-time
arithmetic, wrapper restoration and the output check."""

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from run import tail_percentile  # noqa: E402
from minorforge import generators, pipeline  # noqa: E402
from minorforge.rng import trial_rng  # noqa: E402
from spans import Site, Span, Tracer, inconsistent_spans, totals  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile([], 0.9) is None
    assert tail_percentile(range(99), 0.9) is None
    assert tail_percentile(range(100), 0.9) == 89
    assert tail_percentile(range(200, 0, -1), 0.9) == 180


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = Clock()
    lib = SimpleNamespace()

    def from_adj():
        clock.now += 2.0

    def induced_subgraph():
        clock.now += 1.0
        lib.from_adj()
        lib.from_adj()
        clock.now += 3.0

    lib.from_adj, lib.induced_subgraph = from_adj, induced_subgraph
    tracer = Tracer(
        [Site(lib, "from_adj", "graph.from_adj"),
         Site(lib, "induced_subgraph", "graph.induced_subgraph")],
        clock=clock,
    )
    with tracer.recording(0):
        lib.induced_subgraph()
        clock.now += 0.5
    t = totals(tracer.spans)
    assert (t["graph.from_adj"].calls, t["graph.from_adj"].time) == (2, 4.0)
    assert t["graph.from_adj"].self_time == 4.0
    assert (t["graph.induced_subgraph"].time, t["graph.induced_subgraph"].self_time) == (8.0, 4.0)
    assert (t["call"].time, t["call"].self_time) == (8.5, 0.5)
    assert inconsistent_spans(tracer.spans, "graph.induced_subgraph") == 0
    assert totals(tracer.spans, calls=range(1, 5)) == {}


def test_inconsistent_spans_flags_children_longer_than_parent():
    spans = [Span("pipeline.run", 0, 0.0, None, end=1.0, child_time=1.5),
             Span("graph.contract", 0, 0.0, 0, end=1.5)]
    assert inconsistent_spans(spans, "pipeline.run") == 1
    assert inconsistent_spans(spans, "other") == 0


def test_probe_time_is_child_time_and_paces_the_call():
    clock = Clock()
    lib = SimpleNamespace()

    def probe():
        clock.now += 0.25
        return 0.002 if clock.now < 2 else 0.0005

    def run():
        clock.now += 1.0

    lib.run = run
    tracer = Tracer([Site(lib, "run", "pipeline.run")], clock=clock, probe=probe)
    with tracer.recording(0):
        clock.now += 0.5
        lib.run()
    root, child = tracer.spans
    assert (child.duration, child.probe_s) == (1.0, (0.002 + 0.0005) / 2)
    assert (root.duration, root.self_time) == (2.0, 0.5)
    report = workloads.Report()
    workloads.stopwatch_samples(tracer.spans, 0, report)
    nominal = workloads.PROBE_NOMINAL_S
    assert report.samples["wall_trial_s"] == [1.0]
    assert report.samples["trial_s"] == [1.0 * nominal / 0.00125]
    assert report.samples["wall_call_s"] == [1.5]
    assert report.samples["call_s"] == [0.5 * nominal / root.probe_s + 1.0 * nominal / 0.00125]


def small_instance():
    # small TFP graphs have a clique of at least |V|/4 and are refused
    g = generators.triangle_free_process_complement(200, trial_rng(3))
    return g, pipeline.PreparedPipeline(g, workloads.config(3))


def test_wrappers_are_restored_after_a_traced_call():
    originals = [vars(s.owner)[s.attr] for s in workloads.TRACE_SITES]
    tracer = Tracer(workloads.TRACE_SITES)
    with tracer.recording(0):
        g, prep = small_instance()
        prep.run(0)
    with pytest.raises(ZeroDivisionError):
        with tracer.recording(1):
            1 / 0
    assert [vars(s.owner)[s.attr] for s in workloads.TRACE_SITES] == originals
    names = {sp.name for sp in tracer.spans}
    assert {"generators.tfp", "pipeline.prepare", "graph.from_adj", "graph.contract"} <= names
    before = len(tracer.spans)
    small_instance()[1].run(0)
    assert len(tracer.spans) == before


def test_output_check_catches_a_wrong_count():
    g, prep = small_instance()
    res = prep.run(0)
    assert workloads.check_minor(g, prep, res) == []
    bad = dataclasses.replace(res, missing_edges=res.missing_edges + 1)
    assert workloads.check_minor(g, prep, bad)
    assert not workloads.really_ineligible(g, prep.clique)
