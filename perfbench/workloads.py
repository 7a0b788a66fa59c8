"""The three benchmark workloads, their output checks and their trace sites.

Every workload is a closed loop with one caller: a call starts when the
previous one returns.  Inputs come only from the seed; the library sees
nothing but the generated graphs (or, for certify-400, the command line).
Generation and output checks run outside the timed region and outside any
trace.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from math import comb
from statistics import median

from minorforge import analysis, cli, generators, graph, pairings, pipeline
from minorforge.errors import Ineligible
from minorforge.graph import bits, verify_minor
from minorforge.rng import trial_rng
from minorforge.seagulls import is_seagull

from spans import Site, Tracer

PREPARED = pipeline.PreparedPipeline

# Each function is wrapped where its caller looks it up: pipeline imports the
# graph, analysis, pairings, seagulls and bounds functions by name, so those
# are wrapped in pipeline's namespace; the rest in their own module, and
# methods on their class.
TRACE_SITES = (
    Site(PREPARED, "__init__", "pipeline.prepare"),
    Site(PREPARED, "run", "pipeline.run", lambda r: r.missing_edges),
    Site(pipeline, "working_clique", "analysis.working_clique", lambda r: r[0].bit_count()),
    Site(analysis, "large_clique", "analysis.large_clique"),
    Site(analysis, "max_clique", "analysis.max_clique"),
    Site(pipeline, "find_independent_triple", "analysis.find_independent_triple"),
    Site(pipeline, "clique_stats", "analysis.clique_stats"),
    Site(pipeline, "compute_bound_report", "bounds.report"),
    Site(graph.Graph, "from_adj", "graph.from_adj"),
    Site(pipeline, "induced_subgraph", "graph.induced_subgraph"),
    Site(pipeline, "contract", "graph.contract"),
    Site(pipeline, "minor_violation", "graph.minor_violation"),
    Site(pipeline, "seagull_partition", "seagulls.partition"),
    Site(pipeline, "sample_conditioned", "pairings.sample_conditioned"),
    Site(pipeline, "subsample_matching", "pairings.subsample_matching"),
    Site(pipeline, "sample_uniform_pairing", "pairings.sample_uniform_pairing"),
    Site(pairings, "sample_uniform_pairing", "pairings.sample_uniform_pairing"),
    Site(pipeline, "in_concentration_event", "pairings.in_concentration_event", int),
    Site(pairings, "in_concentration_event", "pairings.in_concentration_event", int),
    Site(generators, "triangle_free_process_complement", "generators.tfp"),
    Site(cli, "main", "cli.main"),
)

# Untraced calls are timed by a stopwatch: the root span of each call plus
# these two sites, each span between two probe readings.
STOPWATCH_SITES = (TRACE_SITES[0], TRACE_SITES[1])

# Other tenants of the host slow this process by up to 1.8x for seconds at a
# time, and CPU time slows with wall time.  A fixed pure-Python loop timed
# right before and after every stopwatch span tracks that: on a 2-core VM the
# median trial time of successive 30 s runs on one graph varied by 15%
# (quartile distance over median) in wall time and by 2% once each trial was
# divided by its probe reading.  End-to-end times are therefore reported in
# paced seconds, wall seconds * PROBE_NOMINAL_S / probe reading, i.e. the time
# at a machine speed where the probe takes PROBE_NOMINAL_S.
PROBE_LOOPS = 10_000
PROBE_NOMINAL_S = 0.0007


def probe() -> float:
    """Seconds for a fixed pure-Python loop, the faster of two tries."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def paced(sp) -> float:
    return sp.duration * PROBE_NOMINAL_S / sp.probe_s


@dataclass
class Report:
    """Everything a run collected; run.py turns it into metrics."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    traced_call_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    prefix_calls: int = 0
    digest: str = ""
    tracer: Tracer | None = None

    def add(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)


# --- output checks -------------------------------------------------------------


def check_minor(g, prep, res) -> list[str]:
    """Independent re-check of one construction with public calls."""
    problems = []
    if not verify_minor(g, res.h, res.decomposition):
        problems.append("branch sets do not witness the minor")
    if res.h.n != g.n // 2:
        problems.append(f"minor has {res.h.n} vertices, expected {g.n // 2}")
    missing = comb(res.h.n, 2) - res.h.edge_count
    if not res.missing_edges == missing == res.realized_bad_triples + res.realized_bad_quadruples:
        problems.append(
            f"accounting: reported {res.missing_edges}, counted {missing}, "
            f"classified {res.realized_bad_triples}+{res.realized_bad_quadruples}"
        )
    cover = [v for t in res.seagulls.triples for v in t]
    if len(set(cover)) != len(cover) or len(cover) != 3 * prep.k:
        problems.append(f"seagull cover has {len(set(cover))} vertices, expected {3 * prep.k}")
    if not all(is_seagull(g, t) for t in res.seagulls.triples):
        problems.append("a seagull triple does not induce a path")
    return problems


def really_ineligible(g, clique: int) -> bool:
    """True when g fails a precondition the pipeline must reject: odd or tiny
    order, an independent triple, or a genuine clique of |V|/4 or more."""
    if g.n % 2 or g.n < 6:
        return True
    triple = analysis.find_independent_triple(g)
    if triple is not None:
        u, v, w = triple
        return not (g.has_edge(u, v) or g.has_edge(u, w) or g.has_edge(v, w))
    vs = list(bits(clique))
    is_clique = all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])
    return is_clique and 4 * len(vs) >= g.n


def result_bytes(res) -> bytes:
    """Canonical bytes of one construction, for the outputs digest."""
    return json.dumps(
        [res.trial, res.missing_edges, res.realized_bad_triples,
         res.realized_bad_quadruples, list(res.decomposition.parts), list(res.h.adj)]
    ).encode()


# --- workloads -------------------------------------------------------------------


def config(seed: int):
    return pipeline.PipelineConfig(lambda_policy="clamped", seed=seed)


def tfp(n: int, seed: int, stream: int):
    return generators.triangle_free_process_complement(n, trial_rng(seed, stream))


class MinorLoop:
    """One fresh TFP(n) graph per call, then set-up plus trial 0."""

    def __init__(self, n: int, min_calls: int):
        self.n = n
        self.min_calls = min_calls

    def setup(self, seed: int):
        return seed

    def input(self, seed: int, i: int):
        return tfp(self.n, seed, i)

    def call(self, g, seed: int):
        prep = PREPARED(g, config(seed))
        try:
            return prep, prep.run(0)
        except Ineligible as exc:
            return prep, exc

    def check(self, g, seed: int, result):
        prep, res = result
        if isinstance(res, Ineligible):
            # a correct refusal is an answer, not a failure
            ok = really_ineligible(g, prep.clique)
            return ([] if ok else [f"Ineligible on an eligible graph: {res}"]), b"ineligible"
        return check_minor(g, prep, res), result_bytes(res)


class TrialBatch:
    """One TFP(n) graph prepared `setups` times in set-up; each call is one
    more trial on the last preparation."""

    def __init__(self, n: int, setups: int, min_calls: int):
        self.n = n
        self.setups = setups
        self.min_calls = min_calls

    def setup(self, seed: int):
        g = tfp(self.n, seed, 0)
        return [PREPARED(g, config(seed)) for _ in range(self.setups)][-1]

    def input(self, seed: int, i: int):
        return i

    def call(self, trial: int, prep):
        return prep.run(trial)

    def check(self, trial: int, prep, res):
        return check_minor(prep.g, prep, res), result_bytes(res)


class Certify:
    """The certification command, run in process with stdout captured."""

    instances = 5

    def __init__(self, min_calls: int):
        self.min_calls = min_calls

    def setup(self, seed: int):
        return [
            "mc", "--suite", "expectation-bound", "--sizes", "400",
            "--instances", str(self.instances), "--trials", "100",
            "--seed", str(seed), "--format", "records", "--jobs", "1",
        ]

    def input(self, seed: int, i: int):
        return None

    def call(self, _, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, _, argv, result):
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        records = [json.loads(line) for line in text.splitlines()]
        if len(records) != self.instances:
            problems.append(f"{len(records)} records, expected {self.instances}")
        problems += [f"record without pass: {r}" for r in records if r.get("pass") is not True]
        return problems, text.encode()


WORKLOADS = {
    "build-800": MinorLoop(n=800, min_calls=6),
    "batch-400": TrialBatch(n=400, setups=3, min_calls=100),
    "certify-400": Certify(min_calls=1),
}


def stopwatch_samples(spans, root: int, report: Report) -> None:
    """Turn the stopwatch spans of one call into end-to-end samples: every
    prepare is a set-up sample and every completed run a trial sample; the
    call is the root's self time paced by the root's probes plus its paced
    children.  Wall samples (probe time left out) go beside them."""
    top = spans[root]
    kids = [sp for sp in spans[root + 1 :] if sp.parent == root]
    for sp in kids:
        key = "setup_s" if sp.name == "pipeline.prepare" else "trial_s"
        if not sp.error:
            report.add(key, paced(sp))
            report.add("wall_" + key, sp.duration)
    if top.call >= 0:
        report.add("call_s", top.self_time * PROBE_NOMINAL_S / top.probe_s
                   + sum(paced(sp) for sp in kids))
        report.add("wall_call_s", top.self_time + sum(sp.duration for sp in kids))


def run(name: str, seed: int, seconds: float, traced: bool) -> Report:
    """Run one workload for about `seconds` seconds, never fewer than its
    minimum number of calls; the next call starts only if a call of median
    length would end before the deadline.

    Set-up and every call run under the stopwatch.  With `traced`, the set-up
    runs again under the tracer as call -1, and every call runs a second time
    on the same input under the tracer, the order alternating between calls.
    The outputs digest covers the first `min_calls` calls.
    """
    start = time.perf_counter()
    wl = WORKLOADS[name]
    report = Report(prefix_calls=wl.min_calls)
    tracer = report.tracer = Tracer(TRACE_SITES) if traced else None
    stopwatch = Tracer(STOPWATCH_SITES, probe=probe)
    with stopwatch.recording(-1):
        state = wl.setup(seed)
    stopwatch_samples(stopwatch.spans, 0, report)
    if traced:
        with tracer.recording(-1):
            wl.setup(seed)
    digest = hashlib.sha256()
    round_s: list[float] = []
    i = 0
    while i < wl.min_calls or time.perf_counter() - start + median(round_s) <= seconds:
        t0 = time.perf_counter()
        item = wl.input(seed, i)
        recorders = [stopwatch, tracer] if traced else [stopwatch]
        if i % 2:
            recorders.reverse()
        problems, outputs = [], []
        for recorder in recorders:
            root = len(recorder.spans)
            try:
                with recorder.recording(i):
                    result = wl.call(item, state)
                found, output = wl.check(item, state, result)
            except Exception as exc:  # a failed call is counted, and the run goes on
                traceback.print_exc()
                problems.append(f"{type(exc).__name__}: {exc}")
                continue
            problems += found
            outputs.append(output)
            if recorder is stopwatch:
                stopwatch_samples(stopwatch.spans, root, report)
            else:
                report.traced_call_s.append(tracer.spans[root].duration)
        if len(set(outputs)) > 1:
            problems.append("traced and untraced calls gave different outputs")
        report.attempted += 1
        if problems:
            report.failed += 1
            report.problems += [f"call {i}: {p}" for p in problems]
        if i < wl.min_calls and outputs:
            digest.update(outputs[0])
        round_s.append(time.perf_counter() - t0)
        i += 1
    report.digest = digest.hexdigest()
    return report
