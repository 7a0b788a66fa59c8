#!/usr/bin/env python3
"""Time the preparation and trial stages on fixed instances; write BENCH_stages.json.

    PYTHONPATH=src python3 scripts/bench_stages.py [--out BENCH_stages.json]

The instances are the TFP graphs (complements of the triangle-free process)
of seeds 707 and 708 at n = 400, 800 and 1600, built as
`minorforge gen --family tfp --n N --seed S` builds them, and prepared with
`lambda=clamped` and pipeline seed 1.  Each stage is a span inside the real
`PreparedPipeline(g, CONFIG)` and `.run(t)` calls: perfbench's Tracer wraps
the functions where `pipeline` looks them up and puts them back after the
call.  Times are paced ms, as perfbench reports them: each span of a call
times PROBE_NOMINAL_S over the mean of perfbench's probe read just before
and just after that call (no probe runs inside a call), so other load on
the machine moves them less than wall time.  Top level: `reps` (REPS), the
two digests below and `instances`, one row each, with these fields:
  n, seed       the instance;
  tfp_ms        median of REPS untraced TFP builds (the gen layer);
  tfp_peak_mb   tracemalloc's peak over one more build, in MB;
  find_independent_triple_ms, working_clique_ms, clique_stats_ms,
  strip_clique_ms, prepare_ms
                medians over REPS traced preparations (prepare: the whole call);
  k, clique_method, trials   the last preparation's clique; TRIALS[n];
  run_ms        median of those trials on it, run untraced;
  sample_ms (sample_conditioned plus subsample_matching), induced_subgraph_ms,
  seagull_partition_ms, contract_ms, minor_violation_ms, rest_ms
                medians over the same trials run again traced.  rest is
                the trial's time outside those spans: trial_rng, the remap
                to host vertices, the leftover mask, the seagull triples,
                from_kinds, the missing-edge accounting and the result.
run_ms is timed apart, so the stages and rest need not sum to it.  The two
runs of a trial must give equal result bytes, or the script exits non-zero.
`cliques_sha256` hashes every clique mask and `results_sha256` every trial's
counts, parts and minor adjacency (perfbench's `result_bytes`): two commits
whose files show the same digests built the same cliques and minors.  Point
PYTHONPATH at the other checkout's src/ to time it with the same script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tracemalloc
from pathlib import Path
from statistics import median

from minorforge import pipeline
from minorforge.generators import generate
from minorforge.pipeline import PipelineConfig, PreparedPipeline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Site, Tracer, totals  # noqa: E402
from workloads import PROBE_NOMINAL_S, probe, result_bytes  # noqa: E402

SIZES = (400, 800, 1600)
SEEDS = (707, 708)
REPS = 5
TRIALS = {400: 30, 800: 15, 1600: 9}
CONFIG = PipelineConfig(lambda_policy="clamped", seed=1)
PREPARE = ("find_independent_triple", "working_clique", "clique_stats", "strip_clique")
TRIAL = ("sample", "induced_subgraph", "seagull_partition", "contract", "minor_violation")
PREPARE_SITES = [Site(pipeline, name, name) for name in PREPARE]
TRIAL_SITES = [Site(pipeline, f, "sample") for f in ("sample_conditioned", "subsample_matching")]
TRIAL_SITES += [Site(pipeline, name, name) for name in TRIAL[1:]]


def paced(sites, name: str, call) -> tuple[object, dict[str, float]]:
    """Run call() once under a Tracer on `sites`; return its result and the
    paced ms of each span name, of the whole call (`name`) and of the call
    outside every site ("rest")."""
    tracer = Tracer(sites)
    before = probe()
    with tracer.recording(0, name):
        result = call()
    scale = PROBE_NOMINAL_S / ((before + probe()) / 2) * 1e3
    ms = {span: t.time * scale for span, t in totals(tracer.spans).items()}
    ms["rest"] = tracer.spans[0].self_time * scale
    return result, ms


def bench_instance(n: int, seed: int, reps: int, trials: int) -> tuple[dict, int, list[bytes]]:
    """One row, the clique of the last preparation and every trial's result bytes."""
    row = {"n": n, "seed": seed}
    builds = [paced((), "tfp", lambda: generate("tfp", n=n, seed=seed)) for _ in range(reps)]
    g = builds[-1][0]
    row["tfp_ms"] = median(ms["tfp"] for _, ms in builds)
    tracemalloc.start()
    try:
        generate("tfp", n=n, seed=seed)
        row["tfp_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    preps = [paced(PREPARE_SITES, "prepare", lambda: PreparedPipeline(g, CONFIG))
             for _ in range(reps)]
    for stage in PREPARE + ("prepare",):
        row[f"{stage}_ms"] = median(ms[stage] for _, ms in preps)
    prep = preps[-1][0]
    row.update(k=prep.k, clique_method=prep.clique_method, trials=trials)
    runs, results = [], []
    for t in range(trials):
        res, run = paced((), "run", lambda: prep.run(t))
        again, ms = paced(TRIAL_SITES, "run", lambda: prep.run(t))
        results.append(result_bytes(res))
        if result_bytes(again) != results[-1]:
            raise SystemExit(f"tfp n={n} seed={seed} trial {t}: the traced run built another minor")
        runs.append({**ms, "run": run["run"]})
    for stage in ("run",) + TRIAL + ("rest",):
        row[f"{stage}_ms"] = median(ms[stage] for ms in runs)
    return row, prep.clique, results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_stages.json")
    args = parser.parse_args()
    cliques, results = hashlib.sha256(), hashlib.sha256()
    rows = []
    stages = PREPARE + ("run",) + TRIAL + ("rest",)
    print(f"{'n':>5} {'seed':>5} {'k':>4} {'tfp ms':>7} {'MB':>5} "
          + " ".join(f"{s[:10]:>10}" for s in stages))
    for n in SIZES:
        for seed in SEEDS:
            row, clique, trial_bytes = bench_instance(n, seed, REPS, TRIALS[n])
            cliques.update(f"{n} {seed} {clique:x}\n".encode())
            results.update(b"".join(trial_bytes))
            rows.append(row)
            cells = " ".join(f"{row[s + '_ms']:>10.3f}" for s in stages)
            print(f"{n:>5} {seed:>5} {row['k']:>4} {row['tfp_ms']:>7.1f} "
                  f"{row['tfp_peak_mb']:>5.2f} {cells}", flush=True)
    out = {"reps": REPS, "cliques_sha256": cliques.hexdigest(),
           "results_sha256": results.hexdigest(), "instances": rows}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"cliques_sha256 {out['cliques_sha256']}; results_sha256 {out['results_sha256']}")


if __name__ == "__main__":
    main()
