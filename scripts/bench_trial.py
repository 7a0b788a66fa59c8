#!/usr/bin/env python3
"""Time the trial stages on fixed instances; write BENCH_trial.json.

    PYTHONPATH=src python3 scripts/bench_trial.py [--out BENCH_trial.json]

The instances are the TFP graphs (complements of the triangle-free process)
of seeds 707 and 708 at n = 400, 800 and 1600, built as
`minorforge gen --family tfp --n N --seed S` builds them, and prepared once
with `lambda=clamped` and pipeline seed 1.  The script runs TRIALS[n]
trials on each and reports the median paced time of a whole trial
(`PreparedPipeline.run`) and of its stages, each stage timed on that
trial's own inputs: the sampler and subsample, `induced_subgraph` on the
leftover set S, `seagull_partition`, and `contract` plus `minor_violation`
on a decomposition built afresh from the trial's parts, so nothing either
of them builds once per decomposition is shared between trials.  `rest_ms`
is the trial's median less the stages' medians (the part arrays, their
masks and the missing-edge accounting).  Times are paced milliseconds, as
perfbench reports them: a call's wall time times PROBE_NOMINAL_S over the mean of
perfbench's probe read just before and just after it, so other load on the
machine moves them less than wall time.  `results_sha256` hashes every
trial's counts, parts and minor adjacency (perfbench's `result_bytes`), so
two commits whose files show the same digest built the same minors: point
PYTHONPATH at the other checkout's src/ to time it with the same script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from statistics import median

from minorforge.generators import generate
from minorforge.graph import BranchDecomposition, contract, induced_subgraph, mask_of, minor_violation
from minorforge.pipeline import PipelineConfig, PreparedPipeline
from minorforge.seagulls import seagull_partition

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import PROBE_NOMINAL_S, probe, result_bytes  # noqa: E402

SIZES = (400, 800, 1600)
SEEDS = (707, 708)
TRIALS = {400: 30, 800: 15, 1600: 9}
CONFIG = PipelineConfig(lambda_policy="clamped", seed=1)
STAGES = ("sample", "induced_subgraph", "seagull_partition", "contract", "minor_violation")


def timed(call) -> tuple[float, object]:
    """Paced time of one call, in ms, and its result."""
    before = probe()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return wall * PROBE_NOMINAL_S / ((before + probe()) / 2) * 1e3, result


def trial_times(prep: PreparedPipeline, trial: int) -> dict[str, float]:
    """Stage times of one trial, each stage run on that trial's inputs."""
    g = prep.g
    times = {}
    times["run"], res = timed(lambda: prep.run(trial))
    times["sample"], m_star = timed(lambda: prep._sample_matching(trial))
    covered = mask_of(v for edge in m_star for v in edge)
    s_mask = g.vertex_mask & ~prep.clique & ~covered
    times["induced_subgraph"], (g_s, _) = timed(lambda: induced_subgraph(g, s_mask))
    times["seagull_partition"], _ = timed(lambda: seagull_partition(g_s))
    d = BranchDecomposition(host=g, parts=res.decomposition.parts)
    times["contract"], h = timed(lambda: contract(g, d))
    times["minor_violation"], violation = timed(lambda: minor_violation(g, h, d))
    if h != res.h or violation is not None:
        raise SystemExit(f"trial {trial}: the stages did not rebuild the trial's minor")
    return times, res


def bench_instance(n: int, seed: int, digest) -> dict:
    prep = PreparedPipeline(generate("tfp", n=n, seed=seed), CONFIG)
    prep.run(0)  # warm-up: lazy imports and first-call set-up stay out of the medians
    per_trial = []
    for trial in range(TRIALS[n]):
        times, res = trial_times(prep, trial)
        digest.update(result_bytes(res))
        per_trial.append(times)
    row = {"n": n, "seed": seed, "k": prep.k, "trials": TRIALS[n]}
    row["run_ms"] = median(t["run"] for t in per_trial)
    for stage in STAGES:
        row[f"{stage}_ms"] = median(t[stage] for t in per_trial)
    row["rest_ms"] = row["run_ms"] - sum(row[f"{s}_ms"] for s in STAGES)
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_trial.json")
    args = parser.parse_args()
    digest = hashlib.sha256()
    rows = []
    print(f"{'n':>5} {'seed':>5} {'k':>4} {'run ms':>8} "
          + " ".join(f"{s + ' ms':>20}" for s in STAGES + ("rest",)))
    for n in SIZES:
        for seed in SEEDS:
            row = bench_instance(n, seed, digest)
            rows.append(row)
            cells = " ".join(f"{row[s + '_ms']:>20.3f}" for s in STAGES + ("rest",))
            print(f"{n:>5} {seed:>5} {row['k']:>4} {row['run_ms']:>8.3f} {cells}", flush=True)
    out = {"results_sha256": digest.hexdigest(), "instances": rows}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"results_sha256 {out['results_sha256']}; wrote {args.out}")


if __name__ == "__main__":
    main()
