#!/usr/bin/env python3
"""Time the preparation stages on fixed instances; write BENCH_prepare.json.

    PYTHONPATH=src python3 scripts/bench_prepare.py [--out BENCH_prepare.json]

The instances are the TFP graphs (complements of the triangle-free process)
of seeds 707 and 708 at n = 400, 800 and 1600, built as
`minorforge gen --family tfp --n N --seed S` builds them.  The script
times that build (the gen layer) as the median of REPS calls and reports
its tracemalloc peak from one more call, made apart so tracing slows no
timed call.  On each graph it times find_independent_triple,
working_clique, clique_stats and strip_clique, each as the median of REPS
calls, and records the clique size k.  Times are paced milliseconds, as
perfbench reports them: each call's wall time times PROBE_NOMINAL_S over
the mean of perfbench's probe read just before and just after it, so
other load on the machine moves them less than wall time.
`cliques_sha256` hashes every clique mask, so two commits whose files show
the same digest built the same cliques: point PYTHONPATH at the other
checkout's src/ to time it with the same script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median

from minorforge.analysis import clique_stats, find_independent_triple, working_clique
from minorforge.generators import generate
from minorforge.pipeline import strip_clique

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import PROBE_NOMINAL_S, probe  # noqa: E402

SIZES = (400, 800, 1600)
SEEDS = (707, 708)
REPS = 5
STAGES = ("find_independent_triple", "working_clique", "clique_stats", "strip_clique")


def median_ms(call) -> tuple[float, object]:
    """Median paced time of REPS calls, in ms, and the last call's result."""
    times = []
    for _ in range(REPS):
        before = probe()
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        times.append(wall * PROBE_NOMINAL_S / ((before + probe()) / 2))
    return median(times) * 1e3, result


def traced_peak_mb(call) -> float:
    """tracemalloc's peak over one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bench_instance(n: int, seed: int) -> tuple[dict, int]:
    row = {"n": n, "seed": seed}
    row["tfp_ms"], g = median_ms(lambda: generate("tfp", n=n, seed=seed))
    row["tfp_peak_mb"] = traced_peak_mb(lambda: generate("tfp", n=n, seed=seed))
    row["find_independent_triple_ms"], triple = median_ms(lambda: find_independent_triple(g))
    if triple is not None:
        raise SystemExit(f"tfp n={n} seed={seed} has an independent triple {triple}")
    row["working_clique_ms"], (clique, method) = median_ms(lambda: working_clique(g))
    row["clique_stats_ms"], _ = median_ms(lambda: clique_stats(g, clique))
    row["strip_clique_ms"], _ = median_ms(lambda: strip_clique(g, clique))
    row["prepare_ms"] = sum(row[f"{s}_ms"] for s in STAGES)
    row["k"] = clique.bit_count()
    row["clique_method"] = method
    return row, clique


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_prepare.json")
    args = parser.parse_args()
    digest = hashlib.sha256()
    rows = []
    print(f"{'n':>5} {'seed':>5} {'k':>4} {'tfp ms':>8} {'tfp MB':>7} "
          + " ".join(f"{s + ' ms':>26}" for s in STAGES))
    for n in SIZES:
        for seed in SEEDS:
            row, clique = bench_instance(n, seed)
            digest.update(f"{n} {seed} {clique:x}\n".encode())
            rows.append(row)
            cells = " ".join(f"{row[s + '_ms']:>26.2f}" for s in STAGES)
            print(f"{n:>5} {seed:>5} {row['k']:>4} {row['tfp_ms']:>8.1f} "
                  f"{row['tfp_peak_mb']:>7.2f} {cells}", flush=True)
    out = {"reps": REPS, "cliques_sha256": digest.hexdigest(), "instances": rows}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"cliques_sha256 {out['cliques_sha256']}; wrote {args.out}")


if __name__ == "__main__":
    main()
