#!/usr/bin/env python3
"""minorforge benchmark: one workload per process, outputs checked.

    python3 perfbench/run.py --workload build-800 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a checkout; the library is imported from its `src/`.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones of a traced run,
whose spans are also written to perfbench/out/.  `--workload all` runs every
workload in its own process, one after another.  The exit code is 0 only
when every output check passed.  perfbench/README.md defines each metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from math import ceil
from pathlib import Path
from statistics import median

from spans import Total, inconsistent_spans, totals

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {"setup_s": "s", "trial_s": "s", "call_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run, summed over its fixed prefix: the set-up
# plus the first min_calls calls.  Only layers every workload reaches are
# timed, so no time reads 0 on every run; the others are counted.
# per-layer time -> the spans whose durations it sums
LAYER_TIMES = {
    "analysis.working_clique_s": ("analysis.working_clique",),
    "analysis.find_independent_triple_s": ("analysis.find_independent_triple",),
    "analysis.clique_stats_s": ("analysis.clique_stats",),
    "graph.from_adj_s": ("graph.from_adj",),
    "graph.induced_subgraph_s": ("graph.induced_subgraph",),
    "graph.contract_s": ("graph.contract",),
    "graph.minor_violation_s": ("graph.minor_violation",),
    "seagulls.partition_s": ("seagulls.partition",),
    "pairings.sample_s": ("pairings.sample_conditioned", "pairings.subsample_matching"),
    "pipeline.prepare_s": ("pipeline.prepare",),
    "pipeline.run_s": ("pipeline.run",),
    "bounds.report_s": ("bounds.report",),
}
SELF_TIMES = {"pipeline.run_self_s": "pipeline.run"}
# exact count -> (span name, field)
EXACT_COUNTS = {
    "analysis.clique_k_sum": ("analysis.working_clique", "value"),
    "graph.from_adj_calls": ("graph.from_adj", "calls"),
    "pairings.tries": ("pairings.sample_uniform_pairing", "calls"),
    "pipeline.prepare_calls": ("pipeline.prepare", "calls"),
    "pipeline.missing_edges_sum": ("pipeline.run", "value"),
    "generators.tfp_calls": ("generators.tfp", "calls"),
    "cli.main_calls": ("cli.main", "calls"),
}


def tail_percentile(samples, q: float, tail: int = 10) -> float | None:
    """Nearest-rank q-quantile, or None unless at least `tail` samples lie
    beyond it (the p90 therefore needs 100 samples)."""
    xs = sorted(samples)
    if not xs:
        return None
    idx = max(0, ceil(q * len(xs)) - 1)
    if len(xs) - 1 - idx < tail:
        return None
    return xs[idx]


def load_library():
    """Import minorforge from this checkout's src/, and nothing else."""
    if not (SRC / "minorforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no minorforge source under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import minorforge

    if not Path(minorforge.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported minorforge from {minorforge.__file__}, not {SRC}")


def end_to_end(report, lines: list[str]) -> dict:
    metrics = {}
    for key in ("setup_s", "trial_s", "call_s"):
        xs = report.samples.get(key, [])
        if not xs:
            report.problems.append(f"no {key} samples")
            continue
        metrics[key] = median(xs)
        wall = median(report.samples["wall_" + key])
        lines.append(f"  {key:<12} {metrics[key]:.6f} s  median of {len(xs)} "
                     f"(paced; wall median {wall:.6f} s)")
    xs = report.samples.get("trial_s", [])
    p90 = tail_percentile(xs, 0.9)
    lines.append(
        f"  {'trial_s.p90':<12} "
        + (f"{p90:.6f} s  p90 of {len(xs)} (paced)" if p90 is not None
           else f"n/a: {len(xs)} samples, a p90 needs 100")
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.1f} MB")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(report, lines: list[str]) -> dict:
    tracer = report.tracer
    prefix = totals(tracer.spans, calls=range(-1, report.prefix_calls))
    none = Total()
    metrics = {}
    for key, names in LAYER_TIMES.items():
        metrics[key] = (sum(prefix.get(n, none).time for n in names), "s")
    for key, name in SELF_TIMES.items():
        metrics[key] = (prefix.get(name, none).self_time, "s")
    for key, (name, attr) in EXACT_COUNTS.items():
        metrics[key] = (int(getattr(prefix.get(name, none), attr)), "count")
    tries = prefix.get("pairings.sample_uniform_pairing", none).calls
    accepted = prefix.get("pairings.in_concentration_event", none).value
    metrics["pairings.accept_ratio"] = (accepted / tries if tries else 0.0, "ratio")
    untraced = median(report.samples["wall_call_s"])
    metrics["trace.overhead_frac"] = (median(report.traced_call_s) / untraced - 1.0, "ratio")
    bad = inconsistent_spans(tracer.spans, "pipeline.run")
    if bad:
        report.problems.append(f"{bad} spans inside pipeline.run have negative self time")
    lines.append(f"  traced: set-up and the first {report.prefix_calls} calls "
                 f"({len(report.traced_call_s)} traced calls, {len(tracer.spans)} spans)")
    lines += [f"  {key:<36} {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    lines.append("  every span name, over the same prefix: calls, total s, self s")
    lines += [f"    {name:<36} {t.calls:>7} {t.time:10.4f} {t.self_time:10.4f}"
              for name, t in sorted(prefix.items())]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps([sp.name, sp.call, sp.parent, sp.start, sp.end]) + "\n")


def run_one(args) -> int:
    load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    lines = [
        f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
        f"{report.attempted} calls, {report.failed} failed "
        f"(failed_frac {report.failed / max(report.attempted, 1):.4g})"
    ]
    if args.trace:
        metrics = per_layer(report, lines)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(report.tracer, spans_path)
        lines.append(f"  spans written to {spans_path.relative_to(HERE.parent)}")
    else:
        metrics = end_to_end(report, lines)
    lines.append(f"  outputs_sha256 {report.digest} over the first {report.prefix_calls} calls")
    lines += [f"  problem: {p}" for p in report.problems]
    correct = not report.problems
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    load_library()
    import workloads

    status = 0
    table = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            table.append(f"{name}: no result (exit code {proc.returncode})")
            continue
        table.append(f"{name}: correct={result['correct']} failed={result['failed']}"
                     f"/{result['attempted']}")
        table += [f"  {k:<36} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    print("\n".join(["", "summary"] + table))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
