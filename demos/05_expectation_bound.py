#!/usr/bin/env python3
"""The expectation bound, checked by Monte Carlo.

The construction bounds the EXPECTED number of missing minor edges by a
closed form in (n, k, a, b, lambda).  Averaging many independent trials
on one instance puts the bound to the test: the mean must sit below it
(within statistical noise), and in practice sits far below.
"""

from minorforge.generators import triangle_free_process_complement
from minorforge.pipeline import PipelineConfig, PreparedPipeline, certify_batch
from minorforge.rng import trial_rng

TRIALS = 60

print("instance: 110-vertex complement of a maximal triangle-free graph")
g = triangle_free_process_complement(110, trial_rng(1))
prep = PreparedPipeline(g, PipelineConfig(lambda_policy="clamped", seed=3))
print(f"  n = {prep.n}, k = {prep.k}, a = {prep.stats.a}, b = {prep.stats.b}")
print(f"  strict hypotheses hold: {prep.report.strict_ok}")

print(f"\nrunning {TRIALS} independent trials ...")
results = [prep.run(t) for t in range(TRIALS)]
missing = [r.missing_edges for r in results]
print(f"  missing edges: min {min(missing)}  mean {sum(missing)/len(missing):.2f}  max {max(missing)}")

cert = certify_batch(prep.certified_bound(), missing)
print(f"\n  expectation bound: {cert.bound:.2f}")
print(f"  observed mean:     {cert.observed:.2f}  (stderr {cert.stderr:.2f})")
print(f"  certificate:       {cert.status}")

worst_t = max(r.realized_bad_triples for r in results)
worst_q = max(r.realized_bad_quadruples for r in results)
s = prep.stats
print("\nstructure caps (hold on every single run):")
print(f"  bad triples    <= a(k-1)/2    : worst {worst_t} <= {s.a * (s.k - 1) / 2:.0f}")
print(f"  bad quadruples <= b(k-1)^2/4  : worst {worst_q} <= {s.b * (s.k - 1) ** 2 / 4:.0f}")
