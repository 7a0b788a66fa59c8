#!/usr/bin/env python3
"""Building a half-order minor, end to end.

Input: a graph G with no independent triple, even order, clique number
below |V|/4.  The construction contracts a conditioned random matching
plus a seagull packing into a minor H on |V|/2 vertices, then accounts
for every missing edge of H exactly: each one is a clique vertex facing a
matched pair with no connecting edge (bad triple) or two matched pairs
with no edge between them (bad quadruple).
"""

from minorforge.generators import triangle_free_process_complement
from minorforge.graph import bits, verify_minor
from minorforge.pipeline import PipelineConfig, PreparedPipeline
from minorforge.rng import trial_rng

print("instance: 110-vertex complement of a maximal triangle-free graph")
g = triangle_free_process_complement(110, trial_rng(1))

cfg = PipelineConfig(lambda_policy="clamped", seed=7)
prep = PreparedPipeline(g, cfg)
print(f"  n = {prep.n}, clique size k = {prep.k} ({prep.clique_method} search)")
print(f"  lambda = {float(prep.lam):.3f}, q = 1 - 2n/lambda^2 = {prep.bound.q:.3f}")
print(f"  all hypothesis flags hold: {prep.report.strict_ok}")

res = prep.run(trial=0)
h = res.h
print("\nconstruction:")
print(f"  clique vertices kept as singletons: {prep.k}")
print(f"  matched pairs contracted:           {len(res.m_star)}")
print(f"  seagulls contracted:                {len(res.seagulls.triples)}")
print(f"  minor H: {h.n} vertices, {h.edge_count} edges")
print(f"  witness verifies: {verify_minor(g, h, res.decomposition)}")

print("\nexact missing-edge ledger:")
print(f"  missing edges of H:   {res.missing_edges}")
print(f"  realized bad triples: {res.realized_bad_triples}")
print(f"  realized bad quads:   {res.realized_bad_quadruples}")
assert res.missing_edges == res.realized_bad_triples + res.realized_bad_quadruples

print(f"\nexpectation bound for this instance: {prep.certified_bound():.1f} missing edges")
print(f"this run realized {res.missing_edges} (single runs are samples, not tests)")
frac = res.missing_edges / (h.n * (h.n - 1) / 2)
print(f"edge density of H: {1 - frac:.4f} of all possible edges")
