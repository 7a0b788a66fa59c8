#!/usr/bin/env python3
"""Random pairings: exact marginals and concentration.

A uniform pairing of an even ground set X hits a fixed pair with
probability 1/(|X|-1) and two disjoint pairs with probability
1/((|X|-1)(|X|-3)).  The number of pairs landing inside any family F
concentrates around |F|/(|X|-1) with a |X|/lambda^2 tail.  The minor
pipeline leans on both facts; this script checks them empirically.
"""

import numpy as np

from minorforge.graph import Graph
from minorforge.pairings import (
    all_pairings,
    chebyshev_bound,
    in_concentration_event,
    sample_conditioned,
    sample_partners,
)
from minorforge.rng import trial_rng

X = 10
TRIALS = 50_000
rng = trial_rng(2024)

print(f"=== marginals over {TRIALS} pairings of |X| = {X} ===")
partner = sample_partners(X, TRIALS, rng)  # partner[t, i]: i's pair in pairing t
hit_e = np.count_nonzero(partner[:, 0] == 1)
hit_ef = np.count_nonzero((partner[:, 0] == 1) & (partner[:, 2] == 3))
print(f"  Pr[(1,2) in M]        = {hit_e / TRIALS:.5f}   target 1/9  = {1 / 9:.5f}")
print(f"  Pr[(1,2),(3,4) in M]  = {hit_ef / TRIALS:.5f}   target 1/63 = {1 / 63:.5f}")

print("\n=== concentration of edge counts ===")
ring = Graph(X, [(i, (i + 1) % X) for i in range(X)])
mean = ring.edge_count / (X - 1)
for lam in (1, 2, 3):
    # each pair inside the ring is found from both of its ends
    counts = ring.has_edges(np.arange(X), sample_partners(X, TRIALS, rng)).sum(axis=1) // 2
    tail = np.count_nonzero(abs(counts - mean) >= lam) / TRIALS
    print(f"  lambda={lam}: tail {tail:.4f} <= bound {chebyshev_bound(X, lam):.4f}")

print("\n=== conditioning on the good event (|X| = 6, exhaustive) ===")
g6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
lam = 0.5
good = [m.pairs for m in all_pairings(6) if in_concentration_event(m, g6, lam)]
print(f"  event holds for {len(good)}/15 pairings at lambda = {lam}")
counts = dict.fromkeys(good, 0)
for _ in range(15_000):
    counts[sample_conditioned(g6, lam, 1000, rng).pairs] += 1
lo, hi = min(counts.values()), max(counts.values())
print(f"  conditioned sampler frequencies range {lo}..{hi} (uniform target {15_000 // len(good)})")
