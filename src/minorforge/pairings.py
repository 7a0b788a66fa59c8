"""Uniform random pairings (perfect matchings of a ground set) and the
conditioned sampling behind the minor construction.

A pairing of X is drawn uniformly over all (|X|-1)!! partitions of X into
pairs by pairing up a uniform permutation.  The concentration event keeps
the pairings whose edge count inside a host graph is not unusually low;
rejection sampling conditions on it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import NotEnoughEdges, OddGroundSet, RejectionExhausted
from .graph import Graph


@dataclass(frozen=True)
class Pairing:
    """Partition of 0..ground_size-1 into unordered pairs, canonically sorted."""

    ground_size: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.ground_size % 2:
            raise OddGroundSet(f"ground set of size {self.ground_size}")
        seen = 0
        for u, v in self.pairs:
            if u >= v:
                raise ValueError("pairs must be (low, high)")
            bit = (1 << u) | (1 << v)
            if seen & bit:
                raise ValueError("pairs overlap")
            seen |= bit
        if seen != (1 << self.ground_size) - 1:
            raise ValueError("pairs do not cover the ground set")


def _canonical(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs))


def sample_uniform_pairing(x_size: int, rng: np.random.Generator) -> Pairing:
    """Exactly uniform over all (x_size-1)!! pairings."""
    if x_size % 2:
        raise OddGroundSet(f"ground set of size {x_size}")
    perm = rng.permutation(x_size).tolist()
    return Pairing(ground_size=x_size, pairs=_canonical(zip(perm[0::2], perm[1::2])))


def all_pairings(x_size: int) -> Iterator[Pairing]:
    """Every pairing of 0..x_size-1 (exhaustive; sizes beyond ~10 explode)."""
    if x_size % 2:
        raise OddGroundSet(f"ground set of size {x_size}")

    def rec(remaining: tuple[int, ...], acc):
        if not remaining:
            yield Pairing(ground_size=x_size, pairs=_canonical(acc))
            return
        u = remaining[0]
        for i in range(1, len(remaining)):
            v = remaining[i]
            rest = remaining[1:i] + remaining[i + 1 :]
            yield from rec(rest, acc + [(u, v)])

    try:
        yield from rec(tuple(range(x_size)), [])
    finally:
        rec = None  # rec's closure holds rec: break the cycle


def pairing_edge_count(m: Pairing, g: Graph) -> int:
    """|M intersect E(g)|; the pairing must live on V(g)."""
    if m.ground_size != g.n:
        raise ValueError("pairing ground set does not match the graph")
    adj = g.adj
    return sum((adj[u] >> v) & 1 for u, v in m.pairs)


def in_concentration_event(m: Pairing, g: Graph, lam) -> bool:
    """|M intersect E(g)| >= |E(g)|/(x-1) - lambda, compared in exact rationals."""
    if m.ground_size != g.n:
        raise ValueError("pairing ground set does not match the graph")
    x = g.n
    if x < 2:
        return True
    lhs = Fraction(pairing_edge_count(m, g))
    rhs = Fraction(g.edge_count, x - 1) - Fraction(lam)
    return lhs >= rhs


def sample_conditioned(
    g: Graph, lam, max_tries: int, rng: np.random.Generator, min_edges: int = 0
) -> Pairing:
    """Uniform pairing conditioned on the concentration event and on having
    at least min_edges edges in g, by rejection.

    Output is exactly uniform on that event.  Raises RejectionExhausted after
    max_tries misses (the event is too small for this lambda).
    """
    lam_f = Fraction(lam)
    if lam_f <= 0:
        raise ValueError("lambda must be positive")
    for _ in range(max_tries):
        m = sample_uniform_pairing(g.n, rng)
        if in_concentration_event(m, g, lam_f) and (
            min_edges <= 0 or pairing_edge_count(m, g) >= min_edges
        ):
            return m
    wanted = f"with >= {min_edges} edges " if min_edges > 0 else ""
    raise RejectionExhausted(f"no pairing {wanted}hit the event in {max_tries} tries")


def subsample_matching(
    m: Pairing, g: Graph, count: int, rng: np.random.Generator
) -> tuple[tuple[int, int], ...]:
    """Uniform count-subset of the pairing's edges that lie in E(g), as
    sorted (low, high) pairs."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    adj = g.adj
    inside = [(u, v) for u, v in m.pairs if (adj[u] >> v) & 1]
    if len(inside) < count:
        raise NotEnoughEdges(f"pairing has {len(inside)} graph edges, need {count}")
    idx = rng.choice(len(inside), size=count, replace=False)
    return tuple(sorted(inside[int(i)] for i in idx))


def chebyshev_bound(x_size: int, lam: float) -> float:
    """Tail bound |X|/lambda^2 for the deviation of |F intersect M|."""
    if x_size < 4 or x_size % 2:
        raise ValueError("ground set must be even and at least 4")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return x_size / float(lam) ** 2
