"""Uniform random pairings (perfect matchings of a ground set) and the
conditioned sampling behind the minor construction.

A pairing of X is drawn uniformly over all (|X|-1)!! partitions of X into
pairs by pairing up a uniform permutation.  The concentration event keeps
the pairings whose edge count inside a host graph is not unusually low;
rejection sampling conditions on it exactly.  A pairing holds its pairs as
a read-only p x 2 intp array of (low, high) rows, by low when sampled, and
lists them as tuples only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import NotEnoughEdges, OddGroundSet, RejectionExhausted
from .graph import Graph


@dataclass(frozen=True, init=False)
class Pairing:
    """Partition of 0..ground_size-1 into unordered pairs, held as `array`, a
    read-only p x 2 intp array of (low, high) rows.  The field `pairs` is a
    property that lists them as tuples; equality, hash and repr read it."""

    ground_size: int
    pairs: tuple[tuple[int, int], ...] = property(lambda m: tuple(map(tuple, m.array.tolist())))

    def __init__(self, ground_size: int, pairs):
        if ground_size % 2:
            raise OddGroundSet(f"ground set of size {ground_size}")
        array = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)
        lo, hi = array.T
        if (lo >= hi).any():
            raise ValueError("pairs must be (low, high)")
        seen = np.zeros(ground_size, dtype=bool)
        if array.size == ground_size > 0 and lo.min() >= 0 and hi.max() < ground_size:
            seen[array] = True
        if not seen.all():  # not a cover: an overlap comes first
            if len(set(array.ravel().tolist())) < array.size:
                raise ValueError("pairs overlap")
            raise ValueError("pairs do not cover the ground set")
        array.flags.writeable = False
        vars(self).update(ground_size=ground_size, array=array)  # frozen: no setattr


def sample_uniform_pairing(x_size: int, rng: np.random.Generator) -> Pairing:
    """Exactly uniform over all (x_size-1)!! pairings."""
    if x_size % 2:
        raise OddGroundSet(f"ground set of size {x_size}")
    a, b = rng.permutation(x_size).reshape(-1, 2).T
    high = np.zeros(x_size, dtype=np.intp)  # each low's high, scattered; 0 at the highs
    high[np.minimum(a, b)] = np.maximum(a, b)
    lows = np.flatnonzero(high)  # the lows are distinct, so this lists them in order
    return Pairing(x_size, np.stack((lows, high[lows]), axis=1))


def all_pairings(x_size: int) -> Iterator[Pairing]:
    """Every pairing of 0..x_size-1 (exhaustive; sizes beyond ~10 explode)."""
    if x_size % 2:
        raise OddGroundSet(f"ground set of size {x_size}")

    def rec(remaining: tuple[int, ...], acc):
        if not remaining:  # each pair's low is the least vertex left, so acc is by low
            yield Pairing(ground_size=x_size, pairs=tuple(acc))
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
    return int(np.count_nonzero(g.has_edges(*m.array.T)))


def in_concentration_event(m: Pairing, g: Graph, lam) -> bool:
    """|M intersect E(g)| >= |E(g)|/(x-1) - lambda, compared exactly: for
    lambda = p/q, (count q + p)(x - 1) >= |E(g)| q in integers."""
    count = pairing_edge_count(m, g)
    p, q = Fraction(lam).as_integer_ratio()
    return g.n < 2 or (count * q + p) * (g.n - 1) >= g.edge_count * q


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


def subsample_matching(m: Pairing, g: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform count-subset of the pairing's edges that lie in E(g), as a
    (count x 2) intp array of its (low, high) rows in the pairing's order."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    inside = m.array[g.has_edges(*m.array.T)]
    if len(inside) < count:
        raise NotEnoughEdges(f"pairing has {len(inside)} graph edges, need {count}")
    keep = np.zeros(len(inside), dtype=bool)
    keep[rng.choice(len(inside), size=count, replace=False)] = True
    return inside[keep]


def chebyshev_bound(x_size: int, lam: float) -> float:
    """Tail bound |X|/lambda^2 for the deviation of |F intersect M|."""
    if x_size < 4 or x_size % 2:
        raise ValueError("ground set must be even and at least 4")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return x_size / float(lam) ** 2
