"""End-to-end minor construction for alpha<=2 graphs of even order.

Given G with clique number below |V|/4, a trial samples, partitions and
assembles: delete a clique Z (plus at most one vertex for parity), keep n-2k
edges of a uniform pairing of the rest conditioned on the concentration
event, split the 3k leftover vertices into seagulls, and contract the parts,
held by kind as (parts x size) vertex arrays: clique singletons, pairs,
seagulls.  A missing minor edge is a clique vertex against a pair with no
edge between them (a realized bad triple) or two pairs spanning no edge (a
realized bad quadruple); the trial counts both from the host's rows and the
parts, and the minor must miss exactly that many edges.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb

import numpy as np

from .analysis import clique_stats, find_independent_triple, working_clique
from .bounds import compute_bound_report
from .errors import AlphaTooLarge, Ineligible, MinorforgeError, NotCertifiable, SeagullFailure
from .graph import BranchDecomposition, Graph, bits, contract, induced_subgraph, mask_of
from .graph import minor_violation, unpack_rows
# in_concentration_event and sample_uniform_pairing are unused here, but
# perfbench traces the sampler by looking both up in this module
from .pairings import in_concentration_event, sample_conditioned, sample_uniform_pairing
from .pairings import subsample_matching
from .rng import trial_rng
from .seagulls import SeagullPartition, seagull_partition

# A trial's sampler gives up (RejectionExhausted) after this many pairings
# outside the event.
MAX_REJECTION_TRIES = 200


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of one pipeline run.

    lambda_policy: "n23" (lambda = n^(2/3)), "clamped"
    (min(n^(2/3), (k-1)/2)), or an explicit positive number.
    strict mode keeps the expectation certificate; advisory mode only
    requires that a conditioned pairing with enough edges is found.
    """

    lambda_policy: object = "n23"
    seed: int = 0
    mode: str = "strict"

    def __post_init__(self):
        if self.mode not in ("strict", "advisory"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if isinstance(self.lambda_policy, str):
            if self.lambda_policy not in ("n23", "clamped"):
                raise ValueError(f"unknown lambda policy {self.lambda_policy!r}")
        elif (lam := Fraction(self.lambda_policy)) <= 0:
            raise ValueError("explicit lambda must be positive")
        elif lam > sys.float_info.max or float(lam) * float(lam) == 0:
            # the bound report takes 2n / lambda^2 in floats
            raise ValueError("explicit lambda must be a finite float with a nonzero float square")


@dataclass(frozen=True)
class PreconditionReport:
    """The hypothesis flags of one instance.

    complement_degree_le_k checks that no vertex has more than k
    non-neighbours, which is what the expectation bound actually consumes;
    it holds automatically when the clique is maximum.
    """

    clique_below_quarter: bool
    lambda_le_half_k_minus_1: bool
    lambda_sq_gt_2n: bool
    complement_degree_le_k: bool

    @property
    def failed_flags(self) -> tuple[str, ...]:
        """Names of the hypothesis flags that fail, in declaration order."""
        return tuple(f.name for f in fields(self) if not getattr(self, f.name))

    @property
    def strict_ok(self) -> bool:
        return not self.failed_flags


@dataclass(frozen=True)
class PipelineResult:
    """One trial: the minor, its witness (parts: clique singletons, pairs,
    seagulls) and exact accounting; instance facts live on PreparedPipeline."""

    h: Graph
    decomposition: BranchDecomposition
    m_star: tuple[tuple[int, int], ...]  # sorted (low, high) pairs
    seagulls: SeagullPartition
    missing_edges: int
    realized_bad_triples: int
    realized_bad_quadruples: int
    trial: int


@dataclass(frozen=True)
class Certificate:
    """Comparison of a batch's missing edges against the expectation bound."""

    status: str          # "PASS" | "FAIL"
    bound: float
    observed: float
    trials: int
    stderr: float


def strip_clique(g: Graph, z: int) -> tuple[Graph, tuple[int, ...], int | None]:
    """Delete the clique, plus the lowest-index leftover vertex when the
    remainder has odd order.  Returns (subgraph, index_map, deleted)."""
    rest = g.vertex_mask & ~z
    deleted = None
    if rest.bit_count() % 2:
        deleted = (rest & -rest).bit_length() - 1
        rest &= ~(1 << deleted)
    sub, idx_map = induced_subgraph(g, rest)
    return sub, idx_map, deleted


def resolve_lambda(policy, n: int, k: int) -> Fraction:
    """Evaluate the lambda policy; floats convert exactly to rationals."""
    if isinstance(policy, str):
        n23 = Fraction(float(n) ** (2.0 / 3.0))
        if policy == "n23":
            return n23
        if policy == "clamped":
            return min(n23, Fraction(k - 1, 2))
    return Fraction(policy)


class PreparedPipeline:
    """Instance-level state shared by all trials on one graph: the clique,
    its statistics, the ground graph for pairings, the lambda value, the
    bound report (whose q = 1 - 2n/lambda^2 is kept even when nonpositive)
    and the hypothesis flags.  Out-of-domain graphs (odd order, |V| < 6, an
    independent triple) are refused at construction, before the clique
    search."""

    def __init__(self, g: Graph, cfg: PipelineConfig):
        if g.n % 2 or g.n < 6:
            raise Ineligible(f"|V| = {g.n} must be even and at least 6")
        triple = find_independent_triple(g)
        if triple is not None:
            raise AlphaTooLarge(f"independent triple {triple}")
        self.g = g
        self.cfg = cfg
        self.clique, self.clique_method = working_clique(g)
        self.stats = clique_stats(g, self.clique)
        self.k = self.stats.k
        self.n = g.n // 2
        self.g_prime, self.idx_map, self.deleted_vertex = strip_clique(g, self.clique)
        self._host_index = np.array(self.idx_map, dtype=np.intp)  # remaps the sampler's pairs
        # every trial's clique parts: k x 1, one singleton per clique vertex
        self._clique_parts = np.fromiter(bits(self.clique), dtype=np.intp).reshape(-1, 1)
        self.x = self.g_prime.n
        self.lam = resolve_lambda(cfg.lambda_policy, self.n, self.k)
        self.bound = compute_bound_report(self.n, self.k, self.stats.a, self.stats.b, self.lam)
        max_nonnb = max((g.n - 1 - g.degree(v) for v in range(g.n)), default=0)
        self.report = PreconditionReport(
            clique_below_quarter=(4 * self.k < g.n),
            lambda_le_half_k_minus_1=(0 < self.lam <= Fraction(self.k - 1, 2)),
            lambda_sq_gt_2n=(self.lam * self.lam > 2 * self.n),
            complement_degree_le_k=(max_nonnb <= self.k),
        )

    def certified_bound(self) -> float:
        """The expectation bound this instance's strict runs are certified
        against; raises NotCertifiable with the first reason it does not
        apply."""
        pre = self.report
        if self.cfg.mode != "strict":
            raise NotCertifiable("advisory mode carries no expectation certificate")
        if not pre.lambda_sq_gt_2n:
            raise NotCertifiable("lambda^2 <= 2n")
        if pre.failed_flags:
            raise NotCertifiable(f"hypothesis flags failed: {', '.join(pre.failed_flags)}")
        if self.bound.missing_bound is None:
            raise NotCertifiable("bound undefined for these parameters")
        return self.bound.missing_bound

    def _sample_matching(self, trial: int) -> np.ndarray:
        rng = trial_rng(self.cfg.seed, trial)
        want = self.n - 2 * self.k
        # advisory mode also conditions on having enough edges to subsample
        min_edges = want if self.cfg.mode == "advisory" else 0
        m = sample_conditioned(self.g_prime, self.lam, MAX_REJECTION_TRIES, rng, min_edges)
        local = subsample_matching(m, self.g_prime, want, rng)
        # idx_map is increasing, so the remapped pairs stay (low, high) and by low
        return self._host_index[local]

    def run(self, trial: int = 0) -> PipelineResult:
        g, n, k = self.g, self.n, self.k
        if not self.report.clique_below_quarter:
            raise Ineligible(
                f"clique number {k} >= |V|/4 = {g.n / 4}: a complete "
                "minor on |V|/2 vertices exists by the packing characterisation; "
                "constructing it is out of scope here"
            )
        pairs = self._sample_matching(trial)

        s_mask = g.vertex_mask & ~self.clique & ~mask_of(pairs.ravel().tolist())
        if s_mask.bit_count() != 3 * k:
            raise MinorforgeError(
                f"leftover set has {s_mask.bit_count()} vertices, expected {3 * k}"
            )
        g_s, s_map = induced_subgraph(g, s_mask)
        part = seagull_partition(g_s)
        if part is None:
            raise SeagullFailure(
                "no seagull partition of the leftover vertices; this cannot "
                "happen when the clique has maximum size"
            )
        triples = tuple(sorted((s_map[a], s_map[mid], s_map[b]) for a, mid, b in part.triples))

        # the parts by kind, one (parts x size) vertex array each, in part order
        seagulls = np.fromiter(chain.from_iterable(triples), np.intp).reshape(-1, 3)
        clique = self._clique_parts
        decomposition = BranchDecomposition.from_kinds(g, clique, pairs, seagulls)
        h = contract(g, decomposition)
        violation = minor_violation(g, h, decomposition)
        if violation is not None:
            raise MinorforgeError(f"constructed witness rejected: {violation}")
        if h.n != n:
            raise MinorforgeError(f"minor has {h.n} vertices, expected {n}")

        # A seagull's ends are not adjacent, so by alpha <= 2 it is joined to
        # every other part; clique vertices are adjacent; each pair is an edge.
        # With every edge of h host-joined (minor_violation), h misses exactly
        # the pairs' non-joins to clique vertices and to other pairs (counted twice).
        bad_triples, pair_pairs = _unjoined(g, pairs, clique, pairs)
        bad_quads = pair_pairs // 2
        missing = comb(n, 2) - h.edge_count
        if missing != bad_triples + bad_quads:
            # one kind against itself counts each pair twice; a singleton never joins itself
            counts = _unjoined(g, seagulls, clique, pairs, seagulls) + _unjoined(g, clique, clique)
            counts[2:] = counts[2] // 2, (counts[3] - k) // 2
            kinds = ("seagull × clique", "seagull × pair", "seagull × seagull", "clique × clique")
            named = "".join(f", {c} unjoined {kind}" for kind, c in zip(kinds, counts) if c)
            raise MinorforgeError(
                f"accounting mismatch: {missing} missing vs "
                f"{bad_triples}+{bad_quads} counted{named}"
            )

        return PipelineResult(
            h=h,
            decomposition=decomposition,
            m_star=tuple(map(tuple, pairs.tolist())),
            seagulls=SeagullPartition(triples=triples),
            missing_edges=missing,
            realized_bad_triples=bad_triples,
            realized_bad_quadruples=bad_quads,
            trial=trial,
        )


def _unjoined(g: Graph, rows: np.ndarray, *cols: np.ndarray) -> list[int]:
    """Per column kind, how many (row part, column part) pairs share no host
    edge, each part a row of vertices; a part is joined to itself when it
    spans an edge."""
    near = unpack_rows(reduce(np.bitwise_or, [g.rows[v] for v in rows.T]), g.n)
    joined = (reduce(np.bitwise_or, [near[:, v] for v in c.T]) for c in cols)
    return [j.size - int(np.count_nonzero(j)) for j in joined]


def run_pipeline(g: Graph, cfg: PipelineConfig, trial: int = 0) -> PipelineResult:
    return PreparedPipeline(g, cfg).run(trial)


def certify_batch(bound: float, missing: list[int]) -> Certificate:
    """PASS when the mean of a batch's missing-edge counts respects the
    certified bound (PreparedPipeline.certified_bound) within three
    standard errors."""
    if not missing:
        raise NotCertifiable("empty batch")
    t = len(missing)
    mean = sum(missing) / t
    var = sum((v - mean) ** 2 for v in missing) / (t - 1) if t > 1 else 0.0
    sem = (var / t) ** 0.5
    status = "PASS" if mean <= bound + 3 * sem else "FAIL"
    return Certificate(status=status, bound=bound, observed=mean, trials=t, stderr=sem)
