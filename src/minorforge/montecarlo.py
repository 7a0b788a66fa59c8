"""Monte Carlo suites: pairing probabilities, Chebyshev tails of pairing
counts, and the expectation bound on missing minor edges.

Every suite returns records with (quantity, estimate, stderr, bound, pass);
identical arguments give identical records, and bad ones raise ValueError.
"""

from __future__ import annotations

import inspect
import os
from functools import partial
from multiprocessing import get_context

import numpy as np

from . import generators, pipeline
from .errors import Ineligible, UnknownSuite
from .pairings import chebyshev_bound, sample_partners
from .rng import trial_rng


def _record(suite, quantity, estimate, stderr, bound, passed, **extra) -> dict:
    return {"record": "mc", "suite": suite, "quantity": quantity, "estimate": estimate,
            "stderr": stderr, "bound": bound, "pass": passed, **extra}


# A batch of pairings holds up to three trials x |X| int64 arrays (|X| = 50 at
# most in chebyshev); a larger product is refused before anything is allocated.
MAX_CELLS = 2**25


def _check_trials(trials: int, width: int = 0) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials * width > MAX_CELLS:
        raise ValueError(f"trials x {width} = {trials * width} cells exceeds the limit {MAX_CELLS}")


def pairing(x: int, trials: int, seed: int, joint: bool = False) -> list[dict]:
    """Estimate Pr[(1,2) is a pair] (target 1/(x-1)) or, with `joint`,
    Pr[(1,2) and (3,4) are pairs] (target 1/((x-1)(x-3)))."""
    _check_trials(trials, x)
    if joint and x < 4:
        raise ValueError(f"two disjoint pairs need a ground set of at least 4, got {x}")
    if x < 2 or x % 2:
        raise ValueError(f"a pairing needs an even ground set of at least 2, got {x}")
    partner = sample_partners(x, trials, trial_rng(seed, 0))
    hits = partner[:, 0] == 1
    if joint:
        hits &= partner[:, 2] == 3
        suite, quantity, target = "pairing-joint", "two disjoint pairs", 1.0 / ((x - 1) * (x - 3))
    else:
        suite, quantity, target = "pairing-marginals", "pair (1,2)", 1.0 / (x - 1)
    est = float(np.mean(hits))
    se = (est * (1 - est) / trials) ** 0.5
    passed = bool(abs(est - target) <= 4 * max(se, 1e-12))
    return [_record(suite, f"Pr[{quantity} in pairing], |X|={x}", est, se, target, passed,
                    trials=trials)]


def chebyshev(trials: int, seed: int) -> list[dict]:
    """Tail of the number of pairs landing in a fixed edge set F against the
    Chebyshev bound, over |X| in {20, 50}, two densities and three lambdas."""
    _check_trials(trials, 50)
    records = []
    stream = 0
    for x in (20, 50):
        all_pairs = [(u, v) for u in range(x) for v in range(u + 1, x)]
        for density in (0.1, 0.25):
            f_size = max(1, round(density * len(all_pairs)))
            rng = trial_rng(seed, stream)
            stream += 1
            chosen = rng.choice(len(all_pairs), size=f_size, replace=False)
            fmat = np.zeros((x, x), dtype=bool)
            for idx in chosen:
                u, v = all_pairs[int(idx)]
                fmat[u, v] = fmat[v, u] = True
            # each pair of pairing t inside F is found from both of its ends
            counts = fmat[np.arange(x), sample_partners(x, trials, rng)].sum(axis=1) // 2
            mean = f_size / (x - 1)
            for lam in (2, 5, 10):
                tail = float(np.mean(np.abs(counts - mean) >= lam))
                bound = chebyshev_bound(x, lam)
                quantity = f"Pr[|count - {mean:.3f}| >= {lam}], |X|={x}, |F|={f_size}"
                se = (tail * (1 - tail) / trials) ** 0.5
                records.append(_record("chebyshev", quantity, tail, se, bound,
                                       bool(tail <= bound), trials=trials))
    return records


def _instance_record(prep: pipeline.PreparedPipeline, trials: int) -> dict:
    """Run `trials` trials on one prepared strict-eligible instance and
    certify their mean missing-edge count.  Only the counts are kept: a
    result holds the minor and its witness."""
    missing, max_triples, max_quads = [], 0, 0
    for t in range(trials):
        res = prep.run(t)
        missing.append(res.missing_edges)
        max_triples = max(max_triples, res.realized_bad_triples)
        max_quads = max(max_quads, res.realized_bad_quadruples)
    cert = pipeline.certify_batch(prep.certified_bound(), missing)
    return _record(
        "expectation-bound", "mean missing edges vs expectation bound",
        cert.observed, cert.stderr, cert.bound, cert.status == "PASS",
        size=prep.g.n, instance_seed=prep.cfg.seed, k=prep.k,
        strict_ok=prep.report.strict_ok, trials=trials,
        max_bad_triples=max_triples, max_bad_quadruples=max_quads,
    )


def _no_eligible_instance(size: int, instances: int, seed: int) -> list[dict]:
    """Report the absence of eligible instances, then run one advisory
    construction as a structural check, with no bound (None); a refusal of
    that graph is a failed structural run with no estimate either."""
    g = generators.triangle_free_process_complement(size, trial_rng(seed))
    cfg = pipeline.PipelineConfig(lambda_policy="clamped", seed=seed, mode="advisory")
    try:
        res = pipeline.run_pipeline(g, cfg)
    except Ineligible as exc:
        run = _record("expectation-bound", "advisory structural run", None, 0.0, None, False,
                      note=f"refused: {exc}")
    else:
        accounted = res.missing_edges == res.realized_bad_triples + res.realized_bad_quadruples
        run = _record("expectation-bound", "advisory structural run", float(res.missing_edges),
                      0.0, None, accounted)
    return [
        _record("expectation-bound", "strict-eligible instance search", 0.0, 0.0,
                float(instances), False,
                note="no strict-eligible instance found; advisory structural fallback"),
        run,
    ]


def _eligible_instances(sizes, instances, seed, sweep_limit):
    """Prepared strict-eligible TFP instances, sweeping instance seeds seed,
    seed+1, ... (sizes taken in turn) until `instances` are found or
    `sweep_limit` seeds are spent.  Each swept instance is prepared once."""
    found = 0
    for sweep in range(sweep_limit):
        if found == instances:
            return
        inst_seed = seed + sweep
        g = generators.triangle_free_process_complement(
            sizes[sweep % len(sizes)], trial_rng(inst_seed)
        )
        prep = pipeline.PreparedPipeline(
            g, pipeline.PipelineConfig(lambda_policy="clamped", seed=inst_seed)
        )
        if prep.report.strict_ok:
            found += 1
            yield prep


def expectation_bound(
    sizes: list[int], instances: int, trials: int, seed: int, sweep_limit: int, jobs: int = 1
) -> list[dict]:
    """Certify the expectation bound on `instances` strict-eligible TFP
    instances, splitting `trials` evenly among them.

    With one job each instance's trials run before the next seed is swept;
    with jobs > 1 the trial batches run in a fork pool, giving the same
    records.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    _check_trials(trials)
    if trials < instances:
        raise ValueError(f"trials must be at least instances ({instances}), got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if sweep_limit < 0:
        raise ValueError(f"sweep limit must be at least 0, got {sweep_limit}")
    if any(s < 6 or s % 2 for s in sizes):
        raise ValueError(f"sizes must be even and at least 6 to be strict-eligible, got {sizes}")
    for size in sizes:
        generators.check_tfp_order(size)
    eligible = _eligible_instances(sizes, instances, seed, sweep_limit)
    run = partial(_instance_record, trials=trials // instances)
    if jobs > 1:
        eligible = list(eligible)
    if jobs > 1 and eligible:
        # a pool forks all its workers up front; more than batches or cores would idle
        with get_context("fork").Pool(min(jobs, len(eligible), os.cpu_count() or 1)) as pool:
            records = pool.map(run, eligible)
    else:
        records = [run(prep) for prep in eligible]
    return records or _no_eligible_instance(sizes[0], instances, seed)


SUITES = {
    "pairing-marginals": pairing,
    "pairing-joint": partial(pairing, joint=True),
    "chebyshev": chebyshev,
    "expectation-bound": expectation_bound,
}


def run_suite(name: str, **options) -> list[dict]:
    """Run the named suite with those of `options` its parameters name."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite = SUITES[name]
    params = inspect.signature(suite).parameters
    return suite(**{p: options[p] for p in params if p in options})
