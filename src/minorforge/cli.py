"""Command-line front end: generation, analysis, pipeline runs, the Monte
Carlo suites of `montecarlo` and the density-constant optimiser.

Machine-readable output is line-delimited JSON with sorted keys; identical
(command line, seed, input bytes) reproduce identical record bytes.  Wall
times appear only in text mode to keep records deterministic.

Exit codes: 0 success, 2 input/parse error, 3 ineligible or precondition
failure, 4 sampler, search or memory exhaustion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import analysis, bounds, generators, montecarlo, pipeline
from .errors import (
    AlphaTooLarge,
    BudgetExhausted,
    MinorforgeError,
    NotCertifiable,
    NotEnoughEdges,
    ParseError,
    RejectionExhausted,
    UnknownName,
    UnknownSuite,
)
from .graph import bits, from_text, text_lines, write_graph

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INELIGIBLE = 3
EXIT_EXHAUSTED = 4

_INPUT_ERRORS = (ParseError, UnknownName, UnknownSuite, OSError, ValueError)
_EXHAUSTED_ERRORS = (RejectionExhausted, NotEnoughEdges, BudgetExhausted, MemoryError)


def _emit(records: list[dict], fmt: str) -> None:
    if fmt == "records":
        for rec in records:
            sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
    else:
        for rec in records:
            for key in sorted(rec):
                sys.stdout.write(f"{key}: {rec[key]}\n")
            sys.stdout.write("\n")


def _read_input(path: str):
    """The graph in the file and the sha256 of the same bytes, read once."""
    with open(path, "rb") as fh:
        data = fh.read()
    return from_text(data.decode()), hashlib.sha256(data).hexdigest()


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} takes comma-separated integers, got {text!r}") from None


# --- gen ----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    family = "named" if args.named else args.family
    if family is None:
        raise ValueError("gen needs --family or --named")
    sizes = _int_list(args.sizes, "--sizes") if args.sizes else None
    g = generators.generate(
        family, n=args.n, t=args.t, sizes=sizes, name=args.named, order=args.order, seed=args.seed
    )
    if args.out:
        write_graph(g, args.out)
    else:
        sys.stdout.writelines(text_lines(g))
    return EXIT_OK


# --- analyze --------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    g, digest = _read_input(args.graph)
    triple = analysis.find_independent_triple(g)
    if triple is not None:
        raise AlphaTooLarge(f"independent triple {triple}: analysis targets alpha <= 2")
    clique, method = analysis.working_clique(g)
    stats = analysis.clique_stats(g, clique)
    k = stats.k
    connected = analysis.is_k_connected(g, k)
    matching = analysis.complement_matching_size(g)
    fw = analysis.is_five_wheel(g)
    cap_lb = (g.n - analysis.greedy_coloring_size(g)) / 2.0
    cap_exact = None
    if g.n <= 30:
        # lower bound <= minimum <= the working clique's capacity, so when
        # the two ends meet there is nothing to enumerate (K_n: both 0)
        if analysis.capacity(g, clique) == cap_lb:
            cap_exact = cap_lb
        else:
            cap, _ = analysis.min_capacity(g)
            cap_exact = float(cap)
    verdict = "pipeline" if 4 * k < g.n else "large-clique-route"
    rec = {
        "record": "analysis",
        "input": args.graph,
        "input_sha256": digest,
        "n": g.n,
        "m": g.edge_count,
        "alpha_le_2": True,
        "k": k,
        "clique": [v + 1 for v in bits(clique)],  # 1-based, as in the file
        "clique_method": method,
        "a": stats.a,
        "b": stats.b,
        "min_capacity": cap_exact,
        "min_capacity_lower_bound": cap_lb,
        "k_connected": connected,
        "complement_matching": matching,
        "five_wheel": fw,
        "verdict": verdict,
    }
    _emit([rec], args.format)
    return EXIT_OK


# --- build-minor ----------------------------------------------------------------


def _cmd_build_minor(args) -> int:
    g, digest = _read_input(args.graph)
    cfg = pipeline.PipelineConfig(lambda_policy=args.lam, seed=args.seed, mode=args.mode)
    t0 = time.monotonic()
    prep = pipeline.PreparedPipeline(g, cfg)
    result = prep.run(args.trial)
    elapsed = time.monotonic() - t0
    try:
        cert_status, cert_bound = "sample", prep.certified_bound()
    except NotCertifiable as exc:
        cert_status, cert_bound = f"NotCertifiable: {exc}", None
    if args.out_h:
        write_graph(result.h, args.out_h)
    if args.out_branches:
        with open(args.out_branches, "w") as fh:
            for i, part in enumerate(result.decomposition.parts, start=1):
                verts = " ".join(str(v + 1) for v in bits(part))
                fh.write(f"part {i}: {verts}\n")
            fh.write(result.seagulls.serialize())
    rec = {
        "record": "build-minor",
        "input": args.graph,
        "input_sha256": digest,
        "seed": args.seed,
        "trial": args.trial,
        "mode": args.mode,
        "lambda": float(prep.lam),
        "n": prep.n,
        "k": prep.k,
        "x": prep.x,
        "q": prep.bound.q,
        "clique_method": prep.clique_method,
        "strict_ok": prep.report.strict_ok,
        "h_vertices": result.h.n,
        "h_edges": result.h.edge_count,
        "missing_edges": result.missing_edges,
        "realized_bad_triples": result.realized_bad_triples,
        "realized_bad_quadruples": result.realized_bad_quadruples,
        "deleted_vertex": None
        if prep.deleted_vertex is None
        else prep.deleted_vertex + 1,
        "a": prep.stats.a,
        "b": prep.stats.b,
        "missing_bound": prep.bound.missing_bound,
        "certificate": cert_status,
        "certificate_bound": cert_bound,
    }
    if args.format == "text":
        rec["wall_time_s"] = round(elapsed, 3)
    _emit([rec], args.format)
    return EXIT_OK


def _cmd_mc(args) -> int:
    records = montecarlo.run_suite(
        args.suite,
        x=args.x,
        trials=args.trials,
        seed=args.seed,
        sizes=_int_list(args.sizes, "--sizes"),
        instances=args.instances,
        sweep_limit=args.sweep_limit,
        jobs=args.jobs,
    )
    _emit(records, args.format)
    failed = [r for r in records if r.get("pass") is False]
    return EXIT_OK if not failed else EXIT_INELIGIBLE


def _cmd_gamma(args) -> int:
    z_star, gamma = bounds.gamma_optimize(args.tolerance)
    if args.format == "records":
        _emit([{"record": "gamma", "z_star": round(z_star, 6), "gamma": round(gamma, 6),
                "tolerance": args.tolerance}], "records")
    else:
        sys.stdout.write(f"z_star {z_star:.6f}\ngamma {gamma:.6f}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorforge",
        description="Half-order dense minors of graphs with independence number at most two.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "records"), default="text")

    p_gen = sub.add_parser("gen", help="generate an alpha<=2 instance")
    common(p_gen)
    p_gen.add_argument("--family", choices=("tfp", "c5blowup", "two_clique"))
    p_gen.add_argument("--named", choices=generators.NAMED_GRAPHS)
    p_gen.add_argument("--n", type=int, help="vertices (tfp)")
    p_gen.add_argument("--t", type=int, help="part size (c5blowup)")
    p_gen.add_argument("--sizes", help="S,T clique sizes (two_clique)")
    p_gen.add_argument("--order", type=int, help="order for --named k_n")
    p_gen.add_argument("--out", help="output path (stdout when omitted)")

    p_an = sub.add_parser("analyze", help="structural report for a graph file")
    common(p_an)
    p_an.add_argument("graph")

    p_bm = sub.add_parser("build-minor", help="run the construction once")
    common(p_bm)
    p_bm.add_argument("graph")
    p_bm.add_argument("--lambda", dest="lam", default="n23",
                      help="n23, clamped, or an explicit rational")
    p_bm.add_argument("--mode", choices=("strict", "advisory"), default="strict")
    p_bm.add_argument("--trial", type=int, default=0)
    p_bm.add_argument("--out-h", help="write the minor graph file here")
    p_bm.add_argument("--out-branches", help="write the branch map here")

    p_mc = sub.add_parser("mc", help="Monte Carlo verification suites")
    common(p_mc)
    p_mc.add_argument("--suite", required=True)
    p_mc.add_argument("--trials", type=int, default=100000)
    p_mc.add_argument("--x", type=int, default=10, help="ground-set size for pairing suites")
    p_mc.add_argument("--sizes", default="400", help="instance sizes for expectation-bound")
    p_mc.add_argument("--instances", type=int, default=5)
    p_mc.add_argument("--sweep-limit", type=int, default=50)
    p_mc.add_argument("--jobs", type=int, default=1)

    p_g = sub.add_parser("gamma", help="optimise the density constant")
    common(p_g)
    p_g.add_argument("--tolerance", type=float, default=1e-7)

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "build-minor": _cmd_build_minor,
    "mc": _cmd_mc,
    "gamma": _cmd_gamma,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("seed", "trial"):  # both name random streams
            if (value := getattr(args, name, 0)) < 0:
                raise ValueError(f"--{name} must be a non-negative integer, got {value}")
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _EXHAUSTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except MinorforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INELIGIBLE


if __name__ == "__main__":
    sys.exit(main())
