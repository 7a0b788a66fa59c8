#!/usr/bin/env python3
"""Plant known faults in a copy of the package; the named tests must catch each.

    python3 scripts/mutants.py

Each MUTANTS entry names a file under src/minorforge/, an exact old text
(found there exactly once), the text that replaces it, and the pytest node
ids that must fail once it is in.  The script copies src/, tests/,
perfbench/ (which tests/test_pipeline.py imports) and pyproject.toml to a
temporary directory and runs pytest there with PYTHONPATH at the copy's src/.  It first runs every
named test on the unchanged copy, where all must pass; then, entry by entry,
it writes the mutated file, runs only that entry's tests and puts the file
back.  A mutant is killed when pytest reports a failing test (exit code 1).

Exit status 1 when an entry's old text is not found exactly once, when a
mutant survives, or when pytest ends any other way (a collection error, an
unknown node id); a surviving mutant stays in the table.  Standard library
and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/minorforge/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the chain from lambda to the bound
    Mutant("bound-without-triples", "bounds.py",
           "    return (quad + tri) / q\n",
           "    return quad / q\n",
           ("tests/test_bounds.py::test_bound_converges_to_fraction",)),
    Mutant("bound-report-always-none", "bounds.py",
           "    return BoundReport(q=q, missing_bound=bound)",
           "    return BoundReport(q=q, missing_bound=None)",
           ("tests/test_bounds.py::test_bound_report_fields",)),
    Mutant("config-refuses-clamped", "pipeline.py",
           'if (policy := self.lambda_policy) in ("n23", "clamped"):',
           'if (policy := self.lambda_policy) in ("n23",):',
           ("tests/test_pipeline.py::test_resolve_lambda_policies",)),
    # the sampler
    Mutant("event-strict-inequality", "pairings.py",
           "(g.n - 1) >= g.edge_count * q",
           "(g.n - 1) > g.edge_count * q",
           ("tests/test_pairings.py::test_event_uses_exact_rationals",)),
    Mutant("lows-reversed", "pairings.py",
           "lows = np.flatnonzero(partner > np.arange(x_size))",
           "lows = np.flatnonzero(partner > np.arange(x_size))[::-1]",
           ("tests/test_pairings.py::test_array_pairings_match_the_tuple_oracles",)),
    Mutant("highs-paired-to-themselves", "pairings.py",
           "partner[rows, perms[:, 1::2]] = perms[:, 0::2]",
           "partner[rows, perms[:, 1::2]] = perms[:, 1::2]",
           ("tests/test_pairings.py::test_sample_partners_rows_are_fixed_point_free_involutions",)),
    Mutant("subsample-first-rows", "pairings.py",
           "    return inside[keep]\n",
           "    return inside[:count]\n",
           ("tests/test_pairings.py::test_subsample_inclusion_probability",)),
    Mutant("pairing-overlap-allowed", "pairings.py",
           "if len(set(array.ravel().tolist())) < array.size:",
           "if len(set(array.ravel().tolist())) < 0:",
           ("tests/test_pairings.py::test_pairing_refusals_in_order[overlap]",)),
    Mutant("pairing-loop-allowed", "pairings.py",
           "if (lo >= hi).any():",
           "if (lo > hi).any():",
           ("tests/test_pairings.py::test_pairing_refusals_in_order[loop]",)),
    Mutant("event-lambda-rounded", "pairings.py",
           "p, q = Fraction(lam).as_integer_ratio()",
           "p, q = Fraction(lam).limit_denominator(1000).as_integer_ratio()",
           ("tests/test_pairings.py::test_event_uses_exact_rationals",)),
    Mutant("has-edges-wrong-bit", "graph.py",
           ">> (vs & 7)) & 1",
           ">> (vs & 3)) & 1",
           ("tests/test_graph.py::test_has_edges_reads_each_pair_from_the_rows",)),
    # the independent re-check of a minor: one mutant per reason it gives
    Mutant("part-count-only-too-many", "graph.py",
           "if len(d.parts) != h.n:",
           "if len(d.parts) > h.n:",
           ("tests/test_graph_properties.py::test_minor_violation_gives_each_reason[part_count]",)),
    Mutant("empty-part-passes", "graph.py",
           'if p == 0:\n            return f"empty_part',
           'if p < 0:\n            return f"empty_part',
           ("tests/test_graph_properties.py::test_minor_violation_gives_each_reason[empty_part]",)),
    Mutant("range-off-by-one", "graph.py",
           'if p >> n:\n            return f"out_of_range',
           'if p >> n + 1:\n            return f"out_of_range',
           ("tests/test_graph_properties.py::test_minor_violation_gives_each_reason[out_of_range]",)),
    Mutant("overlap-with-the-last-part-only", "graph.py",
           "        seen |= p\n    # near[i]",
           "        seen = p\n    # near[i]",
           ("tests/test_graph_properties.py::test_minor_violation_gives_each_reason[overlap]",)),
    Mutant("linked-by-any-vertex", "graph.py",
           "near[which, kind].all(axis=1)",
           "near[which, kind].any(axis=1)",
           ("tests/test_graph_properties.py::test_minor_violation_gives_each_reason[disconnected_part]",)),
    Mutant("cross-edges-missed-unless-all-missing", "graph.py",
           "if not bad.any():",
           "if not bad.all():",
           ("tests/test_graph_properties.py::test_minor_violation_gives_each_reason[missing_cross_edge]",)),
    # the part listing those re-checks and the accounting share
    Mutant("or-rows-first-column-only", "graph.py",
           "[mat[c] for c in k.T]",
           "[mat[c] for c in k.T[:1]]",
           ("tests/test_pipeline.py::test_unjoined_counts_the_part_pairs_the_oracle_leaves_unjoined",
            "tests/test_graph_properties.py::test_minor_violation_gives_each_reason[none]")),
    Mutant("linked-rows-one-part-late", "graph.py",
           "which = np.arange(len(linked), len(linked) + len(kind))[:, None]",
           "which = (np.arange(len(linked), len(linked) + len(kind))[:, None] + 1) % len(near)",
           ("tests/test_graph_properties.py::test_part_listing_splits_interleaved_sizes_into_runs[path]",)),
    Mutant("trial-re-derives-its-listing", "graph.py",
           '        vars(d)["_listing"] = listing\n',
           "",
           ("tests/test_pipeline.py::test_a_trial_takes_its_part_listing_from_the_kind_arrays",)),
    # the construction and its accounting
    Mutant("leftover-only-too-small", "pipeline.py",
           "if s_mask.bit_count() != 3 * k:",
           "if s_mask.bit_count() < 3 * k:",
           ("tests/test_pipeline.py::test_a_leftover_set_of_the_wrong_size_is_refused[pair-dropped]",)),
    Mutant("from-kinds-allows-repeats", "graph.py",
           "if min(map(int.bit_count, masks)) < kind.shape[1]:",
           "if min(map(int.bit_count, masks)) < 0:",
           ("tests/test_graph_properties.py::test_kind_arrays_are_refused_like_their_parts",)),
    Mutant("unjoined-first-column-only", "pipeline.py",
           "(or_rows(near.T, c) for c in cols)",
           "(or_rows(near.T, c[:, :1]) for c in cols)",
           ("tests/test_pipeline.py::test_unjoined_counts_the_part_pairs_the_oracle_leaves_unjoined",)),
    Mutant("contract-through-the-graph-module", "pipeline.py",
           "        h = contract(g, decomposition)\n",
           "        from . import graph\n        h = graph.contract(g, decomposition)\n",
           ("tests/test_pipeline.py::test_every_traced_trial_call_records_a_span",)),
    Mutant("accounting-check-removed", "pipeline.py",
           "if missing != bad_triples + bad_quads:",
           "if False:",
           ("tests/test_pipeline.py::test_accounting_catches_a_dropped_minor_edge[pair-pair]",)),
    Mutant("kind-names-swapped", "pipeline.py",
           'kinds = ("seagull × clique", "seagull × pair",',
           'kinds = ("seagull × pair", "seagull × clique",',
           ("tests/test_pipeline.py::test_a_seagull_part_that_is_not_a_seagull_is_refused",)),
    Mutant("clique-diagonal-kept", "pipeline.py",
           "(counts[3] - k) // 2",
           "counts[3] // 2",
           ("tests/test_pipeline.py::test_a_seagull_part_that_is_not_a_seagull_is_refused",)),
    Mutant("certify-strict-comparison", "pipeline.py",
           'status = "PASS" if mean <= bound + 3 * sem else "FAIL"',
           'status = "PASS" if mean < bound + 3 * sem else "FAIL"',
           ("tests/test_pipeline.py::test_certify_batch_passes_up_to_three_standard_errors_above_the_bound",)),
    # the searches behind preparation and the seagull partition
    Mutant("bulk-draws-ignore-position", "analysis.py",
           '"state": {"key": key, "pos": pos}}',
           '"state": {"key": key, "pos": 624}}',
           ("tests/test_analysis.py::test_bulk_draws_are_randrange_draws[257]",)),
    Mutant("bulk-draws-keyed-once", "analysis.py",
           '    mt.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}\n',
           '    if not _bulk_randrange.__dict__.get("keyed"):\n'
           '        _bulk_randrange.keyed = True\n'
           '        mt.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}\n',
           ("tests/test_analysis.py::test_bulk_draws_are_randrange_draws[257]",)),
    Mutant("clique-room-slice-from-2k", "seagulls.py",
           "top[2 * k_res + 1 : 3 * k_res]",
           "top[2 * k_res : 3 * k_res]",
           ("tests/test_seagulls.py::test_clique_room_is_the_clique_bound_exceeding_twice_the_triples",)),
    # the generators' order check
    Mutant("blowup-order-wraps", "generators.py",
           "order = sum(np.broadcast_to(sizes, len(pattern)).tolist())",
           "order = int(np.broadcast_to(sizes, len(pattern)).sum())",
           ("tests/test_cli.py::test_gen_refuses_an_order_above_the_reader_limit"
            "[--family two_clique --sizes 4611686018427387904,4611686018427387904]",)),
)


def stale(mutant: Mutant) -> str | None:
    """Why the entry no longer applies to this tree, or None."""
    path = ROOT / "src" / "minorforge" / mutant.file
    if not path.is_file():
        return f"{mutant.name}: no file {mutant.file}"
    count = path.read_text().count(mutant.old)
    if count != 1:
        return f"{mutant.name}: old text found {count} times in {mutant.file}"
    return None


def pytest_exit(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return proc.returncode


def main() -> int:
    problems = [p for p in map(stale, MUTANTS) if p]
    for p in problems:
        print(f"STALE    {p}")
    if problems:
        return 1

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(src, copy / name)
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = pytest_exit(copy, tests)
        if code != 0:
            print(f"ERROR    the named tests do not pass on the unchanged tree (pytest exit {code})")
            return 1
        bad = 0
        for m in MUTANTS:
            path = copy / "src" / "minorforge" / m.file
            text = path.read_text()
            start = time.monotonic()
            path.write_text(text.replace(m.old, m.new))
            code = pytest_exit(copy, m.tests)
            path.write_text(text)
            verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
            bad += code != 1
            print(f"{verdict:<9}{m.name} ({time.monotonic() - start:.1f} s)")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
