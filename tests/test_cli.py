import hashlib
import json
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

from minorforge import analysis, cli, errors, montecarlo, pipeline
from minorforge.cli import main
from minorforge.generators import triangle_free_process_complement
from minorforge.graph import (
    BranchDecomposition,
    Graph,
    from_text,
    mask_of,
    read_graph,
    to_text,
    verify_minor,
    write_graph,
)
from minorforge.rng import trial_rng


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "tfp110.txt"
    write_graph(triangle_free_process_complement(110, trial_rng(1)), path)
    return str(path)


def records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_gen_named_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--named", "five_wheel")
    assert code == 0
    g = from_text(out)
    assert g.n == 6 and g.edge_count == 10


def test_gen_family_to_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "gen", "--family", "tfp", "--n", "30", "--seed", "4", "--out", str(path))
    assert code == 0
    g = read_graph(path)
    assert g.n == 30


def test_gen_deterministic_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "gen", "--family", "tfp", "--n", "25", "--seed", "9")
    code2, out2, _ = run_cli(capsys, "gen", "--family", "tfp", "--n", "25", "--seed", "9")
    assert code1 == code2 == 0 and out1 == out2


def test_gen_c5blowup(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "c5blowup", "--t", "3")
    assert code == 0 and from_text(out).n == 15


def test_gen_missing_flags(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "tfp")
    assert code == 2 and "needs --n" in err


def test_analyze_five_wheel(capsys, tmp_path):
    path = tmp_path / "fw.txt"
    run_cli(capsys, "gen", "--named", "five_wheel", "--out", str(path))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "records")
    assert code == 0
    (rec,) = records(out)
    assert rec["k"] == 3 and rec["five_wheel"] is True
    assert rec["verdict"] == "large-clique-route"
    assert rec["clique_method"] == "exact"


def test_analyze_lists_the_clique_in_the_file_numbering(capsys, tmp_path):
    # two cliques of 3 and 4: file vertices 1-3 and 4-7
    path = tmp_path / "two.txt"
    run_cli(capsys, "gen", "--family", "two_clique", "--sizes", "3,4", "--out", str(path))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "records")
    assert code == 0
    (rec,) = records(out)
    assert rec["clique"] == [4, 5, 6, 7]
    lines = set(path.read_text().splitlines())
    clique = rec["clique"]
    assert all(f"e {u} {v}" in lines for i, u in enumerate(clique) for v in clique[i + 1 :])


def test_analyze_alpha3_exits_3(capsys, tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text("p 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 1 6\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3 and "independent triple" in err


def test_analyze_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p 3 1\ne 9 9\n")
    code, _, _ = run_cli(capsys, "analyze", str(path))
    assert code == 2


def test_analyze_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "analyze", "/nonexistent/graph.txt")
    assert code == 2


def test_build_minor_records_and_files(capsys, tmp_path, instance_file):
    h_path = tmp_path / "h.txt"
    b_path = tmp_path / "branches.txt"
    code, out, _ = run_cli(
        capsys,
        "build-minor",
        instance_file,
        "--seed",
        "3",
        "--lambda",
        "clamped",
        "--format",
        "records",
        "--out-h",
        str(h_path),
        "--out-branches",
        str(b_path),
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["h_vertices"] == 55
    assert rec["missing_edges"] == rec["realized_bad_triples"] + rec["realized_bad_quadruples"]
    assert rec["strict_ok"] is True
    assert rec["certificate"] == "sample"
    # the written witness re-verifies against the written minor
    g = read_graph(instance_file)
    h = read_graph(h_path)
    parts = []
    seagull_lines = []
    for line in b_path.read_text().splitlines():
        if line.startswith("s "):
            seagull_lines.append(line)
            continue
        head, verts = line.split(":")
        assert head.startswith("part ")
        parts.append(mask_of(int(v) - 1 for v in verts.split()))
    d = BranchDecomposition(host=g, parts=tuple(parts))
    assert verify_minor(g, h, d)
    assert h.n == rec["h_vertices"] and h.edge_count == rec["h_edges"]
    # seagull triples are reported 1-based and induce paths of g
    assert len(seagull_lines) == rec["k"]
    for line in seagull_lines:
        a, mid, b = (int(v) - 1 for v in line.split()[1:])
        assert g.has_edge(a, mid) and g.has_edge(mid, b) and not g.has_edge(a, b)


def test_build_minor_determinism(capsys, instance_file):
    args = ("build-minor", instance_file, "--seed", "5", "--lambda", "clamped", "--format", "records")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_build_minor_ineligible_exit_3(capsys, tmp_path):
    path = tmp_path / "blowup.txt"
    run_cli(capsys, "gen", "--family", "c5blowup", "--t", "2", "--out", str(path))
    code, _, err = run_cli(capsys, "build-minor", str(path))
    assert code == 3 and "clique number" in err


def test_build_minor_exhaustion_exit_4(capsys, monkeypatch, instance_file):
    monkeypatch.setattr(pipeline, "MAX_REJECTION_TRIES", 1)
    code, _, _ = run_cli(
        capsys,
        "build-minor",
        instance_file,
        "--lambda",
        "1/1000000",
    )
    assert code == 4


def test_build_minor_advisory_not_certifiable(capsys, instance_file):
    code, out, _ = run_cli(
        capsys,
        "build-minor",
        instance_file,
        "--mode",
        "advisory",
        "--lambda",
        "clamped",
        "--format",
        "records",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["certificate"].startswith("NotCertifiable")


def test_mc_pairing_marginals(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--suite", "pairing-marginals", "--trials", "20000", "--seed", "1", "--format", "records"
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["pass"] is True
    assert abs(rec["estimate"] - 1 / 9) <= 4 * rec["stderr"]


def test_mc_pairing_joint(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--suite", "pairing-joint", "--trials", "20000", "--seed", "1", "--format", "records"
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["pass"] is True


def test_mc_chebyshev(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--suite", "chebyshev", "--trials", "4000", "--seed", "2", "--format", "records"
    )
    assert code == 0
    recs = records(out)
    assert len(recs) == 12
    assert all(r["pass"] for r in recs)


def test_mc_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "mc", "--suite", "mystery")
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize(
    "options",
    [
        ("--suite", "pairing-marginals", "--trials", str(10**12)),
        ("--suite", "pairing-joint", "--trials", str(10**12)),
        ("--suite", "chebyshev", "--trials", str(10**12)),
        ("--suite", "pairing-marginals", "--trials", "1", "--x", str(10**12)),
    ],
    ids=" ".join,
)
def test_mc_refuses_arrays_above_the_cell_limit(capsys, options):
    # refused before anything is allocated: these arrays would take terabytes
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "mc", *options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"exceeds the limit {montecarlo.MAX_CELLS}" in err
    assert peak < 1e6


def test_mc_cell_limit_is_inclusive(capsys, monkeypatch):
    # at the limit a suite runs (its records may fail at so few trials: exit 3)
    monkeypatch.setattr(montecarlo, "MAX_CELLS", 500)
    assert run_cli(capsys, "mc", "--suite", "pairing-marginals", "--trials", "50")[0] != 2
    assert run_cli(capsys, "mc", "--suite", "pairing-marginals", "--trials", "51")[0] == 2
    assert run_cli(capsys, "mc", "--suite", "chebyshev", "--trials", "10")[0] != 2
    assert run_cli(capsys, "mc", "--suite", "chebyshev", "--trials", "11")[0] == 2


def test_mc_determinism(capsys):
    args = ("mc", "--suite", "chebyshev", "--trials", "2000", "--seed", "3", "--format", "records")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_mc_expectation_bound_small(capsys):
    args = (
        "mc", "--suite", "expectation-bound", "--sizes", "110", "--instances", "1",
        "--trials", "3", "--seed", "1", "--format", "records",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    recs = records(out)
    assert recs and recs[0]["strict_ok"] is True
    assert recs[0]["pass"] is True


def test_mc_expectation_bound_jobs_match_sequential(capsys):
    base = (
        "mc", "--suite", "expectation-bound", "--sizes", "110", "--instances", "2",
        "--trials", "4", "--seed", "2", "--format", "records",
    )
    _, seq, _ = run_cli(capsys, *base)
    _, par, _ = run_cli(capsys, *base, "--jobs", "2")
    assert seq == par


def test_gamma_text_six_decimals(capsys):
    code, out, _ = run_cli(capsys, "gamma")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z_star 0.193984"
    assert lines[1] == "gamma 0.986882"


def test_gamma_records(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--format", "records", "--tolerance", "1e-6")
    assert code == 0
    (rec,) = records(out)
    assert rec["gamma"] == pytest.approx(0.986882, abs=1e-5)
    assert rec["z_star"] == pytest.approx(0.193984, abs=1e-4)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "minorforge.cli", "gamma"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "gamma 0.986882" in proc.stdout


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "minorforge.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv,says",
    [
        (("mc", "--suite", "pairing-marginals", "--trials", "0"), "trials"),
        (("mc", "--suite", "pairing-joint", "--trials", "0"), "trials"),
        (("mc", "--suite", "chebyshev", "--trials", "0"), "trials"),
        (("mc", "--suite", "expectation-bound", "--instances", "0"), "instances"),
        (("mc", "--suite", "expectation-bound", "--trials", "0"), "trials"),
        (("mc", "--suite", "expectation-bound", "--trials", "-2"), "trials"),
        (("mc", "--suite", "expectation-bound", "--trials", "3", "--instances", "5"), "trials"),
        (("mc", "--suite", "expectation-bound", "--jobs", "0"), "jobs"),
        (("mc", "--suite", "expectation-bound", "--jobs", "-3"), "jobs"),
        (("mc", "--suite", "expectation-bound", "--sweep-limit", "-1"), "sweep limit"),
        (("mc", "--suite", "expectation-bound", "--sizes", "110,7"), "even and at least 6"),
        (("mc", "--suite", "expectation-bound", "--sizes", "4"), "even and at least 6"),
        (("mc", "--suite", "pairing-marginals", "--x", "3"), "even ground set"),
        (("mc", "--suite", "pairing-marginals", "--x", "1"), "even ground set"),
        (("mc", "--suite", "pairing-joint", "--x", "2"), "at least 4"),
        (("gen", "--family", "two_clique", "--sizes", "1,2,3"), "needs --sizes"),
        (("gamma", "--tolerance", "nan"), "tolerance"),
        (("gamma", "--tolerance", "inf"), "tolerance"),
        (("build-minor", "GRAPH", "--lambda", "1e400"), "lambda"),
        (("build-minor", "GRAPH", "--lambda", "1e-320"), "lambda"),
        (("build-minor", "GRAPH", "--lambda", "1e-400"), "lambda"),
        # refused before the input is read: a missing file would be named instead
        (("build-minor", "no-such-graph.txt", "--trial", "-1"), "--trial"),
        (("build-minor", "no-such-graph.txt", "--seed", "-1"), "--seed"),
        (("gen", "--family", "tfp", "--n", "10", "--seed", "-1"), "--seed"),
        (("mc", "--suite", "expectation-bound", "--seed", "-1"), "--seed"),
        (("mc", "--suite", "expectation-bound", "--sizes", "400,"), "--sizes"),
        (("gen", "--family", "two_clique", "--sizes", "3,x"), "--sizes"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_misuse_exits_2_with_one_line(argv, says, instance_file):
    proc = run_module(*(instance_file if a == "GRAPH" else a for a in argv))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert says in proc.stderr


@pytest.mark.parametrize(
    "options",
    [
        ("--family", "tfp", "--n", "32769"),
        ("--named", "k_n", "--order", "32769"),
        ("--family", "c5blowup", "--t", "6554"),
        ("--family", "two_clique", "--sizes", "16385,16384"),
    ],
    ids=" ".join,
)
def test_gen_refuses_an_order_above_the_reader_limit(capsys, options):
    # one past graph.MAX_ORDER.  Without the refusal these calls take
    # gigabytes, so a child capped at 2 GiB must refuse first; it fails
    # with a MemoryError instead if the refusal is ever lost
    cap = 2 << 30
    child = subprocess.run(
        [sys.executable, "-m", "minorforge.cli", "gen", *options],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert child.returncode == 2, child.stderr[-300:]
    start = time.monotonic()
    code, out, err = run_cli(capsys, "gen", *options)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds the limit 32768" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--family", "tfp", "--n", "8193"),
        # the 400 instance is not built or run first
        ("mc", "--suite", "expectation-bound", "--sizes", "400,8194"),
    ],
    ids=" ".join,
)
def test_tfp_orders_above_the_build_limit_are_refused(capsys, argv):
    # one past the tfp limit, which builds in about 20 s: the refusal comes
    # before the pair order (134 MB there) or anything else is allocated
    tracemalloc.start()
    try:
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 1e6
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds the limit 8192" in err


def test_analyze_directory_exits_2(tmp_path):
    proc = run_module("analyze", str(tmp_path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: ")


@pytest.mark.parametrize("command", ["analyze", "build-minor"])
def test_huge_order_header_exits_2(tmp_path, command):
    path = tmp_path / "huge.txt"
    path.write_text("p 99999999999 0\n")
    proc = run_module(command, str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "MemoryError" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "exceeds the limit" in proc.stderr


@pytest.mark.parametrize("command,options", [("analyze", ()), ("build-minor", ("--lambda", "clamped"))])
def test_input_file_is_read_once(capsys, monkeypatch, instance_file, command, options):
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, out, _ = run_cli(capsys, command, instance_file, *options, "--format", "records")
    assert code == 0
    assert opened.count(instance_file) == 1
    with real_open(instance_file, "rb") as fh:
        assert records(out)[0]["input_sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_analyze_exits_4_when_clique_budget_runs_out(capsys, monkeypatch, tmp_path):
    path = tmp_path / "fw.txt"
    run_cli(capsys, "gen", "--named", "five_wheel", "--out", str(path))
    monkeypatch.setattr(analysis, "CLIQUE_BUDGET", 3)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 4
    assert out == "" and err == "error: more than 3 cliques\n"


def test_analyze_refuses_a_large_clique_at_once(capsys, tmp_path):
    # K_20 on 0-19 plus a clique on 20-29 where 20+i misses only i: alpha
    # <= 2, over 2^20 cliques, and a lower bound below the working clique's
    # capacity, so min_capacity must enumerate; enumerating a million
    # cliques before giving up took over 12 s
    edges = [(u, v) for u in range(30) for v in range(u + 1, 30) if v != u + 20]
    path = tmp_path / "k20_plus.txt"
    write_graph(Graph(30, edges), path)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 2
    assert code == 4
    assert out == "" and err == f"error: more than {analysis.CLIQUE_BUDGET} cliques\n"


def test_analyze_answers_k22_from_the_bound(capsys, tmp_path):
    # K_22 has 2^22 - 1 nonempty cliques, beyond the budget, but the lower
    # bound already equals the working clique's capacity (both 0)
    path = tmp_path / "k22.txt"
    run_cli(capsys, "gen", "--named", "k_n", "--order", "22", "--out", str(path))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "records")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    rec = records(out)[0]
    assert rec["min_capacity"] == rec["min_capacity_lower_bound"] == 0.0


def test_analyze_skips_clique_enumeration_when_the_bound_is_met(capsys, tmp_path):
    # K_19 has 2^19 - 1 nonempty cliques, within the budget; enumerating
    # them took about 6 s, but the lower bound already equals the working
    # clique's capacity (both 0)
    path = tmp_path / "k19.txt"
    run_cli(capsys, "gen", "--named", "k_n", "--order", "19", "--out", str(path))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "records")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    rec = records(out)[0]
    assert rec["min_capacity"] == rec["min_capacity_lower_bound"] == 0.0


ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.MinorforgeError)
] + [OSError, ValueError, MemoryError]
INPUT_ERRORS = {"ParseError", "UnknownName", "UnknownSuite", "OSError", "ValueError"}
EXHAUSTED_ERRORS = {"RejectionExhausted", "NotEnoughEdges", "BudgetExhausted", "MemoryError"}


@pytest.mark.parametrize("exc_class", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error_class(capsys, monkeypatch, exc_class):
    def failing_command(args):
        raise exc_class("stub failure")

    monkeypatch.setitem(cli._COMMANDS, "gamma", failing_command)
    code, out, err = run_cli(capsys, "gamma")
    name = exc_class.__name__
    assert code == (2 if name in INPUT_ERRORS else 4 if name in EXHAUSTED_ERRORS else 3)
    assert out == "" and err == "error: stub failure\n"
