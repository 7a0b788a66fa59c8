"""Record bytes pinned by sha256.

The hashes of CASES were taken from the `--format records` stdout of the
commit before the Monte Carlo suites moved out of `cli.py`, those of
FILE_CASES from the commit before the precondition flags and certification
gate were given one home; moving or simplifying code must leave every byte
of these outputs unchanged.  Every record line must also be strict JSON:
RFC 8259 has no NaN or Infinity.
"""

import hashlib
import json

import pytest

from minorforge.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()

CASES = [
    (("mc", "--suite", "pairing-marginals", "--trials", "3000", "--seed", "1"),
     0, "62b180d5c332a5d6ca18fd5fa2205471aeee7771e198b9d969e473a598dd0e6c"),
    (("mc", "--suite", "pairing-joint", "--trials", "3000", "--seed", "1", "--x", "12"),
     0, "a86ec1d5db40b5919e9fc6f07595fca639f1a1094131f9168aa5a30c5d8e8c30"),
    (("mc", "--suite", "chebyshev", "--trials", "500", "--seed", "2"),
     0, "ba769a534ac49a367bd414ed8d82a5078e4bc7c50d84123d2f0241b4f78b4930"),
    (("mc", "--suite", "expectation-bound", "--sizes", "110", "--instances", "2",
      "--trials", "4", "--seed", "2", "--jobs", "1"),
     0, "a78dc09def9da18000d668074c8f823cdcbf2ffc6d9ac83ad0763ca74fc0bd15"),
    (("mc", "--suite", "expectation-bound", "--sizes", "110", "--instances", "2",
      "--trials", "4", "--seed", "2", "--jobs", "2"),
     0, "a78dc09def9da18000d668074c8f823cdcbf2ffc6d9ac83ad0763ca74fc0bd15"),
    # no instance is swept: the search record plus the advisory structural run
    # (re-pinned when its bound changed from NaN to null)
    (("mc", "--suite", "expectation-bound", "--sizes", "110", "--instances", "1",
      "--trials", "3", "--seed", "5", "--sweep-limit", "0"),
     3, "8f320b5779d6d66b369d17f47c2e411b8e4f96d5e721fe44633cf2aea1169df8"),
    # no swept instance is eligible, and the advisory run refuses the graph:
    # the refusal is the failed structural-run record (re-pinned when the
    # fallback stopped exiting with an empty stdout, and again when its bound
    # and estimate changed from NaN to null)
    (("mc", "--suite", "expectation-bound", "--sizes", "20", "--instances", "1",
      "--trials", "3", "--seed", "5", "--sweep-limit", "3"),
     3, "5bfbb1df95f2b8557be0cae34e7b0f6168b34bdf2711b13c81b78e415035b0bc"),
    (("gen", "--family", "tfp", "--n", "30", "--seed", "4"),
     0, "866ef97647591cd96faf8d2e68e0eb7f64ca404d6bb3076f503707fc4a44498d"),
    (("gen", "--family", "c5blowup", "--t", "3"),
     0, "bc397bf9626b6210f5c32fce81769cc082816801584f3ef62475c42825d605f7"),
    (("gen", "--family", "two_clique", "--sizes", "3,4"),
     0, "339ba40bc940a763e72c285e98d8ccbb9903cc77f283792b9bfabbb8577f41ba"),
    (("gen", "--named", "petersen"),
     0, "4fe00814366c5f486deaa821ea07bbdfab1b10fbce491f27484df96613b7704d"),
    (("gen", "--named", "k_n", "--order", "5"),
     0, "ecc6b0da95b489bd26d29b7a2ec8eed07f8ad2a7c8133ae1fe638aef4bd699d0"),
]


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def assert_strict_json_lines(out):
    for line in out.splitlines():
        json.loads(line, parse_constant=_not_json)


@pytest.mark.parametrize("argv,code,digest", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_record_bytes_unchanged(capsys, argv, code, digest):
    assert main([*argv, "--format", "records"]) == code
    out = capsys.readouterr().out
    if argv[0] != "gen":  # gen writes graph text, not records
        assert_strict_json_lines(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Graph files written by `gen` into the working directory, so the `input`
# field of the records is the same relative path on every machine.
GRAPHS = {
    "tfp110.txt": ("--family", "tfp", "--n", "110", "--seed", "1"),
    "tfp200.txt": ("--family", "tfp", "--n", "200", "--seed", "1"),
    "c5blowup.txt": ("--family", "c5blowup", "--t", "2"),
    "k19.txt": ("--named", "k_n", "--order", "19"),
}

FILE_CASES = [
    # exact clique; lambda = n^(2/3) exceeds (k-1)/2, so one flag fails
    (("build-minor", "tfp110.txt"),
     0, "d8b6a5120edb8043fa7ba058269fa6669917fb74cacdca262b36c15a79a2702b"),
    (("build-minor", "tfp110.txt", "--lambda", "clamped", "--trial", "3"),
     0, "756614521c163f8f14ac98ec6da2080272cf63864a049a1e84e40ca2272ee622"),
    # lambda^2 <= 2n: no bound, and the gate names that first
    (("build-minor", "tfp110.txt", "--lambda", "5"),
     0, "98d44115dabaaf75c7a4e227159e4023b8531cbf978dc49239800351ded3d5e9"),
    (("build-minor", "tfp110.txt", "--mode", "advisory"),
     0, "b296342c96617e844dd2ce2a9bf7091ffeb50355a40c15e820bc25b3b52b4979"),
    # above the exact-clique limit: the local-search clique
    (("build-minor", "tfp200.txt"),
     0, "dbff5a8aaa22904d965f0d1ce7d48ccfc8ffadd8dbfb0450af55ddf17380c6fb"),
    # clique number >= |V|/4: refused before any record is written
    (("build-minor", "c5blowup.txt"), 3, EMPTY),
    # analyze cases re-pinned when `clique` changed to the file's 1-based numbers
    (("analyze", "tfp110.txt"),
     0, "d92e4862f7015b41cecff44e7ead5baaa9fa1bf6a3c18b0491affd78ae96a1b6"),
    (("analyze", "tfp200.txt"),
     0, "79d74633a89cc2bca2913cf1de3d6140bb695d3455718f42c9665d0280c3c841"),
    # the largest complete graph analyze accepts; pinned while min_capacity
    # was still found by enumerating all 2^19 - 1 cliques
    (("analyze", "k19.txt"),
     0, "efee58863bd2179defd39a73cbc7c3547840c1a92528e1986b61ff2bfb1bb0fb"),
]


@pytest.mark.parametrize("argv,code,digest", FILE_CASES,
                         ids=[" ".join(c[0]) for c in FILE_CASES])
def test_file_record_bytes_unchanged(capsys, monkeypatch, tmp_path, argv, code, digest):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", *GRAPHS[argv[1]], "--out", argv[1]]) == 0
    assert main([*argv, "--format", "records"]) == code
    out = capsys.readouterr().out
    assert_strict_json_lines(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
