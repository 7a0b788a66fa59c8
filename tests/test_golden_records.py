"""Record bytes pinned by sha256.

The hashes were taken from the `--format records` stdout of the commit
before the Monte Carlo suites moved out of `cli.py`; moving or simplifying
code must leave every byte of these outputs unchanged.
"""

import hashlib

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
    (("mc", "--suite", "expectation-bound", "--sizes", "110", "--instances", "1",
      "--trials", "3", "--seed", "5", "--sweep-limit", "0"),
     3, "9b0376c1096d429a02f1bdab863bea69d6e0d60733232c32f48b1b214c80562a"),
    # no swept instance is eligible, and the advisory run refuses the graph
    (("mc", "--suite", "expectation-bound", "--sizes", "20", "--instances", "1",
      "--trials", "3", "--seed", "5", "--sweep-limit", "3"),
     3, EMPTY),
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


@pytest.mark.parametrize("argv,code,digest", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_record_bytes_unchanged(capsys, argv, code, digest):
    assert main([*argv, "--format", "records"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
