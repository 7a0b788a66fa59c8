"""The mutant table of scripts/mutants.py stays current: every entry's old
text is found exactly once, so each planted fault still lands.  Running the
mutants themselves is the script's job (about a minute)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"


def test_every_mutant_applies_exactly_once():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) >= 8
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert [mutants.stale(m) for m in mutants.MUTANTS] == [None] * len(mutants.MUTANTS)
    assert all(m.old != m.new and m.tests for m in mutants.MUTANTS)
