"""The mutant table of scripts/mutants.py stays current: every entry's old
text is found exactly once, so each planted fault still lands, and every
test it names still exists.  Running the mutants themselves is the script's
job (about half a minute)."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants.MUTANTS, mutants.stale


def test_every_mutant_applies_exactly_once():
    table, stale = load_mutants()
    assert len(table) >= 8
    assert len({m.name for m in table}) == len(table)
    assert [stale(m) for m in table] == [None] * len(table)
    assert all(m.old != m.new and m.tests for m in table)


def test_every_named_test_is_defined():
    # a renamed or deleted test fails here, not only in the slow script
    table, _ = load_mutants()
    missing = []
    for node in sorted({t for m in table for t in m.tests}):
        path, _, name = node.partition("::")
        source = ROOT / path
        defined = source.is_file() and name.split("[")[0] in {
            f.name for f in ast.parse(source.read_text()).body if isinstance(f, ast.FunctionDef)
        }
        if not defined:
            missing.append(node)
    assert missing == []
