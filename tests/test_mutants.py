"""The mutation catalogue cannot rot silently: every mutant still applies
to ``src/`` and names a test that exists.  ``python3 tests/mutants.py``
runs the catalogue itself, outside the test suite."""

from mutants import ROOT, load, stale


def test_mutants_apply():
    mutants = load()
    assert len({m["id"] for m in mutants}) == len(mutants)
    assert stale(mutants) == []
    for m in mutants:
        path, name = m["node"].split("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(), m["id"]
