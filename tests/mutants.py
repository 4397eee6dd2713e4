"""The mutation catalogue: each mutant must make its test node fail.

    python3 tests/mutants.py                     # every mutant
    python3 tests/mutants.py weight-table-row-range guard-policy-bound

``mutants.json`` lists mutants as data: an ``id``, a ``file`` under
``src/``, an exact ``old`` text that occurs once in that file, the ``new``
text that replaces it, and the pytest ``node`` that must fail with the
mutant in place.  The runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, checks that every node
passes there unmutated, then applies one mutant at a time and runs its node,
restoring the file after each.  A mutant is killed only when pytest exits 1
(tests ran and failed); a collection error or a missing node is a fault of
the catalogue, not a kill.  Prints one line per mutant and exits 1 unless
every mutant is killed.  Standard library only, plus ``python -m pytest``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "mutants.json"
COPIED = ("src", "tests", "pyproject.toml")
TESTS_FAILED = 1  # pytest's exit code when tests ran and some failed


def load() -> list:
    return json.loads(CATALOGUE.read_text())


def stale(mutants) -> list:
    """The ids of mutants that no longer apply: a file outside ``src/``, an
    old text that does not occur exactly once, or an unchanged text."""
    return [m["id"] for m in mutants
            if not m["file"].startswith("src/") or m["old"] == m["new"]
            or (ROOT / m["file"]).read_text().count(m["old"]) != 1]


def pytest(tree: Path, nodes) -> int:
    # no bytecode: a restored file may keep the size and mtime of a mutant
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *nodes], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=600).returncode


def main(ids) -> int:
    mutants = [m for m in load() if not ids or m["id"] in ids]
    unknown = set(ids) - {m["id"] for m in mutants}
    if unknown or stale(mutants):
        print(f"error: unknown {sorted(unknown)}, stale {stale(mutants)}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, tree / name)
        nodes = sorted({m["node"] for m in mutants})
        code = pytest(tree, nodes)
        if code != 0:
            print(f"error: the unmutated nodes exit {code}: {nodes}")
            return 1
        survivors = 0
        for m in mutants:
            path = tree / m["file"]
            text = path.read_text()
            path.write_text(text.replace(m["old"], m["new"]))
            try:
                code = pytest(tree, [m["node"]])
            finally:
                path.write_text(text)
            killed = code == TESTS_FAILED
            survivors += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {m['id']}: "
                  f"{m['node']} exits {code}")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
