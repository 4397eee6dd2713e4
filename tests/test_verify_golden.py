"""The bytes that ``verify`` prints, pinned: the sha256 of exit code, stdout
and stderr of 72 argvs, each of the six suites at n = 1..4, seeds 0, 5 and
9, two points, replayed in process against ``verify_golden.json``.  The
file was made with

    PYTHONPATH=src python3 tests/test_verify_golden.py > tests/verify_golden.json

Regenerate it only for an intended change of output, and list that change
in CHANGES.md.
"""

import itertools
import json
from pathlib import Path

from heckeweights.cli import SUITES
from test_weights_golden import digest

GOLDEN = Path(__file__).with_name("verify_golden.json")


def argvs():
    for suite, n, seed in itertools.product(SUITES, range(1, 5), (0, 5, 9)):
        yield ["verify", "--suite", suite, "--n", str(n), "--seed", str(seed),
               "--points", "2"]


def table() -> dict:
    return {" ".join(argv): digest(argv) for argv in argvs()}


def test_verify_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = table()
    assert list(got) == list(golden)
    assert len(got) == 72
    assert [argv for argv in got if got[argv] != golden[argv]] == []


if __name__ == "__main__":
    print(json.dumps(table(), indent=1))
