"""The bytes that ``weights`` prints, pinned: the sha256 of exit code, stdout
and stderr of 252 argvs, types A, B and D at n = 0..6, JSON and CSV, three
points (q, Q) and two choices of row bounds, replayed in process against
``weights_golden.json``.  The file was made with

    PYTHONPATH=src python3 tests/test_weights_golden.py > tests/weights_golden.json

Regenerate it only for an intended change of output, and list that change
in CHANGES.md.
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from heckeweights import cli

GOLDEN = Path(__file__).with_name("weights_golden.json")
POINTS = (("2", "5"), ("347/512", "-613/229"), ("3/2", "7/3"))
# the default row bounds n + 1, and r1 = 0 < r2
BOUNDS = ((), ("--r1", "0", "--r2", "3"))


def argvs():
    for kind, n, (q, Q), bounds, fmt in itertools.product(
            "ABD", range(7), POINTS, BOUNDS, ("json", "csv")):
        yield ["weights", "--type", kind, "--n", str(n), "--q", q, "--Q", Q,
               *bounds, "--format", fmt]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def table() -> dict:
    return {" ".join(argv): digest(argv) for argv in argvs()}


def test_weights_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = table()
    assert list(got) == list(golden)
    assert len(got) == 252
    assert [argv for argv in got if got[argv] != golden[argv]] == []


if __name__ == "__main__":
    print(json.dumps(table(), indent=1))
