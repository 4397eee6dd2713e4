"""The error lines of the command line, pinned: the exit code, standard
output and standard error of each bad argv below, replayed in process
against ``errors_golden.json``.  The argvs cover the grammar (commands,
options, values, choices, the ``--opt=value`` form), the rationals, the
excluded points and the word tokens; three points just past the excluded
ones print a trace instead.  The file was made with

    PYTHONPATH=src python3 tests/test_errors_golden.py > tests/errors_golden.json

Regenerate it only for an intended change of output, and list that change
in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

from heckeweights import cli

GOLDEN = Path(__file__).with_name("errors_golden.json")


def trace(word="t", n="2", q="2", Q="5"):
    return ["trace", "--word", word, "--n", n, "--q", q, "--Q", Q]


ARGVS = [
    # commands and options
    [],
    ["frobnicate"],
    ["--n", "3"],
    ["-h", "-h"],
    ["weights", "trace", "-h"],
    ["trace", "--bogus", "1"],
    ["trace", "-n", "3"],
    ["trace", "--wo", "t", "--n", "2", "--q", "2", "--Q", "5"],
    ["trace", "--", "t"],
    trace() + ["-h"],
    # a missing value
    ["trace", "--word"],
    ["weights", "--type", "A", "--n", "3", "--q"],
    # a bad choice
    ["weights", "--type", "C", "--n", "3", "--q", "2"],
    ["weights", "--type", "B", "--n", "3", "--q", "2", "--Q", "5",
     "--format", "xml"],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", "All"],
    # missing required options
    ["trace"],
    ["trace", "--word", "t"],
    ["weights", "--n", "3"],
    ["verify"],
    # the --opt=value form
    ["trace", "--word=t", "--n=2", "--q=2", "--Q=-2"],
    ["trace", "--word=t", "--n=", "--q=2", "--Q=5"],
    ["trace", "--word=t", "--n=2", "--q=1=2", "--Q=5"],
    ["weights", "--type=C", "--n=3", "--q=2"],
    ["trace", "--=t"],
    # integers and row bounds
    ["trace", "--word", "t", "--n", "two", "--q", "2", "--Q", "5"],
    ["weights", "--type", "B", "--n", "-1", "--q", "2", "--Q", "5"],
    ["weights", "--type", "B", "--n", "2", "--r1", "-1", "--q", "2",
     "--Q", "5"],
    ["weights", "--type", "B", "--n", "2", "--r1", "0", "--r2", "0",
     "--q", "2", "--Q", "5"],
    ["weights", "--type", "B", "--n", "2", "--q", "2"],
    ["weights", "--type", "D", "--n", "0", "--q", "-2"],
    trace(n="0"),
    ["verify", "--suite", "hom", "--n", "0"],
    ["verify", "--suite", "hom", "--points", "0"],
    trace(n="1_0"),
    # rationals
    trace(q=""),
    trace(q="abc"),
    trace(q="1/"),
    trace(q="/2"),
    trace(q="1.5"),
    trace(q="2/x"),
    trace(q="1/0"),
    trace(Q="-3/0"),
    trace(q=" 3 ", Q="5", word="x"),
    trace(q=" 1 "),
    trace(q="1_0/3"),
    trace(q="+3/2"),
    # excluded points
    trace(q="1"),
    trace(q="0"),
    trace(q="-2"),
    trace(Q="0"),
    trace(Q="-1"),
    trace(Q="-4"),
    trace(Q="-1/8"),
    trace(q="3/2", Q="-9/4"),
    trace(n="3", Q="-4"),
    trace(n="3", Q="-1/4"),
    ["weights", "--type", "A", "--n", "3", "--q", "1"],
    ["weights", "--type", "D", "--n", "2", "--q", "-2"],
    # word tokens
    trace(word="x"),
    trace(word="g"),
    trace(word="t'"),
    trace(word="g1g2"),
    trace(word="g+5"),
    trace(word="G05"),
    trace(word="t'-1"),
    trace(word="u", n="1"),
    trace(word="g1 t g2", n="2"),
    trace(word="g0 g5"),
    trace(word="g1_0"),
    trace(word="t0"),
    trace(word="T"),
]


def replay(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_errors_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == ARGVS
    # each argv is refused but Q = -q^2, -q^-3 and -q^2 at n = 2, one power
    # and more past the guard: those print their trace
    assert [e["argv"] for e in golden if (e["code"], e["stdout"]) != (2, "")] \
        == [trace(Q="-4"), trace(Q="-1/8"), trace(q="3/2", Q="-9/4")]
    assert [replay(entry["argv"]) for entry in golden] == golden


if __name__ == "__main__":
    print(json.dumps([replay(argv) for argv in ARGVS], indent=1,
                     ensure_ascii=False))
