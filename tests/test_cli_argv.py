"""Generated argvs over the CLI grammar: every one returns 0 or 1, or exits 2
with ``error:`` on stderr, none ends in an exception, a value that follows
its option after a space is read as that option's value, and every weight
table printed is normalized (Eq. (9))."""

import contextlib
import csv
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckeweights import cli

RATIONALS = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(-3, 9)),
    st.integers(-9, 9).map(str),
    # malformed, and the excluded q = 1, q <= 0, Q = -1, Q = -q^s
    st.sampled_from(["", "abc", "1/", "/2", "1.5", "2/x", "1/0", " 3 ", "1",
                     "-1", "-2", "-4", "-8", "-1/2", "-1/4"]),
)
SIZES = st.integers(-1, 3)
ROW_BOUNDS = st.one_of(st.none(), st.integers(-3, 3))
TOKENS = st.one_of(
    st.sampled_from(["t", "u", "x", "g", "t'", "G", "g1g2"]),
    st.builds(lambda kind, i: f"{kind}{i}", st.sampled_from(["g", "G", "t'"]),
              st.integers(-1, 4)),
)


def options(**named):
    """argv fragment for the named strategies, dropping the ones drawn None."""
    return st.fixed_dictionaries(named).map(
        lambda d: [x for k, v in d.items() if v is not None
                   for x in (f"--{k}", str(v))])


WEIGHTS = options(type=st.sampled_from(["A", "B", "D", "X"]), n=SIZES,
                  r1=ROW_BOUNDS, r2=ROW_BOUNDS, q=RATIONALS,
                  Q=st.one_of(st.none(), RATIONALS),
                  format=st.sampled_from(["json", "csv"]))
# Mostly admissible weights argvs, so that many of them print a table: row
# bounds down to 0, n = 0 and negative Q included.
TABLES = options(type=st.sampled_from(["A", "B", "D"]), n=st.integers(0, 4),
                 r1=st.one_of(st.none(), st.integers(0, 3)),
                 r2=st.one_of(st.none(), st.integers(0, 3)),
                 q=st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 9),
                             st.integers(1, 9)),
                 Q=st.builds(lambda p, q: f"{p}/{q}",
                             st.integers(-9, 9).filter(bool),
                             st.integers(1, 9)),
                 format=st.sampled_from(["json", "csv"]))
TRACE = options(word=st.lists(TOKENS, max_size=4).map(" ".join), n=SIZES,
                r1=ROW_BOUNDS, r2=ROW_BOUNDS, q=RATIONALS,
                Q=st.one_of(st.none(), RATIONALS))
VERIFY = options(suite=st.sampled_from(list(cli.SUITES) + ["all", "none"]),
                 n=st.integers(-1, 2), seed=st.integers(0, 3),
                 points=st.integers(-1, 1))
ARGVS = st.one_of(
    WEIGHTS.map(lambda a: ["weights"] + a),
    TABLES.map(lambda a: ["weights"] + a),
    TRACE.map(lambda a: ["trace"] + a),
    VERIFY.map(lambda a: ["verify"] + a),
    st.lists(st.sampled_from(["weights", "trace", "verify", "--n", "2", "-x"]),
             max_size=3),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGVS)
def test_every_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "error:" in err.getvalue(), argv
    if values_follow_options(argv):
        # argparse must not take a value such as -1/2 for an option
        assert "expected one argument" not in err.getvalue(), argv
    if code == 0 and argv[0] == "weights":
        assert normalization(out.getvalue()) == 1, argv


def normalization(text):
    """Sum of weight times dimension over the rows of a printed table, in
    JSON or CSV."""
    if text.startswith("{"):
        rows = json.loads(text)["weights"]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    return sum(Fraction(row["weight"]) * int(row["dimension"]) for row in rows)


def values_follow_options(argv):
    """Whether argv is a command and then pairs of an option and a value
    that is not itself an option."""
    return (len(argv) % 2 == 1 and argv[0] in ("weights", "trace", "verify")
            and all(opt.startswith("--") for opt in argv[1::2])
            and not any(value.startswith("--") for value in argv[2::2]))
