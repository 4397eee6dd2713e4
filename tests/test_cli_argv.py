"""Generated argvs over the CLI grammar: every one returns 0 or 1, or exits 2
with nothing on stdout and one ``error:`` line on stderr, none ends in an
exception, a command followed by pairs of its own options and values never
reports an unknown option or a missing value (whatever the value looks
like, -1/2 included), and every weight table printed is normalized
(Eq. (9)) and reprints byte for byte through the json or csv module."""

import contextlib
import csv
import io
import json
import re
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckeweights import cli
from helpers import reprinted

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


def minus_power(a, b, s):
    """-(a/b)^s as the text of a rational."""
    return f"-{a ** s}/{b ** s}" if s >= 0 else f"-{b ** -s}/{a ** -s}"


def tables(n, a, b):
    """Mostly admissible weights argvs at size n and q = a/b, so that many
    of them print a table: row bounds down to 0, n = 0 and negative Q
    included, and Q = -q^s for |s| <= n + 3, which the guard refuses at
    |s| <= n - 1 and admits past it."""
    return options(type=st.sampled_from(["A", "B", "D"]), n=st.just(n),
                   r1=st.one_of(st.none(), st.integers(0, 3)),
                   r2=st.one_of(st.none(), st.integers(0, 3)),
                   q=st.just(f"{a}/{b}"),
                   Q=st.one_of(st.builds(lambda p, q: f"{p}/{q}",
                                         st.integers(-9, 9).filter(bool),
                                         st.integers(1, 9)),
                               st.integers(-n - 3, n + 3).map(
                                   lambda s: minus_power(a, b, s))),
                   format=st.sampled_from(["json", "csv"]))


TABLES = st.tuples(st.integers(0, 4), st.integers(1, 9),
                   st.integers(1, 9)).flatmap(lambda t: tables(*t))
TRACE = options(word=st.lists(TOKENS, max_size=4).map(" ".join), n=SIZES,
                r1=ROW_BOUNDS, r2=ROW_BOUNDS, q=RATIONALS,
                Q=st.one_of(st.none(), RATIONALS))
VERIFY = options(suite=st.sampled_from(list(cli.SUITES) + ["all", "none"]),
                 n=st.integers(-1, 2), seed=st.integers(0, 3),
                 points=st.integers(-1, 1))
COMMAND_ARGVS = st.one_of(
    WEIGHTS.map(lambda a: ["weights"] + a),
    TABLES.map(lambda a: ["weights"] + a),
    TRACE.map(lambda a: ["trace"] + a),
    VERIFY.map(lambda a: ["verify"] + a),
)
# Each command argv starts with a long option (--type, --word, --suite) and
# its value.
ARGVS = st.one_of(
    COMMAND_ARGVS,
    # --option=value
    COMMAND_ARGVS.map(lambda a: a[:1] + [f"{opt}={value}" for opt, value
                                         in zip(a[1::2], a[2::2])]),
    # a trailing option with no value
    COMMAND_ARGVS.map(lambda a: a + a[-2:-1]),
    # a repeated option
    COMMAND_ARGVS.map(lambda a: a + a[1:3]),
    # an abbreviation such as --wo for --word
    COMMAND_ARGVS.map(lambda a: a[:1] + [a[1][:4]] + a[2:]),
    st.tuples(COMMAND_ARGVS, st.sampled_from(["-h", "--help"])).map(
        lambda t: t[0] + [t[1]]),
    st.lists(st.sampled_from(["weights", "trace", "verify", "--n", "2", "-x",
                              "-h", "--help"]), max_size=3),
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
        assert out.getvalue() == "", argv
        assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), argv
    if values_follow_options(argv):
        # the token after an option is its value, even one such as -1/2
        assert "has no option" not in err.getvalue(), argv
        assert "needs a value" not in err.getvalue(), argv
    if code == 0 and argv[0] == "weights" and not {"-h", "--help"} & set(argv):
        assert normalization(out.getvalue()) == 1, argv
        assert reprinted(out.getvalue()) == out.getvalue(), argv


def normalization(text):
    """Sum of weight times dimension over the rows of a printed table, in
    JSON or CSV."""
    if text.startswith("{"):
        rows = json.loads(text)["weights"]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    return sum(Fraction(row["weight"]) * int(row["dimension"]) for row in rows)


def values_follow_options(argv):
    """Whether argv is a command and then pairs of one of that command's
    options in ``cli.COMMANDS`` and a value."""
    return (len(argv) % 2 == 1 and argv[0] in cli.COMMANDS
            and all(opt[2:] in cli.COMMANDS[argv[0]][1]
                    and opt.startswith("--") for opt in argv[1::2]))
