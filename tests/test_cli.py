import csv
import inspect
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from heckeweights import cli, homcheck
from heckeweights.combinatorics import dimension, double_partitions, shape_str
from heckeweights.reps import random_word
from heckeweights.scalars import Rat, admissible_point
from heckeweights.traces import q1_point, weight_D
from helpers import reprinted

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weights_json_worked_example(capsys):
    code, out, _ = run(capsys, ["weights", "--type", "B", "--n", "1",
                                "--r1", "1", "--r2", "1", "--q", "2",
                                "--Q", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"n": 1, "r1": 1, "r2": 1, "q": "2", "Q": "5"}
    assert doc["z"] == "4/3"
    assert doc["y"] == "8/3"
    assert doc["weights"] == [
        {"shape": "[1]|[]", "weight": "11/18", "dimension": 1},
        {"shape": "[]|[1]", "weight": "7/18", "dimension": 1},
    ]


def test_weights_csv(capsys):
    code, out, _ = run(capsys, ["weights", "--type", "B", "--n", "2",
                                "--q", "2", "--Q", "5", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "shape,weight,dimension"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    assert rows[0]["shape"] == "[2]|[]"
    assert all("/" in r["weight"] or r["weight"].lstrip("-").isdigit()
               for r in rows)


def test_weights_default_row_bounds(capsys):
    code, out, _ = run(capsys, ["weights", "--type", "B", "--n", "2",
                                "--q", "2", "--Q", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["r1"] == 3 and doc["params"]["r2"] == 3


def test_weights_typeA(capsys):
    code, out, _ = run(capsys, ["weights", "--type", "A", "--n", "2",
                                "--q", "1/2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["Q"] is None
    assert doc["y"] is None
    shapes = [w["shape"] for w in doc["weights"]]
    assert shapes == ["[2]", "[1,1]"]


def test_weights_typeD(capsys):
    code, out, _ = run(capsys, ["weights", "--type", "D", "--n", "2",
                                "--q", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["Q"] == "1"
    shapes = [w["shape"] for w in doc["weights"]]
    # one merged row per unordered pair, two rows for the symmetric shape
    assert shapes == ["[2]|[]", "[1,1]|[]", "[1]|[1]_1", "[1]|[1]_2"]


def test_weights_typeD_rows_are_weight_D(capsys):
    # each unordered pair is one row at its first shape in double_partitions
    # order; a symmetric shape is two rows _1, _2 of half its dimension
    q = Rat(347, 512)
    for n in range(1, 7):
        code, out, _ = run(capsys, ["weights", "--type", "D", "--n", str(n),
                                    "--q", str(q)])
        assert code == 0
        rows = weight_D(n, n + 1, n + 1, q1_point(q))
        want, seen = [], set()
        for alpha, beta in double_partitions(n):
            if (beta, alpha) in seen:
                continue
            seen.add((alpha, beta))
            label, d = shape_str((alpha, beta)), dimension((alpha, beta))
            entries = [row for row in rows if row[0] == (alpha, beta)]
            if alpha == beta:
                assert [split for _, split, _, _ in entries] == [1, 2]
                want += [{"shape": f"{label}_{split}", "weight": str(w),
                          "dimension": d // 2} for _, split, w, _ in entries]
            else:
                assert [split for _, split, _, _ in entries] == [None]
                want.append({"shape": label, "weight": str(entries[0][2]),
                             "dimension": d})
        assert len(rows) == len(want)
        assert json.loads(out)["weights"] == want


def test_weights_typeD_needs_a_size(capsys):
    # n is checked before q, so an excluded q at n = 0 reports the size
    for q in ("2", "0"):
        assert run(capsys, ["weights", "--type", "D", "--n", "0",
                            "--q", q]) \
            == (2, "", "error: type D needs --n >= 1\n")


def test_weights_output_round_trips(capsys):
    """Both formats print exactly the bytes json.dumps(indent=2) and
    csv.writer print for the data they hold, and hold the same rows: types
    A, B and D, n = 0..6, a negative Q, and row bounds that give zero
    weights."""
    zeros = 0
    for kind, n, bounds in itertools.product(
            "ABD", range(7), [(), (0, 3), (3, 0), (1, 5)]):
        if kind == "D" and n == 0:
            continue
        argv = ["weights", "--type", kind, "--n", str(n), "--q", "347/512"]
        argv += ["--Q", "-3/2"] if kind == "B" else []
        for name, r in zip(("--r1", "--r2"), bounds):
            argv += [name, str(r)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out == reprinted(out), argv
        code, table, err = run(capsys, argv + ["--format", "csv"])
        assert (code, err) == (0, ""), argv
        assert table == reprinted(table), argv
        rows = [[w["shape"], w["weight"], str(w["dimension"])]
                for w in json.loads(out)["weights"]]
        assert list(csv.reader(io.StringIO(table))) \
            == [["shape", "weight", "dimension"]] + rows, argv
        zeros += sum(weight == "0" for _, weight, _ in rows)
    assert zeros > 0


def test_typeD_markov_property_counts_each_h_once(capsys):
    """Every type-D word of size 1 is empty, so at n = 2 the Markov check
    has one case per point.  The inclusion check compares each type-D class
    once: {[2]|[], []|[2]}, {[1,1]|[], []|[1,1]} and the split [1]|[1]."""
    for points in (1, 3):
        code, out, _ = run(capsys, ["verify", "--suite", "typeD", "--n", "2",
                                    "--points", str(points)])
        assert code == 0
        cases = {c["name"]: c["cases"] for c in json.loads(out)["checks"]}
        assert cases["typeD-markov-property-n2"] == points
        assert cases["typeD-inclusion-weights-n2"] == 3 * points


def test_markov_suite_counts_each_h_once(capsys):
    """The suite draws five words h per point from ``random.Random(seed)``;
    the Markov and t' checks compare each distinct h once, and none at
    n = 1."""
    n, seed, points = 2, 9, 2
    rng = random.Random(seed)
    distinct = sum(len({random_word(n - 1, rng) for _ in range(5)})
                   for _ in range(points))
    assert distinct < 5 * points  # the draw repeats a word
    code, out, _ = run(capsys, ["verify", "--suite", "markov", "--n", str(n),
                                "--seed", str(seed), "--points", str(points)])
    assert code == 0
    cases = {c["name"]: c["cases"] for c in json.loads(out)["checks"]}
    assert cases["markov-property-n2"] == distinct
    assert cases["tprime-property-n2"] == distinct
    # at n = 1 there is no g_0 to append, so no h is drawn
    code, out, _ = run(capsys, ["verify", "--suite", "markov", "--n", "1",
                                "--seed", str(seed), "--points", str(points)])
    assert code == 0
    cases = {c["name"]: c["cases"] for c in json.loads(out)["checks"]}
    assert cases["markov-property-n1"] == cases["tprime-property-n1"] == 0


def test_weights_requires_Q_for_type_B(capsys):
    code, _, err = run(capsys, ["weights", "--type", "B", "--n", "2",
                                "--q", "2"])
    assert code == 2
    assert "--Q" in err


def test_excluded_parameter_exits_2(capsys):
    code, _, err = run(capsys, ["weights", "--type", "B", "--n", "2",
                                "--q", "2", "--Q", "-4"])
    assert code == 2
    assert "Q = -q^2 is excluded" in err
    for kind in ("A", "D"):
        for q in ("1", "0", "-2"):
            code, _, err = run(capsys, ["weights", "--type", kind, "--n", "2",
                                        "--q", q])
            assert code == 2
            assert err.startswith(f"error: q = {q} is excluded")


def test_negative_rational_after_a_space(capsys):
    """A value such as -3/2 may follow its option after a space, as well as
    after "="."""
    for argv in (["weights", "--type", "B", "--n", "1", "--q", "2",
                  "--Q", "-3/2"],
                 ["trace", "--word", "t g1", "--n", "2", "--q", "2",
                  "--Q", "-3/2"]):
        code, out, err = run(capsys, argv)
        assert code == 0, err
        joined = argv[:-2] + ["--Q=-3/2"]
        assert (code, out) == run(capsys, joined)[:2], argv
    code, _, err = run(capsys, ["weights", "--type", "A", "--n", "1",
                                "--q", "-3/2"])
    assert code == 2
    assert err.startswith("error: q = -3/2 is excluded")


def test_closed_stdout_ends_without_traceback():
    """A reader that closes the pipe early (as "| head" does) ends the
    command quietly, without a BrokenPipeError traceback.  The table is
    larger than a pipe buffer, so the write fails for certain."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "heckeweights.cli", "weights", "--type", "B",
         "--n", "8", "--q", "347/512", "--Q", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_trace_value(capsys):
    code, out, _ = run(capsys, ["trace", "--word", "t", "--n", "1",
                                "--r1", "1", "--r2", "1", "--q", "2",
                                "--Q", "5"])
    assert code == 0
    assert out.strip() == "8/3"


def test_trace_reference_values(capsys):
    """Every trace the benchmark's trace-hot workload checks, replayed
    in-process: the recorded value is exact, so a wrong trace fails here
    and not only in a benchmark run."""
    doc = json.loads((ROOT / "perfbench" / "trace_reference.json").read_text())
    for argv, value in doc["values"]:
        assert run(capsys, argv) == (0, value + "\n", ""), argv
    assert len(doc["values"]) == 776


def test_trace_empty_word(capsys):
    code, out, _ = run(capsys, ["trace", "--word", "", "--n", "3",
                                "--q", "2", "--Q", "5"])
    assert code == 0
    assert out.strip() == "1"


def test_trace_bad_token(capsys):
    code, _, err = run(capsys, ["trace", "--word", "xyz", "--n", "2",
                                "--q", "2", "--Q", "5"])
    assert code == 2
    assert "bad word token" in err


def test_trace_index_out_of_range(capsys):
    # one error line names the letter the algebra lacks by the token typed,
    # in the prefix or last
    for text, n, letter in (("g5 t", 1, "g5"), ("t u", 1, "u"),
                            ("t'-1", 2, "t'-1"), ("g1 G2", 2, "G2")):
        code, _, err = run(capsys, ["trace", "--word", text, "--n", str(n),
                                    "--q", "2", "--Q", "5"])
        assert code == 2
        assert err == f"error: no letter {letter} in a representation of " \
                      f"size {n}\n"


def test_usage_errors(capsys):
    assert cli.main(["weights", "--type", "X", "--n", "2", "--q", "2"]) == 2
    capsys.readouterr()
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["weights", "--type", "A", "--n", "2",
                     "--q", "abc"]) == 2
    capsys.readouterr()
    assert cli.main(["weights", "--type", "B", "--n", "2",
                     "--q", "2", "--Q", "3/0"]) == 2
    capsys.readouterr()
    for argv in (
            ["weights", "--type", "B", "--n", "2", "--q", "2", "--Q", "5",
             "--r1", "0", "--r2", "0"],
            ["weights", "--type", "A", "--n", "2", "--q", "2",
             "--r1", "0", "--r2", "0"],
            ["weights", "--type", "D", "--n", "2", "--q", "2",
             "--r1", "0", "--r2", "0"],
            ["weights", "--type", "D", "--n", "2", "--q", "2", "--r1", "-3"],
            ["weights", "--type", "D", "--n", "0", "--q", "2"],
            ["trace", "--word", "t", "--n", "1", "--r1", "-1", "--q", "2",
             "--Q", "5"],
            ["trace", "--word", "t", "--n", "0", "--q", "2", "--Q", "5"],
            ["verify", "--suite", "markov", "--n", "0"],
            ["verify", "--suite", "hom", "--n", "0"],
            ["verify", "--suite", "relations", "--points", "0"],
            ["verify", "--suite", "relations", "--points", "-1"],
            [],
            ["weights", "--type"],
            ["trace", "--wo", "t", "--n", "1", "--q", "2", "--Q", "5"],
            ["trace", "--word", "t", "--n", "1", "--q", "2"]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    assert cli.main(["trace", "--word", "", "--n", "0", "--q", "2",
                     "--Q", "5"]) == 2
    assert capsys.readouterr().err == "error: trace needs --n >= 1\n"


def test_value_error_in_a_command_is_one_error_line(capsys, monkeypatch):
    # main reports a ValueError raised anywhere below it, not only in the
    # parsing of argv
    def fail(*_args):
        raise ValueError("no trace here")

    monkeypatch.setattr(cli, "markov_trace_B", fail)
    assert run(capsys, ["trace", "--word", "t", "--n", "1", "--q", "2",
                        "--Q", "5"]) == (2, "", "error: no trace here\n")


def test_help_lists_the_grammar(capsys):
    for argv in (["-h"], ["--help"], ["weights", "-h"], ["verify", "--help"]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(cli.COMMANDS)
        for line, (command, (_, spec)) in zip(lines, cli.COMMANDS.items()):
            assert f" {command} " in line, line
            for name in spec:
                assert f"--{name} " in line, (line, name)


def test_verify_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "relations", "--n", "2",
                                "--points", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]
    for check in doc["checks"]:
        assert set(check) == {"name", "paper_ref", "pass", "cases",
                              "failure"}
        assert check["pass"] is True
        assert check["cases"] > 0
        assert check["failure"] is None


def test_hom_suite_honours_n(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "hom", "--n", "4",
                                "--points", "1"])
    assert code == 0
    cases = {c["name"]: c["cases"] for c in json.loads(out)["checks"]}
    # one case per shape of size 4 and generator t, g1, g2, g3
    assert cases["character-match-n4"] == len(double_partitions(4)) * 4


def test_verify_all_suites_listed(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--n", "2",
                                "--points", "1"])
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert len(names) == len(set(names)) == 21


def test_every_check_runs_in_verify(capsys, monkeypatch):
    """verify --suite all reaches every public check of the catalogue."""
    checks = [name for name, fn in vars(homcheck).items()
              if inspect.isfunction(fn) and fn.__module__ == homcheck.__name__
              and not name.startswith("_") and name != "identity"]
    called = set()

    def recording(name, fn):
        def check(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return check

    for name in checks:
        monkeypatch.setattr(homcheck, name,
                            recording(name, getattr(homcheck, name)))
    code, _, _ = run(capsys, ["verify", "--suite", "all", "--n", "2",
                              "--points", "1"])
    assert code == 0
    assert len(checks) == 18
    assert sorted(set(checks) - called) == []


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "relations",
                        lambda n, seed, points: [
                            homcheck.Report("forced", "none", cases=1,
                                            failure="forced failure")])
    code, out, _ = run(capsys, ["verify", "--suite", "relations"])
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["pass"] is False
    assert check["failure"] == "forced failure"


def test_verify_failure_names_counterexample(capsys, monkeypatch):
    real = homcheck.weight_B
    broken = ((1,), ())

    def weight_B(shape, r1, r2, point):
        w = real(shape, r1, r2, point)
        return 2 * w if shape == broken else w

    monkeypatch.setattr(homcheck, "weight_B", weight_B)
    code, out, _ = run(capsys, ["verify", "--suite", "branching", "--n", "2",
                                "--points", "1"])
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["name"] == "weight-branching-n2"
    assert check["pass"] is False
    # the first case, the empty shape, already sees the doubled successor
    p = admissible_point(2, 4, 4, 0)
    lhs = real(((), ()), 4, 4, p)
    rhs = 2 * real(broken, 4, 4, p) + real(((), (1,)), 4, 4, p)
    assert check["failure"] == (
        f"weight of []|[] = sum over its successors [1]|[], []|[1] at "
        f"q = {p.q}, Q = {p.Q}: {lhs} != {rhs}")
    assert "/" in str(rhs)


def test_verify_prints_the_bytes_of_json_dumps(capsys, monkeypatch):
    """verify prints exactly json.dumps(indent=2) of its document: for every
    suite at n = 1..3, and for reports whose texts hold a quote, a
    backslash and non-ASCII characters."""
    for suite, n in itertools.product([*cli.SUITES, "all"], range(1, 4)):
        code, out, err = run(capsys, ["verify", "--suite", suite, "--n",
                                      str(n), "--points", "1"])
        assert (code, err) == (0, ""), (suite, n)
        assert out == reprinted(out), (suite, n)
    reports = [homcheck.Report('odd "name"', "Eq. (9) \\ \u00a7 5", cases=2,
                               failure='"quoted" \\ value, q \u2260 1 \u00e9'),
               homcheck.Report("fine", "", cases=0)]
    monkeypatch.setitem(cli.SUITES, "relations",
                        lambda n, seed, points: reports)
    code, out, _ = run(capsys, ["verify", "--suite", "relations", "--n", "2",
                                "--seed", "-4", "--points", "7"])
    assert code == 1
    doc = {"params": {"n": 2, "seed": -4, "points": 7, "suite": "relations"},
           "checks": [{"name": r.name, "paper_ref": r.paper_ref,
                       "pass": r.passed, "cases": r.cases,
                       "failure": r.failure} for r in reports]}
    assert out == json.dumps(doc, indent=2) + "\n"


def test_verify_deterministic(capsys):
    argv = ["verify", "--suite", "markov", "--n", "2", "--seed", "3",
            "--points", "2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_weights_deterministic(capsys):
    argv = ["weights", "--type", "B", "--n", "3", "--q", "5/4", "--Q", "7/2",
            "--format", "csv"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_commands_back_to_back_match_single_runs(capsys):
    """weights, trace and verify run in one process, one after another and
    twice over, print what each prints alone in a fresh process."""
    argvs = [
        ["weights", "--type", "D", "--n", "3", "--q", "5/4", "--format", "csv"],
        ["trace", "--word", "t g1 G2 t'1", "--n", "3", "--q", "2",
         "--Q", "-7/3"],
        ["verify", "--suite", "typeD", "--n", "2", "--seed", "1",
         "--points", "1"],
        ["weights", "--type", "B", "--n", "3", "--r1", "1", "--q", "3/7",
         "--Q", "-5/2"],
    ]
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    single = [subprocess.run([sys.executable, "-m", "heckeweights.cli"]
                             + argv, capture_output=True, text=True, env=env)
              for argv in argvs]
    for _ in range(2):
        for argv, alone in zip(argvs, single):
            code, out, _ = run(capsys, argv)
            assert (code, out) == (alone.returncode, alone.stdout), argv
