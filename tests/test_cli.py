import csv
import io
import json

import pytest

from heckeweights import cli


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


def test_trace_value(capsys):
    code, out, _ = run(capsys, ["trace", "--word", "t", "--n", "1",
                                "--r1", "1", "--r2", "1", "--q", "2",
                                "--Q", "5"])
    assert code == 0
    assert out.strip() == "8/3"


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
    code, _, err = run(capsys, ["trace", "--word", "g5", "--n", "2",
                                "--q", "2", "--Q", "5"])
    assert code == 2
    code, _, err = run(capsys, ["trace", "--word", "u", "--n", "1",
                                "--q", "2", "--Q", "5"])
    assert code == 2
    assert "u = t g1 t needs n >= 2" in err


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


def test_verify_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "relations", "--n", "2",
                                "--points", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]
    for check in doc["checks"]:
        assert set(check) == {"name", "paper_ref", "pass"}
        assert check["pass"] is True


def test_verify_all_suites_listed(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--n", "2",
                                "--points", "1"])
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert len(names) == len(set(names))
    assert len(names) >= 15


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "relations",
                        lambda n, seed, points: [
                            {"name": "forced", "paper_ref": "none",
                             "pass": False}])
    code, out, _ = run(capsys, ["verify", "--suite", "relations"])
    assert code == 1
    assert json.loads(out)["checks"][0]["pass"] is False


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
