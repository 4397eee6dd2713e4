"""numpy is loaded on the first array, never on the weights path.

The commands run in a fresh interpreter with ``src/`` on its path: pytest
has loaded numpy already, so only a new process can see what importing and
running heckeweights loads."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from heckeweights import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the commands of argv[3] (a JSON list), after blocking numpy when
# argv[2] is "blocked"; prints whether importing heckeweights loaded numpy,
# then (exit code, stdout, stderr, numpy loaded) per command, as JSON.
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None
import heckeweights
from heckeweights import cli
rows = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[3]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    rows.append([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules])
print(json.dumps(rows))
"""

WEIGHTS = [["weights", "--type", kind, "--n", "3", "--q", "2", *extra,
            "--format", fmt]
           for kind, extra in (("A", []), ("B", ["--Q", "5"]), ("D", []))
           for fmt in ("json", "csv")]
NUMPY_FREE = [["-h"], *WEIGHTS, ["verify", "--suite", "schur", "--n", "2"],
              ["verify", "--suite", "branching", "--n", "2"]]
TRACE = ["trace", "--word", "t g1 t", "--n", "3", "--q", "2", "--Q", "5"]


def fresh(mode, commands):
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), mode, json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(result.stdout)


def in_process(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return [code, out.out, out.err]


def test_weights_never_load_numpy(capsys):
    imported, *rows = fresh("fresh", NUMPY_FREE + [TRACE])
    assert not imported
    for argv, (*output, loaded) in zip(NUMPY_FREE + [TRACE], rows):
        assert output == in_process(capsys, argv), argv
        assert output[0] == 0, argv
        assert loaded == (argv is TRACE), argv


def test_weights_run_without_numpy(capsys):
    _, *rows = fresh("blocked", WEIGHTS)
    for argv, (*output, _) in zip(WEIGHTS, rows):
        assert output[0] == 0, argv
        assert output == in_process(capsys, argv), argv


def eager_numpy_imports(source):
    """Lines of the imports of numpy that run when the module is imported:
    every one outside a function body."""
    lines, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [a.name for a in node.names] if isinstance(node, ast.Import) \
            else [node.module or ""] if isinstance(node, ast.ImportFrom) \
            else []
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_no_module_level_numpy_import():
    assert eager_numpy_imports(
        "import numpy as np\nclass C:\n    from numpy import linalg\n"
        "def f():\n    import numpy\n") == [1, 3]
    eager = [f"{path.name} line {line}"
             for path in sorted((SRC / "heckeweights").glob("*.py"))
             for line in eager_numpy_imports(path.read_text())]
    assert eager == []
