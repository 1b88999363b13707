"""The library runs on the standard library alone, and a run loads no
OpenSSL."""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "subdivlab"

# CPython's built-in SHA-256 module is `_sha2` from 3.12 on and `_sha256`
# before; `sys.stdlib_module_names` lists only the one of the running
# interpreter, and `graphs` tries both
BUILTIN_SHA256 = {"_sha2", "_sha256"}


def test_library_imports_only_the_standard_library():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if (top != "subdivlab" and top not in sys.stdlib_module_names
                        and top not in BUILTIN_SHA256):
                    foreign.append("%s: %s" % (path.name, name))
    assert list(SRC.glob("*.py"))
    assert foreign == []


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in BUILTIN_SHA256),
    reason="this Python build has no built-in SHA-256 module, so the graph "
           "hash comes from hashlib")
def test_run_loads_no_openssl(tmp_path):
    graph = tmp_path / "k4.json"
    graph.write_text(json.dumps(
        {"generators": ["a", "b", "c", "d"],
         "edges": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"],
                   ["b", "d"], ["c", "d"]]}))
    script = ("import sys\n"
              "from subdivlab.cli import main\n"
              "code = main(['run', sys.argv[1], '--levels', '2', '--out', "
              "sys.argv[2]])\n"
              "print(code, '_hashlib' in sys.modules)\n")
    out = subprocess.run(
        [sys.executable, "-c", script, str(graph), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "False"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["meta"]["graph_hash"] == "d64f1e83c91988d7"
