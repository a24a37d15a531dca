"""The import graph of the nullcert modules, read from their source, and
the modules each subcommand loads, seen in fresh interpreters.

Every import statement counts, a function-level one included: importing on
use hides a dependency without removing it.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nullcert"
PROVE_STACK = {"nullcert.assemble", "nullcert.linsolve", "nullcert.encode", "nullcert.graphs", "nullcert.symmetry"}


def imports(path):
    """(module, names) of each import statement in the file, at any depth."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path.name}: relative import"
            out.append((node.module, tuple(alias.name for alias in node.names)))
    return out


def test_module_import_graph_has_no_cycle():
    graph = {}
    for path in SRC.glob("*.py"):
        name = "nullcert" if path.stem == "__init__" else f"nullcert.{path.stem}"
        graph[name] = {
            module for module, _ in imports(path)
            if module.partition(".")[0] == "nullcert" and module != name
        }
    # raises CycleError, naming the cycle, if there is one
    TopologicalSorter(graph).prepare()
    # the orbit collapse builds on the group code, never the other way round
    assert not graph["nullcert.symmetry"] & {"nullcert.assemble", "nullcert.linsolve"}


def test_symmetry_imports_no_private_name():
    private = [
        (module, name)
        for module, names in imports(SRC / "symmetry.py")
        for name in names
        if name.startswith("_")
    ]
    assert private == []


def python(*args, cwd=None):
    """A fresh interpreter with the package on its path; (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def loaded(*args, cwd=None):
    """The exit code and the modules imported by `python -X importtime <args>`."""
    rc, _, err = python("-X", "importtime", *args, cwd=cwd)
    return rc, {line.rpartition("|")[2].strip() for line in err.splitlines() if line.startswith("import time:")}


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    _, bare = loaded("-c", "pass")
    cert = tmp_path / "k4.json"
    rc, prove = loaded("-m", "nullcert.cli", "prove", "--gen", "complete:4", "--cert", str(cert), cwd=tmp_path)
    assert rc == 0 and PROVE_STACK <= prove
    rc, verify = loaded("-m", "nullcert.cli", "verify", str(cert))
    assert rc == 0 and "nullcert.certificate" in verify
    rc, usage = loaded("-m", "nullcert.cli", "--help")
    assert rc == 0 and "nullcert.cli" not in bare
    for modules in (verify, usage):
        assert not modules & PROVE_STACK
    for modules in (prove, verify, usage):
        # prove's input fingerprint is the builtin sha256: OpenSSL stays out
        assert not {"hashlib", "_hashlib"} & (modules - bare)
        assert "dataclasses" not in modules - bare


def test_load_system_file_runs_before_the_prove_stack(tmp_path):
    # a library caller reads a system before any command has loaded the
    # prove stack; the fingerprint imports its own hash
    path = tmp_path / "quadric.txt"
    path.write_text("q x1^2+2\nl1 x1+x2\n")
    child = """
import sys
import nullcert.cli as cli
F, meta = cli.load_system_file(sys.argv[1], 3)
print(len(F), meta["sha256"])
"""
    rc, out, err = python("-c", child, str(path))
    assert rc == 0, err
    digest = hashlib.sha256(b"q x1^2+2\nl1 x1+x2").hexdigest()
    assert out.split() == ["2", digest]


def test_tracer_names_resolve_on_the_cli_module(tmp_path):
    tracing = (ROOT / "perfbench" / "tracing.py").read_text()
    names = re.findall(r'self\._wrap\(cli, "(\w+)"', tracing) + ["find_coloring"]
    assert "nulla_prove" in names
    # find_coloring is patched before the prove stack loads, and the names
    # are read before any command runs; the command must run the patch, not
    # the original loaded after it
    child = """
import json, sys
import nullcert.cli as cli
before = sorted(m for m in sys.modules if m.startswith("nullcert."))
calls = []
cli.find_coloring = lambda g, k, touched=None: calls.append(k)
resolved = [n for n in json.loads(sys.argv[1]) if callable(getattr(cli, n))]
rc = cli.main(["prove", "--gen", "complete:4", "--cert", sys.argv[2]])
print(json.dumps([before, calls, rc, resolved, hasattr(cli, "no_such_name")]))
"""
    rc, out, err = python("-c", child, json.dumps(names), str(tmp_path / "k4.json"))
    assert rc == 0, err
    before, calls, prove_rc, resolved, unknown = json.loads(out.splitlines()[-1])
    assert before == ["nullcert.certificate", "nullcert.cli", "nullcert.poly"]
    assert calls == [3] and prove_rc == 0
    assert resolved == names and unknown is False
