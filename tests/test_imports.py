"""The import graph of the nullcert modules, read from their source, and
the modules each subcommand and input loads, seen in fresh interpreters.

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
# cli's load groups
ALGEBRA = {"nullcert.assemble", "nullcert.linsolve"}
GRAPH = {"nullcert.encode", "nullcert.graphs"}
SYMMETRY = {"nullcert.symmetry"}
PROVE_STACK = ALGEBRA | GRAPH | SYMMETRY
JSON = {"json"}  # loaded by nullcert.certificate to read or write a certificate
QUADRIC = "q x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n"  # no point over GF(3)


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
    # the degree loop knows no colorings: the common-root check lives with
    # the coloring encoding
    assert not graph["nullcert.assemble"] & {"nullcert.encode", "nullcert.graphs"}


def test_no_module_imports_another_modules_private_name():
    private = [
        (path.name, module, name)
        for path in sorted(SRC.glob("*.py"))
        for module, names in imports(path)
        for name in names
        if name.startswith("_")
    ]
    assert private == []


def test_every_module_level_import_is_used_or_exported():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.extend(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]:
                exported = set(ast.literal_eval(node.value))
        unused.extend(f"{path.name}: {name}" for name in bound if name not in used | exported)
    assert unused == []


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
    (tmp_path / "quadric.txt").write_text(QUADRIC)
    (tmp_path / "line.txt").write_text("l x1+x2\n")  # a line has points: no certificate
    # a 5-cycle is 3-colorable: prove ends at its common root
    (tmp_path / "c5.col").write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    (tmp_path / "rim.txt").write_text("(1,2,3,4)\n")
    system = ("--system", "quadric.txt", "--p", "3")
    # one row per input: argv, exit code, the modules it loads, those it does
    # not; json only where a certificate is read or written
    table = [
        (("prove", "--gen", "complete:4", "--cert", str(cert)), 0, ALGEBRA | GRAPH | JSON, SYMMETRY),
        (("prove", *system), 0, ALGEBRA | JSON, GRAPH | SYMMETRY),
        (("prove", *system, "--alt-g", "auto:2"), 0, ALGEBRA, GRAPH | SYMMETRY),
        (("prove", "--system", "line.txt", "--p", "3"), 10, ALGEBRA, GRAPH | SYMMETRY | JSON),
        (("stats", *system), 0, ALGEBRA, GRAPH | SYMMETRY | JSON),
        (("encode", "--gen", "complete:4"), 0, GRAPH, ALGEBRA | SYMMETRY | JSON),
        (("gen", "complete:4"), 0, GRAPH, ALGEBRA | SYMMETRY | JSON),
        (("prove", "--input", "c5.col"), 10, GRAPH, ALGEBRA | SYMMETRY | JSON),
        (("prove", "--gen", "complete:4", "--symmetry", "rim.txt"), 0, PROVE_STACK, set()),
        (("verify", str(cert)), 0, {"nullcert.certificate"} | JSON, PROVE_STACK),
        (("--help",), 0, set(), PROVE_STACK | JSON),
    ]
    assert "nullcert.cli" not in bare
    for argv, code, loads, skips in table:
        rc, modules = loaded("-m", "nullcert.cli", *argv, cwd=tmp_path)
        assert rc == code and loads <= modules and not skips & (modules - bare), argv
        # prove's input fingerprint is the builtin sha256: OpenSSL stays out
        assert not {"hashlib", "_hashlib"} & (modules - bare), argv
        assert "dataclasses" not in modules - bare, argv


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


def test_each_load_group_runs_a_patch_set_before_it_loads(tmp_path):
    # a patch set on cli before its load group loads is what the command
    # runs, and setting it loads nothing
    (tmp_path / "quadric.txt").write_text(QUADRIC)
    (tmp_path / "rim.txt").write_text("(1,2,3,4)\n")
    child = """
import json, sys
import nullcert.cli as cli
calls = []
def nulla_prove(*args, **kwargs):
    calls.append("nulla_prove")
    from nullcert.assemble import nulla_prove
    return nulla_prove(*args, **kwargs)
def parse_generators(text, n_vars):
    calls.append("parse_generators")
    from nullcert.symmetry import parse_generators
    return parse_generators(text, n_vars)
cli.nulla_prove, cli.parse_generators = nulla_prove, parse_generators
before = sorted(m for m in sys.modules if m.startswith("nullcert."))
rc = cli.main(["prove", "--system", "quadric.txt", "--p", "3"])
unreached = sorted(m for m in sys.modules if m in ("nullcert.encode", "nullcert.graphs", "nullcert.symmetry"))
rc_symmetry = cli.main(["prove", "--gen", "complete:4", "--symmetry", "rim.txt"])
print(json.dumps([before, rc, unreached, rc_symmetry, calls]))
"""
    rc, out, err = python("-c", child, cwd=tmp_path)
    assert rc == 0, err
    before, system_rc, unreached, symmetry_rc, calls = json.loads(out.splitlines()[-1])
    assert before == ["nullcert.certificate", "nullcert.cli", "nullcert.poly"]
    assert (system_rc, unreached, symmetry_rc) == (0, [], 0)
    assert calls == ["nulla_prove", "parse_generators", "nulla_prove"]
