"""The import graph of the nullcert modules, read from their source.

Every import statement counts, a function-level one included: importing on
use hides a dependency without removing it.
"""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nullcert"


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
