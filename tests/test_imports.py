import ast
import graphlib
from pathlib import Path

import grushko

PACKAGE = Path(grushko.__file__).parent


def _import_graph():
    """Module -> the package modules it imports relatively, at any depth of
    the file (function-level imports included)."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else [a.name for a in node.names])
        graph[path.stem] = deps
    return graph


def test_package_imports_are_acyclic():
    graph = _import_graph()
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError("import cycle: " + " -> ".join(exc.args[1])) from None
    assert graph["factors"] == {"words"}
