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



# the Δ(P) builders that perfbench's fibers and unpaired checks still call
KEPT_ORDER_COMPLEX_BUILDERS = {"Poset.order_complex", "PartialBasisComplex.order_complex"}


class _OrderComplexCalls(ast.NodeVisitor):
    """(enclosing function, method) for each call of .chains() or .order_complex()."""

    def __init__(self):
        self.scope, self.found = [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("chains", "order_complex"):
            self.found.append((".".join(self.scope) or "<module>", node.func.attr))
        self.generic_visit(node)


def test_src_takes_homology_on_face_complexes():
    """No criterion, report or CLI path builds an order complex: only the kept
    builders call .chains() or .order_complex()."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        calls = _OrderComplexCalls()
        calls.visit(ast.parse(path.read_text(), str(path)))
        callers.update(caller for caller, _ in calls.found)
        stray = [c for c in calls.found if c[0] not in KEPT_ORDER_COMPLEX_BUILDERS]
        assert not stray, (path.name, stray)
    assert callers == KEPT_ORDER_COMPLEX_BUILDERS


# Word-level helpers that the unpaired build replaces by work on letter tuples
WORD_ROUND_TRIPS = {"conjugate", "involution_core", "core_path", "is_basis"}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_unpaired_build_stays_on_letter_tuples():
    """build_unpaired_radius, and every function and class of basis_complex
    it reaches, name none of the Word-level helpers: descent bases, the
    single-class fix-up, the relabeled paths and bases of the combination
    phase and its checks run on letter tuples, and Words are made only for
    the stored certificates."""
    tree = ast.parse((PACKAGE / "basis_complex.py").read_text())
    scopes = {node.name: node for node in tree.body
              if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    reached, todo = set(), ["build_unpaired_radius"]
    while todo:
        name = todo.pop()
        reached.add(name)
        used = _names(scopes[name])
        assert not used & WORD_ROUND_TRIPS, (name, used & WORD_ROUND_TRIPS)
        todo.extend(used & scopes.keys() - reached)
    assert {"_Descent", "_Relabel", "_mask_pairs", "_place_pairs", "_basis_holds"} <= reached


# the Word-level names that fiber certification leaves to certify_partial_basis
FIBER_WORD_NAMES = {"Word", "is_basis", "certify_partial_basis"}


def test_fiber_certification_stays_on_letter_tuples():
    """bp_fiber, and every function and class of visibility it reaches,
    name no Word, is_basis or certify_partial_basis: each class's member
    and each selection's basis test run on letter tuples."""
    tree = ast.parse((PACKAGE / "visibility.py").read_text())
    scopes = {node.name: node for node in tree.body
              if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    reached, todo = set(), ["bp_fiber"]
    while todo:
        name = todo.pop()
        reached.add(name)
        used = _names(scopes[name])
        assert not used & FIBER_WORD_NAMES, (name, used & FIBER_WORD_NAMES)
        todo.extend(used & scopes.keys() - reached)
    assert {"visible_classes", "_conjugated_member", "_basis_letters", "is_visible"} <= reached
