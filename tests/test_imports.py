"""The import graph between spindiode's modules, read from the source with ast."""

import ast
import graphlib
from pathlib import Path

import spindiode

PACKAGE = Path(spindiode.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def package_imports() -> dict[tuple[str, str], bool]:
    """{(importer, imported): True if every such import sits inside a function}.

    Imports inside functions count.  ``__init__`` is left out: every module needs
    the package first anyway, and ``from . import __version__`` reads no module.
    """
    edges = {}
    for name in sorted(MODULES):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        deferred = {id(node) for f in functions for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spindiode."):
                targets = [node.module.split(".")[1]]
            elif isinstance(node, ast.Import):
                targets = [a.name.split(".")[1] for a in node.names if a.name.startswith("spindiode.")]
            else:
                continue
            for target in MODULES.intersection(targets):
                edges[name, target] = edges.get((name, target), True) and id(node) in deferred
    return edges


def test_only_import_cycle_is_the_deferred_observables_import_in_steadystate():
    edges = package_imports()
    assert edges["observables", "steadystate"] is False
    assert edges["steadystate", "observables"] is True  # convergence_fidelity imports it when called
    graph = {name: set() for name in MODULES}
    for a, b in edges:
        if (a, b) != ("steadystate", "observables"):
            graph[a].add(b)
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on any other cycle
    assert ("liouville", "jordanwigner") not in edges
