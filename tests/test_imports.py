"""The import graph between spindiode's modules, read from the source with ast."""

import ast
import graphlib
from pathlib import Path

import spindiode

PACKAGE = Path(spindiode.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def package_imports() -> set[tuple[str, str]]:
    """{(importer, imported)} over the package's modules.

    Imports inside functions count.  ``__init__`` is left out: every module needs
    the package first anyway, and ``from . import __version__`` reads no module.
    """
    edges = set()
    for name in sorted(MODULES):
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spindiode."):
                targets = [node.module.split(".")[1]]
            elif isinstance(node, ast.Import):
                targets = [a.name.split(".")[1] for a in node.names if a.name.startswith("spindiode.")]
            else:
                continue
            edges.update((name, target) for target in MODULES.intersection(targets))
    return edges


def test_import_graph_is_acyclic():
    edges = package_imports()
    graph = {name: set() for name in MODULES}
    for a, b in edges:
        graph[a].add(b)
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on any cycle
    assert ("liouville", "jordanwigner") not in edges
