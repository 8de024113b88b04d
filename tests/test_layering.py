"""The package graph: ``repro.api`` is the top layer and nothing reaches up.

Two checks, static and dynamic:

* every ``repro.*`` import in ``src/repro`` — at any nesting depth, so a
  function-local import cannot hide an upward edge — is folded into a
  package-level graph that must be acyclic with no allow-listed edge, and
  only the facades may import ``repro.api`` (the planner the ``repro.hydra``
  facade re-exports lives below it, in ``repro.scheduler``); ``repro.memory``
  sits below ``repro.training`` (executors lease shards from it) and must
  not import it;
* in a fresh interpreter, importing every layer below the API must not load
  a single ``repro.api`` module.
"""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: the only modules outside ``repro.api`` that may import it: the facades
API_IMPORTERS = {"repro", "repro.hydra"}

BELOW_THE_API = ("runtime", "memory", "training", "serving", "selection", "scheduler")


def _is_type_checking(test: ast.expr) -> bool:
    name = test.id if isinstance(test, ast.Name) else getattr(test, "attr", None)
    return name == "TYPE_CHECKING"


class _ReproImports(ast.NodeVisitor):
    """Collects the ``repro.*`` module names one module imports."""

    def __init__(self):
        self.found = []

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking(node.test):
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        self.found += [alias.name for alias in node.names]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        assert node.level == 0, "src/repro uses absolute imports only"
        # ``from repro import api`` names a submodule, not an attribute, so
        # record ``module.name`` too; both fold onto the same package.
        self.found += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]


def _imports_by_module():
    """``{module name: [imported repro.* names]}`` over all of ``src/repro``."""
    imports = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visitor = _ReproImports()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        imports[module] = [
            name for name in visitor.found if name == "repro" or name.startswith("repro.")
        ]
    return imports


def _top(module: str) -> str:
    """``repro.serving.router`` -> ``serving``; the root package -> ``repro``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def test_only_the_facades_import_the_api():
    offenders = sorted(
        f"{module} imports {name}"
        for module, names in _imports_by_module().items()
        if _top(module) != "api" and module not in API_IMPORTERS
        for name in names
        if name == "repro.api" or name.startswith("repro.api.")
    )
    assert not offenders, offenders


def test_package_graph_is_acyclic():
    modules = _imports_by_module()
    tops = {_top(module) for module in modules}
    graph = defaultdict(set)
    for module, names in modules.items():
        for name in names:
            source, target = _top(module), _top(name)
            # The root package only re-exports lazily; it is not a layer.
            if target in tops and target != source and "repro" not in (source, target):
                graph[source].add(target)

    state, cycles = {}, []

    def visit(node, trail):
        state[node] = "open"
        for target in sorted(graph[node]):
            if state.get(target) == "open":
                cycles.append(" -> ".join(trail[trail.index(target):] + [target]))
            elif target not in state:
                visit(target, trail + [target])
        state[node] = "done"

    for node in sorted(graph):
        if node not in state:
            visit(node, [node])
    assert not cycles, cycles


def test_layers_below_the_api_import_without_it():
    names = ", ".join(f"repro.{name}" for name in BELOW_THE_API)
    code = (
        f"import sys, {names}\n"
        "print(sorted(m for m in sys.modules if m == 'repro.api' "
        "or m.startswith('repro.api.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", result.stdout


def test_memory_does_not_import_training():
    offenders = sorted(
        f"{module} imports {name}"
        for module, names in _imports_by_module().items()
        if _top(module) == "memory"
        for name in names
        if _top(name) == "training"
    )
    assert not offenders, offenders
