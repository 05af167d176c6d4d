"""The package surface that the benchmark under perfbench/ reads.

perfbench wraps the functions named in ``tracer.TARGETS`` and imports
names from conjspaces in its child processes.  No other test installs
the tracer, so a renamed or deleted target would otherwise break only a
traced benchmark run.  Both lists are read from the perfbench sources
with the stdlib ``ast``, without importing or running them.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tracer_targets() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def package_imports() -> list[tuple[str, str | None]]:
    """(module, name) for each import of conjspaces in perfbench, once;
    name is None for a plain ``import conjspaces.x``."""
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                out |= {(a.name, None) for a in node.names
                        if a.name.split(".")[0] == "conjspaces"}
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "conjspaces"):
                out |= {(node.module, a.name) for a in node.names}
    return sorted(out, key=lambda t: (t[0], t[1] or ""))


def test_surface_is_found():
    targets = tracer_targets()
    assert ("steenrod", "UnstableAlgebra.sq") in targets
    assert ("frames", "kappa_shadow_check") in targets
    assert ("conjspaces", "SpaceModel") in package_imports()


@pytest.mark.parametrize("module, path", tracer_targets(),
                         ids=[f"{m}.{p}" for m, p in tracer_targets()])
def test_tracer_target_resolves(module, path):
    owner = importlib.import_module(f"conjspaces.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("module, name", package_imports(),
                         ids=[m if n is None else f"{m}.{n}"
                              for m, n in package_imports()])
def test_perfbench_import_resolves(module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule
