"""The package surface that the benchmark under perfbench/ reads.

perfbench wraps the functions named in ``tracer.TARGETS``, imports
names from conjspaces in its child processes, and reads attributes off
the modules it imported (``ds.psi`` after ``self.ds = dual_steenrod``).
No other test runs those children, so a renamed or deleted name would
otherwise break only a benchmark run.  All three lists are read from the
perfbench sources with the stdlib ``ast``, without importing or running
them.
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


def dotted(node) -> str | None:
    """'a.b.c' for attributes read off a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def module_attributes() -> list[tuple[str, str]]:
    """(object, attribute) for each attribute perfbench reads off
    conjspaces or something it imported from it, once.  Within a file,
    names bound by an import of conjspaces, and names assigned from those
    (``self.ds = dual_steenrod``, then ``ds, kind = self.ds, ...``), are
    followed whatever the scope."""
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases: dict[str, str] = {}
        assigned = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname and a.name.split(".")[0] == "conjspaces":
                        aliases[a.asname] = a.name
                    elif a.name.split(".")[0] == "conjspaces":
                        aliases["conjspaces"] = "conjspaces"
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "conjspaces"):
                for a in node.names:
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Tuple)
                            and isinstance(node.value, ast.Tuple)):
                        assigned += zip(target.elts, node.value.elts)
                    else:
                        assigned.append((target, node.value))

        def resolve(name):
            """The conjspaces path that name stands for, or None."""
            parts = (name or "").split(".")
            for cut in range(len(parts), 0, -1):
                head = ".".join(parts[:cut])
                if head in aliases:
                    return ".".join([aliases[head], *parts[cut:]])
            return None

        grown = True
        while grown:
            grown = False
            for target, value in assigned:
                name, found = dotted(target), resolve(dotted(value))
                if name and found and aliases.get(name) != found:
                    aliases[name] = found
                    grown = True
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = resolve(dotted(node.value))
                if owner is not None:
                    out.add((owner, node.attr))
    return sorted(out)


def test_surface_is_found():
    targets = tracer_targets()
    assert ("steenrod", "UnstableAlgebra.sq") in targets
    assert ("frames", "kappa_shadow_check") in targets
    assert ("conjspaces", "SpaceModel") in package_imports()


def test_attribute_surface_is_found():
    attributes = module_attributes()
    for found in [("conjspaces.dual_steenrod", "psi"),
                  ("conjspaces.dual_steenrod", "ELEM_ONE"),
                  ("conjspaces.dual_steenrod", "coproduct_left"),
                  ("conjspaces.frames", "frame_check"),
                  ("conjspaces.cli", "main")]:
        assert found in attributes, found


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


@pytest.mark.parametrize("owner, attr", module_attributes(),
                         ids=[f"{o}.{a}" for o, a in module_attributes()])
def test_perfbench_attribute_resolves(owner, attr):
    obj = importlib.import_module("conjspaces")
    for part in owner.split(".")[1:]:
        if not hasattr(obj, part):
            importlib.import_module(f"{obj.__name__}.{part}")  # a submodule
        obj = getattr(obj, part)
    assert hasattr(obj, attr)
