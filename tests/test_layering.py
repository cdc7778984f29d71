"""Layering of the rotinv package, read from its source with ast.

The dense oracle is the independent second route, so it imports none of
the parameter-space code; maps holds the coordinate rules and the
classifier and sits on states and geometry alone.  The package's import
graph has no cycle, every import sits at module level, and none is unused.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rotinv"
TREES = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def package_imports(name: str) -> set[str]:
    """The package modules that module ``name`` imports ("__init__" for the package itself)."""
    out = set()
    for node in _imports(TREES[name]):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level == 0:
            modules = [node.module]
        elif node.level == 1 and node.module:
            modules = [f"rotinv.{node.module}"]
        else:  # from . import a, b
            modules = [f"rotinv.{alias.name}" for alias in node.names]
        for module in modules:
            parts = module.split(".")
            if parts[0] == "rotinv":
                out.add(parts[1] if len(parts) > 1 and parts[1] in TREES else "__init__")
    out.discard(name)
    return out


def test_dense_imports_no_parameter_space_module():
    assert package_imports("dense").isdisjoint({"maps", "geometry", "checks", "cli"}), \
        package_imports("dense")


def test_maps_imports_only_states_and_geometry():
    assert package_imports("maps") <= {"states", "geometry"}, package_imports("maps")


def private_geometry_names(name: str) -> list[str]:
    """The private geometry names that module ``name`` imports or reads as geometry._x."""
    tree = TREES[name]
    private = [alias.name for node in _imports(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("geometry", "rotinv.geometry")
               for alias in node.names if alias.name.startswith("_")]
    return private + [node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "geometry" and node.attr.startswith("_")]


def test_maps_imports_no_private_geometry_name():
    """maps reaches geometry through its public names only (the 4xN separable rule)."""
    assert not private_geometry_names("maps"), private_geometry_names("maps")


def test_cli_imports_no_private_geometry_name():
    """cli reaches geometry through its public names only (the sweep columns)."""
    assert not private_geometry_names("cli"), private_geometry_names("cli")


def test_import_graph_has_no_cycle():
    graph = {name: package_imports(name) - {"__init__"} for name in TREES if name != "__init__"}
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, " -> ".join([*path, name])
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, [*path, name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_import_inside_a_function(name):
    nested = [f"line {node.lineno}"
              for func in ast.walk(TREES[name])
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in _imports(func)]
    assert not nested, f"{name}: {nested}"


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__"}))
def test_no_unused_import(name):
    """Every name a module imports is used in it; __init__ only re-exports, so it is exempt."""
    tree = TREES[name]
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = sorted(f"{alias} (line {line})" for alias, line in bound.items() if alias not in used)
    assert not unused, f"{name}: unused {unused}"
