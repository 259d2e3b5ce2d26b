"""The runtime needs the standard library and numpy alone; scipy is a test
oracle."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_imports_only_stdlib_and_numpy():
    # every import statement at any depth, function-local ones included
    found = {}
    for path in sorted((ROOT / "src" / "noisestab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one (inside the package)
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    assert "numpy" in found
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert {m: where for m, where in found.items() if m not in allowed} == {}


def test_no_unused_private_module_names():
    # a module-level function, class or constant named with one leading
    # underscore must be used somewhere in the package outside its own
    # definition: by name, as an attribute, or imported by another module
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "noisestab").glob("*.py"))}
    uses = []  # (name, node) for every use of a name in the package
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                uses.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, node))
            elif isinstance(node, ast.alias):
                uses.append((node.name, node))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and not any(used == name and id(where) not in inside
                                       for used, where in uses):
                    unused.append(f"{module}:{name}")
    assert unused == []


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = tomllib.loads(text)["project"]

    def names(deps):
        return [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])
