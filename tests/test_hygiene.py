"""Source hygiene: every module-level import of the package is used, and no
module imports another's private (leading-underscore) names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ddmcert"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module body's imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_import_is_found():
    source = "import os\nfrom math import pi, tau\n\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """Leading-underscore names the module imports from the package."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("ddmcert"))
            for alias in node.names if alias.name.startswith("_")]


def test_private_import_is_found():
    source = ("from .mesh import TriMesh, _helper\n"
              "from os import _exit\n"
              "def f():\n    from ddmcert.flux import _x\n")
    assert private_imports(source) == ["_helper", "_x"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_names(path):
    assert private_imports(path.read_text()) == []
