"""The public surface: every exported name resolves, the version matches the project's,
and the package imports exactly the third-party modules the project declares.

A name dropped from a module but left in its `__all__` or in the package's
re-exports fails here, not first in a user's `from fockradial import ...`;
so does an import that an installation from pyproject.toml would not satisfy.
"""

import ast
import importlib
import pathlib
import pkgutil
import re
import sys

import pytest

import fockradial

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_name_in_each_layer_all_resolves():
    layers = [info.name for info in pkgutil.iter_modules(fockradial.__path__)]
    assert layers
    for layer in layers:
        module = importlib.import_module(f"fockradial.{layer}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"fockradial.{layer}.{name}"


def test_every_package_import_resolves():
    tree = ast.parse(pathlib.Path(fockradial.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fockradial.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"fockradial.{node.module}.{alias.name}"
            assert hasattr(fockradial, alias.asname or alias.name), alias.name


def _project() -> dict:
    tomllib = pytest.importorskip("tomllib")
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_version_matches_the_project():
    assert fockradial.__version__ == _project()["version"]


def test_third_party_imports_are_the_declared_dependencies():
    imported = set()
    for path in pathlib.Path(fockradial.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in _project()["dependencies"]}
    assert third_party == declared
