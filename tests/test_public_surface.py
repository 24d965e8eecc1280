"""The public surface: every exported name resolves, and the version matches the project's.

A name dropped from a module but left in its `__all__` or in the package's
re-exports fails here, not first in a user's `from fockradial import ...`.
"""

import ast
import importlib
import pathlib
import pkgutil

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


def test_version_matches_the_project():
    tomllib = pytest.importorskip("tomllib")
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert fockradial.__version__ == project["version"]
