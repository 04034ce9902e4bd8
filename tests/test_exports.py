"""The public names and the version are each declared once: every module
lists the names it exports in its own ``__all__``, the package re-exports
their union, and ``pyproject.toml`` reads the version from the package."""
import ast
import importlib
import inspect
import pathlib

import pytest

import tangentia

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("freealg", "envelope", "fox", "deriv", "morphism", "wildness")


def _top_level_assignments(module):
    tree = ast.parse(inspect.getsource(module))
    return {
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_only_what_it_defines(name):
    module = importlib.import_module(f"tangentia.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    constants = _top_level_assignments(module)
    foreign = [
        n for n in exported
        if not hasattr(module, n)
        or getattr(getattr(module, n), "__module__", None) != module.__name__
        and n not in constants
    ]
    assert foreign == []


def test_package_exports_the_union_of_its_modules():
    modules = [importlib.import_module(f"tangentia.{name}") for name in MODULES]
    union = [n for module in modules for n in module.__all__] + ["corpus"]
    assert len(set(union)) == len(union)
    assert tangentia.__all__ == sorted(union)
    for module in modules:
        for n in module.__all__:
            assert getattr(tangentia, n) is getattr(module, n), n
    assert tangentia.corpus is importlib.import_module("tangentia.corpus")


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "tangentia.__version__"}
    assert isinstance(tangentia.__version__, str)
