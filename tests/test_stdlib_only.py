"""The runtime uses the standard library only: every absolute import in
``src/tangentia`` names a module of the running interpreter's standard
library (``sys.stdlib_module_names``, Python >= 3.10)."""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tangentia"


def _outside_imports(source, filename="<source>"):
    """``(line, module)`` for each absolute import whose top-level module
    is not in the standard library; relative imports stay in the package."""
    outside = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] not in sys.stdlib_module_names:
                outside.append((node.lineno, module))
    return outside


def test_package_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5, f"no package sources under {SRC}"
    outside = {
        path.name: found
        for path in paths
        if (found := _outside_imports(path.read_text(encoding="utf-8"), str(path)))
    }
    assert not outside, f"imports outside the standard library: {outside}"


def test_guard_flags_third_party_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from sympy.core import Symbol\n"
        "from . import freealg\n"
        "from .freealg import Element\n"
        "def f():\n"
        "    import hypothesis\n"
    )
    assert _outside_imports(source) == [(2, "numpy"), (3, "sympy.core"), (7, "hypothesis")]


def _unused_imports(source, filename="<source>"):
    """``(line, name)`` for each name an import binds that the module never
    reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source, filename=filename)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_package_modules_use_every_import():
    # __init__.py imports in order to re-export
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    unused = {
        path.name: found
        for path in paths
        if (found := _unused_imports(path.read_text(encoding="utf-8"), str(path)))
    }
    assert not unused, f"imported but never used: {unused}"


def test_guard_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as js\n"
        "from .envelope import necklace, trace_class\n"
        "from . import linalg\n"
        "def f(u):\n"
        "    return trace_class(os.path.join(u)), linalg.rank\n"
    )
    assert _unused_imports(source) == [(2, "js"), (3, "necklace")]
