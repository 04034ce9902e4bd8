"""The runtime uses the standard library only: every absolute import in
``src/tangentia`` names a module of the running interpreter's standard
library (``sys.stdlib_module_names``, Python >= 3.10).  It evaluates no
source text but the exponent-vector adders, built from ints alone."""
import ast
import operator
import pathlib
import random
import sys

from tangentia.freealg import _ADDERS

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


_DYNAMIC = frozenset({"eval", "exec", "compile"})


def _dynamic_code(source, filename="<source>"):
    """``(line, scope)`` for each read of the builtin ``eval``, ``exec`` or
    ``compile`` (by name or through ``builtins``), with ``scope`` the
    dotted path of the enclosing classes and functions."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Name) and child.id in _DYNAMIC) or (
                isinstance(child, ast.Attribute)
                and child.attr in _DYNAMIC
                and isinstance(child.value, ast.Name)
                and child.value.id in ("builtins", "__builtins__")
            ):
                found.append((child.lineno, scope))
            visit(child, scope)

    visit(ast.parse(source, filename=filename), "")
    return found


def test_guard_flags_dynamic_code():
    source = (
        "import builtins, re\n"
        "pattern = re.compile('x')\n"
        "def f(s):\n"
        "    return eval(s)\n"
        "class C:\n"
        "    def g(self):\n"
        "        run = builtins.exec\n"
        "x = compile\n"
    )
    assert _dynamic_code(source) == [(4, "f"), (7, "C.g"), (8, "")]


def test_only_the_adder_builder_evaluates_source():
    """The one ``eval`` in the package is ``freealg``'s adder builder: it
    evaluates a string built from string constants and the loop variables
    of ``range``, which are ints, in empty globals; and each adder it
    builds sums exponent vectors as ``tuple(map(add, a, b))`` does."""
    uses = {
        path.name: [scope for _, scope in found]
        for path in sorted(SRC.glob("*.py"))
        if (found := _dynamic_code(path.read_text(encoding="utf-8"), str(path)))
    }
    assert uses == {"freealg.py": ["_Adders.__missing__"]}
    tree = ast.parse((SRC / "freealg.py").read_text(encoding="utf-8"))
    (builder,) = [
        node
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "_Adders"
        for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__missing__"
    ]
    (call,) = [
        node for node in ast.walk(builder)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "eval"
    ]
    text, scope = call.args
    assert isinstance(scope, ast.Dict) and not scope.keys
    ranged = {
        comp.target.id
        for comp in ast.walk(text)
        if isinstance(comp, ast.comprehension)
        and isinstance(comp.iter, ast.Call)
        and getattr(comp.iter.func, "id", None) == "range"
    }
    interpolated = [node.value for node in ast.walk(text) if isinstance(node, ast.FormattedValue)]
    assert interpolated and ranged
    assert all(isinstance(v, ast.Name) and v.id in ranged for v in interpolated)
    assert all(
        isinstance(node.value, str) for node in ast.walk(text) if isinstance(node, ast.Constant)
    )
    names = {node.id for node in ast.walk(text) if isinstance(node, ast.Name)}
    assert names <= ranged | {"range", builder.args.args[1].arg}

    rng = random.Random(6)
    for n in range(1, 7):
        assert _ADDERS[n] is _ADDERS[n]
        for _ in range(20):
            a = tuple(rng.randrange(5) for _ in range(n))
            b = tuple(rng.randrange(5) for _ in range(n))
            assert _ADDERS[n](a, b) == tuple(map(operator.add, a, b))


def _sparse_sums(source, filename="<source>"):
    """``(scope, dict)`` for each dict that one function both reads with
    ``.get`` and drops a key from, by ``.pop`` or ``del``: the shape of a
    sparse sum that adds into a dict and drops the keys that cancel.
    ``scope`` is the dotted path of the enclosing classes and functions."""
    found = []

    def visit(node, scope):
        gets, drops = set(), set()

        def walk(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{scope}.{child.name}" if scope else child.name)
                    continue
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                    if child.func.attr in ("get", "pop"):
                        target = gets if child.func.attr == "get" else drops
                        target.add(ast.unparse(child.func.value))
                elif isinstance(child, ast.Delete):
                    drops.update(
                        ast.unparse(t.value) for t in child.targets
                        if isinstance(t, ast.Subscript)
                    )
                walk(child)

        walk(node)
        found.extend((scope, d) for d in sorted(gets & drops))

    visit(ast.parse(source, filename=filename), "")
    return found


def test_guard_flags_sparse_sums():
    source = (
        "def add(acc, part):\n"
        "    for k, v in part.items():\n"
        "        n = acc.get(k, 0) + v\n"
        "        if n:\n"
        "            acc[k] = n\n"
        "        else:\n"
        "            del acc[k]\n"
        "class C:\n"
        "    def count(self, seen, k):\n"
        "        seen[k] = seen.get(k, 0) + 1\n"
        "        self.d.pop(k)\n"
        "        return self.d.get(k)\n"
    )
    assert _sparse_sums(source) == [("add", "acc"), ("C.count", "self.d")]


def test_sparse_sums_live_in_freealg_only():
    """The package adds into sparse dicts through ``freealg._merge`` and
    ``freealg._add_scaled``.  Only the loops that a call per term would slow keep their sums
    inline: the product kernel ``_product`` and the elimination
    ``lie_from_assoc``."""
    found = {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, _ in _sparse_sums(path.read_text(encoding="utf-8"), str(path))
    }
    assert found == {
        ("freealg.py", "_merge"),
        ("freealg.py", "_add_scaled"),
        ("freealg.py", "_product"),
        ("freealg.py", "lie_from_assoc"),
    }
