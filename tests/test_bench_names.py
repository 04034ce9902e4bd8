"""Every package name the benchmark harness reaches exists.

``bench/tracer.py`` wraps its targets by name and ``bench/run.py`` and
``bench/workloads.py`` call into the package as ``tg.<name>``; a rename
in ``src/`` would otherwise surface only in a traced benchmark run.  The
harness files are read with ``ast``, not imported or run.
"""
import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = "tangentia"


def _tracer_targets():
    """``(kind, names)`` for each ``function(...)``/``method(...)`` call in
    ``install`` whose leading arguments are string constants."""
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    arity = {"function": 2, "method": 3}
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in arity:
            n = arity[node.func.id]
            args = node.args[:n]
            if len(args) == n and all(
                isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args
            ):
                targets.append((node.func.id, tuple(a.value for a in args)))
    return targets


def _package_chains():
    """Every dotted name ``tg.a.b...`` in the harness, as ``(file, (a, b, ...))``,
    outermost chains only."""
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inner = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                inner.add(id(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in inner:
                continue
            names, cur = [], node
            while isinstance(cur, ast.Attribute):
                names.append(cur.attr)
                cur = cur.value
            if isinstance(cur, ast.Name) and cur.id == "tg":
                chains.add((path.name, tuple(reversed(names))))
    return sorted(chains)


def _resolve(names):
    """Follow ``names`` from the package, importing a submodule where an
    attribute is missing; None if a name does not resolve."""
    obj = importlib.import_module(PACKAGE)
    for name in names:
        if not hasattr(obj, name) and hasattr(obj, "__path__"):
            try:
                importlib.import_module(f"{obj.__name__}.{name}")
            except ImportError:
                return None
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def test_harness_reaches_known_names():
    """The parse finds what the harness is known to use, so an empty or
    broken parse cannot pass the checks below."""
    targets = _tracer_targets()
    assert ("function", ("freealg", "lie_from_assoc")) in targets
    assert ("function", ("envelope", "env_str")) in targets
    assert ("method", ("freealg", "Element", "mul_trunc")) in targets
    assert len(targets) >= 25
    assert ("run.py", ("freealg", "lyndon_expand")) in _package_chains()


def _ids(value):
    return ".".join(value) if isinstance(value, tuple) else value


@pytest.mark.parametrize("kind, names", _tracer_targets(), ids=_ids)
def test_tracer_targets_exist(kind, names):
    """A function target must be a module attribute; a method target must
    be defined on the class itself, as the tracer reads ``vars(cls)``."""
    module = importlib.import_module(f"{PACKAGE}.{names[0]}")
    if kind == "function":
        assert callable(getattr(module, names[1], None)), names
    else:
        cls = getattr(module, names[1], None)
        assert cls is not None and names[2] in vars(cls), names


@pytest.mark.parametrize("path, names", _package_chains(), ids=_ids)
def test_harness_package_names_exist(path, names):
    assert _resolve(names) is not None, f"{path}: tg.{'.'.join(names)}"
