"""List every statement of ``src/tangentia`` that the tier-1 suite never runs.

Run from the repository root:

    PYTHONPATH=src python tests/unrun_statements.py

It runs the suite in this process under a ``sys.settrace`` line tracer
(standard library only; several times slower than an untraced run), then
prints each block of consecutive sibling statements of which no line ran.
A statement counts as run when a line of its header (or, for a simple
statement, any of its lines) fired a line event, or when a statement
nested in it ran; a statement with no line the compiler emits code for
(a docstring, say) is not counted.

``sympy`` and ``hypothesis`` are blocked, as if not installed (and
hypothesis's pytest plugin is not loaded), so the result does not depend
on what hypothesis draws: their tests skip, as in a pytest-only install.
The name of this file does not match ``test_*.py``, so pytest does not
collect it.

Exit status: 0 when the unrun statements are exactly those on ``KNOWN``,
1 when one is missing from it or a ``KNOWN`` entry now runs, and the
suite's own status when it fails.
"""
import ast
import importlib.abc
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tangentia"
BLOCKED = ("sympy", "hypothesis")

# (file, the block's first line, stripped) -> why the suite does not run it
KNOWN = {
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        "main's BrokenPipeError handler: only the child process of "
        "test_closed_output_pipe_exits_1_without_a_traceback meets a closed "
        "pipe, and the tracer does not see child processes",
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard runs only as ``python -m tangentia.cli``",
}


def _code_lines(code):
    """The lines ``code`` and the code objects nested in it emit code for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _blocks(node):
    """The statement lists nested directly in ``node``."""
    out = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
    out += [h.body for h in getattr(node, "handlers", [])]
    out += [c.body for c in getattr(node, "cases", [])]
    return [b for b in out if b and isinstance(b[0], ast.stmt)]


def _header(node):
    """The lines of ``node`` that are not in a nested statement."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    blocks = _blocks(node)
    end = max(node.lineno, blocks[0][0].lineno - 1) if blocks else node.end_lineno
    return range(start, end + 1)


def _is_docstring(node, parent_body):
    return (
        node is parent_body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _ran(node, hits):
    return any(line in hits for line in range(node.lineno, node.end_lineno + 1))


def _unrun(body, hits, emitted):
    """The outermost statements of ``body`` (and below) of which no line
    ran, as lists of consecutive siblings."""
    groups, run = [], []
    for node in body:
        header = [line for line in _header(node) if line in emitted]
        never = (
            header
            and not any(line in hits for line in header)
            and not any(_ran(s, hits) for b in _blocks(node) for s in b)
        )
        if never and not _is_docstring(node, body):
            run.append(node)
            continue
        if run:
            groups.append(run)
            run = []
        for block in _blocks(node):
            groups += _unrun(block, hits, emitted)
    if run:
        groups.append(run)
    return groups


def report(hits_by_file):
    """``[(file, first line, last line, first line's text)]`` per unrun block."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        emitted = _code_lines(compile(source, str(path), "exec"))
        hits = hits_by_file.get(str(path), set())
        for group in _unrun(ast.parse(source).body, hits, emitted):
            first, last = group[0].lineno, group[-1].end_lineno
            name = path.relative_to(SRC).as_posix()
            out.append((name, first, last, lines[first - 1].strip()))
    return out


class _Blocker(importlib.abc.MetaPathFinder):
    """Makes an import of a ``BLOCKED`` package fail as if not installed.

    It must be the first finder: pytest puts its assertion-rewriting hook
    first, and that hook imports on its own the packages of every
    installed plugin (hypothesis among them, ``-p no:`` or not), so
    ``pytest_collection`` moves the blocker back in front."""

    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

    def pytest_collection(self, session):
        sys.meta_path.remove(self)
        sys.meta_path.insert(0, self)


def run_traced(args):
    """Run pytest on ``args`` under the line tracer: ``(status, hits)``
    with hits the lines run per file of ``src/tangentia``."""
    prefix = str(SRC) + "/"
    files = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        seen = files.get(name)
        if seen is None:
            seen = files[name] = set() if name.startswith(prefix) else False
        if seen is False:
            return None
        add = seen.add

        def lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return lines

        return lines

    import pytest

    blocker = _Blocker()
    sys.meta_path.insert(0, blocker)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args, plugins=[blocker])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        sys.meta_path.remove(blocker)
    return int(status), {k: v for k, v in files.items() if v is not False}


def main():
    args = ["-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest", str(ROOT / "tests")]
    status, hits = run_traced(args)
    found = report(hits)
    print(f"\n{len(found)} blocks of statements never run:")
    for name, first, last, text in found:
        reason = KNOWN.get((name, text))
        tag = f"known: {reason}" if reason else "NOT ON THE KNOWN LIST"
        print(f"  src/tangentia/{name}:{first}-{last}: {text}\n      {tag}")
    stale = set(KNOWN) - {(name, text) for name, _, _, text in found}
    for name, text in sorted(stale):
        print(f"  known entry now runs, remove it: src/tangentia/{name}: {text}")
    if status:
        print(f"the suite failed (pytest exit status {status})")
        return status
    return int(bool(stale) or any((name, text) not in KNOWN for name, _, _, text in found))


if __name__ == "__main__":
    sys.exit(main())
