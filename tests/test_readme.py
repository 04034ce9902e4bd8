"""README's examples run as written: the Python API sketch gives its
commented values, the script-language example runs through
``dsl.run_source`` and the corpus snippet prints and builds what it says."""
import ast
import contextlib
import io
import re
from pathlib import Path

from tangentia import corpus
from tangentia.dsl import COMMANDS, run_source

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(lang, heading):
    """The first ``lang`` code block after the line ``heading``."""
    start = README.index("\n" + heading + "\n")
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_python_api_sketch_gives_its_commented_values():
    """Each expression line of the sketch evaluates to the value in its
    comment, as ``str`` or ``repr`` prints it."""
    source = _block("python", "## Python API sketch")
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = lines[node.lineno - 1].split("#", 1)[1].strip()
        assert comment in (str(value), repr(value)), (code, value)
        checked.append(comment)
    assert checked == ["IA(3)", "False", "'AbsolutelyWild'"]


def test_script_language_example_runs():
    """The example's commands all run, and its inverse checks out: the
    composition with it is the identity through degree 8."""
    records = run_source(_block("text", "### Script language"))
    assert [r["command"] for r in records] == [
        "ia-level", "tangent", "divergence", "jacobian", "invert", "compose", "ia-level",
    ]
    assert records[0]["output"]["text"] == "IA(2)"
    assert records[4]["output"]["identity_through_degree"]
    assert records[-1]["output"]["text"] == "identity through degree 8"


def test_corpus_snippet_prints_and_builds_its_maps():
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(_block("python", "### Script language"), namespace)
    assert out.getvalue() == corpus.script_source("nagata") + "\n"
    assert namespace["phi"] == corpus.build("bergman")


def _table_flags(cell):
    """The flags a command-table cell lists, each mapped to whether it is
    marked ``(required)``: a code span that starts with ``--``, outside
    any parenthesized note."""
    flags = {}
    depth = 0
    for m in re.finditer(r"`([^`]*)`|[()]", cell):
        if m.group() in "()":
            depth += 1 if m.group() == "(" else -1
        elif depth == 0 and m.group(1).startswith("--"):
            name = m.group(1)[2:].split()[0]
            flags[name] = cell[m.end():].startswith(" (required)")
    return flags


def test_command_table_matches_the_command_table_of_the_parser():
    """README's command table has one row per ``COMMANDS`` key, listing
    exactly that command's flags and marking ``(required)`` exactly the
    ones its ``CommandSpec`` requires."""
    start = README.index("| command | arguments | flags (default) | `as NAME` |")
    rows = {}
    for line in README[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        rows[cells[0].strip("`")] = _table_flags(cells[2])
    assert list(rows) == list(COMMANDS)
    for word, spec in COMMANDS.items():
        assert rows[word] == {f: f in spec.required for f in spec.flags}, word
