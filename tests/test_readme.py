"""README's examples run as written: the Python API sketch gives its
commented values, the script-language example runs through
``dsl.run_source`` and the corpus snippet prints and builds what it says."""
import ast
import contextlib
import io
import re
from pathlib import Path

from tangentia import corpus
from tangentia.dsl import run_source

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
    assert checked == ["IA(2)", "False", "'AbsolutelyWild'"]


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
