"""Fuzzed command statements: whatever a statement says, a script exits
0 or 1, never 2 (an internal error)."""
import contextlib
import io
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tangentia import cli
from tangentia.dsl import COMMANDS

PRELUDES = {
    "polynomial": "variety polynomial(2)\n"
    "a := auto(x1 + x2^2, x2)\nb := auto(x1, x2 + x1^2)\nD := deriv(x2^2, x1)\n",
    "assoc": "variety assoc(2)\n"
    "a := auto(x1 + x2*x2, x2)\nb := auto(x1, x2 + x1*x1)\nD := deriv(x2*x2, x1)\n",
    "lie": "variety lie(3)\n"
    "a := auto(x1 + [x2,x3], x2, x3)\nb := auto(x1, x2 + [x3,x1], x3)\n"
    "D := deriv([x2,x3], [x1,x3], x3)\n",
    "metabelian": "variety metabelian(3)\n"
    "a := auto(y1 + [y2,y3], y2, y3)\nb := auto(y1, y2 + [y3,y1], y3)\n"
    "D := deriv([y2,y3], [y1,y3], y3)\n",
}

FLAGS = sorted({f for spec in COMMANDS.values() for f in spec.flags} | {"degre", "bogus"})
WORDS = [
    "a", "b", "D", "x1", "y1", "nope", "as",
    "metabelian", "nilpotent", "polynilpotent", "user", "var-m2k", "truncation", "builtin",
]
# integers stay at 0-3: no budget stops a runaway degree yet
TOKENS = st.one_of(st.sampled_from(WORDS), st.integers(0, 3).map(str), st.just(","))


@st.composite
def statements(draw):
    parts = [draw(st.sampled_from(sorted(COMMANDS) + ["frobnicate"]))]
    parts += draw(st.lists(TOKENS, max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        parts.append("--" + draw(st.sampled_from(FLAGS)))
        parts += draw(st.lists(TOKENS, max_size=3))
    if draw(st.booleans()):
        parts += ["as", draw(st.sampled_from(["c", "a", "as"]))]
    return " ".join(parts)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PRELUDES)), st.lists(statements(), min_size=1, max_size=2))
def test_fuzzed_statements_exit_0_or_1(kind, stmts):
    source = PRELUDES[kind] + "\n".join(stmts) + "\n"
    err = io.StringIO()
    with mock.patch.object(cli.sys, "stdin", io.StringIO(source)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["run", "-", "--max-degree", "3"])
    assert rc in (0, 1), source + err.getvalue()
