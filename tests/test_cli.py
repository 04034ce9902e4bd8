"""The ``tangentia`` command line: exit codes, JSON schema, determinism."""
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from tangentia import cli, corpus, freealg
from tangentia.dsl import COMMANDS, MAX_NESTING, MAX_RANK


GOOD_SCRIPT = """\
variety polynomial(2) vars x,y
phi := auto(x + y^2, y)
ia-level phi
tangent phi
invert phi --degree 6 as phi_inv
compose phi phi_inv as check
ia-level check --max-degree 6
"""


def write(tmp_path, text, name="script.tia"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_success_exit_code_and_text_output(tmp_path, capsys):
    rc = cli.main(["run", write(tmp_path, GOOD_SCRIPT)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "== ia-level" in out
    assert "text: IA(1)" in out
    assert "identity through degree 6" in out


def test_json_output_schema(tmp_path, capsys):
    rc = cli.main(["run", write(tmp_path, GOOD_SCRIPT), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert [r["command"] for r in doc["results"]] == [
        "ia-level",
        "tangent",
        "invert",
        "compose",
        "ia-level",
    ]
    assert doc["results"][0]["output"]["status"] == "level"
    assert doc["results"][2]["output"]["identity_through_degree"] is True


def test_output_is_bit_exact_across_runs(tmp_path, capsys):
    path = write(
        tmp_path,
        "variety polynomial(3) vars x,y,z\n"
        "a := auto(x + y^2, y, z)\n"
        "b := auto(x, y + z^2, z)\n"
        "span --gens a,b --degree 1 --samples 25 --seed 9\n",
    )
    cli.main(["run", path, "--json"])
    first = capsys.readouterr().out
    cli.main(["run", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_script_error_exit_code_1(tmp_path, capsys):
    rc = cli.main(["run", write(tmp_path, "variety polynomial(1) vars x\neval q\n")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "undefined name" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command",
    [
        "compose a b --max-degree foo",
        "detect-wild a --context polynilpotent --c x,y",
        "build-polynilpotent --c x",
    ],
)
def test_non_integer_flag_exit_code_1(tmp_path, capsys, command):
    script = (
        "variety lie(3)\n"
        "a := auto(x1 + [x2,x3], x2, x3)\n"
        "b := auto(x1, x2 + [x3,x1], x3)\n"
        f"{command}\n"
    )
    rc = cli.main(["run", write(tmp_path, script)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "needs an integer value" in captured.err


@pytest.mark.parametrize(
    "kind, gen", [("polynomial", "x1"), ("assoc", "x1"), ("lie", "x1"), ("metabelian", "y1")]
)
def test_declared_rank_bound(tmp_path, capsys, kind, gen):
    """A script may declare a rank up to ``MAX_RANK``; one more is a
    script error at its column, before any generator is built."""
    script = "variety {}({})\neval {} + {}\n"
    last = gen[0] + str(MAX_RANK)
    rc = cli.main(["run", write(tmp_path, script.format(kind, MAX_RANK, gen, last))])
    assert rc == 0
    value = capsys.readouterr().out.split("value: ")[1].split()
    assert sorted(value) == sorted([gen, "+", last])
    rc = cli.main(["run", write(tmp_path, script.format(kind, MAX_RANK + 1, gen, gen))])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    want = f"error: line 1, column {len(kind) + 10}: rank must be <= {MAX_RANK}, got {MAX_RANK + 1}"
    assert want in captured.err


def test_build_polynilpotent_rank_bound(tmp_path, capsys):
    """``build-polynilpotent --rank`` takes ranks from 3 to ``MAX_RANK``."""
    script = "variety lie(3)\nbuild-polynilpotent --c 2,1 --limit 0 --rank {}\n"
    rc = cli.main(["run", write(tmp_path, script.format(MAX_RANK)), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["output"]["materialized"] is False
    rc = cli.main(["run", write(tmp_path, script.format(MAX_RANK + 1))])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert f"error: line 2: flag --rank must be <= {MAX_RANK}, got {MAX_RANK + 1}" in captured.err


def test_flag_error_names_the_line(tmp_path, capsys):
    script = (
        "variety lie(3)\n"
        "a := auto(x1 + [x2,x3], x2, x3)\n"
        "ia-level a\n"
        "build-polynilpotent --c x\n"
    )
    rc = cli.main(["run", write(tmp_path, script)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: line 4: flag --c needs an integer value" in captured.err


def test_unknown_evidence_exit_code_1(tmp_path, capsys):
    script = (
        "variety lie(3)\n"
        "a := auto(x1 + [x2,x3], x2, x3)\n"
        "detect-wild a --context metabelian --evidence bogus\n"
    )
    rc = cli.main(["run", write(tmp_path, script)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "line 3" in captured.err
    for allowed in ("user", "truncation", "builtin"):
        assert allowed in captured.err
    assert captured.out == ""


def test_unknown_variety_kind_exit_code_1(tmp_path, capsys):
    """The kinds are polynomial, assoc, lie and metabelian, as the script
    language documents them: ``associative`` is not one."""
    rc = cli.main(["run", write(tmp_path, "variety associative(3)\neval x1\n")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: line 1: unknown variety kind 'associative'\n"
    assert captured.out == ""


def test_repeated_generator_name_exit_code_1(tmp_path, capsys):
    rc = cli.main(["run", write(tmp_path, "variety polynomial(2) vars x,x\neval x\n")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "line 1" in captured.err
    assert "repeat" in captured.err


def test_syntax_error_reports_position(tmp_path, capsys):
    rc = cli.main(["run", write(tmp_path, "variety polynomial(1) vars x\neval x $\n")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "line 2" in captured.err


def test_missing_file_exit_code_1(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.tia")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_internal_error_exit_code_2(tmp_path, capsys, monkeypatch):
    def boom(source, max_degree, seed):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli, "run_source", boom)
    rc = cli.main(["run", write(tmp_path, GOOD_SCRIPT)])
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


def test_values_past_the_int_string_limit_print(tmp_path, capsys):
    """7^10000 has 8,451 digits, past the 4,300 that Python (from 3.11)
    prints by default: ``main`` lifts that limit for its run and puts the
    caller's back.  The digits are read back in chunks, under the limit."""
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get_limit()
    rc = cli.main(["run", write(tmp_path, "variety polynomial(1) vars x\neval 7^10000\n")])
    assert rc == 0
    assert get_limit() == before
    digits = capsys.readouterr().out.split("value: ")[1].strip()
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert len(digits) == 8451 and value == 7 ** 10000


def test_stdin_script(monkeypatch, capsys):
    monkeypatch.setattr(
        cli.sys, "stdin", io.StringIO("variety polynomial(1) vars x\neval x + x\n")
    )
    rc = cli.main(["run", "-"])
    assert rc == 0
    assert "value: 2*x" in capsys.readouterr().out


def test_non_utf8_script_file_exit_code_1(tmp_path, capsys):
    path = tmp_path / "bad.tia"
    path.write_bytes(b"variety polynomial(1) vars x\neval x \xff\n")
    rc = cli.main(["run", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and "utf-8" in captured.err
    assert captured.out == ""


def test_non_utf8_stdin_exit_code_1(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"eval \xff\n"), encoding="utf-8")
    monkeypatch.setattr(cli.sys, "stdin", stdin)
    rc = cli.main(["run", "-"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and "utf-8" in captured.err


def test_max_degree_flag_threads_through(tmp_path, capsys):
    path = write(
        tmp_path,
        "variety polynomial(2) vars x,y\nphi := auto(x + y^2, y)\ninvert phi as i\n",
    )
    rc = cli.main(["run", path, "--json", "--max-degree", "4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["output"]["degree"] == 4


def test_negative_max_degree_exit_code_1(tmp_path, capsys):
    """A negative bound is refused before the script runs."""
    rc = cli.main(["run", write(tmp_path, GOOD_SCRIPT), "--max-degree", "-3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: --max-degree must be >= 0, got -3\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "SCRIPT", "--max-degree", "abc"], "invalid int value: 'abc'"),
        (["run", "SCRIPT", "--seed", "1.5"], "invalid int value: '1.5'"),
        (["run"], "the following arguments are required: script"),
        ([], "the following arguments are required: subcommand"),
        (["walk", "SCRIPT"], "invalid choice: 'walk'"),
        (["run", "SCRIPT", "--jsn"], "unrecognized arguments: --jsn"),
    ],
)
def test_usage_error_exit_code_1(tmp_path, capsys, argv, message):
    """Bad usage exits 1 like any bad input; 2 is kept for an internal
    invariant violation."""
    path = write(tmp_path, GOOD_SCRIPT)
    with pytest.raises(SystemExit) as exc:
        cli.main([path if a == "SCRIPT" else a for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert "error: " in captured.err and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "source, code, err",
    [("variety polynomial(1) vars x; eval x^2\n", 0, ""),
     ("variety polynomial(1) vars x; eval q\n", 1, "error: line 1, column 36: undefined name 'q'\n")],
)
def test_module_run_as_a_script_exits_with_mains_status(
    tmp_path, capsys, monkeypatch, source, code, err
):
    """``python -m tangentia.cli run FILE`` exits with ``main``'s status,
    run here in this process.  ``tangentia.cli`` is already imported, so
    runpy warns that it runs a fresh copy of the module."""
    monkeypatch.setattr(sys, "argv", ["tangentia", "run", write(tmp_path, source)])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("tangentia.cli", run_name="__main__")
    captured = capsys.readouterr()
    assert exc.value.code == code
    assert captured.err == err
    assert captured.out == ("== eval\n  value: x^2\n" if code == 0 else "")


def test_help_exit_code_0(capsys):
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: tangentia" in capsys.readouterr().out


def test_invert_low_degrees_with_constant(tmp_path, capsys):
    """At degree 0 the inverse is 0, at degree 1 the affine inverse; both
    pass the composition check."""
    path = write(
        tmp_path,
        "variety polynomial(2)\nf := auto(x1 + 1 + x2^2, x2)\n"
        "invert f --degree 0\ninvert f --degree 1\n",
    )
    rc = cli.main(["run", path, "--json"])
    assert rc == 0
    outs = [r["output"] for r in json.loads(capsys.readouterr().out)["results"]]
    assert [o["images"] for o in outs] == [["0", "0"], ["-1 + x1", "x2"]]
    assert all(o["identity_through_degree"] for o in outs)


def test_corpus_scripts_run_clean(capsys):
    """Every shipped corpus script executes with exit code 0 in both
    output modes and its final composition check passes."""
    from tangentia import corpus

    for name in corpus.CORPUS_NAMES:
        src = corpus.script_source(name)
        import io as _io

        import tangentia.cli as _cli

        stdin = _io.StringIO(src)
        import unittest.mock as mock

        with mock.patch.object(_cli.sys, "stdin", stdin):
            rc = _cli.main(["run", "-", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        last = doc["results"][-1]
        assert last["command"] == "ia-level"
        assert last["output"]["status"] == "identity"


DEFECT_PRELUDE = (
    "variety lie(3)\n"
    "a := auto(x1 + [x2,x3], x2, x3)\n"
    "b := auto(x1, x2 + [x3,x1], x3)\n"
)


@pytest.mark.parametrize(
    "command, message",
    [
        ("divergence", "divergence takes exactly one map, got 0"),
        ("ia-level", "ia-level takes exactly one map, got 0"),
        ("tangent --max-degree 3", "tangent takes exactly one map, got 0"),
        ("jacobian", "jacobian takes exactly one map, got 0"),
        ("invert", "invert takes exactly one map, got 0"),
        ("detect-wild --context metabelian", "detect-wild takes exactly one map, got 0"),
        ("divergence a extra", "divergence takes exactly one map, got 2"),
        ("span --gens", "flag --gens needs a name"),
        ("invert a --degre 3", "invert has no flag --degre; it takes --degree"),
        ("invert a --max-degree 3", "invert has no flag --max-degree; it takes --degree"),
        ("eval x1 + x2 as z", "eval has no result to bind with 'as'"),
        ("jacobian a as J", "jacobian has no result to bind with 'as'"),
        ("invert a --degree 3 --degree 4", "flag --degree given twice"),
        ("invert a as i as j", "'as' given twice"),
        ("span --gens a --samples 2 --conjugate no", "flag --conjugate takes no value"),
        ("detect-wild a --context user --tag", "flag --tag needs a name"),
        ("span --gens a --degree 0 --samples 2", "in 'span': span degree must be >= 1, got 0"),
        # negative literals, and integer flags below their least value
        ("invert a --degree -1", "flag --degree must be >= 0, got -1"),
        ("commutator a b --degree -2", "flag --degree must be >= 0, got -2"),
        ("compose a b --max-degree -1", "flag --max-degree must be >= 0, got -1"),
        ("detect-wild a --context nilpotent --class 0", "flag --class must be >= 1, got 0"),
        ("detect-wild a --context polynilpotent --c 2,-1", "flag --c must be >= 1, got -1"),
        ("detect-wild a --context user --min-degree 1", "flag --min-degree must be >= 2, got 1"),
        ("build-polynilpotent --c 2 1 --rank 2", "flag --rank must be >= 3, got 2"),
        ("build-polynilpotent --c 2 1 --limit -3", "flag --limit must be >= 0, got -3"),
        ("span --gens a --samples -1", "flag --samples must be >= 0, got -1"),
        ("invert a --degree - 1", "flag --degree needs an integer value"),
        ("invert a --degree 3 4", "flag --degree takes one value, got 2"),
        # command arguments of the wrong kind, and detect-wild's context flags
        ("divergence x1", "'x1' has the wrong type for this command"),
        ("apply a 2", "apply needs an algebra element"),
        ("detect-wild a", "detect-wild needs --context"),
        ("detect-wild a --context polynilpotent", "polynilpotent context needs --c"),
        ("detect-wild a --context foo", "unknown context 'foo'"),
        # a context flag that the chosen context does not read: each used to
        # be dropped without a word; the first one in the statement is named
        ("detect-wild a --context metabelian --class 3",
         "the metabelian context does not read --class; it reads --evidence"),
        ("detect-wild a --context metabelian --c 2,2",
         "the metabelian context does not read --c; it reads --evidence"),
        ("detect-wild a --context metabelian --min-degree 9",
         "the metabelian context does not read --min-degree; it reads --evidence"),
        ("detect-wild a --context metabelian --tag t",
         "the metabelian context does not read --tag; it reads --evidence"),
        ("detect-wild a --context nilpotent --c 2,2",
         "the nilpotent context does not read --c; it reads --class, --evidence"),
        ("detect-wild a --context nilpotent --min-degree 9",
         "the nilpotent context does not read --min-degree; it reads --class, --evidence"),
        ("detect-wild a --context nilpotent --tag t",
         "the nilpotent context does not read --tag; it reads --class, --evidence"),
        ("detect-wild a --context var-m2k --class 3",
         "the var-m2k context does not read --class; it reads --evidence"),
        ("detect-wild a --context var-m2k --c 2,2",
         "the var-m2k context does not read --c; it reads --evidence"),
        ("detect-wild a --context var-m2k --min-degree 9",
         "the var-m2k context does not read --min-degree; it reads --evidence"),
        ("detect-wild a --context var-m2k --tag t",
         "the var-m2k context does not read --tag; it reads --evidence"),
        ("detect-wild a --context polynilpotent --c 1,2 --class 3",
         "the polynilpotent context does not read --class; it reads --c, --evidence"),
        ("detect-wild a --context polynilpotent --c 1,2 --min-degree 9",
         "the polynilpotent context does not read --min-degree; it reads --c, --evidence"),
        ("detect-wild a --context polynilpotent --c 1,2 --tag t",
         "the polynilpotent context does not read --tag; it reads --c, --evidence"),
        ("detect-wild a --context user --evidence builtin",
         "the user context does not read --evidence; it reads --tag, --min-degree"),
        ("detect-wild a --context user --class 3",
         "the user context does not read --class; it reads --tag, --min-degree"),
        ("detect-wild a --context user --c 2,2",
         "the user context does not read --c; it reads --tag, --min-degree"),
        ("detect-wild a --min-degree 9 --context nilpotent --tag t",
         "the nilpotent context does not read --min-degree; it reads --class, --evidence"),
        # eval reads a scalar as an element, as let does: it used to print
        # "value: 3/2" in a Lie variety
        ("eval 3/2", "no constants in the non-unital variety lie"),
        # a map definition whose coordinates the algebra rejects
        ("f := deriv(x1)", "need one coordinate per generator"),
        # missing arguments and required flags, which the fuzzed statements
        # of test_dsl_fuzz reach only where hypothesis is installed
        ("eval", "eval needs an expression"),
        ("apply a", "apply needs a map name and an expression"),
        ("build-polynilpotent --rank 3", "build-polynilpotent needs --c"),
        ("span --samples 2", "span needs --gens"),
    ],
)
def test_statement_off_the_command_table_exit_code_1(tmp_path, capsys, command, message):
    rc = cli.main(["run", write(tmp_path, DEFECT_PRELUDE + command + "\n")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: line 4: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "statement, where, message",
    [
        ("c := foo(x1, x2, x3)", "column 6", "expected auto(...) or deriv(...)"),
        ("c := auto(x1, x2, x3", "column 1", "unbalanced parentheses in definition"),
        ("c := auto(x1,,x3)", "column 6", "empty coordinate in definition"),
        ("eval x1^x2", "column 9", "exponent must be a nonnegative integer"),
        ("eval 1/0*x1", "column 6", "malformed rational literal"),
        ("eval (x1 + x2]", "column 14", "expected ')'"),
        ("eval [x1 x2]", "column 10", "expected ',' in bracket"),
        ("eval [x1, x2)", "column 13", "expected ']'"),
        ("eval [1, x1]", "column 6", "bracket arguments must be algebra elements"),
        ("eval x1^2", "column 8", "powers are not defined in Lie varieties"),
        # a constant beside a Lie element is placed at the + or - between
        # them; in let and := it used to have no position at all
        ("eval x1 + 1", "column 9", "no constants in the non-unital variety lie"),
        ("eval 2 - [x1,x2]", "column 8", "no constants in the non-unital variety lie"),
        ("let c = x1 + 1", "column 12", "no constants in the non-unital variety lie"),
        ("c := auto(x1 + 1, x2, x3)", "column 14", "no constants in the non-unital variety lie"),
        # statements the parser stops in
        ("3 x", "column 1", "expected a statement keyword, got 3"),
        ("let", "column 4", "unexpected end of statement"),
        ("invert a --degree 3 )", "column 21", "unexpected token ')'"),
        ("let p = x1 x2", "column 12", "unexpected token 'x2'"),
        ("let p = x1 + )", "column 14", "unexpected token ')'"),
        ("let p = a + x1", "column 9", "'a' is not an algebra element"),
        ("let p x1", "column 7", "expected '=', got 'x1'"),
        # a missing name or number is named as such, not by its token kind
        ("let 3 = x1", "column 5", "expected a name, got 3"),
        ("compose a 3", "column 11", "expected a name, got 3"),
        ("variety lie(x1)", "column 13", "expected a number, got 'x1'"),
    ],
)
def test_definition_and_expression_errors_carry_a_column(
    tmp_path, capsys, statement, where, message
):
    rc = cli.main(["run", write(tmp_path, DEFECT_PRELUDE + statement + "\n")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: line 4, {where}: {message}\n"
    assert captured.out == ""


def test_seed_flag_takes_a_negative_integer(tmp_path, capsys):
    path = write(tmp_path, DEFECT_PRELUDE + "span --gens a --samples 2 --seed -7\n")
    rc = cli.main(["run", path, "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["output"]["seed"] == -7


def test_commutator_of_map_with_constant_exit_code_1(tmp_path, capsys):
    """A constant term would make the truncated commutator wrong: on these
    maps it read (x1, x2) at degree 1, but the exact value is
    (x1, -1 + x2 + 2*x1)."""
    path = write(
        tmp_path,
        "variety polynomial(2)\nf := auto(x1 + 1, x2)\ng := auto(x1, x2 + x1^2)\n"
        "commutator f g --degree 1\n",
    )
    rc = cli.main(["run", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: line 4: in 'commutator': the first map has a constant term" in captured.err


def test_span_with_a_constant_and_an_inexact_inverse_exit_code_1(tmp_path, capsys):
    """With the constant of a, the part of b's inverse cut at degree 4
    (-x^5) would land in low degrees of the samples."""
    path = write(
        tmp_path,
        "variety polynomial(2) vars x,y\na := auto(x + 1, y)\nb := auto(x, y + x^5)\n"
        "span --gens a,b --degree 1\n",
    )
    rc = cli.main(["run", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (
        "error: line 4: in 'span': span generator 2, (x, y + x^5), needs an exact "
        "inverse of degree <= 4 when a generator has a constant term\n"
    )


@pytest.mark.parametrize(
    "context, name",
    [("metabelian", "metabelian"), ("polynilpotent --c 1,2", "polynilpotent")],
)
def test_lie_ideal_context_on_associative_algebra_exit_code_1(tmp_path, capsys, context, name):
    """Both contexts are ideals of a Lie algebra: on assoc(3) they used to
    certify this map AbsolutelyWild "modulo L''" with witness 1(x)y."""
    path = write(
        tmp_path,
        "variety assoc(3) vars x,y,z\nphi := auto(x + x*y, y, z)\n"
        f"detect-wild phi --context {context}\n",
    )
    rc = cli.main(["run", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert (
        f"error: line 3: in 'detect-wild': the {name} context needs a Lie ambient, not assoc"
        in captured.err
    )
    assert captured.out == ""


def test_var_m2k_on_assoc_rank_4_exit_code_1(tmp_path, capsys):
    """In four variables the standard polynomial s_4, of degree 4, is an
    identity of M_2(K) (Amitsur-Levitzki), so the registry's least
    degree 5 is false there.  This map used to be certified
    AbsolutelyWild with min_degree 5 (IA level 3, witness 1(x)x2*x3*x4)."""
    script = (
        "variety assoc(4)\nf := auto(x1 + x1*x2*x3*x4, x2, x3, x4)\n"
        "detect-wild f --context var-m2k\n"
    )
    rc = cli.main(["run", write(tmp_path, script)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (
        "error: line 3: in 'detect-wild': Var(M_2(K)) has the degree-4 identity s_4 "
        "in 4 or more variables; the var-m2k context needs assoc rank at most 3, not 4\n"
    )
    assert captured.out == ""


EVERY_FLAG_SCRIPT = """\
# every declared flag of every command, at least once
variety lie(3)
let u = [x1,x2]
a := auto(x1 + [x2,x3], x2, x3)
b := auto(x1, x2 + [x3,x1], x3)
m := auto(x1 + [[x1,x2],x2], x2, x3)
D := deriv([x2,x3], 0*x1, [x1,x2])
eval u + [u,x3]
apply a [x1,x2]
ia-level a --max-degree 5
tangent a --max-degree 5 as Ta
jacobian a
divergence a --max-degree 5
divergence D
compose a b --max-degree 4 as ab
invert a --degree 5 as ainv
commutator a b --degree 4 as ab_comm
ia-level ab_comm --max-degree 4
detect-wild m --context metabelian --evidence builtin --max-degree 6
detect-wild m --context nilpotent --class 3 --evidence truncation
detect-wild m --context polynilpotent --c 2,1 --evidence user
detect-wild m --context var-m2k
detect-wild m --context user --tag lab-note --min-degree 3
build-polynilpotent --c 2 1 --rank 3 --limit 8 as psi
ia-level psi
span --gens a,b --degree 1 --samples 3 --seed 2 --conjugate
"""


def test_every_declared_flag_keeps_its_report(tmp_path, capsys):
    """Each flag of the command table reaches its handler: the report is
    pinned byte for byte, so a flag read under a wrong name (and so left
    at its default) changes it."""
    used = {(line.split()[0], word[2:]) for line in EVERY_FLAG_SCRIPT.splitlines()
            for word in line.split() if word.startswith("--")}
    assert used == {(cmd, f) for cmd, spec in COMMANDS.items() for f in spec.flags}
    rc = cli.main(["run", write(tmp_path, EVERY_FLAG_SCRIPT), "--json"])
    expected = (Path(__file__).parent / "data" / "every_flag.json").read_text(encoding="utf-8")
    assert rc == 0
    assert capsys.readouterr().out == expected


def test_every_declared_flag_keeps_its_text_report(tmp_path, capsys):
    """The text report of the same script, pinned byte for byte: it holds
    each branch of the text renderer, a matrix (``jacobian``), lists, a
    dict (``per_level_counts``) and scalars."""
    rc = cli.main(["run", write(tmp_path, EVERY_FLAG_SCRIPT)])
    expected = (Path(__file__).parent / "data" / "every_flag.txt").read_text(encoding="utf-8")
    assert rc == 0
    assert capsys.readouterr().out == expected


def test_cold_degree_10_inverse_keeps_its_report(capsys, monkeypatch):
    """A free-Lie inverse at degree 10 with no Lyndon record formed yet:
    the printout forms the records of every Lyndon word it reads (their
    expansions, order keys, parts and bracket strings), a path no
    benchmark op runs cold.  The script, ``tests/data/invert_degree10.tia``,
    is also the one CI times cold with ``tests/cold_runs.py``; its text
    report is pinned byte for byte."""
    monkeypatch.setattr(freealg, "_WORDS", freealg._Words())
    data = Path(__file__).parent / "data"
    rc = cli.main(["run", str(data / "invert_degree10.tia")])
    expected = (data / "invert_degree10.txt").read_text(encoding="utf-8")
    assert rc == 0
    assert capsys.readouterr().out == expected


def test_closed_output_pipe_exits_1_without_a_traceback(tmp_path):
    """A reader that stops early, as ``tangentia run s.tia | head -c 10``
    does, closes the pipe while the report (about 1 MB here, far more
    than a pipe holds) is still being written."""
    path = write(tmp_path, "variety assoc(2) vars a,b\nlet w = (a+b)^15\neval w\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    with subprocess.Popen(
        [sys.executable, "-m", "tangentia.cli", "run", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.read(10) == b"== eval\n  "
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert err == ""


def test_closed_output_pipe_in_process_exits_1(tmp_path, monkeypatch):
    """The same handler run in this process: an output whose flush meets a
    closed pipe.  Its descriptor is a temporary file's, so the handler
    points that file's descriptor, not this process's stdout, at devnull,
    and closes the devnull descriptor it opened for that."""
    opened = []

    def record_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    class ClosedPipe(io.StringIO):
        def fileno(self):
            return out.fileno()

        def flush(self):
            raise BrokenPipeError

    real_open = os.open
    with open(tmp_path / "out", "w") as out:
        monkeypatch.setattr(os, "open", record_open)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            rc = cli.main(["run", write(tmp_path, "variety polynomial(2)\neval x1^2\n")])
        finally:
            monkeypatch.undo()
        assert rc == 1
        assert len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])


@pytest.mark.parametrize("value", ["3/2", "-3/2", "0", "2"])
def test_eval_of_a_scalar_in_a_unital_variety(tmp_path, capsys, value):
    """A scalar is an element of a unital variety, printed as before."""
    rc = cli.main(["run", write(tmp_path, f"variety polynomial(2)\neval {value}\n")])
    assert rc == 0
    assert capsys.readouterr().out == f"== eval\n  value: {value}\n"


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_corpus_script_keeps_its_report(tmp_path, capsys, name):
    """The JSON report of each shipped corpus script is pinned byte for
    byte."""
    rc = cli.main(["run", write(tmp_path, corpus.script_source(name)), "--json"])
    expected = (Path(__file__).parent / "data" / "corpus" / f"{name}.json").read_text(
        encoding="utf-8"
    )
    assert rc == 0
    assert capsys.readouterr().out == expected


def test_long_word_substitution_exit_code_0(tmp_path, capsys):
    script = "variety assoc(2) vars a,b\nf := auto(b, a)\nlet w = a^1200\napply f w\n"
    rc = cli.main(["run", write(tmp_path, script), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["output"]["value"] == "*".join(["b"] * 1200)


# ``let w = `` puts the first token of the expression in column 9
@pytest.mark.parametrize(
    "expr, column",
    [
        # the opener past the budget is the (MAX_NESTING + 1)-th
        ("(" * 250 + "x1" + ")" * 250, 9 + MAX_NESTING),
        # every unary minus opens a level, so the one past the budget is
        # the (MAX_NESTING + 1)-th, two columns per "- "
        ("- " * 250 + "x1", 9 + 2 * MAX_NESTING),
    ],
    ids=["parentheses", "unary-minus"],
)
def test_deep_nesting_exit_code_1(tmp_path, capsys, expr, column):
    """Nesting past the parser's budget is a script error with its line
    and column, not a RecursionError (exit 2)."""
    script = f"variety polynomial(1)\nlet w = {expr}\neval w\n"
    rc = cli.main(["run", write(tmp_path, script)])
    captured = capsys.readouterr()
    assert rc == 1
    assert (
        f"error: line 2, column {column}: expression nests deeper than "
        f"{MAX_NESTING} levels" in captured.err
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "kind, expr, value",
    [
        ("polynomial", "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING, "x1"),
        ("polynomial", "- " * MAX_NESTING + "x1", "x1"),
        (
            "lie",
            "[x1, " * MAX_NESTING + "x2" + "]" * MAX_NESTING,
            "[x1," * MAX_NESTING + "x2" + "]" * MAX_NESTING,
        ),
    ],
    ids=["parentheses", "unary-minus", "brackets"],
)
def test_nesting_at_the_budget_runs(tmp_path, capsys, kind, expr, value):
    script = f"variety {kind}(2)\nlet w = {expr}\neval w\n"
    rc = cli.main(["run", write(tmp_path, script), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["output"]["value"] == value


@pytest.mark.parametrize(
    "script, where",
    [
        ("variety polynomial(2) vars as,b\n", "line 1, column 28"),
        ("variety polynomial(2)\nlet as = x1\n", "line 2, column 5"),
        ("variety polynomial(2)\nas := auto(x2, x1)\n", "line 2, column 1"),
        ("variety polynomial(2)\nf := auto(x2, x1)\ninvert f as as\n", "line 3, column 13"),
    ],
)
def test_as_cannot_name_a_value_exit_code_1(tmp_path, capsys, script, where):
    """``as`` ends a command's arguments, so a value named ``as`` could
    never be used: the name is rejected where it is given."""
    rc = cli.main(["run", write(tmp_path, script)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {where}: 'as' cannot name a value" in captured.err
    assert captured.out == ""
