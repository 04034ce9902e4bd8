"""The script language: tokenizer, parser, evaluator, and commands."""
import random
from fractions import Fraction
from importlib import resources

import pytest

from tangentia import (
    AlgebraError,
    compose,
    corpus,
    free_associative,
    free_lie,
    polynomial,
    truncated_inverse,
)
from tangentia.dsl import (
    DslError,
    LetBinding,
    MapDef,
    Session,
    VarietyDecl,
    parse,
    run_source,
    tokenize,
)


def run(src, **kw):
    return run_source(src, **kw)


def outputs(src, **kw):
    return [rec["output"] for rec in run(src, **kw)]


# -- tokenizer and statement splitting --------------------------------------


def test_tokenize_positions_and_comments():
    toks = tokenize("let f = x # trailing comment\n")
    assert [t.value for t in toks] == ["let", "f", "=", "x"]
    assert toks[0].line == 1 and toks[0].col == 1


def test_tokenize_rejects_stray_characters():
    with pytest.raises(DslError, match="line 1"):
        tokenize("let f = x $ y")


def test_statements_split_on_semicolons_and_newlines():
    a = run("variety polynomial(1) vars x; eval x; eval x*x")
    b = run("variety polynomial(1) vars x\neval x\neval x*x")
    assert a == b
    # newlines inside open parens do not split
    c = run("variety polynomial(1) vars x\nphi := auto(\n  x + x^2\n)\nia-level phi")
    assert c[0]["command"] == "ia-level"


# -- parser errors ----------------------------------------------------------


def test_unknown_statement():
    with pytest.raises(DslError, match="unknown statement"):
        run("variety polynomial(1) vars x; frobnicate x")


def test_unknown_variety_kind():
    with pytest.raises(DslError, match="unknown variety kind"):
        run("variety quantum(2)")
    with pytest.raises(DslError, match="unknown variety kind 'Lie'"):
        run("variety Lie(2)")


@pytest.mark.parametrize(
    "name, kind",
    [("polynomial", "polynomial"), ("assoc", "assoc"), ("associative", "assoc"),
     ("lie", "lie"), ("metabelian", "metabelian")],
)
def test_variety_kind_names(name, kind):
    session = Session()
    session.run(parse(f"variety {name}(2) vars a,b"))
    assert session.variety.kind.value == kind
    assert session.variety.names == ("a", "b")


def test_variety_declared_twice():
    with pytest.raises(DslError, match="already declared"):
        run("variety polynomial(1) vars x; variety polynomial(1) vars y")


def test_command_before_variety():
    with pytest.raises(DslError, match="no variety declared"):
        run("eval 1")


def test_undefined_name_with_position():
    with pytest.raises(DslError, match="undefined name 'q'"):
        run("variety polynomial(1) vars x; eval q")


def test_error_without_column_names_only_the_line():
    with pytest.raises(DslError) as err:
        run("variety polynomial(1) vars x\nlet f = x\nia-level b")
    assert str(err.value) == "line 3: undefined name 'b'"


def test_empty_expression_in_let():
    with pytest.raises(DslError):
        run("variety polynomial(1) vars x; let f =")


def test_unbalanced_brackets():
    with pytest.raises(DslError):
        run("variety lie(2); eval [x1, x2")


# -- expressions ------------------------------------------------------------


def test_arithmetic_and_rationals():
    out = outputs(
        "variety polynomial(2) vars x,y\n"
        "let f = 1/2 + x - 3*x*y + y^2\n"
        "eval f\n"
        "eval -f\n"
        "eval 2/3 * f - f * 2/3\n"
        "eval (1/2)^3*x - y*2^2 + (2/3)^0*x*y*(3/2)"
    )
    assert out[0]["value"] == "1/2 + x + y^2 - 3*x*y"
    assert out[1]["value"] == "-1/2 - x - y^2 + 3*x*y"
    assert out[2]["value"] == "0"
    # a rational's power is a rational, which scales an element on either side
    assert out[3]["value"] == "-4*y + 1/8*x + 3/2*x*y"


def test_bracket_is_commutator_in_unital_varieties():
    out = outputs("variety assoc(2)\neval [x1,x2]\neval x1*x2 - x2*x1")
    assert out[0]["value"] == out[1]["value"] == "x1*x2 - x2*x1"


def test_bracket_is_product_in_lie_varieties():
    out = outputs("variety lie(2)\neval [x1,[x1,x2]]")
    assert out[0]["value"] == "[x1,[x1,x2]]"


def test_printed_elements_reparse_to_themselves():
    cases = [
        ("polynomial(2) vars x,y", "1/2 + x - 3*x*y + y^2"),
        ("assoc(2)", "x1*x2*x1 - 3*x2 + [x1,x2]"),
        ("lie(2)", "[x1,[x1,x2]] - 2*[x1,x2]"),
        ("metabelian(3)", "[[y2,y1],y3] + y1"),
    ]
    for decl, expr in cases:
        first = outputs(f"variety {decl}\neval {expr}")[0]["value"]
        second = outputs(f"variety {decl}\neval {first}")[0]["value"]
        assert first == second


# precedence levels of the rendered trees: an operand binds at least as
# tightly as its slot asks, or is put in parentheses
SUM, PRODUCT, UNARY, POWER, ATOM = range(5)


def _random_tree(rng, depth, lie, element):
    """A random expression tree of the given depth at most; ``element``
    asks for an element-valued one, else it may be a scalar.  A Lie tree
    has no ``^`` and no scalar in a sum."""
    ops = ["leaf"] if depth == 0 else ["leaf", "neg", "+", "-", "*", "[]"] + ([] if lie else ["^"])
    op = rng.choice(ops)
    sub = depth - 1
    if op == "leaf":
        if element or rng.random() < 0.5:
            return ("name", rng.choice("xy"))
        return ("lit", Fraction(rng.randint(0, 5), rng.randint(1, 3)))
    if op == "neg":
        return ("neg", _random_tree(rng, sub, lie, element))
    if op == "^":
        return ("^", _random_tree(rng, sub, lie, element), rng.randint(0, 3))
    if op == "[]":
        return ("[]", _random_tree(rng, sub, lie, True), _random_tree(rng, sub, lie, True))
    if op == "*":  # an element when one factor is
        first = element and rng.random() < 0.5
        second = element and not first
    else:  # an element when one term is; a Lie sum has no scalar term
        first, second = element or lie, lie
    pair = [_random_tree(rng, sub, lie, first), _random_tree(rng, sub, lie, second)]
    rng.shuffle(pair)
    return (op, *pair)


def _degree_bound(tree):
    op = tree[0]
    if op in ("name", "lit"):
        return int(op == "name")
    if op == "neg":
        return _degree_bound(tree[1])
    if op == "^":
        return _degree_bound(tree[1]) * tree[2]
    a, b = _degree_bound(tree[1]), _degree_bound(tree[2])
    return max(a, b) if op in "+-" else a + b


def _render(tree):
    """The tree's text with the fewest parentheses the precedence allows,
    and its level; a space follows each unary minus, since ``--y`` reads
    as a flag."""

    def at(sub, least):
        text, level = _render(sub)
        return text if level >= least else f"({text})"

    op = tree[0]
    if op == "name":
        return tree[1], ATOM
    if op == "lit":
        return str(tree[1]), ATOM  # p/q, or p when q is 1
    if op == "[]":
        return f"[{at(tree[1], SUM)}, {at(tree[2], SUM)}]", ATOM
    if op == "^":
        return f"{at(tree[1], POWER)}^{tree[2]}", POWER
    if op == "neg":
        return "- " + at(tree[1], UNARY), UNARY
    if op == "*":
        return f"{at(tree[1], PRODUCT)} * {at(tree[2], UNARY)}", PRODUCT
    return f"{at(tree[1], SUM)} {op} {at(tree[2], PRODUCT)}", SUM


def _value(tree, variety):
    """The tree's value by the algebra's own operators, a scalar beside
    an element read as a constant, as the script language reads it."""
    op = tree[0]
    if op == "name":
        return variety.gen("xy".index(tree[1]))
    if op == "lit":
        return tree[1]
    if op == "neg":
        return -_value(tree[1], variety)
    if op == "^":
        v = _value(tree[1], variety)
        return v ** tree[2] if isinstance(v, Fraction) else v.power(tree[2])
    a, b = _value(tree[1], variety), _value(tree[2], variety)
    if op == "*":
        return a * b
    if op == "[]":
        return a * b if variety.is_lie else a * b - b * a
    if isinstance(a, Fraction) != isinstance(b, Fraction):
        a, b = (variety.scalar(v) if isinstance(v, Fraction) else v for v in (a, b))
    return a + b if op == "+" else a - b


@pytest.mark.parametrize(
    "variety",
    [make(2, ("x", "y")) for make in (polynomial, free_associative, free_lie)],
    ids=["polynomial", "assoc", "lie"],
)
def test_evaluator_agrees_with_the_algebra_operators(variety):
    """Seeded random trees of depth at most 4, each printed with the
    fewest parentheses the precedence allows: ``eval`` prints what the
    algebra's operators compute.  Degrees stay at most 8, so no power
    runs away."""
    rng = random.Random(7)
    trees = []
    while len(trees) < 300:
        tree = _random_tree(rng, 4, variety.is_lie, variety.is_lie)
        if _degree_bound(tree) <= 8:
            trees.append(tree)
    source = f"variety {variety.kind.value}(2) vars x,y\n" + "".join(f"eval {_render(t)[0]}\n" for t in trees)
    got = [out["value"] for out in outputs(source)]
    want = []
    for tree in trees:
        v = _value(tree, variety)
        want.append(str(variety.scalar(v) if isinstance(v, Fraction) else v))
    mismatches = [(_render(t)[0], g, w) for t, g, w in zip(trees, got, want) if g != w]
    assert not mismatches


# unary minus binds below ^ and above *, wherever it stands
UNARY_MINUS = [
    ("polynomial", "2 * -3^2", "-18"),
    ("polynomial", "x - -x^2", "x + x^2"),
    ("polynomial", "x * -y^0", "-x"),
    ("polynomial", "-x^2", "-x^2"),
    ("polynomial", "(-x)^2", "x^2"),
    ("lie", "[x,-y]", "-[x,y]"),
]


@pytest.mark.parametrize("kind, expr, value", UNARY_MINUS, ids=[e for _, e, _ in UNARY_MINUS])
def test_unary_minus_binds_below_powers(kind, expr, value):
    assert outputs(f"variety {kind}(2) vars x,y\neval {expr}")[0]["value"] == value


def test_constants_rejected_in_lie_varieties():
    with pytest.raises(DslError, match="no constants"):
        run("variety lie(2); let c = 1")
    with pytest.raises(DslError):
        run("variety metabelian(2); eval y1 + 1")


def test_powers_rejected_in_lie_varieties():
    with pytest.raises(DslError):
        run("variety lie(2); eval x1^2")


# -- definitions and commands -----------------------------------------------


def test_auto_and_apply():
    out = outputs(
        "variety polynomial(2) vars x,y\n"
        "phi := auto(x + y^2, y)\n"
        "apply phi x*y"
    )
    assert out[0]["value"] == "x*y + y^3"


def test_deriv_and_divergence():
    out = outputs(
        "variety polynomial(2) vars x,y\n"
        "E := deriv(x, y)\n"
        "divergence E"
    )
    assert out[0]["divergence"] == "2"
    assert out[0]["is_zero"] is False


def test_ia_level_and_tangent():
    out = outputs(
        "variety polynomial(2) vars x,y\n"
        "phi := auto(x + y^2 + y^3, y)\n"
        "ia-level phi\n"
        "tangent phi as T\n"
        "divergence phi\n"
        "chi := auto(x + 1, y)\n"
        "ia-level chi"
    )
    assert out[0]["status"] == "level" and out[0]["i"] == 1
    assert out[0]["text"] == "IA(1)"
    assert out[1]["coords"] == ["y^2", "0"]
    assert out[2]["is_zero"] is True
    assert out[3]["status"] == "not-ia"
    assert out[3]["text"] == "not IA"


def test_jacobian_output():
    out = outputs(
        "variety polynomial(2) vars x,y\nphi := auto(x + y^2, y)\njacobian phi"
    )
    mat = out[0]["matrix"]
    # rows follow the coordinates: entry [i][j] differentiates f_i by x_j
    assert mat[0][0] == "1" and mat[0][1] == "2*y" and mat[1][1] == "1"
    assert mat[1][0] == "0"


def test_invert_checks_a_map_with_a_constant_on_its_own_side():
    """With a constant only psi(phi(x)) = x holds through k, and that is
    what ``invert`` checks; phi(psi(x)) differs in low degrees."""
    src = "variety polynomial(2) vars x,y\nphi := auto(x + 1 + y^2, y + x^2)\n"
    out = outputs(src + "invert phi --degree 6")
    assert out[0]["identity_through_degree"] is True
    session = Session()
    session.run(parse(src))
    phi = session.env["phi"]
    inv = truncated_inverse(phi, 6)
    assert compose(phi, inv, max_degree=6).is_identity_through(6)
    assert not compose(inv, phi, max_degree=6).is_identity_through(6)


def test_truncated_compose_substitutes_a_constant_into_every_degree():
    """b's x^5 at a's x + 1 reaches down to degree 0: the cut composition
    used to cut b's images first and printed 0 for x's image."""
    out = outputs(
        "variety polynomial(2) vars x,y\na := auto(x + 1, y)\nb := auto(x^5, y)\n"
        "compose a b --max-degree 2"
    )
    assert out[0]["images"] == ["1 + 5*x + 10*x^2", "y"]


def test_compose_invert_commutator():
    out = outputs(
        "variety polynomial(2) vars x,y\n"
        "phi := auto(x + y^2, y)\n"
        "psi := auto(x, y + x^2)\n"
        "compose phi psi as prod\n"
        "invert phi --degree 6 as phi_inv\n"
        "compose phi phi_inv as check\n"
        "ia-level check --max-degree 6\n"
        "commutator phi psi --degree 6 as comm\n"
        "ia-level comm --max-degree 6"
    )
    assert out[0]["images"][1] == "y + x^2 + 2*x*y^2 + y^4"
    assert out[1]["identity_through_degree"] is True
    assert out[3]["status"] == "identity"
    assert out[5]["status"] == "level" and out[5]["i"] == 2


def test_detect_wild_metabelian():
    out = outputs(
        "variety metabelian(3)\n"
        "phi := auto(y1 + [[y1,y2],y2], y2, y3)\n"
        "detect-wild phi --context metabelian"
    )
    rec = out[0]
    assert rec["verdict"] == "AbsolutelyWild"
    assert rec["min_degree"] == 4
    assert rec["reasons"] == []


def test_detect_wild_rank2_associative():
    out = outputs(
        "variety assoc(2)\n"
        "phi := auto(x1 + [x1,x2]*[x1,x2], x2)\n"
        "detect-wild phi --context var-m2k"
    )
    assert out[0]["verdict"] == "AbsolutelyWild"
    assert out[0]["min_degree"] == 5


def test_detect_wild_inconclusive_with_reasons():
    out = outputs(
        "variety metabelian(3)\n"
        "tau := auto(y1 + [y2,y3], y2, y3)\n"
        "detect-wild tau --context metabelian"
    )
    assert out[0]["verdict"] == "Inconclusive"
    assert "divergence of the tangent is zero" in out[0]["reasons"]


def test_build_polynilpotent_command():
    out = outputs(
        "variety lie(3)\nbuild-polynilpotent --c 2,1 --rank 3 as psi\nia-level psi"
    )
    rec = out[0]
    assert rec["c"] == [2, 1]
    assert rec["product_bound"] == 6
    assert rec["inequality_holds"] is True
    assert rec["materialized"] is True
    assert out[1]["status"] == "level" and out[1]["i"] == 4


def test_build_polynilpotent_rejects_1_1():
    with pytest.raises(DslError, match=r"inequality \(99\)"):
        run("variety lie(3)\nbuild-polynilpotent --c 1,1")


def test_span_command():
    out = outputs(
        "variety polynomial(3) vars x,y,z\n"
        "a := auto(x + y^2, y, z)\n"
        "b := auto(x, y + z^2, z)\n"
        "span --gens a,b --degree 1 --samples 30 --seed 5"
    )
    rec = out[0]
    assert rec["degree"] == 1 and rec["samples"] == 30 and rec["seed"] == 5
    assert 0 < rec["rank"] <= rec["oracle_kernel_rank"]
    assert rec["oracle_kernel_rank"] == 15


def test_run_source_is_deterministic():
    src = (
        "variety polynomial(3) vars x,y,z\n"
        "a := auto(x + y^2, y, z)\n"
        "b := auto(x, y + z^2, z)\n"
        "tangent a\n"
        "span --gens a,b --degree 1 --samples 25 --seed 11"
    )
    assert run(src) == run(src)


def test_session_seed_flag_feeds_span_default():
    src = (
        "variety polynomial(3) vars x,y,z\n"
        "a := auto(x + y^2, y, z)\n"
        "span --gens a --degree 1 --samples 10"
    )
    assert outputs(src, seed=3)[0]["seed"] == 3


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_corpus_builder_matches_its_script(name):
    """The map a shipped corpus script defines is the map
    ``corpus.build`` returns: the script's variety, let and :=
    statements, run without its commands, bind exactly one map, equal to
    the one ``build`` returns."""
    session = Session()
    defs = []
    for stmt in parse(corpus.script_source(name)):
        if isinstance(stmt, (VarietyDecl, LetBinding, MapDef)):
            session.execute(stmt)
        if isinstance(stmt, MapDef):
            defs.append(stmt.name)
    assert len(defs) == 1
    assert session.env[defs[0]] == corpus.build(name)


# what each corpus map prints: a reference for the scripts that does not
# come from them; map equality ignores generator names, so they are pinned
# here too
CORPUS_PRINTS = {
    "nagata": (
        ("x", "y", "z"),
        "(x - 2*y^3 + 2*x*y*z + y^4*z - 2*x*y^2*z^2 + x^2*z^3, y - y^2*z + x*z^2, z)",
    ),
    "anick": (("x", "y", "z"), "(x + z*x*z - z*z*y, y + x*z*z - z*y*z, z)"),
    "bergman": (
        ("x1", "x2"),
        "(x1 + x1*x2*x1*x2 - x1*x2*x2*x1 - x2*x1*x1*x2 + x2*x1*x2*x1, x2)",
    ),
    "drensky-exp": (
        ("y1", "y2", "y3"),
        "(y1 - [[y2,y1],y1], y2 - [[y2,y1],y2], y3 - [[y2,y1],y3])",
    ),
    "tau": (("y1", "y2", "y3"), "(y1 - [y3,y2], y2, y3)"),
    "chein-cubic": (
        ("y1", "y2", "y3"),
        "(y1 + [[y2,y1],y3] - [[y3,y1],y2], y2, y3)",
    ),
}


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_corpus_build_prints_pinned_map(name):
    phi = corpus.build(name)
    assert (phi.variety.names, repr(phi)) == CORPUS_PRINTS[name]


def test_corpus_names_match_shipped_scripts():
    """Adding a corpus map means adding one script and one name."""
    scripts = resources.files("tangentia").joinpath("corpus_scripts")
    stems = {
        f.name[: -len(".tia")] for f in scripts.iterdir() if f.name.endswith(".tia")
    }
    assert stems == set(corpus.CORPUS_NAMES)


@pytest.mark.parametrize(
    "src",
    [
        "variety polynomial(2) vars x,y\nlet c = x*y\neval c",
        "variety polynomial(2) vars x,y\na := auto(x, y)\nb := auto(y, x)",
    ],
)
def test_corpus_build_needs_exactly_one_map(monkeypatch, src):
    monkeypatch.setattr(corpus, "script_source", lambda name: src)
    with pytest.raises(AlgebraError, match="defines [02] maps, not one"):
        corpus.build("nagata")
