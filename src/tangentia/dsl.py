"""Script language for driving the library from text files.

A script is a sequence of statements separated by semicolons or line
breaks.  Statement forms:

* ``variety polynomial(3) vars x,y,z`` -- exactly one per script, rank at
  most ``MAX_RANK``; kinds are ``polynomial``, ``assoc``, ``lie``, ``metabelian``
* ``let NAME = EXPR`` -- bind an algebra element
* ``NAME := auto(E1, ..., En)`` -- define an endomorphism
* ``NAME := deriv(E1, ..., En)`` -- define a derivation
* ``COMMAND ARGS [--flag VALUES]... [as NAME]`` -- a command from
  ``COMMANDS``: ``eval``, ``apply``, ``ia-level``, ``tangent``,
  ``jacobian``, ``divergence``, ``compose``, ``invert``, ``commutator``,
  ``detect-wild``, ``build-polynilpotent``, ``span``

``COMMANDS`` declares, for each command, its positional form, each flag
it takes with the type of its value (one integer, integers, one name,
names, or none for a switch, with an integer's least value) and whether
it binds its result with ``as NAME``.  The parser checks every command
statement against it, so a handler receives its arguments and typed
flags already checked.  A flag value ``-N``, with no space after the
minus, is a negative integer.

Expressions support ``+``, ``-``, explicit ``*``, ``^`` (unital
varieties), ``[a,b]`` brackets, parentheses, and rational literals
``p/q``.  ``#`` starts a comment.  Parentheses, brackets and unary
minus nest at most ``MAX_NESTING`` levels deep; deeper nesting is a
script error, since the parser recurses once per level.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .freealg import AlgebraError, Element, Kind, Variety
from .envelope import env_str, trace_str
from .deriv import Derivation, divergence
from .fox import jacobian as fox_jacobian
from .morphism import (
    DEFAULT_MAX_DEGREE,
    Endomorphism,
    compose,
    compose_all,
    group_commutator,
    ia_level,
    tangent,
    truncated_inverse,
)
from . import wildness


# Nesting levels ("(", "[" and unary "-") an expression may open: each
# costs the parser up to four stack frames, so this stays well inside
# Python's default recursion limit of 1000.
MAX_NESTING = 100
# The greatest rank a script may declare or pass to --rank: a rank-n variety
# builds n generator keys up to n long, so a huge rank could exhaust memory.
MAX_RANK = 100


class DslError(AlgebraError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            where = f"line {line}" if col is None else f"line {line}, column {col}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, NUMBER, FLAG, OP, ASSIGN
    value: object
    line: int
    col: int
    end: int = 0  # end column, for adjacency checks


_TOKEN_RE = re.compile(
    r"""(?P<flag>--[A-Za-z][A-Za-z0-9-]*)
      | (?P<assign>:=)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+)
      | (?P<op>[-+*^/()\[\],;=])
      | (?P<ws>[ \t]+)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def tokenize(source):
    tokens = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            col = pos + 1
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            if m.lastgroup == "bad":
                raise DslError(f"unexpected character {m.group()!r}", lineno, col)
            if m.lastgroup == "flag":
                tokens.append(Token("FLAG", m.group()[2:], lineno, col, pos + 1))
            elif m.lastgroup == "assign":
                tokens.append(Token("ASSIGN", ":=", lineno, col, pos + 1))
            elif m.lastgroup == "name":
                tokens.append(Token("NAME", m.group(), lineno, col, pos + 1))
            elif m.lastgroup == "number":
                tokens.append(Token("NUMBER", int(m.group()), lineno, col, pos + 1))
            else:
                tokens.append(Token("OP", m.group(), lineno, col, pos + 1))
    return tokens


def split_statements(tokens):
    """Group tokens into statements: ``;`` always separates; a line break
    separates when no parenthesis or bracket is open."""
    statements = []
    cur = []
    depth = 0
    prev_line = None
    for tok in tokens:
        if prev_line is not None and tok.line != prev_line and depth == 0 and cur:
            statements.append(cur)
            cur = []
        prev_line = tok.line
        if tok.kind == "OP" and tok.value in "([":
            depth += 1
        elif tok.kind == "OP" and tok.value in ")]":
            depth -= 1
        if tok.kind == "OP" and tok.value == ";" and depth == 0:
            if cur:
                statements.append(cur)
                cur = []
            continue
        cur.append(tok)
    if cur:
        statements.append(cur)
    return statements


# -- AST --------------------------------------------------------------------


@dataclass
class VarietyDecl:
    kind_name: str
    rank: int
    names: tuple
    line: int


@dataclass
class LetBinding:
    name: str
    expr: list  # expression tokens
    line: int


@dataclass
class MapDef:
    name: str
    map_kind: str  # "auto" | "deriv"
    arg_exprs: list  # list of token lists
    line: int


@dataclass
class Command:
    name: str
    args: list  # positional: token lists (expressions) or plain names
    flags: dict
    bind_as: str | None
    line: int


# flag value types: (value class, takes a list of one or more values, least
# and greatest value accepted, None for no bound); SWITCH marks a flag that
# takes no value
NAME, NAMES = (str, False, None, None), (str, True, None, None)
SWITCH = None


def _ints(least=None, many=False, most=None):
    """An integer flag type: one value, or one or more with ``many``, each
    at least ``least`` and at most ``most`` unless that is None."""
    return (int, many, least, most)


class CommandSpec(NamedTuple):
    """What a command accepts."""

    args: str  # positional form: "expr", "map expr", or a key of _NAME_FORMS
    flags: dict  # flag name -> value type
    binds: bool  # takes a trailing ``as NAME``


# every integer flag's least value: degrees and counts >= 0, nilpotency
# parameters >= 1, an identity's least degree >= 2, a witness rank >= 3
# (and <= MAX_RANK); --seed takes any integer, and span's --degree is
# checked (>= 1) by wildness.tangent_span
_MAX_DEGREE = {"max-degree": _ints(0)}

COMMANDS = {
    "eval": CommandSpec("expr", {}, False),
    "apply": CommandSpec("map expr", {}, False),
    "ia-level": CommandSpec("map", _MAX_DEGREE, False),
    "tangent": CommandSpec("map", _MAX_DEGREE, True),
    "jacobian": CommandSpec("map", {}, False),
    "divergence": CommandSpec("map", _MAX_DEGREE, False),
    "compose": CommandSpec("maps", _MAX_DEGREE, True),
    "invert": CommandSpec("map", {"degree": _ints(0)}, True),
    "commutator": CommandSpec("map map", {"degree": _ints(0)}, True),
    "detect-wild": CommandSpec(
        "map",
        {"context": NAME, "evidence": NAME, "class": _ints(1), "c": _ints(1, many=True),
         "min-degree": _ints(2), "tag": NAME, "max-degree": _ints(0)},
        False,
    ),
    "build-polynilpotent": CommandSpec(
        "", {"c": _ints(1, many=True), "rank": _ints(3, most=MAX_RANK), "limit": _ints(0)}, True
    ),
    "span": CommandSpec(
        "",
        {"gens": NAMES, "degree": _ints(), "samples": _ints(0), "seed": _ints(),
         "conjugate": SWITCH},
        False,
    ),
}

# positional forms made of map names (commas between them are optional):
# least count, most count (None: no limit), and how the error names them
_NAME_FORMS = {
    "": (0, 0, "no arguments"),
    "map": (1, 1, "exactly one map"),
    "map map": (2, 2, "exactly two maps"),
    "maps": (2, None, "at least two maps"),
}


def _merge_hyphenated(tokens, i):
    """Read a possibly hyphenated keyword starting at index i; hyphens
    count only when the tokens are adjacent in the source."""
    parts = [tokens[i].value]
    j = i + 1
    while (
        j + 1 < len(tokens)
        and tokens[j].kind == "OP"
        and tokens[j].value == "-"
        and tokens[j + 1].kind == "NAME"
        and tokens[j].line == tokens[i].line
        and tokens[j].col == tokens[j - 1].end
        and tokens[j + 1].col == tokens[j].end
    ):
        parts.append(tokens[j + 1].value)
        j += 2
    return "-".join(parts), j


def parse(source):
    """A script's list of statements; raises DslError with positions."""
    return [_parse_statement(stmt) for stmt in split_statements(tokenize(source))]


def _parse_statement(toks):
    head = toks[0]
    if head.kind != "NAME":
        raise DslError(f"expected a statement keyword, got {head.value!r}", head.line, head.col)
    # NAME := auto(...) / deriv(...)
    if len(toks) > 1 and toks[1].kind == "ASSIGN":
        return _parse_mapdef(toks)
    word, after = _merge_hyphenated(toks, 0)
    if word == "variety":
        return _parse_variety(toks, after)
    if word == "let":
        return _parse_let(toks, after)
    if word in COMMANDS:
        return _parse_command(word, toks, after)
    raise DslError(f"unknown statement {word!r}", head.line, head.col)


# what a token of each kind is called when one is missing
_KIND_WORDS = {"NAME": "a name", "NUMBER": "a number"}


def _expect(toks, i, kind, value=None):
    if i >= len(toks):
        last = toks[-1]
        raise DslError(f"unexpected end of statement", last.line, last.end)
    t = toks[i]
    if t.kind != kind or (value is not None and t.value != value):
        want = repr(value) if value is not None else _KIND_WORDS[kind]
        raise DslError(f"expected {want}, got {t.value!r}", t.line, t.col)
    if value is None and t.value == "as":  # it ends a command's arguments
        raise DslError("'as' cannot name a value", t.line, t.col)
    return t


def _parse_variety(toks, i):
    kt = _expect(toks, i, "NAME")
    _expect(toks, i + 1, "OP", "(")
    rk = _expect(toks, i + 2, "NUMBER")
    if rk.value > MAX_RANK:
        raise DslError(f"rank must be <= {MAX_RANK}, got {rk.value}", rk.line, rk.col)
    _expect(toks, i + 3, "OP", ")")
    i += 4
    names = []
    if i < len(toks):
        _expect(toks, i, "NAME", "vars")
        i += 1
        while i < len(toks):
            names.append(_expect(toks, i, "NAME").value)
            i += 1
            if i < len(toks):
                _expect(toks, i, "OP", ",")
                i += 1
    return VarietyDecl(kt.value, rk.value, tuple(names), kt.line)


def _parse_let(toks, i):
    name = _expect(toks, i, "NAME")
    _expect(toks, i + 1, "OP", "=")
    expr = toks[i + 2 :]
    if not expr:
        raise DslError("empty expression", name.line, name.col)
    return LetBinding(name.value, expr, name.line)


def _parse_mapdef(toks):
    name = _expect(toks, 0, "NAME")
    kw = _expect(toks, 2, "NAME")
    if kw.value not in ("auto", "deriv"):
        raise DslError("expected auto(...) or deriv(...)", kw.line, kw.col)
    _expect(toks, 3, "OP", "(")
    if toks[-1].kind != "OP" or toks[-1].value != ")":
        raise DslError("unbalanced parentheses in definition", name.line, name.col)
    args = _split_commas(toks[4:-1])
    if not args or any(not a for a in args):
        raise DslError("empty coordinate in definition", kw.line, kw.col)
    return MapDef(name.value, kw.value, args, name.line)


def _split_commas(toks):
    out = [[]]
    depth = 0
    for t in toks:
        if t.kind == "OP" and t.value in "([":
            depth += 1
        elif t.kind == "OP" and t.value in ")]":
            depth -= 1
        if t.kind == "OP" and t.value == "," and depth == 0:
            out.append([])
        else:
            out[-1].append(t)
    return out


def _is_as(tok):
    return tok.kind == "NAME" and tok.value == "as"


def _flag_literal(toks, i):
    """The flag value starting at ``toks[i]`` and the index after it, or
    None: a name (possibly hyphenated), a number, or a ``-`` directly
    followed by a number, read as a negative integer."""
    t = toks[i]
    if t.kind == "NAME" and not _is_as(t):
        return _merge_hyphenated(toks, i)
    if t.kind == "NUMBER":
        return t.value, i + 1
    if (
        t.kind == "OP"
        and t.value == "-"
        and i + 1 < len(toks)
        and toks[i + 1].kind == "NUMBER"
        and toks[i + 1].line == t.line
        and toks[i + 1].col == t.end
    ):
        return -toks[i + 1].value, i + 2
    return None


def _parse_command(word, toks, i):
    """Check a command statement against its entry in ``COMMANDS``."""
    spec = COMMANDS[word]
    line = toks[0].line
    # positional arguments up to the first flag / 'as'
    pos = []
    while i < len(toks) and toks[i].kind != "FLAG" and not _is_as(toks[i]):
        pos.append(toks[i])
        i += 1
    args = _positional_args(word, spec.args, pos, line)
    # flags and the optional trailing 'as NAME', in any order
    flags = {}
    bind_as = None
    while i < len(toks):
        t = toks[i]
        if _is_as(t):
            if not spec.binds:
                raise DslError(f"{word} has no result to bind with 'as'", line)
            if bind_as is not None:
                raise DslError("'as' given twice", line)
            bind_as = _expect(toks, i + 1, "NAME").value
            i += 2
            continue
        if t.kind != "FLAG":
            raise DslError(f"unexpected token {t.value!r}", t.line, t.col)
        fname = t.value
        i += 1
        values = []
        while i < len(toks) and (read := _flag_literal(toks, i)):
            value, i = read
            values.append(value)
            if (
                i + 1 < len(toks)
                and toks[i].kind == "OP"
                and toks[i].value == ","
                and (toks[i + 1].kind in ("NAME", "NUMBER") or _flag_literal(toks, i + 1))
            ):
                i += 1
        if fname not in spec.flags:
            takes = ", ".join(f"--{f}" for f in spec.flags) or "no flags"
            raise DslError(f"{word} has no flag --{fname}; it takes {takes}", line)
        if fname in flags:
            raise DslError(f"flag --{fname} given twice", line)
        flags[fname] = _flag_value(fname, spec.flags[fname], values, line)
    return Command(word, args, flags, bind_as, line)


def _positional_args(word, form, pos, line):
    if form == "expr":
        if not pos:
            raise DslError(f"{word} needs an expression", line)
        return [pos]
    if form == "map expr":
        if len(pos) < 2 or pos[0].kind != "NAME":
            raise DslError(f"{word} needs a map name and an expression", line)
        return [pos[0].value, pos[1:]]
    names = []
    for t in pos:
        if t.kind == "NAME":
            names.append(t.value)
        elif t.kind != "OP" or t.value != ",":
            raise DslError(f"expected a name, got {t.value!r}", t.line, t.col)
    least, most, what = _NAME_FORMS[form]
    if len(names) < least or (most is not None and len(names) > most):
        raise DslError(f"{word} takes {what}, got {len(names)}", line)
    return names


def _flag_value(fname, kind, values, line):
    """The typed value of flag --fname: an int or a name, a list of them
    for a list type, or True for a switch."""
    if kind is SWITCH:
        if values:
            raise DslError(f"flag --{fname} takes no value", line)
        return True
    cls, many, least, most = kind
    if not values or any(type(v) is not cls for v in values):
        what = "an integer value" if cls is int else "a name"
        raise DslError(f"flag --{fname} needs {what}", line)
    for v in values:
        if least is not None and v < least:
            raise DslError(f"flag --{fname} must be >= {least}, got {v}", line)
        if most is not None and v > most:
            raise DslError(f"flag --{fname} must be <= {most}, got {v}", line)
    if many:
        return values
    if len(values) > 1:
        raise DslError(f"flag --{fname} takes one value, got {len(values)}", line)
    return values[0]


# -- expression evaluation --------------------------------------------------


class _ExprParser:
    """Recursive-descent evaluator over a token list and an environment."""

    def __init__(self, toks, session):
        self.toks = toks
        self.i = 0
        self.session = session
        self.depth = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        t = self._peek()
        if t is None:
            last = self.toks[-1]
            raise DslError("unexpected end of expression", last.line, last.end)
        self.i += 1
        return t

    def parse(self):
        v = self.expr()
        t = self._peek()
        if t is not None:
            raise DslError(f"unexpected token {t.value!r}", t.line, t.col)
        return v

    def expr(self):
        t = self._peek()
        if t is not None and t.kind == "OP" and t.value == "-":
            self._next()
            v = -self.term()
        else:
            v = self.term()
        while True:
            t = self._peek()
            if t is None or t.kind != "OP" or t.value not in "+-":
                return v
            self._next()
            rhs = self.term()
            v = self._add(v, rhs if t.value == "+" else -rhs, t)

    def term(self):
        v = self.power()
        while True:
            t = self._peek()
            if t is None or t.kind != "OP" or t.value != "*":
                return v
            self._next()
            v = v * self.power()

    def power(self):
        v = self.atom()
        while True:
            t = self._peek()
            if t is None or t.kind != "OP" or t.value != "^":
                return v
            op = self._next()
            e = self._next()
            if e.kind != "NUMBER":
                raise DslError("exponent must be a nonnegative integer", e.line, e.col)
            if isinstance(v, Fraction):
                v = v ** e.value
            else:
                try:
                    v = v.power(e.value)
                except AlgebraError as exc:
                    raise DslError(str(exc), op.line, op.col) from exc

    def atom(self):
        t = self._next()
        if t.kind == "NUMBER":
            nxt = self._peek()
            if nxt is not None and nxt.kind == "OP" and nxt.value == "/":
                self._next()
                d = self._next()
                if d.kind != "NUMBER" or d.value == 0:
                    raise DslError("malformed rational literal", t.line, t.col)
                return Fraction(t.value, d.value)
            return Fraction(t.value)
        if t.kind == "NAME":
            return self.session.lookup_value(t)
        if t.kind != "OP" or t.value not in ("(", "[", "-"):
            raise DslError(f"unexpected token {t.value!r}", t.line, t.col)
        if self.depth == MAX_NESTING:
            raise DslError(
                f"expression nests deeper than {MAX_NESTING} levels", t.line, t.col
            )
        self.depth += 1
        if t.value == "(":
            v = self.expr()
            close = self._next()
            if close.kind != "OP" or close.value != ")":
                raise DslError("expected ')'", close.line, close.col)
        elif t.value == "[":
            a = self.expr()
            comma = self._next()
            if comma.kind != "OP" or comma.value != ",":
                raise DslError("expected ',' in bracket", comma.line, comma.col)
            b = self.expr()
            close = self._next()
            if close.kind != "OP" or close.value != "]":
                raise DslError("expected ']'", close.line, close.col)
            v = self._bracket(a, b, t)
        else:
            v = -self.atom()
        self.depth -= 1
        return v

    def _add(self, a, b, tok):
        """``a + b``, a scalar beside an element read as a constant: a
        non-unital variety's error is placed at the ``+`` or ``-``."""
        try:
            if isinstance(a, Fraction) and isinstance(b, Element):
                a = b.variety.scalar(a)
            elif isinstance(b, Fraction) and isinstance(a, Element):
                b = a.variety.scalar(b)
        except AlgebraError as exc:
            raise DslError(str(exc), tok.line, tok.col) from exc
        return a + b

    def _bracket(self, a, b, tok):
        if not isinstance(a, Element) or not isinstance(b, Element):
            raise DslError("bracket arguments must be algebra elements", tok.line, tok.col)
        if a.variety.is_lie:
            return a * b
        return a * b - b * a


# -- execution --------------------------------------------------------------


_EVIDENCE = {
    "user": wildness.EVIDENCE_USER,
    "truncation": wildness.EVIDENCE_TRUNCATION,
    "builtin": wildness.EVIDENCE_BUILTIN,
}


class Session:
    """Executes a parsed script; accumulates one result record per command.

    Each ``_cmd_*`` handler takes a command's positional arguments and its
    typed flags, already checked against ``COMMANDS``, and returns its
    output record and the value ``as NAME`` binds (None for no value)."""

    def __init__(self, max_degree=DEFAULT_MAX_DEGREE, seed=0):
        self.variety = None
        self.env = {}
        self.max_degree = max_degree
        self.seed = seed
        self.results = []

    def lookup_value(self, tok):
        name = tok.value
        v = self.env.get(name)
        if v is None:
            raise DslError(f"undefined name {name!r}", tok.line, tok.col)
        if not isinstance(v, Element):
            raise DslError(f"{name!r} is not an algebra element", tok.line, tok.col)
        return v

    def lookup(self, name, types):
        v = self.env.get(name)
        if v is None:
            raise DslError(f"undefined name {name!r}")
        if not isinstance(v, types):
            raise DslError(f"{name!r} has the wrong type for this command")
        return v

    def run(self, statements):
        for stmt in statements:
            self.execute(stmt)
        return self.results

    def execute(self, stmt):
        handler = {
            VarietyDecl: self._do_variety,
            LetBinding: self._do_let,
            MapDef: self._do_mapdef,
            Command: self._do_command,
        }[type(stmt)]
        handler(stmt)

    def _eval(self, toks):
        return _ExprParser(toks, self).parse()

    def _require_variety(self, line):
        if self.variety is None:
            raise DslError("no variety declared yet", line, None)

    def _do_variety(self, stmt):
        if self.variety is not None:
            raise DslError("variety already declared", stmt.line, None)
        try:
            kind = Kind("assoc" if stmt.kind_name == "associative" else stmt.kind_name)
        except ValueError:
            raise DslError(f"unknown variety kind {stmt.kind_name!r}", stmt.line, None) from None
        try:
            self.variety = Variety(kind, stmt.rank, stmt.names)
        except AlgebraError as exc:
            raise DslError(str(exc), stmt.line, None) from exc
        for i, name in enumerate(self.variety.names):
            self.env[name] = self.variety.gen(i)

    def _element(self, toks, line):
        """The value of an expression, a scalar read as an element."""
        v = self._eval(toks)
        if isinstance(v, Fraction):
            try:
                v = self.variety.scalar(v)
            except AlgebraError as exc:
                raise DslError(str(exc), line, None) from exc
        return v

    def _do_let(self, stmt):
        self._require_variety(stmt.line)
        self.env[stmt.name] = self._element(stmt.expr, stmt.line)

    def _do_mapdef(self, stmt):
        self._require_variety(stmt.line)
        coords = [self._element(expr, stmt.line) for expr in stmt.arg_exprs]
        try:
            cls = Endomorphism if stmt.map_kind == "auto" else Derivation
            value = cls(self.variety, coords)
        except AlgebraError as exc:
            raise DslError(str(exc), stmt.line, None) from exc
        self.env[stmt.name] = value

    # -- commands ------------------------------------------------------------

    def _do_command(self, stmt):
        self._require_variety(stmt.line)
        handler = getattr(self, "_cmd_" + stmt.name.replace("-", "_"))
        try:
            output, value = handler(stmt.args, stmt.flags)
        except DslError as exc:
            if exc.line is not None:
                raise
            raise DslError(str(exc), stmt.line, None) from exc
        except AlgebraError as exc:
            raise DslError(f"in {stmt.name!r}: {exc}", stmt.line, None) from exc
        if stmt.bind_as is not None and value is not None:
            self.env[stmt.bind_as] = value
        self.results.append({"command": stmt.name, "output": output})

    def _cmd_eval(self, args, flags):
        return {"value": str(self._element(args[0], None))}, None

    def _cmd_apply(self, args, flags):
        m = self.lookup(args[0], (Endomorphism, Derivation))
        v = self._eval(args[1])
        if not isinstance(v, Element):
            raise DslError("apply needs an algebra element")
        return {"name": args[0], "value": str(m.apply(v))}, None

    def _cmd_ia_level(self, args, flags):
        phi = self.lookup(args[0], Endomorphism)
        lev = ia_level(phi, flags.get("max-degree", self.max_degree))
        return {"name": args[0], "status": lev.status, "i": lev.i, "bound": lev.bound,
                "text": str(lev)}, None

    def _cmd_tangent(self, args, flags):
        phi = self.lookup(args[0], Endomorphism)
        T = tangent(phi, flags.get("max-degree", self.max_degree))
        return {"name": args[0], "coords": [str(f) for f in T.coords]}, T

    def _cmd_jacobian(self, args, flags):
        mat = fox_jacobian(self.lookup(args[0], (Endomorphism, Derivation)))
        return {"name": args[0], "matrix": [[env_str(e) for e in row] for row in mat]}, None

    def _cmd_divergence(self, args, flags):
        obj = self.lookup(args[0], (Endomorphism, Derivation))
        if isinstance(obj, Endomorphism):
            obj = tangent(obj, flags.get("max-degree", self.max_degree))
        div = divergence(obj)
        return {"name": args[0], "divergence": trace_str(div.trace),
                "is_zero": div.is_zero()}, None

    def _cmd_compose(self, args, flags):
        maps = [self.lookup(n, Endomorphism) for n in args]
        out = compose_all(maps, max_degree=flags.get("max-degree"))
        return {"names": args, "images": [str(f) for f in out.images]}, out

    def _cmd_invert(self, args, flags):
        """The truncated inverse and a check by substitution, independent
        of how the inverse was built.  Modulo degree > k the constant-free
        maps with an invertible linear part form a group, so for such a
        map ``psi(phi(x)) = x`` holds through k exactly when
        ``phi(psi(x)) = x`` does; the check takes the second, which
        substitutes the dense inverse into phi's few words.  With a
        constant only ``psi(phi(x)) = x`` holds, so that is checked."""
        phi = self.lookup(args[0], Endomorphism)
        k = flags.get("degree", self.max_degree)
        inv = truncated_inverse(phi, k)
        pair = (phi, inv) if any(phi.constant_part()) else (inv, phi)
        check = compose(*pair, max_degree=k).is_identity_through(k)
        return {"name": args[0], "degree": k, "images": [str(f) for f in inv.images],
                "identity_through_degree": check}, inv

    def _cmd_commutator(self, args, flags):
        a, b = (self.lookup(n, Endomorphism) for n in args)
        k = flags.get("degree", self.max_degree)
        out = group_commutator(a, b, k)
        return {"names": args, "degree": k, "images": [str(f) for f in out.images]}, out

    def _context_from_flags(self, flags):
        tag = flags.get("context")
        if tag is None:
            raise DslError("detect-wild needs --context")
        evidence = flags.get("evidence", "user")
        if evidence not in _EVIDENCE:
            raise DslError(
                f"flag --evidence must be one of {', '.join(_EVIDENCE)}, got {evidence!r}"
            )
        evidence = _EVIDENCE[evidence]
        if tag == "metabelian":
            return wildness.metabelian_context(self.variety, evidence)
        if tag == "nilpotent":
            return wildness.nilpotent_context(self.variety, flags.get("class", 2), evidence)
        if tag == "var-m2k":
            return wildness.var_m2k_context(self.variety, evidence)
        if tag == "polynilpotent":
            if "c" not in flags:
                raise DslError("polynilpotent context needs --c")
            return wildness.polynilpotent_context(self.variety, tuple(flags["c"]), evidence)
        if tag == "user":
            return wildness.user_context(
                self.variety, flags.get("tag", "unnamed"), flags.get("min-degree", 2)
            )
        raise DslError(f"unknown context {tag!r}")

    def _cmd_detect_wild(self, args, flags):
        phi = self.lookup(args[0], Endomorphism)
        ctx = self._context_from_flags(flags)
        k = flags.get("max-degree", self.max_degree)
        if (
            self.variety.kind is Kind.FREE_ASSOCIATIVE
            and self.variety.rank == 2
            and flags["context"] == "var-m2k"
        ):
            cert = wildness.detect_rank2_associative(phi, ctx, k)
            witness = str(cert.witness)
        else:
            cert = wildness.detect_divergence_wild(phi, ctx, k)
            witness = trace_str(cert.witness.trace)
        return {
            "name": args[0],
            "context": ctx.ideal_tag,
            "min_degree": ctx.min_degree,
            "verdict": cert.verdict,
            "witness": witness,
            "reasons": list(cert.reasons),
            "trace": list(cert.trace),
        }, None

    def _cmd_build_polynilpotent(self, args, flags):
        if "c" not in flags:
            raise DslError("build-polynilpotent needs --c")
        rank = flags.get("rank", max(self.variety.rank, 3))
        limit = flags.get("limit", self.max_degree)
        u, psi, rep = wildness.build_polynilpotent_witness(tuple(flags["c"]), rank, limit)
        out = {
            "c": list(rep.c),
            "degrees": rep.degrees,
            "recursion_degrees": rep.recursion_degrees,
            "product_bound": rep.product_bound,
            "inequality_holds": rep.inequality_holds,
            "leading_words": [list(w) for w in rep.leading_words],
            "leading_recursion_ok": rep.leading_recursion_ok,
            "materialized": rep.materialized,
        }
        if not rep.materialized:
            return out, None
        out["u"] = str(u)
        out["psi"] = [str(f) for f in psi.images]
        return out, psi

    def _cmd_span(self, args, flags):
        if "gens" not in flags:
            raise DslError("span needs --gens")
        gens = [self.lookup(n, Endomorphism) for n in flags["gens"]]
        degree = flags.get("degree", 1)
        samples = flags.get("samples", 200)
        seed = flags.get("seed", self.seed)
        conj = 1 if "conjugate" in flags else 0
        rep = wildness.tangent_span(gens, degree, samples, seed, conjugation_rank=conj)
        return {
            "gens": flags["gens"],
            "degree": degree,
            "samples": samples,
            "seed": seed,
            "rank": rep.rank,
            "hits": rep.hits,
            "per_level_counts": {str(k): v for k, v in sorted(rep.per_level_counts.items())},
            "oracle_kernel_rank": wildness.divergence_kernel_rank(self.variety, degree),
        }, None


def run_source(source, max_degree=DEFAULT_MAX_DEGREE, seed=0):
    """Parse and execute a script; returns the list of result records."""
    session = Session(max_degree=max_degree, seed=seed)
    return session.run(parse(source))
