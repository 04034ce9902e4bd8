"""Script language for driving the library from text files.

A script is a sequence of statements separated by semicolons or line
breaks.  Statement forms:

* ``variety polynomial(3) vars x,y,z`` -- exactly one per script, rank at
  most ``MAX_RANK``; kinds are ``polynomial``, ``assoc``, ``lie``, ``metabelian``
* ``let NAME = EXPR`` -- bind an algebra element
* ``NAME := auto(E1, ..., En)`` -- define an endomorphism
* ``NAME := deriv(E1, ..., En)`` -- define a derivation
* ``COMMAND ARGS [--flag VALUES]... [as NAME]`` -- a command: one key
  of ``COMMANDS``

``COMMANDS`` declares, for each command, its positional form, each flag
it takes with the type of its value (one integer, integers, one name,
names, or none for a switch, with an integer's least value), whether
it binds its result with ``as NAME`` and which flags it requires.  The
parser checks every command statement against it, so a handler receives
its arguments and typed flags already checked.  A flag value ``-N``,
with no space after the minus, is a negative integer.

Expressions support ``+``, ``-``, explicit ``*``, ``^`` (unital
varieties), ``[a,b]`` brackets, parentheses, and rational literals
``p/q``.  ``^`` binds tightest and applies left to right, then unary
minus, then ``*``, then ``+`` and ``-``: ``2 * -3^2`` is -18.  ``#``
starts a comment.  Parentheses, brackets and unary minus nest at most
``MAX_NESTING`` levels deep; deeper nesting is a script error, since the
parser recurses once per level.
"""
from __future__ import annotations

import re
from dataclasses import asdict, dataclass
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


# a token's kind is its group's name in capitals, its value the group's text (int if a number)
_TOKEN_RE = re.compile(
    r"""--(?P<flag>[A-Za-z][A-Za-z0-9-]*)
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
            kind, text = m.lastgroup, m.group(m.lastgroup)
            if kind == "ws":
                continue
            if kind == "bad":
                raise DslError(f"unexpected character {text!r}", lineno, col)
            value = int(text) if kind == "number" else text
            tokens.append(Token(kind.upper(), value, lineno, col, pos + 1))
    return tokens


def _split(tokens, sep, at_line_breaks=False):
    """Cut ``tokens`` at each ``sep`` operator outside parentheses and
    brackets, and with ``at_line_breaks`` at each line break there too.
    The separators are dropped; every piece is kept, empty ones too."""
    pieces = [[]]
    depth = 0
    for tok in tokens:
        if at_line_breaks and depth == 0 and pieces[-1] and tok.line != pieces[-1][-1].line:
            pieces.append([])
        if tok.kind == "OP":
            if tok.value in "([":
                depth += 1
            elif tok.value in ")]":
                depth -= 1
            elif tok.value == sep and depth == 0:
                pieces.append([])
                continue
        pieces[-1].append(tok)
    return pieces


def _is_op(tok, ops):
    return tok is not None and tok.kind == "OP" and tok.value in ops


# what a token of each kind is called when one is missing
_KIND_WORDS = {"NAME": "a name", "NUMBER": "a number"}


class _Reader:
    """A cursor over the tokens of one statement or expression (``what``
    names which in the error at its end)."""

    def __init__(self, toks, what):
        self.toks = toks
        self.i = 0
        self.what = what

    def peek(self, ahead=0):
        """The token ``ahead`` places past the cursor, or None past the end."""
        i = self.i + ahead
        return self.toks[i] if i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            last = self.toks[-1]
            raise DslError(f"unexpected end of {self.what}", last.line, last.end)
        self.i += 1
        return t

    def accept(self, ops):
        """The next token, consumed, if it is one of the operators ``ops``."""
        t = self.peek()
        if t is None or t.kind != "OP" or t.value not in ops:
            return None
        self.i += 1
        return t

    def expect(self, kind, value=None, message=None):
        """The next token, which must be of ``kind`` (and be ``value`` if
        given); else raise ``message`` or one naming what was expected."""
        t = self.next()
        if t.kind != kind or (value is not None and t.value != value):
            want = repr(value) if value is not None else _KIND_WORDS[kind]
            raise DslError(message or f"expected {want}, got {t.value!r}", t.line, t.col)
        if value is None and t.value == "as":  # it ends a command's arguments
            raise DslError("'as' cannot name a value", t.line, t.col)
        return t

    def joined(self, ahead=0):
        """Whether the token ``ahead`` places past the cursor starts where
        the token before it ends, on the same line."""
        i = self.i + ahead
        if not 0 < i < len(self.toks):
            return False
        prev, t = self.toks[i - 1], self.toks[i]
        return t.line == prev.line and t.col == prev.end

    def rest(self):
        """The tokens not read yet, all consumed."""
        out = self.toks[self.i :]
        self.i = len(self.toks)
        return out


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
    required: tuple = ()  # flags the statement must give


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
        ("context",),
    ),
    "build-polynilpotent": CommandSpec(
        "", {"c": _ints(1, many=True), "rank": _ints(3, most=MAX_RANK), "limit": _ints(0)},
        True, ("c",),
    ),
    "span": CommandSpec(
        "",
        {"gens": NAMES, "degree": _ints(), "samples": _ints(0), "seed": _ints(),
         "conjugate": SWITCH},
        False,
        ("gens",),
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


def parse(source):
    """A script's list of statements; raises DslError with positions."""
    statements = _split(tokenize(source), ";", at_line_breaks=True)
    return [_parse_statement(_Reader(toks, "statement")) for toks in statements if toks]


def _word(r):
    """The name at the cursor with its hyphenated continuations: each
    ``-`` and the name after it count only when joined to the token
    before them."""
    parts = [r.next().value]
    while _is_op(r.peek(), "-") and r.joined() and r.joined(1) and r.peek(1).kind == "NAME":
        r.next()
        parts.append(r.next().value)
    return "-".join(parts)


def _parse_statement(r):
    head = r.peek()
    if head.kind != "NAME":
        raise DslError(f"expected a statement keyword, got {head.value!r}", head.line, head.col)
    # NAME := auto(...) / deriv(...)
    if (t := r.peek(1)) is not None and t.kind == "ASSIGN":
        return _parse_mapdef(r)
    word = _word(r)
    if word == "variety":
        return _parse_variety(r)
    if word == "let":
        return _parse_let(r)
    if word in COMMANDS:
        return _parse_command(word, r, head.line)
    raise DslError(f"unknown statement {word!r}", head.line, head.col)


def _parse_variety(r):
    kt = r.expect("NAME")
    r.expect("OP", "(")
    rk = r.expect("NUMBER")
    if rk.value > MAX_RANK:
        raise DslError(f"rank must be <= {MAX_RANK}, got {rk.value}", rk.line, rk.col)
    r.expect("OP", ")")
    names = []
    if r.peek():
        r.expect("NAME", "vars")
        while r.peek():
            names.append(r.expect("NAME").value)
            if r.peek():
                r.expect("OP", ",")
    return VarietyDecl(kt.value, rk.value, tuple(names), kt.line)


def _parse_let(r):
    name = r.expect("NAME")
    r.expect("OP", "=")
    expr = r.rest()
    if not expr:
        raise DslError("empty expression", name.line, name.col)
    return LetBinding(name.value, expr, name.line)


def _parse_mapdef(r):
    name = r.expect("NAME")
    r.next()  # :=
    kw = r.expect("NAME")
    if kw.value not in ("auto", "deriv"):
        raise DslError("expected auto(...) or deriv(...)", kw.line, kw.col)
    r.expect("OP", "(")
    body = r.rest()
    if not body or not _is_op(body[-1], ")"):
        raise DslError("unbalanced parentheses in definition", name.line, name.col)
    args = _split(body[:-1], ",")
    if any(not a for a in args):
        raise DslError("empty coordinate in definition", kw.line, kw.col)
    return MapDef(name.value, kw.value, args, name.line)


def _is_as(tok):
    return tok.kind == "NAME" and tok.value == "as"


def _starts_value(r, ahead):
    """Whether a name, a number or a negative integer (a ``-`` with a
    number joined to it) starts ``ahead`` places past the cursor."""
    t = r.peek(ahead)
    if t is None:
        return False
    if t.kind in ("NAME", "NUMBER"):
        return True
    nxt = r.peek(ahead + 1)
    return _is_op(t, "-") and nxt is not None and nxt.kind == "NUMBER" and r.joined(ahead + 1)


def _flag_values(r):
    """The values of a flag, read up to the first token that is not one:
    names (possibly hyphenated, never ``as``), numbers and negative
    integers ``-N``.  A comma after a value is read when a name or a
    value follows it."""
    values = []
    while _starts_value(r, 0) and not _is_as(r.peek()):
        if r.peek().kind == "NAME":
            values.append(_word(r))
        else:
            sign = -1 if r.accept("-") else 1
            values.append(sign * r.next().value)
        if _is_op(r.peek(), ",") and _starts_value(r, 1):
            r.next()
    return values


def _parse_command(word, r, line):
    """Check a command statement against its entry in ``COMMANDS``."""
    spec = COMMANDS[word]
    # positional arguments up to the first flag / 'as'
    pos = []
    while (t := r.peek()) is not None and t.kind != "FLAG" and not _is_as(t):
        pos.append(r.next())
    args = _positional_args(word, spec.args, pos, line)
    # flags and the optional trailing 'as NAME', in any order
    flags = {}
    bind_as = None
    while r.peek():
        t = r.next()
        if _is_as(t):
            if not spec.binds:
                raise DslError(f"{word} has no result to bind with 'as'", line)
            if bind_as is not None:
                raise DslError("'as' given twice", line)
            bind_as = r.expect("NAME").value
            continue
        if t.kind != "FLAG":
            raise DslError(f"unexpected token {t.value!r}", t.line, t.col)
        fname = t.value
        values = _flag_values(r)
        if fname not in spec.flags:
            takes = ", ".join(f"--{f}" for f in spec.flags) or "no flags"
            raise DslError(f"{word} has no flag --{fname}; it takes {takes}", line)
        if fname in flags:
            raise DslError(f"flag --{fname} given twice", line)
        flags[fname] = _flag_value(fname, spec.flags[fname], values, line)
    for fname in spec.required:
        if fname not in flags:
            raise DslError(f"{word} needs --{fname}", line)
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
        elif not _is_op(t, ","):
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


class _ExprParser(_Reader):
    """Recursive-descent evaluator over a token list and an environment."""

    def __init__(self, toks, session):
        super().__init__(toks, "expression")
        self.session = session
        self.depth = 0

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t is not None:
            raise DslError(f"unexpected token {t.value!r}", t.line, t.col)
        return v

    def expr(self):
        v = self.term()
        while t := self.accept("+-"):
            rhs = self.term()
            v = self._add(v, rhs if t.value == "+" else -rhs, t)
        return v

    def term(self):
        v = self.power()
        while self.accept("*"):
            v = v * self.power()
        return v

    def power(self):
        v = self.atom()
        while op := self.accept("^"):
            e = self.expect("NUMBER", message="exponent must be a nonnegative integer")
            if isinstance(v, Fraction):
                v = v ** e.value
            else:
                try:
                    v = v.power(e.value)
                except AlgebraError as exc:
                    raise DslError(str(exc), op.line, op.col) from exc
        return v

    def atom(self):
        t = self.next()
        if t.kind == "NUMBER":
            if self.accept("/"):
                d = self.next()
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
            self.expect("OP", ")", "expected ')'")
        elif t.value == "[":
            a = self.expr()
            self.expect("OP", ",", "expected ',' in bracket")
            b = self.expr()
            self.expect("OP", "]", "expected ']'")
            v = self._bracket(a, b, t)
        else:  # unary minus binds below ^: -x^2 is -(x^2)
            v = -self.power()
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


# each detect-wild context's factory and the flags it reads, with their
# defaults (None: required), in the factory's argument order after the ambient
_CONTEXTS = {
    "metabelian": (wildness.metabelian_context, {"evidence": "user"}),
    "nilpotent": (wildness.nilpotent_context, {"class": 2, "evidence": "user"}),
    "var-m2k": (wildness.var_m2k_context, {"evidence": "user"}),
    "polynilpotent": (wildness.polynilpotent_context, {"c": None, "evidence": "user"}),
    "user": (wildness.user_context, {"tag": "unnamed", "min-degree": 2}),
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
            kind = Kind(stmt.kind_name)
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
        """The context --context names; a flag of another context is an error."""
        name = flags["context"]
        if name not in _CONTEXTS:
            raise DslError(f"unknown context {name!r}")
        factory, reads = _CONTEXTS[name]
        for fname in flags:
            if fname not in reads and any(fname in r for _, r in _CONTEXTS.values()):
                takes = ", ".join(f"--{f}" for f in reads)
                raise DslError(f"the {name} context does not read --{fname}; it reads {takes}")
        values = []
        for fname, default in reads.items():
            value = flags.get(fname, default)
            if value is None:
                raise DslError(f"{name} context needs --{fname}")
            if fname == "evidence":
                if value not in wildness._EVIDENCE:
                    raise DslError(f"flag --evidence must be one of "
                                   f"{', '.join(wildness._EVIDENCE)}, got {value!r}")
                value = wildness._EVIDENCE[value]
            values.append(value)
        return factory(self.variety, *values)

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
        rank = flags.get("rank", max(self.variety.rank, 3))
        limit = flags.get("limit", self.max_degree)
        u, psi, rep = wildness.build_polynilpotent_witness(tuple(flags["c"]), rank, limit)
        out = {**asdict(rep), "c": list(rep.c),
               "leading_words": [list(w) for w in rep.leading_words]}
        if not rep.materialized:
            return out, None
        out["u"] = str(u)
        out["psi"] = [str(f) for f in psi.images]
        return out, psi

    def _cmd_span(self, args, flags):
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
