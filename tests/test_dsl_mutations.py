"""Truncated and damaged scripts, standard library only: every prefix of a
shipped script that ends at a token, and every copy with one token
blanked out, parses or raises ``DslError`` with its line, and its
definitions run to a value or to an ``AlgebraError``."""
import re
from pathlib import Path

import pytest

from tangentia import AlgebraError, corpus
from tangentia.dsl import Command, DslError, Session, parse, tokenize

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SCRIPTS = {name: corpus.script_source(name) for name in corpus.CORPUS_NAMES}
SCRIPTS["readme"] = re.search(r"### Script language\n\n```text\n(.*?)```", README, re.S).group(1)


def _spans(source):
    """Each token of ``source`` with its start and end offsets."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return [(t, starts[t.line - 1] + t.col - 1, starts[t.line - 1] + t.end - 1)
            for t in tokenize(source)]


def _mutants(source):
    """Each prefix that ends at a token, and each copy with one token
    replaced by spaces, with the tokens it must read as."""
    spans = _spans(source)
    toks = [t for t, _, _ in spans]
    for k, (_, start, end) in enumerate(spans):
        yield source[:end], toks[: k + 1]
        yield source[:start] + " " * (end - start) + source[end:], toks[:k] + toks[k + 1:]


def _check(source):
    try:
        statements = parse(source)
    except DslError as exc:
        assert exc.line is not None, (source, exc)
        return
    session = Session()
    for stmt in statements:
        if isinstance(stmt, Command):
            continue
        try:
            session.execute(stmt)
        except AlgebraError:  # DslError included
            return


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_cut_and_damaged_scripts_fail_as_script_errors(name):
    count = 0
    for source, toks in _mutants(SCRIPTS[name]):
        assert tokenize(source) == toks
        _check(source)
        count += 1
    assert count > 100
