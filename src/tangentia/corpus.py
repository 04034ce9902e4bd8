"""Named corpus of classical (endo)morphisms, each defined once, by its
shipped script file (executable documentation doubling as regression
material): ``build`` evaluates the script's definitions."""
from __future__ import annotations

from importlib import resources

from .dsl import DslError, LetBinding, MapDef, Session, VarietyDecl, parse

CORPUS_NAMES = (
    "nagata",
    "anick",
    "bergman",
    "drensky-exp",
    "tau",
    "chein-cubic",
)


def script_source(name):
    """Source text of a shipped corpus script."""
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus entry {name!r}")
    ref = resources.files(__package__).joinpath("corpus_scripts", f"{name}.tia")
    return ref.read_text(encoding="utf-8")


def build(name):
    """The one map the corpus script ``name`` defines: its variety, let
    and := statements are run and its commands skipped.  A script that
    defines no map or several raises ``DslError``, an ``AlgebraError``."""
    session = Session()
    defs = []
    for stmt in parse(script_source(name)):
        if isinstance(stmt, (VarietyDecl, LetBinding, MapDef)):
            session.execute(stmt)
        if isinstance(stmt, MapDef):
            defs.append(stmt.name)
    if len(defs) != 1:
        raise DslError(f"corpus script {name!r} defines {len(defs)} maps, not one")
    return session.env[defs[0]]
