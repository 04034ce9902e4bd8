"""The input checks of the Python API that no script reaches: each call
below raises its own exception class with its own message."""
from types import SimpleNamespace

import pytest

from tangentia import (
    AlgebraError,
    Derivation,
    EnvElement,
    Endomorphism,
    Kind,
    Element,
    Variety,
    VarietyMismatch,
    chain_rule_check,
    compose,
    compose_all,
    corpus,
    elementary,
    env_apply,
    fox_derivative,
    free_associative,
    free_lie,
    jacobian_of_tuple,
    metabelian_lie,
    monomials_of_degree,
    polynomial,
    project_to_metabelian,
)
from tangentia.fox import env_push
from tangentia.wildness import random_invertible_matrix

P = polynomial(2)
A = free_associative(2)
L3 = free_lie(3)
L2, M2 = free_lie(2), metabelian_lie(2)
x, y = P.gens()
a, b = A.gens()


CHECKS = [
    # fox
    (lambda: fox_derivative(L3.gen(0), 3), AlgebraError,
     "generator index 3 out of range for rank 3"),
    (lambda: jacobian_of_tuple((x,), P), AlgebraError,
     "coordinate tuple length differs from rank"),
    # this call used to return polynomial envelope entries
    (lambda: jacobian_of_tuple(P.gens(), free_lie(2)), VarietyMismatch,
     "coordinate lives in a different algebra"),
    (lambda: env_push((x,), EnvElement.one(P)), AlgebraError,
     "image tuple length differs from rank"),
    (lambda: env_push((a, b), EnvElement.one(P)), VarietyMismatch,
     "images live in a different algebra"),
    (lambda: chain_rule_check(Endomorphism.identity(P), Endomorphism.identity(A)),
     VarietyMismatch, "endomorphisms from different varieties"),
    # deriv
    (lambda: Derivation(P, (x,)), AlgebraError, "need one coordinate per generator"),
    (lambda: Derivation(P, (a, b)), VarietyMismatch,
     "derivation coordinate in a different algebra"),
    (lambda: Derivation.euler(P) + Derivation.euler(A), VarietyMismatch,
     "derivations over different varieties"),
    (lambda: Derivation.euler(P).apply(a), VarietyMismatch,
     "argument lives in a different algebra"),
    # a non-Element argument and a non-Derivation summand, as for
    # Element + 3: these calls used to raise AttributeError
    (lambda: Derivation.euler(P) + 3, TypeError, "expected Derivation, got int"),
    (lambda: Derivation.euler(P).apply(3), TypeError, "expected Element, got int"),
    # these used to raise AttributeError; a check whose message another
    # check has carries its own test id as a fourth item
    (lambda: Derivation(P, (x, 3)), TypeError, "expected Element, got int",
     "Derivation coordinate: expected Element, got int"),
    # a constant coordinate, which no public constructor builds in a Lie
    # kind: this check used to cover endomorphisms only
    (lambda: Derivation(L2, (L2.gen(0), Element._raw(L2, {(): 1}))), AlgebraError,
     "constant coordinate in a Lie variety", "Derivation on lie(2): constant coordinate"),
    (lambda: Derivation(M2, (M2.gen(0), Element._raw(M2, {(): 1}))), AlgebraError,
     "constant coordinate in a Lie variety", "Derivation on metabelian(2): constant coordinate"),
    (lambda: Derivation.euler(P).star_extend(EnvElement.one(A)), VarietyMismatch,
     "envelope element from a different variety"),
    # this call used to raise AttributeError
    (lambda: Derivation.euler(P).star_extend(3), TypeError, "expected EnvElement, got int"),
    # morphism
    (lambda: Endomorphism(P, (x,)), AlgebraError, "need one image per generator"),
    # these used to raise AttributeError and IndexError
    (lambda: Endomorphism(P, (x, 3)), TypeError, "expected Element, got int",
     "Endomorphism image: expected Element, got int"),
    (lambda: elementary(P, 0, 1, 3), TypeError, "expected Element, got int",
     "elementary: expected Element, got int"),
    (lambda: compose_all([]), AlgebraError, "need at least one map to compose"),
    (lambda: compose(Endomorphism.identity(P), Endomorphism.identity(A)), VarietyMismatch,
     "endomorphisms over different varieties"),
    # this call used to raise AttributeError
    (lambda: compose(Endomorphism.identity(P), 3), TypeError,
     "expected Endomorphism, got int"),
    (lambda: compose(3, Endomorphism.identity(P)), TypeError,
     "expected Endomorphism, got int", "compose: a first argument that is no map"),
    # these used to raise AttributeError, and VarietyMismatch("cannot
    # substitute assoc values into a polynomial element")
    (lambda: Endomorphism.identity(P).apply(3), TypeError, "expected Element, got int",
     "Endomorphism.apply: expected Element, got int"),
    (lambda: Endomorphism.identity(P).apply(a), VarietyMismatch,
     "argument lives in a different algebra",
     "Endomorphism.apply: argument lives in a different algebra"),
    (lambda: elementary(P, 0, 1, b), VarietyMismatch,
     "added element lives in a different algebra"),
    # the algebra is checked before f's keys are read: this call used to
    # raise IndexError, and elementary(P, 0, 1, a) "may not involve"
    (lambda: elementary(polynomial(3), 2, 1, x), VarietyMismatch,
     "added element lives in a different algebra"),
    # freealg
    (lambda: Variety(Kind.POLYNOMIAL, 0), AlgebraError, "rank must be >= 1"),
    (lambda: polynomial(2, ("x",)), AlgebraError, "need exactly one name per generator"),
    (lambda: P.gen(5), AlgebraError, "generator index 5 out of range for rank 2"),
    (lambda: x.homogeneous_component(-1), AlgebraError, "degree must be >= 0"),
    (lambda: x.power(-1), AlgebraError, "negative power"),
    (lambda: x.substitute((y,)), AlgebraError, "expected 2 substitution arguments, got 1"),
    # the first argument too: this call used to raise AttributeError
    (lambda: x.substitute((1, 2)), TypeError, "substitution arguments must be Elements"),
    (lambda: x.substitute((x, a)), VarietyMismatch,
     "substitution arguments live in different algebras"),
    (lambda: x.substitute((a, b)), VarietyMismatch,
     "cannot substitute assoc values into a polynomial element"),
    (lambda: project_to_metabelian(x), VarietyMismatch,
     "projection is defined on free Lie elements"),
    (lambda: monomials_of_degree(P, -1), AlgebraError, "degree must be >= 0"),
    # envelope
    (lambda: env_apply(EnvElement.one(P), 3), TypeError,
     "env_apply expects an algebra Element"),
    (lambda: env_apply(EnvElement.one(P), a), VarietyMismatch,
     "operator and operand from different varieties"),
    # wildness: an rng that draws only zeros draws only singular matrices
    (lambda: random_invertible_matrix(SimpleNamespace(randint=lambda lo, hi: 0), 2),
     AlgebraError, "failed to sample an invertible matrix"),
    # corpus
    (lambda: corpus.script_source("nope"), KeyError, "unknown corpus entry 'nope'"),
]


@pytest.mark.parametrize(
    "call, error, message", [c[:3] for c in CHECKS], ids=[c[-1] for c in CHECKS]
)
def test_input_check_raises_its_own_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert info.value.args == (message,)
