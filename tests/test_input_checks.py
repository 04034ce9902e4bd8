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
    QuotientContext,
    TraceClass,
    Variety,
    VarietyMismatch,
    chain_rule_check,
    compose,
    compose_all,
    corpus,
    divergence,
    elementary,
    env_apply,
    env_mul,
    env_str,
    fox_derivative,
    free_associative,
    free_lie,
    gradient,
    group_commutator,
    ia_correct,
    ia_level,
    jacobian,
    left_mul,
    metabelian_lie,
    monomials_of_degree,
    nilpotent_context,
    polynomial,
    project_to_metabelian,
    right_mul,
    tangent,
    trace_class,
    trace_str,
    truncated_inverse,
    user_context,
)
from tangentia.fox import push_matrix
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
    (lambda: push_matrix((x,), [[EnvElement.one(P)]]), AlgebraError,
     "image tuple length differs from rank"),
    (lambda: push_matrix((a, b), [[EnvElement.one(P)]]), VarietyMismatch,
     "images live in a different algebra"),
    # the chain rule composes with compose, whose message this now is;
    # the id still names the case
    (lambda: chain_rule_check(Endomorphism.identity(P), Endomorphism.identity(A)),
     VarietyMismatch, "endomorphisms over different varieties",
     "endomorphisms from different varieties"),
    # these used to raise AttributeError
    (lambda: chain_rule_check(Endomorphism.identity(P), 3), TypeError,
     "expected Endomorphism, got int", "chain_rule_check: expected Endomorphism, got int"),
    (lambda: push_matrix((1, 2), [[EnvElement.one(P)]]), TypeError,
     "expected Element, got int", "push_matrix image: expected Element, got int"),
    (lambda: fox_derivative(3, 0), TypeError, "expected Element, got int",
     "fox_derivative: expected Element, got int"),
    (lambda: gradient(3), TypeError, "expected Element, got int",
     "gradient: expected Element, got int"),
    (lambda: jacobian(3), TypeError, "expected Endomorphism or Derivation, got int"),
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
    # these used to raise AttributeError, and a trace class passed to
    # env_apply acted as its lift
    (lambda: Derivation.euler(P).star_trace(EnvElement.one(P)), TypeError,
     "expected TraceClass, got EnvElement"),
    (lambda: divergence(3), TypeError, "expected Derivation, got int",
     "divergence: expected Derivation, got int"),
    # morphism
    (lambda: Endomorphism(P, (x,)), AlgebraError, "need one image per generator"),
    # these used to raise AttributeError and IndexError
    (lambda: Endomorphism(P, (x, 3)), TypeError, "expected Element, got int",
     "Endomorphism image: expected Element, got int"),
    (lambda: elementary(P, 0, 1, 3), TypeError, "expected Element, got int",
     "elementary: expected Element, got int"),
    (lambda: compose_all([]), AlgebraError, "need at least one map to compose"),
    # this call used to return 3
    (lambda: compose_all([3]), TypeError, "expected Endomorphism, got int",
     "compose_all: expected Endomorphism, got int"),
    (lambda: compose(Endomorphism.identity(P), Endomorphism.identity(A)), VarietyMismatch,
     "endomorphisms over different varieties"),
    # this call used to raise AttributeError
    (lambda: compose(Endomorphism.identity(P), 3), TypeError,
     "expected Endomorphism, got int"),
    (lambda: compose(3, Endomorphism.identity(P)), TypeError,
     "expected Endomorphism, got int", "compose: a first argument that is no map"),
    # these used to raise AttributeError
    (lambda: truncated_inverse(3, 4), TypeError, "expected Endomorphism, got int",
     "truncated_inverse: expected Endomorphism, got int"),
    (lambda: group_commutator(Endomorphism.identity(P), 3, 4), TypeError,
     "expected Endomorphism, got int", "group_commutator: expected Endomorphism, got int"),
    (lambda: ia_level(3), TypeError, "expected Endomorphism, got int",
     "ia_level: expected Endomorphism, got int"),
    (lambda: tangent(3), TypeError, "expected Endomorphism, got int",
     "tangent: expected Endomorphism, got int"),
    (lambda: ia_correct(3), TypeError, "expected Endomorphism, got int",
     "ia_correct: expected Endomorphism, got int"),
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
    (lambda: x + 3, TypeError, "expected Element, got int", "Element + int"),
    (lambda: x + free_associative(3).gen(0), VarietyMismatch,
     "polynomial(rank 2) vs assoc(rank 3)"),
    (lambda: x * EnvElement.one(P), TypeError, "expected Element, got EnvElement"),
    (lambda: Variety(Kind.POLYNOMIAL, 0), AlgebraError, "rank must be >= 1"),
    # this call used to build a variety whose kind is 3
    (lambda: Variety(3, 3), TypeError, "expected Kind, got int"),
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
    (lambda: env_apply(trace_class(EnvElement.one(P)), x), TypeError,
     "expected EnvElement, got TraceClass"),
    (lambda: left_mul(3), TypeError, "expected Element, got int",
     "left_mul: expected Element, got int"),
    (lambda: right_mul(3), TypeError, "expected Element, got int",
     "right_mul: expected Element, got int"),
    (lambda: trace_class(3), TypeError, "expected EnvElement, got int",
     "trace_class: expected EnvElement, got int"),
    # these used to raise AttributeError, or print the other class's value
    (lambda: env_str(3), TypeError, "expected EnvElement, got int",
     "env_str: expected EnvElement, got int"),
    (lambda: trace_str(3), TypeError, "expected TraceClass, got int"),
    (lambda: env_str(trace_class(EnvElement.one(P))), TypeError,
     "expected EnvElement, got TraceClass", "env_str: expected EnvElement, got TraceClass"),
    (lambda: trace_str(EnvElement.one(P)), TypeError,
     "expected TraceClass, got EnvElement", "trace_str: expected TraceClass, got EnvElement"),
    # these calls used to build a value whose variety is 3
    (lambda: EnvElement(3, {}), TypeError, "expected Variety, got int",
     "EnvElement: expected Variety, got int"),
    (lambda: TraceClass(3, {}), TypeError, "expected Variety, got int",
     "TraceClass: expected Variety, got int"),
    # the operand check of sums and products, shared with the checks above
    (lambda: env_mul(EnvElement.one(P), EnvElement.one(A)), VarietyMismatch,
     "polynomial(rank 2) vs assoc(rank 2)"),
    # wildness: these calls used to build a context whose ambient is 3
    (lambda: QuotientContext(3, "t", 2), TypeError, "expected Variety, got int",
     "QuotientContext: expected Variety, got int"),
    (lambda: nilpotent_context(3, 1), TypeError, "expected Variety, got int",
     "nilpotent_context: expected Variety, got int"),
    (lambda: user_context(3, "t", 2), TypeError, "expected Variety, got int",
     "user_context: expected Variety, got int"),
    # an rng that draws only zeros draws only singular matrices
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
