"""Universal enveloping algebras and the trace codomain."""
import itertools
import random
from fractions import Fraction

import pytest

from tangentia import (
    EnvElement,
    env_apply,
    env_mul,
    free_associative,
    free_lie,
    left_mul,
    metabelian_lie,
    necklace,
    polynomial,
    right_mul,
    trace_class,
)

from conftest import ALL_VARIETIES, random_element


def _random_env(rng, variety, factors=2):
    u = EnvElement.one(variety)
    for _ in range(factors):
        a = random_element(rng, variety, 1, 2)
        u = env_mul(u, left_mul(a) if rng.random() < 0.5 else right_mul(a))
    return u


def test_left_mul_examples():
    A = free_associative(2)
    x1, x2 = A.gens()
    assert left_mul(x1).terms == {((0,), ()): 1}
    assert right_mul(x1).terms == {((), (0,)): 1}
    P = polynomial(2)
    assert left_mul(P.gen(0) * P.gen(0)).terms == {(2, 0): 1}
    M = metabelian_lie(2)
    # operators of bracket elements vanish modulo the radical
    assert left_mul(M.gen(1) * M.gen(0)).is_zero()
    assert left_mul(M.gen(0)).terms == {(1, 0): 1}


def test_env_mul_tensor_composition():
    A = free_associative(2)
    x1, x2 = A.gens()
    l1, r2 = left_mul(x1), right_mul(x2)
    assert env_mul(l1, r2).terms == {((0,), (1,)): 1}
    # right factors compose in the opposite order: R_a R_b = R_{ba}
    r1 = right_mul(x1)
    assert env_mul(r1, r2).terms == {((), (1, 0)): 1}


def test_metabelian_t_commute():
    M = metabelian_lie(2)
    t1 = left_mul(M.gen(0))
    t2 = left_mul(M.gen(1))
    assert env_mul(t1, t2) == env_mul(t2, t1)
    assert env_mul(t1, t2).terms == {(1, 1): 1}


def test_env_apply_examples():
    A = free_associative(3)
    x1, x2, x3 = A.gens()
    u = env_mul(left_mul(x1), right_mul(x2))
    assert env_apply(u, x3) == x1 * x3 * x2
    L = free_lie(2)
    assert env_apply(left_mul(L.gen(0)), L.gen(1)) == L.gen(0) * L.gen(1)
    P = polynomial(2)
    assert env_apply(left_mul(P.gen(0)), P.gen(1)) == P.gen(0) * P.gen(1)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_env_apply_is_a_representation(variety, rng):
    """env_apply(uv, m) = env_apply(u, env_apply(v, m)).

    For the metabelian variety the commuting t_i only act as a genuine
    module action on the derived subalgebra, so m is drawn from degree
    >= 2 there (outside it the fixed application order is a convention).
    """
    lo = 2 if variety.kind.value == "metabelian" else 1
    for _ in range(100):
        u = _random_env(rng, variety, factors=1)
        v = _random_env(rng, variety, factors=1)
        m = random_element(rng, variety, lo, 2)
        lhs = env_apply(env_mul(u, v), m)
        rhs = env_apply(u, env_apply(v, m))
        assert lhs == rhs


def test_operators_act_correctly(rng):
    """left_mul/right_mul act by the variety's product (ad for Lie);
    metabelian operands from the derived subalgebra (see above)."""
    for variety in ALL_VARIETIES:
        lo = 2 if variety.kind.value == "metabelian" else 1
        for _ in range(25):
            a = random_element(rng, variety, 1, 2)
            m = random_element(rng, variety, lo, 2)
            if variety.is_lie:
                assert env_apply(left_mul(a), m) == a * m
                assert env_apply(right_mul(a), m) == -(a * m)
            else:
                assert env_apply(left_mul(a), m) == a * m
                assert env_apply(right_mul(a), m) == m * a


def test_necklace_minimal_rotation():
    assert necklace((1, 0)) == (0, 1)
    assert necklace((2, 0, 1)) == (0, 1, 2)
    assert necklace(()) == ()
    w = (0, 1, 0, 1)
    rots = {w[i:] + w[:i] for i in range(len(w))}
    assert {necklace(r) for r in rots} == {(0, 1, 0, 1)}


def test_necklace_matches_rotation_definition():
    for n in range(8):
        for w in itertools.product(range(3), repeat=n):
            expected = min(w[i:] + w[:i] for i in range(n)) if n else ()
            assert necklace(w) == expected, w


def test_trace_class_examples():
    L = free_lie(2)
    u = EnvElement(L, {(1, 0): Fraction(1)})
    assert trace_class(u).terms == {(0, 1): 1}
    A = free_associative(3)
    u = EnvElement(
        A, {((0, 1), (2,)): Fraction(1), ((1, 0), (2,)): Fraction(-1)}
    )
    assert trace_class(u).is_zero()
    # (x1x2x1x2) (x) 1 is its own minimal rotation
    v = EnvElement(A, {((0, 1, 0, 1), ()): Fraction(1)})
    assert trace_class(v).terms == {((0, 1, 0, 1), ()): 1}


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_trace_class_kills_commutators(variety, rng):
    for _ in range(100):
        u = _random_env(rng, variety)
        v = _random_env(rng, variety)
        comm = env_mul(u, v) - env_mul(v, u)
        assert trace_class(comm).is_zero()


def test_classes_do_not_mix():
    P = polynomial(2)
    x = P.gen(0)
    u = left_mul(x)
    t = trace_class(u)
    for a, b in ((t, u), (u, t), (u, x), (x, u), (t, x)):
        with pytest.raises(TypeError):
            a + b


def test_trace_class_linear(rng):
    for variety in ALL_VARIETIES:
        for _ in range(20):
            u = _random_env(rng, variety)
            v = _random_env(rng, variety)
            assert trace_class(u + v) == trace_class(u) + trace_class(v)
            assert trace_class(u.scale(3)) == trace_class(u).scale(3)
