"""Universal enveloping algebras and the trace codomain."""
import itertools
import random
from fractions import Fraction

import pytest

from tangentia import (
    Derivation,
    EnvElement,
    divergence,
    env_str,
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
    trace_str,
)

from conftest import ALL_VARIETIES, coded, random_element, stored_words


def _random_env(rng, variety, factors=2):
    u = EnvElement.one(variety)
    for _ in range(factors):
        a = random_element(rng, variety, 1, 2)
        u = env_mul(u, left_mul(a) if rng.random() < 0.5 else right_mul(a))
    return u


def test_left_mul_examples():
    A = free_associative(2)
    x1, x2 = A.gens()
    assert stored_words(left_mul(x1)) == {((0,), ()): 1}
    assert stored_words(right_mul(x1)) == {((), (0,)): 1}
    P = polynomial(2)
    assert left_mul(P.gen(0) * P.gen(0)).coeffs == {(2, 0): 1}
    M = metabelian_lie(2)
    # operators of bracket elements vanish modulo the radical
    assert left_mul(M.gen(1) * M.gen(0)).is_zero()
    assert left_mul(M.gen(0)).coeffs == {(1, 0): 1}


def test_env_mul_tensor_composition():
    A = free_associative(2)
    x1, x2 = A.gens()
    l1, r2 = left_mul(x1), right_mul(x2)
    assert stored_words(env_mul(l1, r2)) == {((0,), (1,)): 1}
    # right factors compose in the opposite order: R_a R_b = R_{ba}
    r1 = right_mul(x1)
    assert stored_words(env_mul(r1, r2)) == {((), (1, 0)): 1}


def test_metabelian_t_commute():
    M = metabelian_lie(2)
    t1 = left_mul(M.gen(0))
    t2 = left_mul(M.gen(1))
    assert env_mul(t1, t2) == env_mul(t2, t1)
    assert env_mul(t1, t2).coeffs == {(1, 1): 1}


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
    u = coded(EnvElement, L, {(1, 0): Fraction(1)})
    assert trace_class(u).coeffs == {(0, 1): 1}
    A = free_associative(3)
    u = coded(
        EnvElement, A, {((0, 1), (2,)): Fraction(1), ((1, 0), (2,)): Fraction(-1)}
    )
    assert trace_class(u).is_zero()
    # (x1x2x1x2) (x) 1 is its own minimal rotation
    v = coded(EnvElement, A, {((0, 1, 0, 1), ()): Fraction(1)})
    assert trace_class(v).coeffs == {((0, 1, 0, 1), ()): 1}


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


def _named_case(kind):
    """A derivation with custom generator names, and an envelope element
    built from its first coordinate."""
    if kind == "polynomial":
        V = polynomial(2, ("a", "b"))
        a, b = V.gens()
        coords = (a * a * b + b.scale(3), a * b * b - (a * a).scale(Fraction(1, 2)))
    elif kind == "assoc":
        V = free_associative(2, ("a", "b"))
        a, b = V.gens()
        coords = (a * b * a + b * b, b * a - (a * b * b).scale(2))
    elif kind == "lie":
        V = free_lie(2, ("a", "b"))
        a, b = V.gens()
        coords = ((a * b) * b, ((a * b) * a).scale(3) - (a * b) * b)
    else:
        V = metabelian_lie(3, ("p", "q", "r"))
        p, q, r = V.gens()
        coords = ((p * q) * r + p * q, ((q * r) * p).scale(-2), (r * p) * p)
    g0, g1 = V.gen(0), V.gen(1)
    u = env_mul(
        left_mul(g0) + EnvElement.one(V),
        right_mul(g1 * g0 + g1).scale(2) + left_mul(g1 * g1 if V.unital else g1),
    ) + left_mul(coords[0])
    return Derivation(V, coords), u


# literal output for custom generator names: the free-Lie U prints A's
# names, the metabelian U/R prints t1..tn whatever A's names are
NAMED_PINS = {
    "polynomial": (
        [["2*a*b", "3 + a^2"], ["-a + b^2", "2*a*b"]],
        "4*a*b",
        "5*b + b^2 + 4*a*b + a*b^2 + 3*a^2*b",
        "5*b + b^2 + 4*a*b + a*b^2 + 3*a^2*b",
    ),
    "assoc": (
        [
            ["1(x)b*a + a*b(x)1", "1(x)b + b(x)1 + a(x)a"],
            ["b(x)1 - 2*1(x)b*b", "1(x)a - 2*a(x)b - 2*a*b(x)1"],
        ],
        "1(x)a + 1(x)a*b - 2*a(x)b - a*b(x)1",
        "2*1(x)b + 2*1(x)b*a + 2*a(x)b + 2*b*b(x)1 + 2*a(x)b*a + a*b*a(x)1 + a*b*b(x)1",
        "2*1(x)b + 2*1(x)a*b + 2*a(x)b + 2*b*b(x)1 + 2*a(x)a*b + a*a*b(x)1 + a*b*b(x)1",
    ),
    "lie": (
        [["b*b", "a*b - 2*b*a"], ["6*a*b - 3*b*a - b*b", "-3*a*a - a*b + 2*b*a"]],
        "-3*a*a + a*b + b*b",
        "-b + a*b - 2*b*a + 2*a*a*b - 2*a*b*a + a*b*b - 2*b*a*b + b*b*a",
        "-b - a*b",
    ),
    "metabelian": (
        [
            ["-t2 + t2*t3", "t1 - t1*t3", "0"],
            ["0", "-2*t1*t3", "2*t1*t2"],
            ["-t1*t3", "0", "t1^2"],
        ],
        "-t2 + t2*t3 - 2*t1*t3 + t1^2",
        "-t2 - t1*t2",
        "-t2 - t1*t2",
    ),
}


@pytest.mark.parametrize("kind", sorted(NAMED_PINS))
def test_envelope_prints_with_the_variety_names(kind):
    D, u = _named_case(kind)
    jac, div, env, trace = NAMED_PINS[kind]
    assert [[env_str(e) for e in row] for row in D.jacobian()] == jac
    assert trace_str(divergence(D).trace) == div
    assert env_str(u) == env
    assert trace_str(trace_class(u)) == trace


@pytest.mark.parametrize("make", [polynomial, free_associative, free_lie])
def test_varieties_differing_in_names_print_their_own(make):
    first, second = make(2, ("a", "b")), make(2, ("u", "v"))
    assert first == second  # names are cosmetic
    strings = []
    for V in (first, second, first):
        x, y = V.gens()
        strings.append(env_str(env_mul(left_mul(x), left_mul(y + x * y))))
    assert strings[0] == strings[2] != strings[1]
    assert "a" in strings[0] and "b" in strings[0]
    assert "u" in strings[1] and "v" in strings[1]
    assert "a" not in strings[1] and "u" not in strings[0]
