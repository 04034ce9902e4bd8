"""Derivations: Leibniz, the left-symmetric product, the extension to U,
and divergence."""
from fractions import Fraction

import pytest

from tangentia import (
    Derivation,
    Element,
    Endomorphism,
    EnvElement,
    divergence,
    env_mul,
    free_associative,
    free_lie,
    jacobian,
    left_mul,
    metabelian_lie,
    polynomial,
    right_mul,
    trace_class,
)
from tangentia.fox import mat_trace

from conftest import (
    ALL_VARIETIES,
    random_derivation,
    random_element,
    random_homogeneous_derivation,
)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_leibniz(variety, rng):
    for _ in range(100):
        D = random_derivation(rng, variety, 2)
        a = random_element(rng, variety, 1, 2)
        b = random_element(rng, variety, 1, 2)
        assert D.apply(a * b) == D.apply(a) * b + a * D.apply(b)
        assert D.apply(a + b) == D.apply(a) + D.apply(b)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_left_symmetry(variety, rng):
    """(D1.D2).D3 - D1.(D2.D3) is symmetric in D1, D2."""
    for _ in range(30):
        d1 = random_derivation(rng, variety, 2)
        d2 = random_derivation(rng, variety, 2)
        d3 = random_derivation(rng, variety, 2)
        lhs = d1.lsym(d2).lsym(d3) - d1.lsym(d2.lsym(d3))
        rhs = d2.lsym(d1).lsym(d3) - d2.lsym(d1.lsym(d3))
        assert lhs == rhs


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_bracket_jacobi(variety, rng):
    zero = Derivation.zero(variety)
    for _ in range(20):
        a = random_derivation(rng, variety, 2)
        b = random_derivation(rng, variety, 2)
        c = random_derivation(rng, variety, 2)
        assert a.bracket(b) == -(b.bracket(a))
        total = (
            a.bracket(b).bracket(c)
            + b.bracket(c).bracket(a)
            + c.bracket(a).bracket(b)
        )
        assert total == zero


def test_bracket_is_commutator_of_actions(rng):
    """[D1,D2] acts as D1 D2 - D2 D1 on the algebra."""
    for variety in ALL_VARIETIES:
        for _ in range(20):
            d1 = random_derivation(rng, variety, 2)
            d2 = random_derivation(rng, variety, 2)
            a = random_element(rng, variety, 1, 2)
            lhs = d1.bracket(d2).apply(a)
            rhs = d1.apply(d2.apply(a)) - d2.apply(d1.apply(a))
            assert lhs == rhs


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_euler_bracket_scalar(variety, rng):
    """[E, D] = i*D for homogeneous D in L_i (computed fact)."""
    E = Derivation.euler(variety)
    for i in (1, 2, 3):
        D = random_homogeneous_derivation(rng, variety, i)
        assert E.bracket(D) == D.scale(i)
    D0 = random_homogeneous_derivation(rng, variety, 0)
    assert E.bracket(D0) == Derivation.zero(variety)


def test_grading():
    P = polynomial(2)
    x, y = P.gens()
    D = Derivation(P, (x * y, y * y))
    assert D.homogeneous_degree() == 1
    mixed = Derivation(P, (x, y * y))
    assert mixed.homogeneous_degree() is None
    parts = mixed.graded_parts()
    assert sorted(parts) == [0, 1]
    total = Derivation.zero(P)
    for part in parts.values():
        total = total + part
    assert total == mixed


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_star_extend_is_a_derivation_of_u(variety, rng):
    for _ in range(40):
        D = random_derivation(rng, variety, 2)
        a = random_element(rng, variety, 1, 2)
        b = random_element(rng, variety, 1, 2)
        u = left_mul(a)
        v = right_mul(b)
        lhs = D.star_extend(env_mul(u, v))
        rhs = env_mul(D.star_extend(u), v) + env_mul(u, D.star_extend(v))
        assert lhs == rhs
        # D*(L_a) = L_{D(a)} and D*(R_a) = R_{D(a)}
        assert D.star_extend(u) == left_mul(D.apply(a))
        assert D.star_extend(v) == right_mul(D.apply(b))


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_neg(a):
    return [[-x for x in row] for row in a]


def _mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = None
            for j in range(n):
                t = env_mul(a[i][j], b[j][k])
                acc = t if acc is None else acc + t
            row.append(acc)
        out.append(row)
    return out


def _star_mat(D, m):
    return [[D.star_extend(e) for e in row] for row in m]


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_jacobian_of_products_of_derivations(variety, rng):
    """J(D1.D2) = D1*(J(D2)) + J(D2)J(D1), and the bracket version
    J([D1,D2]) = D1*(J(D2)) - D2*(J(D1)) - [J(D1),J(D2)]."""
    for _ in range(15):
        d1 = random_derivation(rng, variety, 2)
        d2 = random_derivation(rng, variety, 2)
        j1, j2 = jacobian(d1), jacobian(d2)
        lhs = jacobian(d1.lsym(d2))
        rhs = _mat_add(_star_mat(d1, j2), _mat_mul(j2, j1))
        assert all(x == y for ra, rb in zip(lhs, rhs) for x, y in zip(ra, rb))
        lhs_b = jacobian(d1.bracket(d2))
        comm = _mat_add(_mat_mul(j1, j2), _mat_neg(_mat_mul(j2, j1)))
        rhs_b = _mat_add(
            _mat_add(_star_mat(d1, j2), _mat_neg(_star_mat(d2, j1))), _mat_neg(comm)
        )
        assert all(x == y for ra, rb in zip(lhs_b, rhs_b) for x, y in zip(ra, rb))


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_divergence_of_brackets(variety, rng):
    """div([D1,D2]) = D1*(div(D2)) - D2*(div(D1)) in the trace codomain."""
    for _ in range(40):
        d1 = random_derivation(rng, variety, 2)
        d2 = random_derivation(rng, variety, 2)
        lhs = divergence(d1.bracket(d2)).trace
        rhs = d1.star_trace(divergence(d2).trace) - d2.star_trace(
            divergence(d1).trace
        )
        assert lhs == rhs


def test_divergence_examples():
    # Euler derivation of K[x,y]: divergence = 2
    P = polynomial(2)
    E = Derivation.euler(P)
    assert divergence(E).trace.coeffs == {(0, 0): 2}
    # free Lie [x1,x2] d_1 has divergence class -x2, nonzero
    L = free_lie(2)
    D = Derivation(L, (L.gen(0) * L.gen(1), L.zero()))
    div = divergence(D)
    assert not div.is_zero()
    assert div.trace.coeffs == {(1,): -1}
    # metabelian inner derivation ad([y1,y2]) has divergence zero
    M = metabelian_lie(3)
    d = M.gen(0) * M.gen(1)
    ad = Derivation(M, tuple(d * g for g in M.gens()))
    assert divergence(ad).is_zero()
    # [y2,y3] d_1 on M_3 has divergence zero
    D2 = Derivation(M, (M.gen(1) * M.gen(2), M.zero(), M.zero()))
    assert divergence(D2).is_zero()


def test_divergence_equals_jacobian_trace(rng):
    for variety in ALL_VARIETIES:
        for _ in range(10):
            D = random_derivation(rng, variety, 2)
            assert divergence(D).trace == trace_class(mat_trace(jacobian(D)))


def test_apply_on_long_keys_does_not_recurse():
    P = polynomial(1)
    (x,) = P.gens()
    assert Derivation(P, (x * x,)).apply(x.power(1200)) == 1200 * x.power(1201)
    # y1 -> 0, y2 -> y2 scales a bracket by its number of y2 letters
    M = metabelian_lie(2)
    e = Element(M, {(1, 0) + (1,) * 1198: 1})
    assert Derivation(M, (M.zero(), M.gen(1))).apply(e) == 1199 * e


def test_a_map_and_a_derivation_with_the_same_coordinates_differ():
    """Both store one element per generator, but neither equals the
    other, either way round."""
    P = polynomial(2)
    x, y = P.gens()
    D = Derivation(P, (x + y * y, y))
    phi = Endomorphism(P, D.coords)
    assert phi.images == D.coords
    assert phi != D and D != phi
    assert len({phi, D}) == 2


def test_value_types_compare_hash_scale_and_print():
    """Derivations and divergence values compare only with their own
    type, hash like equal values, and take scalars from the left; an
    envelope element takes a scalar or an envelope element from the
    right."""
    P = polynomial(2)
    x, y = P.gens()
    D = Derivation(P, (x * y, y * y))
    assert D == Derivation(P, (x * y, y * y)) and (D == 3) is False
    assert len({D, Derivation(P, (x * y, y * y))}) == 1
    assert 2 * D == D + D and Fraction(1, 2) * D == D.scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        "s" * D
    v = divergence(D)
    assert v == divergence(Derivation(P, (x * y, y * y))) and (v == 3) is False
    assert hash(v) == hash(v.trace)
    assert repr(v) == "DivergenceValue(TraceClass(polynomial, {(0, 1): 3}))"
    one = EnvElement.one(P)
    assert one * 2 == one.scale(2) and one * Fraction(1, 3) == one.scale(Fraction(1, 3))
    u = left_mul(x)
    assert u * u == env_mul(u, u)
