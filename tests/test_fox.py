"""Fox derivatives, Jacobians, and the chain rule."""
from fractions import Fraction

import pytest

from tangentia import (
    Derivation,
    Element,
    Endomorphism,
    EnvElement,
    Kind,
    chain_rule_check,
    env_apply,
    env_mul,
    fox_derivative,
    free_associative,
    free_lie,
    gradient,
    jacobian,
    left_mul,
    metabelian_lie,
    monomials_of_degree,
    polynomial,
    right_mul,
)
from tangentia import fox, freealg, morphism
from tangentia.envelope import generated_algebra
from tangentia.fox import push_matrix

from conftest import ALL_VARIETIES, random_element, random_ia_endomorphism, stored_words


def test_polynomial_partials():
    P = polynomial(2)
    x, y = P.gens()
    f = x * x * y + 3 * y
    assert fox_derivative(f, 0).coeffs == {(1, 1): 2}
    assert fox_derivative(f, 1).coeffs == {(2, 0): 1, (0, 0): 3}


def test_associative_occurrence_split():
    A = free_associative(2)
    x1, x2 = A.gens()
    f = x1 * x2 * x1
    # one u (x) v per occurrence of x1
    assert stored_words(fox_derivative(f, 0)) == {
        ((), (1, 0)): 1,
        ((0, 1), ()): 1,
    }
    assert stored_words(fox_derivative(f, 1)) == {((0,), (0,)): 1}
    assert fox_derivative(A.one(), 0).is_zero()


def test_lie_fox_of_bracket():
    L = free_lie(2)
    x1, x2 = L.gens()
    f = x1 * x2  # [x1,x2]
    # d[x1,x2]/dx1 = -L_{x2}, d/dx2 = L_{x1}
    assert stored_words(fox_derivative(f, 0)) == {(1,): -1}
    assert stored_words(fox_derivative(f, 1)) == {(0,): 1}


def test_metabelian_fox_of_bracket():
    M = metabelian_lie(2)
    y1, y2 = M.gens()
    f = y2 * y1  # [y2,y1]: d/dy1 = +L_{y2} = t2, d/dy2 = -L_{y1} = -t1
    assert fox_derivative(f, 0).coeffs == {(0, 1): 1}
    assert fox_derivative(f, 1).coeffs == {(1, 0): -1}


def test_metabelian_fox_of_a_generator_by_itself_is_the_unit_of_u():
    """dy_i/dy_i is 1 in U/R: the unit key of U/R's algebra."""
    M = metabelian_lie(3)
    one = generated_algebra(M).one().coeffs
    for i, y in enumerate(M.gens()):
        assert fox_derivative(y, i).coeffs == one


def test_metabelian_fox_is_the_abelianized_free_lie_fox():
    """On each left-normed bracket up to degree 5, the metabelian Fox
    derivative is the free-Lie Fox derivative of its lift to L_3, with
    the words of U(L_3) = K<X> abelianized into U/R = Q[t]."""
    M, L = metabelian_lie(3), free_lie(3)
    for d in range(1, 6):
        for mono in monomials_of_degree(M, d):
            lift = L.gen(mono[0])
            for j in mono[1:]:
                lift = lift * L.gen(j)
            for i in range(3):
                want = {}
                for w, c in stored_words(fox_derivative(lift, i)).items():
                    t = tuple(w.count(j) for j in range(3))
                    want[t] = want.get(t, 0) + c
                want = {t: c for t, c in want.items() if c}
                a = Element(M, {mono: Fraction(1)})
                assert fox_derivative(a, i).coeffs == want, (mono, i)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_fox_characterizes_derivations(variety, rng):
    """D(a) = sum_i env_apply(da/dx_i, D(x_i)-image) for the derivation
    with those coordinate images, checked via the Leibniz action.

    In the metabelian variety the Fox derivatives live in U reduced mod
    the radical, so the pairing is exact only for coordinates in the
    derived subalgebra (which the radical annihilates); the coordinates
    are drawn from degree >= 2 there.
    """
    lo = 2 if variety.kind.value == "metabelian" else 1
    for _ in range(40):
        a = random_element(rng, variety, 1, 3)
        coords = tuple(
            random_element(rng, variety, lo, 2) for _ in range(variety.rank)
        )
        D = Derivation(variety, coords)
        total = variety.zero()
        for i in range(variety.rank):
            total = total + env_apply(fox_derivative(a, i), coords[i])
        assert total == D.apply(a)


def test_fox_linearity(rng):
    for variety in ALL_VARIETIES:
        for _ in range(20):
            a = random_element(rng, variety, 1, 3)
            b = random_element(rng, variety, 1, 3)
            for i in range(variety.rank):
                assert fox_derivative(a + b, i) == fox_derivative(a, i) + fox_derivative(b, i)


def test_jacobian_of_identity_and_gradient():
    P = polynomial(2)
    phi = Endomorphism.identity(P)
    J = jacobian(phi)
    one = EnvElement.one(P)
    assert J[0][0] == one and J[1][1] == one
    assert J[0][1].is_zero() and J[1][0].is_zero()
    g = gradient(P.gen(0) * P.gen(1))
    assert g[0].coeffs == {(0, 1): 1}


def test_chain_rule_hand_instance():
    P = polynomial(2, ("x", "y"))
    x, y = P.gens()
    phi = Endomorphism(P, (x + y * y, y))
    psi = Endomorphism(P, (x, y + x * x))
    assert chain_rule_check(phi, psi)
    assert chain_rule_check(psi, phi)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_chain_rule_random(variety, rng):
    for _ in range(25):
        phi = random_ia_endomorphism(rng, variety, 1, 2)
        psi = random_ia_endomorphism(rng, variety, 1, 2)
        assert chain_rule_check(phi, psi)


def _push_reference(images, u):
    """phi(u) for phi: x_i -> images[i], summed term by term from env_mul
    products: a tensor pair a(x)b is L_a R_b and goes to L_{phi(a)}
    R_{phi(b)}; any other key is a product of the L_{x_j}, and each goes
    to L_{images[j]}."""
    var = u.variety
    out = EnvElement.zero(var)
    for key, c in stored_words(u).items():
        if var.kind is Kind.FREE_ASSOCIATIVE:
            a, b = (Element(var, {w: 1}).substitute(images) for w in key)
            term = env_mul(left_mul(a), right_mul(b))
        else:
            if var.kind is not Kind.FREE_LIE:  # exponent vectors
                key = [j for j, e in enumerate(key) for _ in range(e)]
            term = EnvElement.one(var)
            for j in key:
                term = env_mul(term, left_mul(images[j]))
        out = out + term.scale(c)
    return out


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_push_matrix_is_the_entrywise_push(variety, rng):
    """Each entry of push_matrix(images, J) is the reference push of J's
    entry, on seeded Jacobians and images (with constants in the unital
    kinds), and pushing the 1x1 matrix of an entry gives the same."""
    low = 0 if variety.unital else 1
    for _ in range(10):
        images = tuple(random_element(rng, variety, low, 2) for _ in range(variety.rank))
        mat = jacobian(random_ia_endomorphism(rng, variety, 1, 3))
        pushed = push_matrix(images, mat)
        for row, pushed_row in zip(mat, pushed):
            for u, v in zip(row, pushed_row):
                assert v == _push_reference(images, u)
                assert push_matrix(images, [[u]])[0][0] == v


def test_push_matrix_maps_words_shared_by_entries():
    """An associative matrix whose entries share the words of their tensor
    factors, and a word that is both a left and a right factor: each
    entry is still its own push."""
    A = free_associative(2)
    x1, x2 = A.gens()
    images = (x1 + x2 * x1 + A.one(), x2 - 2 * x1 * x1)
    u, v = left_mul(x1 * x2), right_mul(x1)
    mat = [
        [env_mul(u, v), left_mul(x1) + right_mul(x1 * x2)],
        [right_mul(x1 * x2) - u, env_mul(v, left_mul(x1)) + EnvElement.one(A)],
    ]
    pushed = push_matrix(images, mat)
    for row, pushed_row in zip(mat, pushed):
        for u, v in zip(row, pushed_row):
            assert v == _push_reference(images, u)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_one_substitution_per_push_and_per_composition(variety, rng, monkeypatch):
    """A 3x3 push_matrix makes one _substitute call, and the chain rule
    two: one in compose and one for the pushed Jacobian."""
    calls = []

    def counting(real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    for module in (fox, freealg, morphism):
        monkeypatch.setattr(module, "_substitute", counting(module._substitute))
    phi = random_ia_endomorphism(rng, variety, 1, 3)
    psi = random_ia_endomorphism(rng, variety, 1, 3)
    push_matrix(phi.images, jacobian(psi))
    assert len(calls) == 1
    assert chain_rule_check(phi, psi)
    assert len(calls) == 3
