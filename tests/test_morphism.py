"""Endomorphisms: composition, IA filtration, tangents, inverses."""
from fractions import Fraction

import pytest

from tangentia import (
    AlgebraError,
    Derivation,
    Element,
    Endomorphism,
    NotIA,
    NotInvertible,
    affine,
    compose,
    conjugate,
    conjugate_derivation,
    elementary,
    free_associative,
    free_lie,
    group_commutator,
    ia_correct,
    ia_level,
    linear,
    metabelian_lie,
    polynomial,
    tangent,
    truncated_inverse,
)
from tangentia import linalg
from tangentia.wildness import random_invertible_matrix

from conftest import ALL_VARIETIES, random_element, random_ia_endomorphism


def test_compose_convention():
    """compose(phi, psi)(x) = phi(psi(x))."""
    P = polynomial(2, ("x", "y"))
    x, y = P.gens()
    phi = Endomorphism(P, (x + y * y, y))
    psi = Endomorphism(P, (x, y + x * x))
    out = compose(phi, psi)
    # psi sends y to y + x^2; then phi substitutes its images
    assert out.images[1] == y + (x + y * y) * (x + y * y)
    assert out.images[0] == x + y * y


def test_apply_matches_substitution():
    L = free_lie(2)
    x1, x2 = L.gens()
    phi = Endomorphism(L, (x1 + x1 * x2, x2))
    assert phi.apply(x1 * x2) == (x1 + x1 * x2) * x2


def test_constant_image_rejected_in_lie():
    L = free_lie(2)
    with pytest.raises(AlgebraError):
        # images must be built inside the variety; constants are impossible
        Endomorphism(L, (L.gen(0), free_associative(2).one()))


def test_ia_level_cases():
    P = polynomial(2)
    x, y = P.gens()
    assert ia_level(Endomorphism.identity(P)).status == "identity"
    assert ia_level(Endomorphism(P, (2 * x, y))).status == "not-ia"
    assert ia_level(Endomorphism(P, (x + P.one(), y))).status == "not-ia"
    lev = ia_level(Endomorphism(P, (x + y * y, y)))
    assert lev.status == "level" and lev.i == 1
    lev3 = ia_level(Endomorphism(P, (x, y + x * x * x)))
    assert lev3.i == 2
    assert str(lev) == "IA(1)"


def test_negative_truncation_degree_is_rejected():
    """A negative bound is an error, not the identity through that degree
    with a zero tangent."""
    P = polynomial(2)
    x, y = P.gens()
    phi = Endomorphism(P, (x + y * y, y))
    assert ia_level(phi, 0).status == "identity"
    for f in (ia_level, tangent):
        with pytest.raises(AlgebraError, match="must be >= 0, got -3"):
            f(phi, -3)


def test_tangent_values():
    P = polynomial(2)
    x, y = P.gens()
    phi = Endomorphism(P, (x + y * y + y * y * y, y))
    T = tangent(phi)
    assert T.coords == (y * y, P.zero())
    with pytest.raises(NotIA):
        tangent(Endomorphism(P, (2 * x, y)))
    assert tangent(Endomorphism.identity(P)).is_zero()


def test_tangent_additivity_of_products(rng):
    """T(phi psi) = T(phi) + T(psi) at equal levels (when nonzero), and
    T(phi^-1) = -T(phi)."""
    for variety in ALL_VARIETIES:
        for _ in range(15):
            phi = random_ia_endomorphism(rng, variety, 1, 2)
            psi = random_ia_endomorphism(rng, variety, 1, 2)
            s = tangent(phi) + tangent(psi)
            if s.is_zero():
                continue
            prod = compose(phi, psi, max_degree=6)
            assert tangent(prod, 6) == s
            inv = truncated_inverse(phi, 6)
            assert tangent(inv, 6) == -tangent(phi)


def test_commutator_tangent_bracket(rng):
    """T([phi,psi]) = [T(phi), T(psi)] at level i+j when nonzero."""
    for variety in ALL_VARIETIES:
        hits = 0
        attempts = 0
        while hits < 5 and attempts < 40:
            attempts += 1
            phi = random_ia_endomorphism(rng, variety, 1, 2)
            psi = random_ia_endomorphism(rng, variety, 2, 3)
            br = tangent(phi).bracket(tangent(psi))
            if br.is_zero():
                continue
            comm = group_commutator(phi, psi, 6)
            lev = ia_level(comm, 6)
            assert lev.status == "level" and lev.i == 3
            assert tangent(comm, 6) == br
            hits += 1
        assert hits > 0


def test_truncated_inverse_random(rng):
    for variety in ALL_VARIETIES:
        for _ in range(10):
            phi = random_ia_endomorphism(rng, variety, 1, 2)
            inv = truncated_inverse(phi, 6)
            assert compose(phi, inv, max_degree=6).is_identity_through(6)
            assert compose(inv, phi, max_degree=6).is_identity_through(6)


def test_truncated_inverse_affine_part():
    P = polynomial(2)
    x, y = P.gens()
    phi = Endomorphism(P, (2 * x + P.one() + y * y, y))
    inv = truncated_inverse(phi, 5)
    assert compose(phi, inv, max_degree=5).is_identity_through(5)
    with pytest.raises(NotInvertible):
        truncated_inverse(Endomorphism(P, (x + y, x + y)), 4)


def _with_constants(phi, consts):
    var = phi.variety
    return Endomorphism(
        var, tuple(f + var.scalar(c) for f, c in zip(phi.images, consts))
    )


def test_truncated_inverse_general_maps(rng):
    """Random IA maps composed with a random invertible linear map, plus
    random constants in the unital kinds.  Without constants the inverse
    holds in both composition orders.  With constants only psi(phi) = x
    is an identity of truncated series: phi(psi) picks up low-degree
    terms from the dropped tail of psi evaluated at x - c."""
    k = 4
    for variety in ALL_VARIETIES:
        for _ in range(3):
            g = random_invertible_matrix(rng, variety.rank)
            ia = random_ia_endomorphism(rng, variety, 1, 2)
            for phi in (compose(linear(variety, g), ia), compose(ia, linear(variety, g))):
                inv = truncated_inverse(phi, k)
                assert all(f.degree() is None or f.degree() <= k for f in inv.images)
                assert compose(phi, inv, max_degree=k).is_identity_through(k)
                assert compose(inv, phi, max_degree=k).is_identity_through(k)
                if not variety.unital:
                    continue
                consts = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(variety.rank)]
                phi_c = _with_constants(phi, consts)
                inv_c = truncated_inverse(phi_c, k)
                assert compose(phi_c, inv_c, max_degree=k).is_identity_through(k)


@pytest.mark.parametrize("kind", [polynomial, free_associative])
def test_truncated_inverse_with_constants(kind):
    """Constants stay out of the fixed point: a Picard iteration that keeps
    them inside gives wrong inverses for these two maps."""
    A = kind(2)
    x1, x2 = A.gens()
    one = A.one()
    for images in ((one + x1 + x1 * x1, x2), (one + x1 + x2 * x2, one + x2 + x1 * x1)):
        phi = Endomorphism(A, images)
        for k in range(7):
            inv = truncated_inverse(phi, k)
            assert compose(phi, inv, max_degree=k).is_identity_through(k), (images, k)
    # x1 + x1^2 has the inverse series y - y^2 + 2y^3 - ..., here at y = x1 - 1
    phi = Endomorphism(A, (one + x1 + x1 * x1, x2))
    y = x1 - one
    assert truncated_inverse(phi, 3).images == (y - y * y + 2 * y * y * y, x2)


def test_truncated_inverse_low_degrees():
    """k = 0 and k = 1: the inverse is 0, then the affine inverse."""
    P = polynomial(2)
    x1, x2 = P.gens()
    phi = Endomorphism(P, (x1 + P.one() + x2 * x2, x2))
    assert truncated_inverse(phi, 0).images == (P.zero(), P.zero())
    assert truncated_inverse(phi, 1).images == (x1 - P.one(), x2)
    for k in (0, 1):
        assert compose(phi, truncated_inverse(phi, k), max_degree=k).is_identity_through(k)
    for variety in (free_lie(2), metabelian_lie(2)):
        x, y = variety.gens()
        phi = Endomorphism(variety, (x + x * y, y + x * (x * y)))
        assert truncated_inverse(phi, 0).images == (variety.zero(), variety.zero())
        assert truncated_inverse(phi, 1).images == (x, y)


def _combination(var, row, elements):
    return sum((e.scale(c) for c, e in zip(row, elements) if c), var.zero())


def _reference_inverse(phi, k):
    """The round-by-round fixed point that ``truncated_inverse`` computed
    before it went online, kept as the reference: round m composes all of
    psi into h truncated at m, so it forms again every degree below m of
    every prefix product."""
    var = phi.variety
    ginv = linalg.inverse(phi.linear_part())
    gens = var.gens()
    h = [f.truncate(k) - f.truncate(1) for f in phi.images] if k > 1 else []
    psi = [_combination(var, row, gens) for row in ginv]
    for m in range(2, k + 1):
        hpsi = compose(Endomorphism(var, psi), Endomorphism(var, h), max_degree=m)
        rhs = [x - e for x, e in zip(gens, hpsi.images)]
        psi = [_combination(var, row, rhs) for row in ginv]
    inv = Endomorphism(var, tuple(f.truncate(k) for f in psi))
    consts = phi.constant_part()
    if any(consts):
        shift = [x - var.scalar(c) for x, c in zip(gens, consts)]
        inv = compose(Endomorphism(var, shift), inv)
    return inv


def _random_invertible_maps(rng, variety):
    """A random IA map of degree <= 3, composed on either side with a
    random invertible linear map."""
    g = linear(variety, random_invertible_matrix(rng, variety.rank))
    ia = random_ia_endomorphism(rng, variety, 1, 3)
    return compose(g, ia), compose(ia, g)


def test_truncated_inverse_matches_reference(rng):
    for variety in ALL_VARIETIES:
        for phi in _random_invertible_maps(rng, variety):
            maps = [phi]
            if variety.unital:
                consts = [rng.choice([-2, -1, 1, 2]) for _ in range(variety.rank)]
                maps.append(_with_constants(phi, consts))
            for f in maps:
                for k in range(7):
                    assert truncated_inverse(f, k) == _reference_inverse(f, k), (f, k)


def test_truncated_inverse_matches_reference_on_lie_series_maps():
    """The two fixed degree-8 inverses of the lie-series benchmark:
    (x + [y,z] + [x,[x,y]], y + [z,x], z) and
    (x + [y,z], y + [x,[x,z]], z + [x,y]) on free_lie(3)."""
    L = free_lie(3)
    x, y, z = L.gens()
    for images in (
        (x + y * z + x * (x * y), y + z * x, z),
        (x + y * z, y + x * (x * z), z + x * y),
    ):
        phi = Endomorphism(L, images)
        assert truncated_inverse(phi, 8) == _reference_inverse(phi, 8)


def test_truncated_inverse_grows_degree_by_degree(rng):
    """Raising k only adds terms of the new degrees: the inverse through k,
    cut at j, is the inverse through j.  Maps with constants are left out:
    there the translation x - c moves the terms cut at k into low degrees,
    so the inverse through k differs from the inverse through j below j."""
    for variety in ALL_VARIETIES:
        for phi in _random_invertible_maps(rng, variety):
            inverses = [truncated_inverse(phi, k) for k in range(7)]
            for k, inv in enumerate(inverses):
                for j in range(k + 1):
                    assert inv.truncate(j) == inverses[j], (phi, j, k)


def test_constant_key_rejected_in_lie_kinds():
    for variety in (free_lie(2), metabelian_lie(2)):
        x1, x2 = variety.gens()
        with_constant = Element._raw(variety, {**x2.coeffs, (): 1})
        with pytest.raises(AlgebraError, match="constant image part"):
            Endomorphism(variety, (x1, with_constant))


def test_negative_truncation_degree_rejected():
    P = polynomial(2)
    x1, x2 = P.gens()
    phi = Endomorphism(P, (x1 + x2 * x2, x2))
    for call in (lambda: truncated_inverse(phi, -1), lambda: group_commutator(phi, phi, -1)):
        with pytest.raises(AlgebraError, match="must be >= 0, got -1"):
            call()


def test_group_commutator_rejects_constant_terms():
    """With f = (x1 + 1, x2) and g = (x1, x2 + x1^2) the truncated product
    of factors reads (x1, x2) at k = 1, but the exact commutator, from
    the exact inverses, is (x1, -1 + x2 + 2*x1)."""
    P = polynomial(2)
    x1, x2 = P.gens()
    f = Endomorphism(P, (x1 + P.one(), x2))
    g = Endomorphism(P, (x1, x2 + x1 * x1))
    f_inv = Endomorphism(P, (x1 - P.one(), x2))
    g_inv = Endomorphism(P, (x1, x2 - x1 * x1))
    exact = compose(compose(compose(f_inv, g_inv), f), g)
    assert exact.images == (x1, x2 - P.one() + 2 * x1)
    with pytest.raises(AlgebraError, match="the first map has a constant term"):
        group_commutator(f, g, 1)
    with pytest.raises(AlgebraError, match="the second map has a constant term"):
        group_commutator(g, f, 1)


def test_elementary_and_affine_constructors():
    P = polynomial(3)
    x, y, z = P.gens()
    e = elementary(P, 0, 1, y * z)
    assert e.images == (x + y * z, y, z)
    with pytest.raises(AlgebraError):
        elementary(P, 0, 1, x * y)  # involves the changed generator
    with pytest.raises(AlgebraError):
        elementary(P, 0, 0, y)
    a = affine(P, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (Fraction(1), 0, 0))
    assert a.images[0] == x + P.one()
    L = free_lie(2)
    with pytest.raises(AlgebraError):
        affine(L, [[1, 0], [0, 1]], (1, 0))


def test_linear_part_and_conjugation():
    P = polynomial(2)
    x, y = P.gens()
    g = [[0, 1], [1, 0]]
    phi = Endomorphism(P, (x + y * y, y))
    assert phi.linear_part() == [[1, 0], [0, 1]]
    conj = conjugate(g, phi)
    # swapping variables: x + y^2 becomes y + x^2 in the second slot
    assert conj.images == (x, y + x * x)
    D = Derivation(P, (y * y, P.zero()))
    cd = conjugate_derivation(g, D)
    assert cd.coords == (P.zero(), x * x)


def test_ia_correct():
    P = polynomial(2)
    x, y = P.gens()
    phi = Endomorphism(P, (2 * x + P.one() + y * y, y - x))
    corrected = ia_correct(phi)
    assert corrected is not None
    assert ia_level(corrected).is_ia
    singular = Endomorphism(P, (x + y, x + y))
    assert ia_correct(singular) is None


def test_compose_truncation_consistency(rng):
    """Truncated composition agrees with exact composition up to the bound."""
    P = polynomial(2)
    for _ in range(10):
        phi = random_ia_endomorphism(rng, P, 1, 3)
        psi = random_ia_endomorphism(rng, P, 1, 3)
        exact = compose(phi, psi)
        trunc = compose(phi, psi, max_degree=5)
        assert exact.truncate(5) == trunc


def test_is_identity_through_compares_truncations():
    """Through degree k the map is compared with the identity truncated
    at k, so every map agrees with it through degree 0."""
    P = polynomial(2)
    x, y = P.gens()
    phi = Endomorphism(P, (x + y * y, y))
    assert phi.is_identity_through(0) and phi.is_identity_through(1)
    assert not phi.is_identity_through(2)
    M = metabelian_lie(2)
    y1, y2 = M.gens()
    assert Endomorphism(M, (y2, y1)).is_identity_through(0)
    assert not Endomorphism(M, (y2, y1)).is_identity_through(1)
