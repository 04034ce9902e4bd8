"""Endomorphisms: composition, IA filtration, tangents, inverses."""
from fractions import Fraction

import pytest

from tangentia import (
    AlgebraError,
    Derivation,
    Element,
    Endomorphism,
    Kind,
    NotIA,
    NotInvertible,
    Variety,
    affine,
    compose,
    conjugate_derivation,
    corpus,
    elementary,
    free_associative,
    free_lie,
    group_commutator,
    ia_correct,
    ia_level,
    linear,
    metabelian_lie,
    monomials_of_degree,
    polynomial,
    tangent,
    truncated_inverse,
)
from tangentia import linalg, morphism
from tangentia.morphism import FiltrationLevel, _conjugate
from tangentia.wildness import random_invertible_matrix

from conftest import (
    ALL_VARIETIES,
    check_scaled_inverse,
    random_derivation,
    random_element,
    random_homogeneous_derivation,
    random_ia_endomorphism,
)


@pytest.mark.parametrize(
    "variety", [polynomial(2), polynomial(3), free_associative(2)],
    ids=lambda v: f"{v.kind.value}{v.rank}",
)
def test_truncated_compose_is_the_exact_composite_cut(variety, rng):
    """``compose(phi, psi, max_degree=k)`` is the exact composite cut at
    k, also when phi has constant terms: a term of psi above k then
    reaches lower degrees, so psi may not be cut before substitution
    (cutting it first made every pair here differ)."""
    gens = variety.gens()
    for _ in range(30):
        phi = Endomorphism(variety, [
            x + random_element(rng, variety, 1, 2, terms=2)
            + variety.scalar(rng.choice([-1, 1, 2]))
            for x in gens
        ])
        psi = Endomorphism(variety, [x + random_element(rng, variety, 2, 5) for x in gens])
        k = rng.randint(1, 3)
        assert compose(phi, psi, max_degree=k) == compose(phi, psi).truncate(k), (phi, psi, k)


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
            g, _ = random_invertible_matrix(rng, variety.rank)
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
    g = linear(variety, random_invertible_matrix(rng, variety.rank)[0])
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


def _naive_inverse(phi, k):
    """The plain fixed-point iteration psi <- L^-1 (x - h(psi)), each step a
    full ``compose`` cut at k, run k times from psi = 0; a constant term
    is then undone by substituting x - c."""
    var = phi.variety
    ginv = linalg.inverse(phi.linear_part())
    gens = var.gens()
    h = Endomorphism(var, tuple(f - f.truncate(1) for f in phi.images))
    psi = [var.zero()] * var.rank
    for _ in range(k):
        hpsi = compose(Endomorphism(var, psi), h, max_degree=k)
        rhs = [x - e for x, e in zip(gens, hpsi.images)]
        psi = [_combination(var, row, rhs) for row in ginv]
    consts = phi.constant_part()
    if any(consts):
        shift = [x - var.scalar(c) for x, c in zip(gens, consts)]
        psi = [f.substitute(shift) for f in psi]
    return psi


def _typed(images):
    """Each image's coefficients with their types."""
    return [{key: (type(c), c) for key, c in f.coeffs.items()} for f in images]


def _stored_form(images):
    """Each image's coefficients with the types of their stored form: an
    int when integral, a Fraction otherwise."""
    return [
        {key: (int if c.denominator == 1 else Fraction, c) for key, c in f.coeffs.items()}
        for f in images
    ]


def _naive_oracle_maps(rng, variety):
    """Seeded maps that reach every path of the inverse rounds: keys read
    once (most words of a random map), the word of w = [y,z] (yz in the
    commutative and associative kinds) in two images, the key w z whose
    prefix w is a key too (and Nagata's y^3, a prefix of y^4 z), a linear
    part of determinant 1 or from ``random_invertible_matrix``, and
    constants in the unital kinds."""
    x, y, z = variety.gens()
    w = y * z
    maps = [
        random_ia_endomorphism(rng, variety, 1, 3),
        Endomorphism(variety, (x + 2 * w + w * z, y - w, z + x * w)),
    ]
    if variety.kind is Kind.POLYNOMIAL:
        maps.append(corpus.build("nagata"))
    for g in ([[1, 1, 0], [0, 1, 0], [0, -1, 1]],
              random_invertible_matrix(rng, variety.rank)[0]):
        ia = random_ia_endomorphism(rng, variety, 1, 3)
        maps += [compose(linear(variety, g), ia), compose(ia, linear(variety, g))]
    if variety.unital:
        maps += [
            _with_constants(phi, [rng.choice([-2, -1, 1, 2]) for _ in range(3)])
            for phi in maps[1:3]
        ]
    return maps


def test_truncated_inverse_matches_the_naive_fixed_point(monkeypatch, rng):
    """``truncated_inverse`` equals the naive fixed-point iteration on maps
    of all four kinds, coefficient types included: each is an int where
    it is integral, a ``Fraction`` elsewhere.  Both paths of the rounds
    run on every kind (a key read once forms its component in place, any
    other entry in a dict of its own)."""
    paths = set()
    component = morphism._component

    def recording_component(kind, left, right, m, *args):
        paths.add("in place" if args else "own dict")
        return component(kind, left, right, m, *args)

    monkeypatch.setattr(morphism, "_component", recording_component)
    k = 5
    for variety in ALL_VARIETIES:
        paths.clear()
        for phi in _naive_oracle_maps(rng, variety):
            got = truncated_inverse(phi, k).images
            assert _typed(got) == _stored_form(_naive_inverse(phi, k)), (phi, k)
        assert paths == {"in place", "own dict"}, variety


def _check_coded_inverse(phi, k):
    """``truncated_inverse(phi, k)`` against the naive fixed point, types
    included, with the decode tables of its rounds."""
    got = truncated_inverse(phi, k).images
    assert _typed(got) == _stored_form(_naive_inverse(phi, k)), (phi, k)
    return got


def test_coded_rounds_on_rank_1():
    """On assoc(1) every word of one degree codes to 0; the linear part 2
    puts a ``Fraction`` in every degree past 1."""
    A = free_associative(1)
    (x,) = A.gens()
    got = _check_coded_inverse(Endomorphism(A, (2 * x + x * x - 3 * x * x * x,)), 9)
    assert len(got[0].coeffs) == 9
    assert any(type(c) is Fraction for c in got[0].coeffs.values())


def test_coded_rounds_on_letters_past_9():
    """A rank-12 free-Lie map whose words use the letters 10 and 11, which
    are single digits base 12; at k = 7 the decode tables cover three
    letters a read, so degree 7 takes three reads."""
    L = free_lie(12)
    g = L.gens()
    images = list(g)
    images[0] = g[0] + g[10] * g[11]
    images[10] = g[10] + g[11] * (g[11] * g[0])
    got = _check_coded_inverse(Endomorphism(L, images), 7)
    assert max(map(len, got[0].coeffs)) == 7
    assert {10, 11} <= {a for w in got[0].coeffs for a in w}


def test_coded_rounds_past_one_table_read():
    """A rank-3 free-Lie inverse at k = 10, where words of degree 6 to 10
    decode from two reads of the tables."""
    L = free_lie(3)
    x, y, z = L.gens()
    phi = Endomorphism(L, (x + x * y + y * z, y + y * z, z))
    got = _check_coded_inverse(phi, 10)
    assert max(map(len, got[0].coeffs)) == 10


def test_coded_rounds_then_the_translation():
    """An assoc(3) map with a constant term: the translation x - c runs on
    the decoded inverse."""
    A = free_associative(3)
    x, y, z = A.gens()
    phi = Endomorphism(A, (x + y * z + A.scalar(2), y - x * x, z + z * x + A.scalar(-1)))
    got = _check_coded_inverse(phi, 6)
    assert got[0].constant_term() and got[2].constant_term()


def test_coded_rounds_past_64_bits(monkeypatch):
    """On free_associative(100), x1 -> x1 + x1 x2 has the inverse
    sum (-1)^j x1 x2^j; at k = 12 the code of x1 x2^11, the sum of 100^i
    over i < 11, is past 2^64, and decodes exactly."""
    codes = []
    decode = morphism._decode

    def recording_decode(n, coords):
        codes.extend(c for parts in coords for part in parts for c in part)
        return decode(n, coords)

    monkeypatch.setattr(morphism, "_decode", recording_decode)
    A = free_associative(100)
    g = A.gens()
    phi = Endomorphism(A, (g[0] + g[0] * g[1],) + g[1:])
    got = truncated_inverse(phi, 12).images
    want = {(0,) + (1,) * j: (-1) ** j for j in range(12)}
    assert _typed(got[:1]) == [{w: (int, c) for w, c in want.items()}]
    assert got[1:] == g[1:]
    assert max(codes) == sum(100 ** i for i in range(11)) > 2 ** 64


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


def test_inverse_rounds_stop_once_the_inverse_is_exact():
    """Once the rounds pass deg(h) times the degree of psi so far, h(psi)
    has no terms left to give, so a polynomial inverse comes back at any
    k, even one whose rounds could never all run."""
    P = polynomial(3)
    x, y, z = P.gens()
    huge = 10**8
    phi = Endomorphism(P, (x + y * y, y, z))
    assert truncated_inverse(phi, huge).images == (x - y * y, y, z)
    phi = Endomorphism(P, (x + y.power(10), y, z))
    assert truncated_inverse(phi, huge).images == (x - y.power(10), y, z)
    # triangular: psi reaches degree 6 = deg(y^2) * deg(z^3) before it stops
    phi = Endomorphism(P, (x + y * y, y + z.power(3), z))
    w = y - z.power(3)
    assert truncated_inverse(phi, huge).images == (x - w * w, w, z)
    assert truncated_inverse(phi, 4).images == ((x - w * w).truncate(4), w, z)


def test_linear_map_inverse_at_every_k(rng):
    """A linear map has no h: its inverse is L^-1 x at every k >= 1."""
    for variety in ALL_VARIETIES:
        g, s = random_invertible_matrix(rng, variety.rank)
        check_scaled_inverse(g, s)
        phi = linear(variety, g)
        for k in (1, 2, 5):
            assert truncated_inverse(phi, k) == linear(variety, linalg.inverse(g))
    P = polynomial(2)
    x, y = P.gens()
    assert truncated_inverse(Endomorphism(P, (x + y, y)), 5).images == (x - y, y)


def test_free_lie_inverse_runs_to_k():
    """x + [x,y] has the never-ending inverse x - [x,y] + [[x,y],y] - ...:
    every round adds a degree, so the rounds run through k."""
    L = free_lie(2)
    x, y = L.gens()
    phi = Endomorphism(L, (x + x * y, y))
    want, term = x, x
    for _ in range(7):
        term = -(term * y)
        want = want + term
    assert truncated_inverse(phi, 8).images == (want, y)
    assert truncated_inverse(phi, 8) == _reference_inverse(phi, 8)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_corrupted_inverse_fails_on_both_sides(variety, rng):
    """The inverse with one basis coefficient moved by 1, at any degree
    through k, is caught by the composition on either side: the two
    checks ``invert`` may run are equally strict on maps without a
    constant."""
    k = 4
    for phi in _random_invertible_maps(rng, variety):
        psi = truncated_inverse(phi, k)
        assert compose(phi, psi, max_degree=k).is_identity_through(k)
        assert compose(psi, phi, max_degree=k).is_identity_through(k)
        for i in range(variety.rank):
            for d in range(1, k + 1):
                key = rng.choice(monomials_of_degree(variety, d))
                images = list(psi.images)
                images[i] = images[i] + Element(variety, {key: 1})
                bad = Endomorphism(variety, tuple(images))
                assert not compose(phi, bad, max_degree=k).is_identity_through(k)
                assert not compose(bad, phi, max_degree=k).is_identity_through(k)


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


@pytest.mark.parametrize("consts", [(1, 2, 3), (1,), ()])
def test_affine_needs_one_constant_per_generator(consts):
    """A third constant was dropped: (1, 2, 3) gave (1 + x1, 2 + x2)."""
    with pytest.raises(AlgebraError, match="one constant per generator: 2, got"):
        affine(polynomial(2), [[1, 0], [0, 1]], consts)


def test_linear_part_and_conjugation():
    P = polynomial(2)
    x, y = P.gens()
    g = [[0, 1], [1, 0]]
    phi = Endomorphism(P, (x + y * y, y))
    assert phi.linear_part() == [[1, 0], [0, 1]]
    # swapping variables: y^2 d_x becomes x^2 d_y
    D = Derivation(P, (y * y, P.zero()))
    cd = conjugate_derivation(g, D)
    assert cd.coords == (P.zero(), x * x)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_linear_part_and_is_identity_match_their_definitions(variety, rng):
    """``linear_part`` reads each image's generator coefficients, and
    ``is_identity`` finds no deviation; checked against the degree-1
    components and against equality with the identity map."""
    gens = variety.gens()
    identity = Endomorphism.identity(variety)
    maps = [identity, Endomorphism(variety, [g + g - g for g in gens])]
    for _ in range(40):
        images = []
        for i, g in enumerate(gens):
            f = rng.choice([g, g, g.scale(2), variety.zero(), random_element(rng, variety, 1, 1)])
            if rng.random() < 0.5:
                f = f + random_element(rng, variety, 2, 3)
            if variety.unital and rng.random() < 0.2:
                f = f + variety.scalar(rng.choice([-1, 1]))
            images.append(f)
        maps.append(Endomorphism(variety, images))
    answers = set()
    for phi in maps:
        g = phi.linear_part()
        for row, f in zip(g, phi.images):
            linear = variety.zero()
            for c, x in zip(row, gens):
                linear = linear + x.scale(c)
            assert linear == f.homogeneous_component(1)
        assert phi.is_identity() == (phi == identity)
        answers.add(phi.is_identity())
    assert answers == {True, False}


def _reference_conjugate(g, D):
    """The formula ``conjugate_derivation`` used before it was batched,
    kept as the reference: x_k -> alpha(D(f_k)) for f_k = alpha^-1(x_k),
    one ``Derivation.apply`` and one substitution per coordinate."""
    var = D.variety
    alpha = linear(var, g)
    alpha_inv = linear(var, linalg.inverse(g))
    return Derivation(var, tuple(alpha.apply(D.apply(f)) for f in alpha_inv.images))


def _det_three(n):
    """[[2, 1], [1, 2]] in the top corner of the n x n identity: its
    determinant is 3, so its inverse has entries in thirds."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    g[0][:2] = [2, 1]
    g[1][:2] = [1, 2]
    return g


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize(
    "kind", [polynomial, free_associative, free_lie, metabelian_lie]
)
def test_conjugation_matches_the_unbatched_formula(kind, rank, rng):
    var = kind(rank)
    mats = [_det_three(rank)]
    mats += [random_invertible_matrix(rng, rank)[0] for _ in range(2)]
    assert linalg.inverse(mats[0])[0][0] == Fraction(2, 3)
    for degree in (1, 2, 3):
        for D in (
            random_homogeneous_derivation(rng, var, degree),
            random_derivation(rng, var, degree + 1),
            random_homogeneous_derivation(rng, var, degree).scale(Fraction(1, 2)),
        ):
            integral = all(
                type(c) is int for f in D.coords for c in f.coeffs.values()
            )
            for g in mats:
                got = conjugate_derivation(g, D)
                assert got == _reference_conjugate(g, D), (g, D)
                for f in got.coords:
                    for c in f.coeffs.values():
                        assert c and (type(c) is int or c.denominator != 1), (g, D, c)
                # with d g^-1 in place of g^-1, as the span sampler passes it
                d, s = linalg.scaled_inverse(g)
                scaled = _conjugate(g, s, D)
                assert scaled == got.scale(d), (g, D)
                if integral:
                    for f in scaled.coords:
                        assert all(type(c) is int for c in f.coeffs.values()), (g, D)
    singular = [list(row) for row in mats[0]]
    singular[-1] = singular[0]
    with pytest.raises(NotInvertible):
        conjugate_derivation(singular, random_homogeneous_derivation(rng, var, 1))


def test_conjugate_derivation_by_singular_matrix_is_not_invertible():
    P = polynomial(2)
    y = P.gen(1)
    with pytest.raises(NotInvertible):
        conjugate_derivation([[1, 1], [1, 1]], Derivation(P, (y * y, P.zero())))


@pytest.mark.parametrize(
    "g", [[[1, 0, 5], [0, 1, 7]], [[1], [0, 1]], [[1, 0]], [[1, 0], [0, 1], [0, 0]]]
)
def test_matrix_must_be_square_of_the_rank(g):
    """An entry too many was dropped and one too few read as zero, so both
    gave (x1, x2), and conjugating y^2 d_x by [[1,0,5],[0,1,7]] gave
    5 y^2 d_x + 7 y^2 d_y; a wrong row count failed only on the image
    count."""
    P = polynomial(2)
    y = P.gen(1)
    shape = "the matrix must be 2x2 for a rank-2 variety"
    with pytest.raises(AlgebraError, match=shape):
        linear(P, g)
    with pytest.raises(AlgebraError, match=shape):
        affine(P, g, (0, 0))
    with pytest.raises(AlgebraError, match=shape):
        conjugate_derivation(g, Derivation(P, (y * y, P.zero())))


def test_ia_correct():
    P = polynomial(2)
    x, y = P.gens()
    phi = Endomorphism(P, (2 * x + P.one() + y * y, y - x))
    corrected = ia_correct(phi)
    assert corrected is not None
    assert ia_level(corrected).is_ia
    singular = Endomorphism(P, (x + y, x + y))
    assert ia_correct(singular) is None


def test_ia_correct_returns_an_ia_map_as_it_is(rng):
    """An IA map is its own correction: composing it with the inverse of
    its affine part, the identity, gives it back key for key."""
    for variety in ALL_VARIETIES:
        for level in (1, 2):
            phi = random_ia_endomorphism(rng, variety, level, 3)
            got = ia_correct(phi)
            composed = compose(phi, truncated_inverse(phi, 1))
            assert got == phi == composed
            assert repr(got) == repr(phi) == repr(composed)
            assert [list(f.coeffs) for f in got.images] == [
                list(f.coeffs) for f in composed.images
            ]


def _ia_correct_cases():
    """Maps whose affine part is not the identity, with their corrections
    as ``ia_correct`` printed them before the IA shortcut."""
    P = polynomial(2)
    x, y = P.gens()
    one = P.one()
    A = free_associative(2)
    a, b = A.gens()
    L = free_lie(2)
    u, v = L.gens()
    M = metabelian_lie(3)
    y1, y2, y3 = M.gens()
    return [
        (
            Endomorphism(P, (2 * x + one + y * y, y - x)),
            "(x1 + 1/2*x2^2, x2 + 1/2*x2^2)",
        ),
        (Endomorphism(P, (x + one + y * y, y)), "(x1 + x2^2, x2)"),
        (Endomorphism(P, (y + x * x * y, x + y)), "(x1 - x1^2*x2, x2 + x1^2*x2)"),
        (Endomorphism(A, (a + A.scalar(2) + b * a, b)), "(x1 + x2*x1, x2)"),
        (Endomorphism(A, (b + a * b, a - b * b * a)), "(x1 - x2*x2*x1, x2 + x1*x2)"),
        (Endomorphism(L, (u + v + u * v, v)), "(x1 + [x1,x2], x2)"),
        (Endomorphism(L, (2 * v + u * (u * v), u)), "(x1, x2 + 1/2*[x1,[x1,x2]])"),
        (
            Endomorphism(M, (y1 + y2 + y2 * y3, y2, y3 - y3 * (y1 * y2))),
            "(y1 - [y3,y2], y2, y3 - [[y2,y1],y3])",
        ),
    ]


def test_ia_correct_of_a_map_with_an_affine_part():
    for phi, want in _ia_correct_cases():
        got = ia_correct(phi)
        assert repr(got) == want, phi
        assert got == compose(phi, truncated_inverse(phi, 1))
        assert ia_level(got).is_ia
    for variety in ALL_VARIETIES:
        x1, x2, x3 = variety.gens()
        # a singular linear part, with and without terms of degree 2
        assert ia_correct(Endomorphism(variety, (x1 + x2, x1 + x2, x3))) is None
        assert ia_correct(Endomorphism(variety, (x1, x1 + x2 * x3, x1))) is None


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


def _copying_is_identity_through(phi, k):
    """``is_identity_through`` as it was before the one-pass deviation
    degree: the truncations of the images against the generators'."""
    return all(
        f.truncate(k) == x.truncate(k)
        for f, x in zip(phi.images, phi.variety.gens())
    )


def _copying_ia_level(phi, max_degree):
    """``ia_level`` as it was before the one-pass deviation degree: the
    least degree of each ``f - x``, formed in full."""
    lowest = None
    for f, x in zip(phi.images, phi.variety.gens()):
        dev = f - x
        if not dev.is_zero():
            d = dev.min_degree()
            lowest = d if lowest is None else min(lowest, d)
    if lowest is not None and lowest <= 1:
        return FiltrationLevel("not-ia", bound=max_degree)
    if lowest is None or lowest > max_degree:
        return FiltrationLevel("identity", bound=max_degree)
    return FiltrationLevel("level", i=lowest - 1, bound=max_degree)


def _placement_cases(rng, variety):
    """The identity, IA maps of levels 1-3, linear deviations (another
    generator added, a generator scaled, swapped or dropped, a linear
    deviation beside higher terms) and, on unital kinds, constants."""
    gens = variety.gens()
    x1, x2, rest = gens[0], gens[1], gens[2:]
    cases = [Endomorphism.identity(variety)]
    cases += [random_ia_endomorphism(rng, variety, i, i + 2) for i in (1, 2, 3)]
    ia = random_ia_endomorphism(rng, variety, 2, 4)
    cases += [
        Endomorphism(variety, (x1 + x2, x2) + rest),
        Endomorphism(variety, (x1.scale(2), x2) + rest),
        Endomorphism(variety, (x1.scale(Fraction(1, 2)), x2) + rest),
        Endomorphism(variety, (x2, x1) + rest),
        Endomorphism(variety, (variety.zero(), x2) + rest),
        Endomorphism(variety, (ia.images[0] - x2,) + ia.images[1:]),
    ]
    if variety.unital:
        cases += [
            Endomorphism(variety, (x1 + variety.scalar(3), x2) + rest),
            Endomorphism(variety, (ia.images[0] + variety.one(),) + ia.images[1:]),
            Endomorphism(variety, (variety.one(), x2) + rest),
        ]
    return cases


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_ia_placement_matches_the_copying_definitions(variety, rng):
    """``is_identity_through``, ``ia_level`` and the shortcut of
    ``ia_correct`` read one deviation degree; each agrees with the
    definition that formed truncations or ``f - x``."""
    for phi in _placement_cases(rng, variety):
        for k in range(-1, 7):
            assert phi.is_identity_through(k) == _copying_is_identity_through(phi, k)
        for k in range(7):
            assert ia_level(phi, k) == _copying_ia_level(phi, k), (phi, k)
        assert (ia_correct(phi) is phi) == _copying_is_identity_through(phi, 1)


def test_ia_placement_forms_no_element(monkeypatch, rng):
    """Placing a map in the IA filtration truncates nothing, subtracts
    nothing and builds no generators."""
    maps = [random_ia_endomorphism(rng, v, 2, 3) for v in ALL_VARIETIES]

    def forbidden(*args):
        raise AssertionError("IA placement formed an element")

    monkeypatch.setattr(Element, "truncate", forbidden)
    monkeypatch.setattr(Element, "__sub__", forbidden)
    monkeypatch.setattr(Variety, "gens", forbidden)
    for phi in maps:
        assert ia_level(phi, 6).i == 2
        assert phi.is_identity_through(2) and not phi.is_identity_through(3)
        assert ia_correct(phi) is phi


def _as_associative(phi):
    """A free-Lie map's images as elements of the free associative algebra
    on the same generators: the map on K<X> that phi restricts."""
    A = free_associative(phi.variety.rank)
    return Endomorphism(A, tuple(Element(A, f.coeffs) for f in phi.images))


def _benchmark_lie_maps():
    """The two maps whose degree-8 inverses the lie-series benchmark
    takes, on free_lie(3): the ROADMAP map (x + [y,z] + [x,[x,y]],
    y + [z,x], z) and shape B (x + [y,z], y + [x,[x,z]], z + [x,y])."""
    L = free_lie(3)
    x, y, z = L.gens()
    return [
        Endomorphism(L, (x + y * z + x * (x * y), y + z * x, z)),
        Endomorphism(L, (x + y * z, y + x * (x * z), z + x * y)),
    ]


def _reversal_oracle_maps(rng):
    """Free-Lie maps for the associative oracle of the reversal pairing:
    the two degree-8 benchmark maps, maps whose words include odd
    palindromes, and random maps with a linear part of determinant +-2,
    so the inverses carry ``Fraction`` coefficients (rank 2: in rank 3
    such inverses are dense, and slow to check through degree 8)."""
    maps = _benchmark_lie_maps()
    L2 = free_lie(2)
    a, b = L2.gens()
    # [a,[a,b]] = aab - 2 aba + baa; the degree-5 brackets carry
    # palindromes such as babab
    maps += [
        Endomorphism(L2, (a + a * (a * b), b)),
        Endomorphism(L2, (a + b * (a * (b * (a * b))), b + a * (a * b))),
    ]
    for g in ([[2, 1], [0, 1]], [[1, 1], [1, -1]]):
        ia = random_ia_endomorphism(rng, L2, 1, 4)
        maps += [compose(linear(L2, g), ia), compose(ia, linear(L2, g))]
    return maps


def test_reversal_pairing_matches_the_associative_inverse(rng):
    """The inverse rounds of a free-Lie map pair each word with its
    reversal; the same images on the free associative algebra pair
    nothing.  Both inverses (and group commutators) must have the same
    words with the same coefficients."""
    maps = _reversal_oracle_maps(rng)
    words = [w for phi in maps for f in phi.images for w in f.coeffs]
    assert any(len(w) == 3 and w == w[::-1] for w in words)
    assert any(len(w) == 5 and w == w[::-1] for w in words)
    fractions = False
    for phi in maps:
        assoc = _as_associative(phi)
        for k in range(9):
            lie = truncated_inverse(phi, k).images
            want = truncated_inverse(assoc, k).images
            assert [f.coeffs for f in lie] == [f.coeffs for f in want], (phi, k)
            fractions = fractions or any(
                type(c) is Fraction for f in lie for c in f.coeffs.values()
            )
    assert fractions
    for phi, psi in zip(maps[::2], maps[1::2]):
        lie = group_commutator(phi, psi, 7).images
        want = group_commutator(_as_associative(phi), _as_associative(psi), 7)
        assert [f.coeffs for f in lie] == [f.coeffs for f in want.images]


def test_free_lie_rounds_are_the_associative_rounds(monkeypatch):
    """On the degree-8 benchmark maps, the inverse rounds of the free-Lie
    map and of the same images on the free associative algebra form the
    same components, in the same order, and offer ``_product`` the same
    term pairs, call by call."""
    calls = []
    component, product = morphism._component, morphism._product

    def recording_component(kind, left, right, m, *args):
        out = component(kind, left, right, m, *args)
        calls.append(("component", m, args[1:], dict(out)))
        return out

    def recording_product(kind, a, graded, k, *args):
        calls.append(("product", len(a) * sum(len(terms) for _, terms in graded)))
        return product(kind, a, graded, k, *args)

    monkeypatch.setattr(morphism, "_component", recording_component)
    monkeypatch.setattr(morphism, "_product", recording_product)
    for phi in _benchmark_lie_maps():
        runs = []
        for m in (phi, _as_associative(phi)):
            calls.clear()
            truncated_inverse(m, 8)
            runs.append(list(calls))
        assert runs[0] == runs[1]
        assert len(runs[0]) > 100


def test_inverse_rounds_form_each_component_once(monkeypatch):
    """Pin the work of the inverse rounds: the components ``_component``
    forms and the term pairs ``_product`` is offered, on the degree-8
    benchmark maps at k = 2, 5 and 8 and on Nagata's map (polynomial(3),
    whose key y^3 is also the prefix of y^4 z) at k = 9.  A component of
    a degree formed twice, or a degree-k component of a prefix that no
    key reads, would raise these counts."""
    formed, offered = [], [0]
    component, product = morphism._component, morphism._product

    def counting_component(kind, left, right, m, *args):
        formed.append((id(left), id(right), m))
        return component(kind, left, right, m, *args)

    def counting_product(kind, a, graded, k, *args):
        offered[0] += len(a) * sum(len(terms) for _, terms in graded)
        return product(kind, a, graded, k, *args)

    monkeypatch.setattr(morphism, "_component", counting_component)
    monkeypatch.setattr(morphism, "_product", counting_product)
    cases = [(phi, k) for phi in _benchmark_lie_maps() for k in (2, 5, 8)]
    cases.append((corpus.build("nagata"), 9))
    counts = []
    for phi, k in cases:
        formed.clear()
        offered[0] = 0
        truncated_inverse(phi, k)
        # a component is named by its factors' memos and its degree
        assert len(set(formed)) == len(formed), (phi, k)
        counts.append((len(formed), offered[0]))
    assert counts == [
        (4, 4), (34, 240), (64, 10168),
        (4, 4), (34, 274), (64, 11800),
        (98, 166),
    ]


def test_endomorphisms_compare_with_endomorphisms_only_and_hash():
    P = polynomial(2)
    x, y = P.gens()
    phi = Endomorphism(P, (x + y * y, y))
    assert (phi == 3) is False
    assert len({phi, Endomorphism(P, (x + y * y, y)), Endomorphism.identity(P)}) == 2
