"""Core free-algebra arithmetic across the four varieties."""
import heapq
import itertools
import random
from fractions import Fraction

import pytest

from tangentia import (
    AlgebraError,
    ConstantInLieVariety,
    Element,
    Kind,
    VarietyMismatch,
    free_associative,
    free_lie,
    metabelian_lie,
    monomials_of_degree,
    polynomial,
    project_to_metabelian,
)
from tangentia.freealg import (
    _substitute,
    basis_coeffs,
    is_lyndon,
    lie_from_assoc,
    lyndon_expand,
    standard_factorization,
)

from conftest import ALL_VARIETIES, random_element


def test_word_concatenation():
    A = free_associative(2)
    x1, x2 = A.gens()
    assert (x1 * x2).coeffs == {(0, 1): 1}
    assert x1 * x2 != x2 * x1


def test_lie_anticommutativity_to_lyndon_basis():
    L = free_lie(2)
    x1, x2 = L.gens()
    assert basis_coeffs(x2 * x1) == {(0, 1): Fraction(-1)}


def test_free_lie_constructor_takes_lyndon_coordinates():
    L = free_lie(2)
    x1, x2 = L.gens()
    assert Element(L, {(0, 1): 1}) == x1 * x2
    assert Element(L, {(0, 1): 1}) == -(x2 * x1)
    for key in [(1, 0), (0, 1, 0, 1), (0, 0), (), (0, 2)]:
        with pytest.raises(AlgebraError):
            Element(L, {key: 1})


def test_polynomial_constructor_checks_exponent_vectors():
    P = polynomial(2)
    x, y = P.gens()
    assert Element(P, {(1, 2): 1}) == x * y * y
    for key in [(1, 2, 3), (1,), (1, -1), (0.5, 1), "ab", 3]:
        with pytest.raises(AlgebraError):
            Element(P, {key: 1})


def test_associative_constructor_checks_words():
    A = free_associative(2)
    x1, x2 = A.gens()
    assert Element(A, {(1, 0): 1, (): 2}) == x2 * x1 + 2 * A.one()
    for key in [(5,), (0, 2), (-1,), (0, "a")]:
        with pytest.raises(AlgebraError):
            Element(A, {key: 1})


def test_metabelian_constructor_checks_bracket_keys():
    M = metabelian_lie(3)
    y1, y2, y3 = M.gens()
    assert Element(M, {(1, 0): 1}) == y2 * y1
    assert Element(M, {(2, 0, 1, 1): 1}) == y3 * y1 * y2 * y2
    # (0, 1) would print as [y1,y2] yet differ from -(y2 * y1)
    for key in [(0, 1), (1, 1), (2, 1, 0), (3,), (3, 0), (), (1, 0, 5)]:
        with pytest.raises(AlgebraError):
            Element(M, {key: 1})


def test_basis_coeffs_reads_back_lyndon_coordinates(rng):
    L = free_lie(3)
    for _ in range(40):
        coords = {}
        for _ in range(6):
            m = rng.choice(monomials_of_degree(L, rng.randint(1, 6)))
            coords[m] = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 3]))
        assert basis_coeffs(Element(L, coords)) == coords


def test_every_lyndon_word_reads_back_through_degree_8():
    L = free_lie(3)
    words = [w for d in range(1, 9) for w in monomials_of_degree(L, d)]
    assert len(words) == 1318
    for w in words:
        assert basis_coeffs(Element(L, {w: 1})) == {w: 1}


def _full_word_elimination(coeffs):
    """Lyndon coordinates by elimination over every word, Lyndon or not:
    the least word left must be Lyndon, and its whole standard bracketing
    is subtracted.  The reference for ``lie_from_assoc``."""
    work = dict(coeffs)
    heap = list(work)
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heapq.heappop(heap)
        c = work.pop(w, 0)
        if not c:
            continue
        if not is_lyndon(w):
            raise AlgebraError(f"least word {w} is not Lyndon")
        out[w] = c
        for v, cv in lyndon_expand(w).items():
            if v == w:
                continue
            if v not in work:
                heapq.heappush(heap, v)
            nv = work.get(v, 0) - c * cv
            if nv:
                work[v] = nv
            else:
                work.pop(v, None)
    return out


@pytest.mark.parametrize("degrees", [(7,), (8,), (1, 4, 7, 8)])
def test_lie_from_assoc_matches_full_word_elimination(degrees):
    """Dense random combinations of every Lyndon word of the given
    degrees, and commutators of such combinations."""
    L = free_lie(3)
    rng = random.Random(sum(degrees))
    words = [w for d in degrees for w in monomials_of_degree(L, d)]
    for _ in range(3):
        coords = {w: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7])) for w in words}
        e = Element(L, coords)
        assert lie_from_assoc(e.coeffs) == _full_word_elimination(e.coeffs)
        assert basis_coeffs(e) == {w: c for w, c in coords.items() if c}
    a = random_element(rng, L, 1, 4, terms=8)
    b = random_element(rng, L, 3, 4, terms=8)
    e = a * b
    assert e.degree() >= 7
    assert lie_from_assoc(e.coeffs) == _full_word_elimination(e.coeffs)


def test_check_finds_non_lie_element_with_lyndon_least_word():
    """x1 x2 alone is no Lie element, though its only word is Lyndon: the
    elimination reads it as [x1,x2], whose expansion has x2 x1 too."""
    L = free_lie(2)
    with pytest.raises(AlgebraError, match="not a Lie element"):
        Element._raw(L, {(0, 1): 1}).check()
    Element(L, {(0, 1): 1}).check()


def test_lyndon_strings_follow_each_varietys_names():
    w = (0, 0, 1)
    for names, text in [(("a", "b"), "[a,[a,b]]"), (("x", "y"), "[x,[x,y]]"),
                        (("a", "b"), "[a,[a,b]]")]:
        assert str(Element(free_lie(2, names), {w: 1})) == text


def test_repeated_generator_names_rejected():
    with pytest.raises(AlgebraError):
        polynomial(2, ("x", "x"))
    with pytest.raises(AlgebraError):
        free_lie(3, ("a", "b", "a"))


def test_metabelian_identity_bracket_of_brackets():
    M = metabelian_lie(4)
    y = M.gens()
    assert ((y[1] * y[0]) * (y[2] * y[0])).is_zero()
    assert ((y[1] * y[0]) * (y[3] * y[2])).is_zero()


def test_metabelian_jacobi_rewrite():
    # [[y2,y1],y3] - [[y2,y3],y1] = [[y3,y1],y2], all in basis form
    M = metabelian_lie(3)
    y1, y2, y3 = M.gens()
    lhs = (y2 * y1) * y3 - (y2 * y3) * y1
    rhs = (y3 * y1) * y2
    assert lhs == rhs


def test_metabelian_matches_free_lie_projection(rng):
    L = free_lie(3)
    M = metabelian_lie(3)
    for _ in range(100):
        a = random_element(rng, L, 1, 3)
        b = random_element(rng, L, 1, 3)
        assert project_to_metabelian(a * b) == project_to_metabelian(
            a
        ) * project_to_metabelian(b)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_bilinearity_and_distributivity(variety, rng):
    for _ in range(50):
        a = random_element(rng, variety)
        b = random_element(rng, variety)
        c = random_element(rng, variety)
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (2 * a) * b == 2 * (a * b)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_mul_trunc_is_the_truncated_product(variety, rng):
    lo = 0 if variety.unital else 1
    zero = variety.zero()
    for _ in range(20):
        a = random_element(rng, variety, lo, 3, terms=4)
        b = random_element(rng, variety, lo, 3, terms=4)
        for k in range((a.degree() or 0) + (b.degree() or 0) + 1):
            assert a.mul_trunc(b, k) == (a * b).truncate(k)
            assert a.mul_trunc(zero, k) == zero
            assert zero.mul_trunc(b, k) == zero
        assert a.mul_trunc(b, None) == a * b


def test_free_lie_bracket_is_the_commutator_of_words(rng):
    """The free-Lie product, plain and truncated at every degree, equals
    the commutator AB - BA of the operands' words multiplied as elements
    of the free associative algebra, outside the Lie path."""
    L, A = free_lie(3), free_associative(3)
    for _ in range(30):
        a = random_element(rng, L, 1, 3, terms=4)
        b = random_element(rng, L, 1, 3, terms=4)
        wa, wb = Element(A, a.coeffs), Element(A, b.coeffs)
        full = wa * wb - wb * wa
        for k in [*range(a.degree() + b.degree() + 1), None]:
            got = a.mul_trunc(b, k)
            got.check()
            assert got.coeffs == (full if k is None else full.truncate(k)).coeffs
        assert a * b == a.mul_trunc(b, None)


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_truncated_products_by_a_descending_right_operand(variety, rng):
    """One right operand, stored with its highest degree first (and with a
    constant in the unital kinds), serves truncated products at every k,
    down and then up, and then plain ones: its terms must be grouped by
    ascending degree, completely, and cut at the right degree."""
    lo = 0 if variety.unital else 1
    for _ in range(10):
        a = random_element(rng, variety, lo, 3, terms=4)
        coeffs = {}
        for d in range(4, lo - 1, -1):
            monos = monomials_of_degree(variety, d)
            for m in rng.sample(monos, min(2, len(monos))):
                coeffs[m] = rng.choice([-2, -1, 1, 2])
        b = Element(variety, coeffs)
        degrees = [sum(m) if variety.kind is Kind.POLYNOMIAL else len(m) for m in b.coeffs]
        assert degrees == sorted(degrees, reverse=True) and degrees[-1] == lo
        full = a * b
        top = (a.degree() or 0) + 4
        for k in [*range(top + 1, -1, -1), *range(top + 2)]:
            got = a.mul_trunc(b, k)
            got.check()
            assert got == full.truncate(k)
        b.check()
        assert a * b == full
        assert a.mul_trunc(b, None) == full


def test_check_finds_broken_invariants():
    P, L = polynomial(2), free_lie(2)
    with pytest.raises(AssertionError, match="not canonical"):
        Element._raw(P, {(1,): 1}).check()
    with pytest.raises(AssertionError, match="zero coefficient"):
        Element._raw(P, {(1, 0): 0}).check()
    with pytest.raises(AssertionError, match="not canonical"):
        Element._raw(L, {(): 1}).check()
    with pytest.raises(AlgebraError, match="not a Lie element"):
        Element._raw(L, {(1, 0): 1}).check()


@pytest.mark.parametrize(
    "variety", [free_lie(3), metabelian_lie(3)], ids=["lie", "metabelian"]
)
def test_jacobi_and_anticommutativity(variety, rng):
    for _ in range(60):
        a = random_element(rng, variety, 1, 2)
        b = random_element(rng, variety, 1, 2)
        c = random_element(rng, variety, 1, 2)
        assert a * b == -(b * a)
        assert (a * b) * c + (b * c) * a + (c * a) * b == variety.zero()
        assert (a * a).is_zero()


@pytest.mark.parametrize(
    "variety",
    [polynomial(3), free_associative(3)],
    ids=["polynomial", "assoc"],
)
def test_associativity_unital(variety, rng):
    for _ in range(50):
        a = random_element(rng, variety, 0, 2)
        b = random_element(rng, variety, 0, 2)
        c = random_element(rng, variety, 0, 2)
        assert (a * b) * c == a * (b * c)
    assert variety.one() * variety.gen(0) == variety.gen(0)


def test_homogeneous_components_sum_back(rng):
    for variety in ALL_VARIETIES:
        for _ in range(20):
            lo = 0 if variety.unital else 1
            a = random_element(rng, variety, lo, 4, terms=5)
            total = variety.zero()
            for part in a.homogeneous_components().values():
                total = total + part
            assert total == a
            big = a.degree() or 0
            assert a.homogeneous_component(big + 3).is_zero()


def test_constants_forbidden_in_lie_varieties():
    with pytest.raises(ConstantInLieVariety):
        free_lie(2).scalar(1)
    with pytest.raises(ConstantInLieVariety):
        metabelian_lie(2).one()
    with pytest.raises(AlgebraError):
        free_lie(2).gen(0).power(2)


def test_variety_mismatch_raises():
    with pytest.raises(VarietyMismatch):
        polynomial(2).gen(0) + free_associative(2).gen(0)
    with pytest.raises(VarietyMismatch):
        polynomial(2).gen(0) * polynomial(3).gen(0)


def test_substitute_is_a_homomorphism(rng):
    for variety in ALL_VARIETIES:
        args = tuple(random_element(rng, variety, 1, 2) for _ in range(variety.rank))
        for _ in range(15):
            a = random_element(rng, variety, 1, 2)
            b = random_element(rng, variety, 1, 2)
            assert (a + b).substitute(args) == a.substitute(args) + b.substitute(args)
            assert (a * b).substitute(args) == a.substitute(args) * b.substitute(args)


def test_substitute_cross_rank():
    L2 = free_lie(2)
    L3 = free_lie(3)
    a = L2.gen(0) * L2.gen(1)
    # x1 -> x2, x2 -> x3 inside the rank-3 algebra
    assert a.substitute((L3.gen(1), L3.gen(2))) == L3.gen(1) * L3.gen(2)


def test_is_lyndon_matches_rotation_definition():
    for n in range(8):
        for w in itertools.product(range(3), repeat=n):
            expected = n > 0 and all(w < w[i:] + w[:i] for i in range(1, n))
            assert is_lyndon(w) == expected, w


def test_lyndon_machinery():
    assert is_lyndon((0, 0, 1))
    assert is_lyndon((0, 1, 1))
    assert not is_lyndon((1, 0))
    assert not is_lyndon((0, 1, 0, 1))
    assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    exp = lyndon_expand((0, 1))
    assert exp == {(0, 1): 1, (1, 0): -1}
    # the Lyndon word itself is the least term with coefficient 1
    for w in [(0, 0, 1), (0, 1, 1), (0, 0, 1, 1)]:
        e = lyndon_expand(w)
        assert min(e) == w and e[w] == 1


def test_monomials_of_degree_counts():
    assert len(monomials_of_degree(polynomial(3), 2)) == 6
    assert len(monomials_of_degree(free_associative(3), 2)) == 9
    # Lyndon words of degree 2 over 3 letters: pairs i<j
    assert len(monomials_of_degree(free_lie(3), 2)) == 3
    # metabelian dimension of degree d part: (d-1) * C(n+d-2, d) / ... check small
    assert monomials_of_degree(metabelian_lie(2), 2) == [(1, 0)]
    assert len(monomials_of_degree(metabelian_lie(3), 2)) == 3
    assert monomials_of_degree(free_lie(2), 1) == [(0,), (1,)]
    # degree-0 monomials only in unital varieties
    assert monomials_of_degree(free_lie(2), 0) == []
    assert monomials_of_degree(polynomial(2), 0) == [(0, 0)]


def test_printing_deterministic_deglex():
    P = polynomial(2, ("x", "y"))
    x, y = P.gens()
    e = y * y + x + P.scalar(Fraction(1, 2)) - 3 * (x * y)
    assert str(e) == "1/2 + x + y^2 - 3*x*y"
    L = free_lie(2)
    assert str(L.gen(0) * (L.gen(0) * L.gen(1))) == "[x1,[x1,x2]]"
    M = metabelian_lie(3)
    assert str((M.gen(1) * M.gen(0)) * M.gen(2)) == "[[y2,y1],y3]"


def test_truncate_and_min_degree():
    P = polynomial(2)
    x, y = P.gens()
    e = x + x * x * y
    assert e.truncate(1) == x
    assert e.min_degree() == 1
    assert e.degree() == 3
    assert P.zero().degree() is None


def _image_by_products(e, args):
    """The image of ``e`` under x_i -> args[i], each key's image formed
    with the variety's own product, outside substitution: the product of
    a key's letters in order (a polynomial key's letters repeated by
    exponent), which is the left-normed bracket for a metabelian key.  A
    free-Lie element's words map as words of K<X>."""
    target = args[0].variety
    if target.kind is Kind.FREE_LIE:
        target = free_associative(target.rank)
        args = [Element(target, a.coeffs) for a in args]
    acc = target.zero()
    for key, c in e.coeffs.items():
        if e.variety.kind is Kind.POLYNOMIAL:
            key = [i for i, n in enumerate(key) for _ in range(n)]
        img = target.one() if not key else args[key[0]]
        for j in key[1:]:
            img = img * args[j]
        acc = acc + img.scale(c)
    return acc


@pytest.mark.parametrize("variety", ALL_VARIETIES, ids=lambda v: v.kind.value)
def test_one_batched_substitution_maps_each_dict(variety, rng):
    """One ``_substitute`` call over ten dicts, with one memo of prefix
    images for the batch, gives each element's truncated image, formed
    key by key with products, and each element's ``substitute``."""
    low = 0 if variety.unital else 1
    args = tuple(random_element(rng, variety, low, 2) for _ in range(variety.rank))
    for k in (None, 1, 3, 5):
        elements = [random_element(rng, variety, low, 5, terms=4) for _ in range(10)]
        batch = _substitute([e.coeffs for e in elements], args, k)
        assert len(batch) == len(elements)
        for e, got in zip(elements, batch):
            want = _image_by_products(e, args)
            assert got == (want if k is None else want.truncate(k)).coeffs
            assert e.substitute(args, max_degree=k).coeffs == got


def test_substitute_long_word_does_not_recurse():
    A = free_associative(2)
    a, b = A.gens()
    assert a.power(1200).substitute((b, a)) == b.power(1200)


def test_projection_to_metabelian_on_brackets():
    L, M = free_lie(3), metabelian_lie(3)
    x1, x2, x3 = L.gens()
    y1, y2, y3 = M.gens()
    assert project_to_metabelian(x1) == y1
    assert project_to_metabelian((x1 * x2) * x3 - 2 * (x3 * x1)) == (y1 * y2) * y3 - 2 * (y3 * y1)
    assert project_to_metabelian((x1 * x2) * (x1 * x3)).is_zero()
