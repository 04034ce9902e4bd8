"""Core free-algebra arithmetic across the four varieties."""
import heapq
import itertools
import operator
import random
from fractions import Fraction

import pytest

from tangentia import (
    AlgebraError,
    ConstantInLieVariety,
    Element,
    Endomorphism,
    Kind,
    VarietyMismatch,
    free_associative,
    free_lie,
    metabelian_lie,
    monomials_of_degree,
    polynomial,
    project_to_metabelian,
    truncated_inverse,
)
from tangentia import freealg
from tangentia.envelope import (
    EnvElement,
    env_mul,
    env_str,
    generated_algebra,
    trace_class,
    trace_str,
)
from tangentia.freealg import (
    _prefix_walk,
    _substitute,
    basis_coeffs,
    element_str,
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
    degrees, and commutators of such combinations; then random Lie
    elements of ranks 2-4 (sums, brackets, rational scalings) and the
    images of a truncated inverse."""
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
    elements = []
    for rank in (2, 3, 4):
        L = free_lie(rank)
        for _ in range(2):
            a = random_element(rng, L, 1, 4, terms=5)
            b = random_element(rng, L, 1, 3, terms=4)
            elements += [a, a * b, (a * b).scale(Fraction(-3, 2)) + b, (a * b) * a]
    x, y, z = free_lie(3).gens()
    phi = Endomorphism(free_lie(3), (x + y * z, y + x * (x * z), z + x * y))
    elements += truncated_inverse(phi, 7).images
    for e in elements:
        assert lie_from_assoc(e.coeffs) == _full_word_elimination(e.coeffs)


def test_check_finds_non_lie_element_with_lyndon_least_word():
    """x1 x2 alone is no Lie element, though its only word is Lyndon: the
    elimination reads it as [x1,x2], whose expansion has x2 x1 too."""
    L = free_lie(2)
    with pytest.raises(AlgebraError, match="not a Lie element"):
        Element._raw(L, {(0, 1): 1}).check()
    Element(L, {(0, 1): 1}).check()


def test_lyndon_strings_follow_each_varietys_names(monkeypatch):
    """The word's record keeps one bracket string per tuple of names, and
    a second printing with the same names reads the stored one."""
    monkeypatch.setattr(freealg, "_WORDS", freealg._Words())
    w = (0, 0, 1)
    texts = {("a", "b"): "[a,[a,b]]", ("x", "y"): "[x,[x,y]]"}
    for names in [("a", "b"), ("x", "y"), ("a", "b")]:
        assert str(Element(free_lie(2, names), {w: 1})) == texts[names]
    assert freealg._WORDS[w].strings == texts
    assert freealg._WORDS[(0, 1)].strings == {("a", "b"): "[a,b]", ("x", "y"): "[x,y]"}
    assert freealg._lyndon_str(("a", "b"), w) is freealg._WORDS[w].strings[("a", "b")]


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


def _random_bracket(rng, gens, d):
    """A bracket of d generators, split at a random place at every level."""
    if d == 1:
        return rng.choice(gens)
    s = rng.randint(1, d - 1)
    return _random_bracket(rng, gens, s) * _random_bracket(rng, gens, d - s)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_reversing_a_lie_element_multiplies_it_by_its_sign(rank, rng):
    """Reversing every word of a Lie element of degree d multiplies it by
    (-1)^(d-1) (Reutenauer, Free Lie Algebras, 1993): in a Lie element
    the reversal of a word w has the coefficient (-1)^(|w|-1) c_w.  The
    inverse rounds pair a free-Lie map's words by this identity."""
    L = free_lie(rank)
    gens = L.gens()
    checked = 0
    for _ in range(100):
        f = L.zero()
        for _ in range(3):
            term = _random_bracket(rng, gens, rng.randint(2, 7))
            f = f + term.scale(rng.choice([-2, -1, 1, 3]))
        for w, c in f.coeffs.items():
            if w != w[::-1]:
                assert f.coeffs.get(w[::-1]) == (-1) ** (len(w) - 1) * c, (f, w)
                checked += 1
    assert checked > 500, checked


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
    for w in [(), (1, 0), (0, 1, 0, 1)]:
        with pytest.raises(AlgebraError, match="not a Lyndon word"):
            lyndon_expand(w)


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
    """One ``_substitute`` call over a batch of dicts gives each element's
    truncated image, formed key by key with products, and each element's
    ``substitute``.  The arguments have least degree 0 (unital kinds), 1, 2
    and 3, and one of them is zero: each bounds how deep Horner's rule
    reads a word.  Each batch holds ten random elements, and one dict per
    word for twelve of their words, the shape ``fox.push_matrix`` maps."""
    low = 0 if variety.unital else 1
    x = variety.gens()
    # each argument tuple with the top degree of the elements mapped
    arg_sets = [
        (tuple(random_element(rng, variety, low, 2) for _ in x), 5),
        (tuple(random_element(rng, variety, d, d + 1, terms=2) for d in (1, 2, 3)), 3),
        ((random_element(rng, variety, 2, 3), variety.zero(), x[0] + x[1] * x[2]), 4),
    ]
    for args, top in arg_sets:
        elements = [random_element(rng, variety, low, top, terms=4) for _ in range(10)]
        words = sorted({m for e in elements for m in e.coeffs})
        elements += [Element._raw(variety, {m: 1}) for m in rng.sample(words, 12)]
        wants = [_image_by_products(e, args) for e in elements]
        for k in (None, 0, 1, 2, 3, 4, 5, 6):
            batch = _substitute([e.coeffs for e in elements], args, k)
            assert len(batch) == len(elements)
            for e, want, got in zip(elements, wants, batch):
                assert got == (want if k is None else want.truncate(k)).coeffs, (e, k)
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


def _reference_projection(e):
    """``project_to_metabelian`` by a walk of its own, kept as the
    reference for the substitution that serves it: each stored word's
    left-normed bracket, built one generator at a time from its longest
    prefix's, times its coefficient over the word's length
    (Dynkin-Specht-Wever)."""
    target = metabelian_lie(e.variety.rank)
    gens = target.gens()

    def step(b, _prefix, j):
        return gens[j] if b is None else b * gens[j]

    memo, acc = {}, {}
    for w, c in e.coeffs.items():
        for m, v in _prefix_walk(Kind.FREE_LIE, w, memo, step).coeffs.items():
            acc[m] = acc.get(m, 0) + Fraction(c * v, len(w))
    return Element(target, acc)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_projection_matches_the_reference_walk(rank):
    """On random free-Lie elements of degrees 1-6, homogeneous and mixed."""
    rng = random.Random(rank)
    L = free_lie(rank)
    lyndon = {d: monomials_of_degree(L, d) for d in range(1, 7)}

    def random_lie(degrees):
        coeffs = {}
        for _ in range(4):
            w = rng.choice(lyndon[rng.choice(degrees)])
            coeffs[w] = coeffs.get(w, 0) + rng.choice([-3, -1, 1, Fraction(1, 2), 2])
        return Element(L, coeffs)

    for d in range(1, 7):
        for _ in range(8):
            e = random_lie([d])
            assert project_to_metabelian(e) == _reference_projection(e)
    for _ in range(20):
        e = random_lie(range(1, 7))
        assert project_to_metabelian(e) == _reference_projection(e)


def test_projection_of_long_commutators_matches_the_reference_walk():
    L, M = free_lie(3), metabelian_lie(3)
    x1, x2, x3 = L.gens()
    y1, y2, y3 = M.gens()
    left_normed = (((x1 * x2) * x3) * x2) * x1 + 3 * ((((x2 * x1) * x1) * x3) * x3) * x2
    in_second_derived = ((x1 * x2) * x3) * ((x2 * x3) * x1)
    for e in (left_normed, in_second_derived, left_normed + in_second_derived):
        assert e.degree() >= 5
        assert project_to_metabelian(e) == _reference_projection(e)
    assert project_to_metabelian(left_normed) == (
        (((y1 * y2) * y3) * y2) * y1 + 3 * ((((y2 * y1) * y1) * y3) * y3) * y2
    )
    assert project_to_metabelian(in_second_derived).is_zero()


def _is_lyndon_by_rotation(w):
    return bool(w) and all(w < w[i:] + w[:i] for i in range(1, len(w)))


def test_one_lyndon_cache_per_word(monkeypatch):
    """``_WORDS`` keeps one entry per word: False for a word that is not
    Lyndon; for a Lyndon word, its record, whose Lyndon part is None until
    the word is a pivot, then that part.  ``lie_from_assoc`` enters every
    word of its input (Lie element or not: only the entries are read
    here).  On every word of length <= 7 over 3 letters the entries agree
    with ``is_lyndon`` and with the rotation definition, and a Lyndon
    word's part, formed once when the word's own bracketing makes it the
    pivot, is the Lyndon terms of its bracketing other than itself."""
    monkeypatch.setattr(freealg, "_WORDS", freealg._Words())
    cache = freealg._WORDS
    words = [w for n in range(8) for w in itertools.product(range(3), repeat=n)]
    assert len(words) == 3280
    for n in range(8):
        lie_from_assoc({w: 1 for w in itertools.product(range(3), repeat=n)})
    assert set(cache) == set(words)
    for w in words:
        lyndon = _is_lyndon_by_rotation(w)
        assert (cache[w] is not False) == is_lyndon(w) == lyndon, w
        if lyndon:
            assert lie_from_assoc(lyndon_expand(w)) == {w: 1}
            part = cache[w].part
            assert dict(part) == {
                v: c
                for v, c in lyndon_expand(w).items()
                if v != w and _is_lyndon_by_rotation(v)
            }, w
            assert lie_from_assoc(lyndon_expand(w)) == {w: 1} and cache[w].part is part
            assert cache[w].expansion is lyndon_expand(w)


def test_lyndon_parts_are_formed_for_pivots_only(monkeypatch):
    """The Lyndon part of a word needs its whole bracketing (2^(n-1)
    terms at length n, kept in the word's record), so it is formed only
    for a word that the elimination takes as a pivot.  The bracketing of
    x1^4 x2^3 x1 x2^2 has 16 Lyndon words and one Lyndon coordinate."""
    monkeypatch.setattr(freealg, "_WORDS", freealg._Words())
    pivot = (0, 0, 0, 0, 1, 1, 1, 0, 1, 1)
    e = Element(free_lie(2), {pivot: 1})
    lyndon = [w for w in e.coeffs if is_lyndon(w)]
    assert len(lyndon) == 16
    assert lie_from_assoc(e.coeffs) == {pivot: 1}
    cache = freealg._WORDS
    assert [w for w in cache if cache[w] and cache[w].part is not None] == [pivot]
    assert all(cache[w].part is None for w in lyndon if w != pivot)


def test_lyndon_cache_answers_do_not_depend_on_rank(monkeypatch, rng):
    """Words carry no rank: a word first seen in a rank-2 element keeps
    its answer when a rank-4 element reads it, and that answer is the one
    a fresh cache gives."""
    monkeypatch.setattr(freealg, "_WORDS", freealg._Words())
    L2, L4 = free_lie(2), free_lie(4)
    e2 = random_element(rng, L2, 2, 6, terms=6) * random_element(rng, L2, 1, 2)
    coords = lie_from_assoc(e2.coeffs)  # every word of e2 is first seen here
    # False for a word that is not Lyndon, else its part (None if unformed)
    seen = {w: rec and rec.part for w, rec in freealg._WORDS.items()}
    assert set(e2.coeffs) <= set(seen)
    e4 = Element(L4, coords) + random_element(rng, L4, 2, 6, terms=6)
    assert lie_from_assoc(e4.coeffs) == _full_word_elimination(e4.coeffs)
    assert basis_coeffs(Element(L4, coords)) == coords
    monkeypatch.setattr(freealg, "_WORDS", freealg._Words())
    for w, entry in seen.items():
        assert (entry is not False) == is_lyndon(w), w
        if type(entry) is tuple:
            assert lie_from_assoc(lyndon_expand(w)) == {w: 1}
            assert freealg._WORDS[w].part == entry, w


# ---------------------------------------------------------------------------
# The product kernel and the printer against their per-pair definitions


def _append_by_definition(key, g):
    """[key, y_g] in the metabelian basis as a dict: g joins the sorted
    tail if g >= i2, else the Jacobi identity at the front gives two
    terms."""
    i1, i2, tail = key[0], key[1], key[2:]
    if g >= i2:
        return {(i1, i2) + tuple(sorted(tail + (g,))): 1}
    return {
        (i1, g) + tuple(sorted(tail + (i2,))): 1,
        (i2, g) + tuple(sorted(tail + (i1,))): -1,
    }


def _key_product_by_definition(kind, m1, m2):
    """The product of two keys as a dict key -> sign: exponent vectors
    add, words concatenate, metabelian keys bracket."""
    if kind is Kind.POLYNOMIAL:
        return {tuple(map(operator.add, m1, m2)): 1}
    if kind is not Kind.METABELIAN_LIE:
        return {m1 + m2: 1}
    if len(m1) == 1 and len(m2) == 1:
        a, b = m1[0], m2[0]
        return {} if a == b else {(a, b): 1} if a > b else {(b, a): -1}
    if len(m2) == 1:
        return _append_by_definition(m1, m2[0])
    if len(m1) == 1:  # [y_a, B] = -[B, y_a]
        return {m: -s for m, s in _append_by_definition(m2, m1[0]).items()}
    return {}  # [[.,.],[.,.]] = 0


def _product_by_definition(kind, a, graded, k, out):
    """``_product`` one pair at a time: every pair of terms in the order
    the kernel walks them, each adding its dict of keys into ``out``
    unless its degree passes ``k``."""
    degree = sum if kind is Kind.POLYNOMIAL else len
    for m1, c1 in a.items():
        for _, terms in graded:
            for m2, c2 in terms:
                if k is not None and degree(m1) + degree(m2) > k:
                    continue
                c = c1 * c2
                for m, s in _key_product_by_definition(kind, m1, m2).items():
                    n = out.get(m, 0) + c * s
                    if n:
                        out[m] = n
                    else:
                        out.pop(m, None)
    return out


def _typed_items(coeffs):
    # insertion order and coefficient types both show in a printed dict
    return [(m, c, type(c)) for m, c in coeffs.items()]


def _random_coeffs(rng, variety, top, fractions, terms):
    coeffs = {}
    for _ in range(terms):
        monos = monomials_of_degree(variety, rng.randint(0, top))
        if monos:
            n = rng.choice([-3, -2, -1, 1, 2, 3])
            c = Fraction(n, rng.choice([1, 2, 3])) if fractions else n
            coeffs[rng.choice(monos)] = freealg._coeff(c)
    return coeffs


class _Unread:
    """A bucket that no product may read."""

    def __iter__(self):
        raise AssertionError("a bracket on the left read a bracket bucket")


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_product_kernel_matches_the_per_pair_rules(rank):
    """``_product`` leaves exactly the dict, in insertion order and with
    the same coefficient types, that the per-pair rules give: exponent
    vectors summed by ``tuple(map(add, ...))``, words concatenated and
    metabelian keys bracketed into a dict per pair.  Plain products (one
    bucket of degree 0), truncated ones at several ``k``, homogeneous
    buckets as the inverse's rounds pass them, with and without a filled
    ``out`` that the product partly cancels, on int and Fraction
    coefficients; and the metabelian envelope's keys through
    ``env_mul``.  A bracket on the left reads no bucket past degree 1."""
    rng = random.Random(rank)
    for variety in (polynomial(rank), free_associative(rank), metabelian_lie(rank)):
        kind = variety.kind
        for trial in range(6):
            fractions = trial % 2 == 1
            a = _random_coeffs(rng, variety, 4, fractions, 8)
            b = _random_coeffs(rng, variety, 4, fractions, 8)
            plain = ((0, b.items()),)
            filled = {m: -c for m, c in list(
                _product_by_definition(kind, a, plain, None, {}).items()
            )[::2]}
            filled.update(_random_coeffs(rng, variety, 6, fractions, 4))
            cases = [(plain, None)]
            cases += [(freealg._degree_buckets(kind, b), k) for k in (0, 1, 2, 3, 5, 8)]
            cases += [(((d, terms),), None) for d, terms in freealg._degree_buckets(kind, b)]
            for graded, k in cases:
                for out in ({}, filled):
                    want = _product_by_definition(kind, a, graded, k, dict(out))
                    got = freealg._product(kind, a, graded, k, dict(out) if out else None)
                    assert _typed_items(got) == _typed_items(want), (kind, graded, k)
            if kind is Kind.METABELIAN_LIE:
                brackets = {m: c for m, c in a.items() if len(m) > 1}
                for k in (None, 3, 6):
                    graded = freealg._degree_buckets(kind, b)
                    guarded = [(d, terms if d <= 1 else _Unread()) for d, terms in graded]
                    want = _product_by_definition(kind, brackets, graded, k, {})
                    got = freealg._product(kind, brackets, guarded, k)
                    assert _typed_items(got) == _typed_items(want)
                keys = polynomial(rank)  # U/R is keyed by exponent vectors
                u = EnvElement(variety, _random_coeffs(rng, keys, 3, fractions, 6))
                v = EnvElement(variety, _random_coeffs(rng, keys, 3, fractions, 6))
                want = _product_by_definition(
                    Kind.POLYNOMIAL, u.coeffs, ((0, v.coeffs.items()),), None, {}
                )
                assert _typed_items(env_mul(u, v).coeffs) == _typed_items(want)


def _terms_by_definition(coeffs, key_str, degree):
    """A printed sum by its definition: terms sorted by (degree, key)."""
    parts = []
    for key in sorted(coeffs, key=lambda m: (degree(m), m)):
        c = coeffs[key]
        ks = key_str(key)
        body = str(abs(c)) if ks == "1" else ks if abs(c) == 1 else f"{abs(c)}*{ks}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


def _bracket_by_definition(w, names):
    """The standard bracketing of a Lyndon word, by recursion."""
    if len(w) == 1:
        return names[w[0]]
    u, v = standard_factorization(w)
    return f"[{_bracket_by_definition(u, names)},{_bracket_by_definition(v, names)}]"


def _mono_str_by_definition(variety, mono):
    """One basis key printed by a dispatch on the variety's kind: the
    reference for the per-format key printers."""
    names = variety.names
    kind = variety.kind
    if kind is Kind.POLYNOMIAL:
        if not any(mono):
            return "1"
        parts = []
        for i, e in enumerate(mono):
            if e == 1:
                parts.append(names[i])
            elif e > 1:
                parts.append(f"{names[i]}^{e}")
        return "*".join(parts)
    if kind is Kind.FREE_ASSOCIATIVE:
        if not mono:
            return "1"
        return "*".join(names[i] for i in mono)
    if kind is Kind.FREE_LIE:
        return _bracket_by_definition(mono, names)
    if len(mono) == 1:
        return names[mono[0]]
    s = f"[{names[mono[0]]},{names[mono[1]]}]"
    for j in mono[2:]:
        s = f"[{s},{names[j]}]"
    return s


def _element_str_by_definition(e):
    var = e.variety
    return _terms_by_definition(
        basis_coeffs(e),
        lambda m: _mono_str_by_definition(var, m),
        sum if var.kind is Kind.POLYNOMIAL else len,
    )


def _env_str_by_definition(u):
    base = generated_algebra(u.variety)
    if u.variety.kind is Kind.FREE_ASSOCIATIVE:
        return _terms_by_definition(
            u.coeffs,
            lambda key: (
                f"{_mono_str_by_definition(base, key[0])}(x)"
                f"{_mono_str_by_definition(base, key[1])}"
            ),
            lambda key: len(key[0]) + len(key[1]),
        )
    return _terms_by_definition(
        u.coeffs,
        lambda m: _mono_str_by_definition(base, m),
        sum if base.kind is Kind.POLYNOMIAL else len,
    )


_PRINT_COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)]


def _printable_coeffs(rng, variety, terms):
    lo = 0 if variety.unital else 1
    coeffs = {}
    for _ in range(terms):
        monos = monomials_of_degree(variety, rng.randint(lo, 4))
        if monos:
            coeffs[rng.choice(monos)] = rng.choice(_PRINT_COEFFS)
    return coeffs


@pytest.mark.parametrize("make", [polynomial, free_associative, free_lie, metabelian_lie])
def test_printing_matches_the_deglex_definition(make, rng):
    """``element_str``, ``env_str`` and ``trace_str`` print the terms in
    the order of sorting by (degree, key) and each key by the reference
    ``_mono_str_by_definition``: first every basis key of degree <= 4 at
    ranks 1-3, one by one and all in one element, envelope element and
    trace class; then random elements, envelope elements and trace
    classes of ranks 1-4.  Both passes use default and custom names, and
    the random one Fractions, negative unit coefficients, the unit key
    and zero."""
    for rank in range(1, 4):
        for names in ((), ("a", "b2", "cc")[:rank]):
            var = make(rank, names)
            base = generated_algebra(var)
            for v in (var, base):
                keys = [m for d in range(5) for m in monomials_of_degree(v, d)]
                key_str = freealg.key_printer(v)
                for m in keys:
                    assert key_str(m) == _mono_str_by_definition(v, m), (v, m)
            keys = [m for d in range(5) for m in monomials_of_degree(var, d)]
            coeffs = dict(zip(keys, itertools.cycle(_PRINT_COEFFS)))
            e = Element(var, coeffs)
            assert basis_coeffs(e) == coeffs
            assert element_str(e) == _element_str_by_definition(e)
            if var.kind is Kind.FREE_ASSOCIATIVE:
                pairs = [(a, b) for a in keys for b in keys if len(a) + len(b) <= 4]
                u = EnvElement(var, dict(zip(pairs, itertools.cycle(_PRINT_COEFFS))))
            else:
                base_keys = [m for d in range(5) for m in monomials_of_degree(base, d)]
                u = EnvElement(var, dict(zip(base_keys, itertools.cycle(_PRINT_COEFFS))))
            assert env_str(u) == _env_str_by_definition(u)
            assert trace_str(trace_class(u)) == _env_str_by_definition(trace_class(u))
    for rank in range(1, 5):
        for names in ((), tuple("abcd"[:rank])):
            var = make(rank, names)
            base = generated_algebra(var)
            assert str(var.zero()) == _element_str_by_definition(var.zero()) == "0"
            zero = EnvElement.zero(var)
            assert env_str(zero) == trace_str(trace_class(zero)) == "0"
            for _ in range(8):
                e = Element(var, _printable_coeffs(rng, var, 6))
                if var.unital:
                    e = e + var.scalar(rng.choice(_PRINT_COEFFS))
                assert element_str(e) == str(e) == _element_str_by_definition(e)
                if var.kind is Kind.FREE_ASSOCIATIVE:
                    words = [w for d in range(3) for w in monomials_of_degree(var, d)]
                    u = EnvElement(var, {
                        (rng.choice(words), rng.choice(words)): rng.choice(_PRINT_COEFFS)
                        for _ in range(6)
                    })
                else:
                    u = EnvElement(var, _printable_coeffs(rng, base, 6))
                u = u + EnvElement.one(var).scale(rng.choice(_PRINT_COEFFS))
                t = trace_class(u)
                assert env_str(u) == _env_str_by_definition(u)
                assert trace_str(t) == _env_str_by_definition(t)


def test_elements_compare_with_elements_only_and_print():
    P = polynomial(2)
    x, y = P.gens()
    assert (x == 3) is False and x != "x1"
    with pytest.raises(TypeError):
        "s" * x
    assert repr(x + y) == "Element(x2 + x1)"
    assert repr(P.zero()) == "Element(0)"
    assert P.zero().min_degree() is None and P.zero().degree() is None
