"""The word kinds' coded words against word-tuple references.

Words are stored as length-tagged ints (``conftest.code``).  The
references below are the tuple-word forms of the kernel's word loop, of
Horner's substitution, of the Leibniz rule on words and of the Lyndon
elimination, which multiply and hash tuples; each coded result must be
theirs once decoded (``conftest.stored_words``).  The ranks 1, 2, 3, 4,
5, 8 and 9 take every width from 1 to 4 bits and each step between
them, and ``free_lie(300)`` takes 9 bits."""
import heapq
import math
import random
from fractions import Fraction

import pytest

from tangentia import (
    AlgebraError,
    Element,
    Variety,
    free_associative,
    free_lie,
)
from tangentia import deriv, freealg

from conftest import code, stored_words, width, word

RANKS = [1, 2, 3, 4, 5, 8, 9]


def _tuple_product(a, graded, k, out=None):
    """The kernel's word loop on word tuples: ``a`` times the degree
    buckets ``graded`` without the terms past degree ``k``, each word
    ``m1 + m2`` a new tuple."""
    if k is None:
        k = math.inf
    if out is None:
        out = {}
    for m1, c1 in a.items():
        room = k - len(m1)
        for d, terms in graded:
            if d > room:
                break
            for m2, c2 in terms:
                m = m1 + m2
                n = out.get(m, 0) + c1 * c2
                if n:
                    out[m] = n
                else:
                    out.pop(m, None)
    return out


def _tuple_operand(coeffs, k):
    """One bucket for a plain product, else the words grouped by length."""
    if k is None:
        return ((0, coeffs.items()),)
    parts = {}
    for m, c in coeffs.items():
        parts.setdefault(len(m), []).append((m, c))
    return sorted(parts.items())


def _tuple_bracket(a, b, k):
    out = _tuple_product(a, _tuple_operand(b, k), k)
    return _tuple_product({m: -c for m, c in b.items()}, _tuple_operand(a, k), k, out)


def _tuple_horner(coeffs, graded, mins, bound):
    """Horner's rule on word tuples, suffix by suffix from the longest."""
    levels = [{(): [{}, bound]}]
    for w, c in coeffs.items():
        room = bound - sum(map(mins.__getitem__, w))
        if room >= 0:
            while len(levels) <= len(w):
                levels.append({})
            levels[len(w)][w] = [{(): c}, room]
    for d in range(len(levels) - 1, 0, -1):
        shorter = levels[d - 1]
        for s, (value, room) in levels.pop().items():
            j, rest = s[0], s[1:]
            node = shorter.get(rest)
            if node is None:
                node = shorter[rest] = [{}, room + mins[j]]
            if value:
                _tuple_product(value, graded[j], node[1], node[0])
    return levels[0][()][0]


def _tuple_substitute(coeffs, args, max_degree):
    """The image of a dict of word tuples under x_j -> args[j], through
    ``max_degree``, by ``_tuple_horner``."""
    words = [stored_words(a) for a in args]
    graded = [_tuple_operand(w, max_degree) for w in words]
    mins = [min(map(len, w), default=math.inf) for w in words]
    bound = math.inf if max_degree is None else max_degree
    return _tuple_horner(coeffs, graded, mins, bound)


def _tuple_leibniz(coeffs, images):
    """D(l_1...l_m) = sum_j l_1...l_{j-1} D(l_j) l_{j+1}...l_m on tuples."""
    out = {}
    for w, c in coeffs.items():
        for j, letter in enumerate(w):
            for img, ci in images[letter].items():
                m = w[:j] + img + w[j + 1:]
                n = out.get(m, 0) + c * ci
                if n:
                    out[m] = n
                else:
                    out.pop(m, None)
    return out


_EXPANSIONS = {}


def _tuple_expansion(w):
    """The standard bracketing of the Lyndon word tuple ``w`` expanded in
    K<X>, by its least proper suffix: E(u)E(v) - E(v)E(u)."""
    if w not in _EXPANSIONS:
        if len(w) == 1:
            _EXPANSIONS[w] = {w: 1}
        else:
            best = min(range(1, len(w)), key=lambda i: w[i:])
            u, v = w[:best], w[best:]
            _EXPANSIONS[w] = _tuple_bracket(_tuple_expansion(u), _tuple_expansion(v), None)
    return _EXPANSIONS[w]


def _tuple_lyndon_coords(coeffs):
    """Lyndon coordinates by elimination over every word tuple: the least
    word left is Lyndon, and its whole bracketing is subtracted."""
    work = dict(coeffs)
    heap = list(work)
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heapq.heappop(heap)
        c = work.pop(w, 0)
        if not c:
            continue
        out[w] = c
        for v, cv in _tuple_expansion(w).items():
            if v != w:
                if v not in work:
                    heapq.heappush(heap, v)
                work[v] = work.get(v, 0) - c * cv
    return out


def _random_bracket(rng, gens, d):
    if d == 1:
        return rng.choice(gens)
    s = rng.randint(1, d - 1)
    return _random_bracket(rng, gens, s) * _random_bracket(rng, gens, d - s)


def _random_word_element(rng, variety, low, high, terms):
    """A random element of a word kind with degrees in [low, high]: random
    words in the associative kind, sums of random brackets of generators
    in the free-Lie one (no rank is too large to draw from)."""
    if variety.kind.value == "lie":
        gens = variety.gens()
        e = variety.zero()
        for _ in range(terms):
            term = _random_bracket(rng, gens, rng.randint(max(low, 1), high))
            e = e + term.scale(rng.choice([-2, -1, 1, Fraction(1, 2), 3]))
        return e
    coeffs = {}
    for _ in range(terms):
        w = tuple(rng.randrange(variety.rank) for _ in range(rng.randint(low, high)))
        coeffs[w] = coeffs.get(w, 0) + rng.choice([-2, -1, 1, Fraction(1, 2), 3])
    return Element(variety, coeffs)


def _varieties():
    for rank in RANKS:
        yield free_associative(rank)
        yield free_lie(rank)
    yield free_lie(300)


@pytest.mark.parametrize("variety", list(_varieties()), ids=lambda v: f"{v.kind.value}{v.rank}")
def test_coded_products_are_the_tuple_products(variety):
    """Plain and truncated products, and on free Lie the bracket
    ``_bracket_words``, give the reference's terms in the reference's
    order; the elements stay canonical.  ``involves`` reads every letter."""
    rng = random.Random(variety.rank)
    low = 0 if variety.unital else 1
    for _ in range(8):
        x = _random_word_element(rng, variety, low, 4, 5)
        y = _random_word_element(rng, variety, low, 3, 4)
        wx, wy = stored_words(x), stored_words(y)
        for k in [None, *range(9)]:
            got = x.mul_trunc(y, k)
            got.check()
            if variety.kind.value == "lie":  # _bracket_words
                want = _tuple_bracket(wx, wy, k)
            else:
                want = _tuple_product(wx, _tuple_operand(wy, k), k)
            assert list(stored_words(got).items()) == list(want.items()), k
        for i in range(variety.rank):
            assert x.involves(i) == any(i in w for w in wx)


@pytest.mark.parametrize("variety", list(_varieties()), ids=lambda v: f"{v.kind.value}{v.rank}")
def test_coded_substitution_is_the_tuple_substitution(variety):
    """``_substitute`` into another rank (one width up or down, or the
    same), with a zero image among the arguments and without, plain and
    truncated, is Horner's rule on tuples; and the Leibniz rule on coded
    words is the tuple one."""
    rng = random.Random(variety.rank + 1)
    low = 0 if variety.unital else 1
    rank = variety.rank
    for target_rank in {max(1, rank - 1), rank, rank + 3}:
        target = Variety(variety.kind, target_rank)
        for zero in (False, True):
            args = [_random_word_element(rng, target, 1, 2, 2) for _ in range(rank)]
            if zero:
                args[rng.randrange(rank)] = target.zero()
            e = _random_word_element(rng, variety, low, 4, 5)
            for k in (None, 1, 3, 5):
                got = freealg._substitute([e.coeffs], args, k, width(rank))[0]
                want = _tuple_substitute(stored_words(e), args, k)
                tb = width(target_rank)
                assert {word(m, tb): c for m, c in got.items()} == want, (target_rank, zero, k)
                assert stored_words(e.substitute(args, k)) == want
    images = [_random_word_element(rng, variety, 1, 2, 2) for _ in range(rank)]
    e = _random_word_element(rng, variety, low, 4, 5)
    b = width(rank)
    got = deriv._leibniz_words(b, e.coeffs, [f.coeffs for f in images])
    want = _tuple_leibniz(stored_words(e), [stored_words(f) for f in images])
    assert {word(m, b): c for m, c in got.items()} == want


@pytest.mark.parametrize("rank", RANKS + [300])
def test_coded_lyndon_coordinates_are_the_tuple_ones(rank):
    """``lie_from_assoc`` on coded words, and ``basis_coeffs``, give the
    coordinates that the elimination over every word tuple gives."""
    rng = random.Random(rank + 2)
    L = free_lie(rank)
    b = width(rank)
    elements = [_random_word_element(rng, L, 1, 5, 4) for _ in range(6)]
    elements += [x * y for x, y in zip(elements, elements[1:])]
    for e in elements:
        want = _tuple_lyndon_coords(stored_words(e))
        got = freealg.lie_from_assoc(e.coeffs, b)
        assert {word(k, b): c for k, c in got.items()} == want
        assert freealg.basis_coeffs(e) == want


def test_check_rejects_malformed_codes():
    """``Element.check`` on the word kinds rejects a code whose sentinel is
    not at a multiple of the width, a letter equal to the rank (rank 5:
    width 3, so the digit 5 fits), and the empty word in a Lie element;
    the same keys pass where they are canonical."""
    L5, A5, A2 = free_lie(5), free_associative(5), free_associative(2)
    x = L5.gen(0)
    assert width(5) == 3 and x.coeffs == {code((0,), 3): 1}
    misplaced = {0b10 << 3 | 1: 1}  # sentinel at bit 4: 4 is no multiple of 3
    for variety in (L5, A5):
        with pytest.raises(AssertionError, match="not canonical"):
            Element._raw(variety, misplaced).check()
        with pytest.raises(AssertionError, match="not canonical"):
            Element._raw(variety, {code((1, 5), 3): 1}).check()
        with pytest.raises(AssertionError, match="not canonical"):
            Element._raw(variety, {0: 1}).check()
    Element._raw(A5, {code((1, 4), 3): 1}).check()
    with pytest.raises(AssertionError, match="not canonical"):
        Element._raw(L5, {1: 1}).check()
    Element._raw(A2, {1: 1}).check()
    with pytest.raises(AssertionError, match="not canonical"):
        Element._raw(A2, {(0, 1): 1}).check()
    with pytest.raises(AlgebraError, match="not a Lie element"):
        Element._raw(L5, {code((0, 1), 3): 1}).check()
