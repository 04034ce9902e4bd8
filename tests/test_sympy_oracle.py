"""Polynomial products, substitution and the derivation action,
cross-checked against sympy's ``expand`` and ``diff``."""
import random
from fractions import Fraction

import pytest

from tangentia import Derivation, Element, monomials_of_degree, polynomial

sympy = pytest.importorskip("sympy")

P = polynomial(3)
X = sympy.symbols("x1:4")


def _random(rng, low=0, high=3, terms=4):
    coeffs = {}
    for _ in range(terms):
        m = rng.choice(monomials_of_degree(P, rng.randint(low, high)))
        coeffs[m] = coeffs.get(m, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Element(P, coeffs)


def _to_sympy(e):
    return sum(
        (sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
         * sympy.prod(x**k for x, k in zip(X, m)) for m, c in e.coeffs.items()),
        sympy.Integer(0),
    )


def _from_sympy(expr, max_degree=None):
    coeffs = {
        m: Fraction(int(c.p), int(c.q))
        for m, c in sympy.Poly(sympy.expand(expr), *X).terms()
        if max_degree is None or sum(m) <= max_degree
    }
    return Element(P, coeffs)


@pytest.fixture
def cases():
    rng = random.Random(20261018)
    return [tuple(_random(rng) for _ in range(5)) for _ in range(25)]


def test_products_match_sympy(cases):
    for a, b, *_ in cases:
        assert a * b == _from_sympy(_to_sympy(a) * _to_sympy(b))


def test_substitution_matches_sympy(cases):
    for a, *args in cases:
        args = args[:3]
        subs = dict(zip(X, map(_to_sympy, args)))
        ref = _to_sympy(a).subs(subs, simultaneous=True)
        assert a.substitute(args) == _from_sympy(ref)
        for k in (0, 2, 4):
            assert a.substitute(args, max_degree=k) == _from_sympy(ref, max_degree=k)


def test_derivation_action_matches_sympy(cases):
    for a, *coords in cases:
        D = Derivation(P, coords[:3])
        ref = sum(_to_sympy(f) * sympy.diff(_to_sympy(a), x) for f, x in zip(D.coords, X))
        assert D.apply(a) == _from_sympy(ref)
