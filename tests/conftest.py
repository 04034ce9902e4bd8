"""Shared helpers: seeded random elements, derivations, and IA maps."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tangentia import (
    Derivation,
    Element,
    Endomorphism,
    free_associative,
    free_lie,
    metabelian_lie,
    monomials_of_degree,
    polynomial,
)
from tangentia import linalg

ALL_VARIETIES = [
    polynomial(3),
    free_associative(3),
    free_lie(3),
    metabelian_lie(3),
]


def random_element(rng, variety, min_degree=1, max_degree=3, terms=3):
    """Sparse random element with small integer coefficients."""
    coeffs = {}
    for _ in range(terms):
        d = rng.randint(min_degree, max_degree)
        monos = monomials_of_degree(variety, d)
        if not monos:
            continue
        m = rng.choice(monos)
        c = rng.choice([-2, -1, 1, 2])
        coeffs[m] = coeffs.get(m, 0) + Fraction(c)
    e = Element(variety, {m: c for m, c in coeffs.items() if c})
    e.check()
    return e


def random_homogeneous_derivation(rng, variety, degree, terms=2):
    """Random derivation in L_degree (coordinates in A_{degree+1})."""
    coords = []
    for _ in range(variety.rank):
        coeffs = {}
        monos = monomials_of_degree(variety, degree + 1)
        for _ in range(terms):
            m = rng.choice(monos)
            coeffs[m] = coeffs.get(m, 0) + Fraction(rng.choice([-2, -1, 1, 2]))
        coords.append(Element(variety, {m: c for m, c in coeffs.items() if c}))
    return Derivation(variety, tuple(coords))


def random_derivation(rng, variety, max_degree=3):
    coords = tuple(
        random_element(rng, variety, 1, max_degree, terms=2)
        for _ in range(variety.rank)
    )
    return Derivation(variety, coords)


def random_ia_endomorphism(rng, variety, level, max_degree=4):
    """Identity plus random homogeneous deviations of degree level+1."""
    images = []
    for i in range(variety.rank):
        dev = random_element(rng, variety, level + 1, max_degree, terms=2)
        images.append(variety.gen(i) + dev)
    return Endomorphism(variety, tuple(images))


def check_scaled_inverse(g, s):
    """Check that s is an integer multiple d g^-1 of g's inverse, as
    ``linalg.scaled_inverse`` and ``random_invertible_matrix`` give it:
    g s = d I with d a nonzero int, and s = d * ``linalg.inverse(g)``.
    Returns d."""
    n = len(g)
    assert all(type(x) is int for row in s for x in row), s
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*s)] for row in g]
    d = product[0][0]
    assert d != 0
    assert product == [[d * int(i == j) for j in range(n)] for i in range(n)]
    assert s == [[d * x for x in row] for row in linalg.inverse(g)]
    return d


@pytest.fixture
def rng():
    return random.Random(20260823)
