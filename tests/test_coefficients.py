"""The stored coefficient form: ``int`` when integral, ``Fraction`` otherwise."""
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from tangentia import (
    Element,
    Endomorphism,
    free_associative,
    free_lie,
    group_commutator,
    jacobian,
    metabelian_lie,
    polynomial,
    truncated_inverse,
)

from conftest import random_ia_endomorphism


def _all_int(*elements):
    return all(type(c) is int for e in elements for c in e.coeffs.values())


def test_integral_inputs_store_ints():
    L = free_lie(3)
    x, y, z = L.gens()
    phi = Endomorphism(L, (x + y * z + x * (x * y), y + z * x, z))
    inv = truncated_inverse(phi, 8)
    assert inv.images[0].degree() == 8
    assert _all_int(*inv.images)

    rng = random.Random(3)
    A = free_associative(3)
    comm = group_commutator(
        random_ia_endomorphism(rng, A, 1, 2), random_ia_endomorphism(rng, A, 2, 3), 6
    )
    assert not comm.is_identity()
    assert _all_int(*comm.images)

    M = metabelian_lie(3)
    y1, y2, y3 = M.gens()
    psi = Endomorphism(M, (y1 + 2 * (y2 * y3) * y1, y2 - y3 * y1, y3))
    entry = jacobian(psi)[0][0]
    assert not entry.is_zero()
    assert _all_int(entry)

    P = polynomial(2)
    e = Element(P, {(1, 0): Fraction(4, 2)})
    assert e.coeffs == {(1, 0): 2} and _all_int(e)
    assert _all_int(P.scalar(Fraction(6, 3)), e.scale(Fraction(3, 1)))


def test_rational_coefficients_stay_fractions():
    x = polynomial(2).gen(0)
    half = x.scale(Fraction(1, 2)).coeffs[(1, 0)]
    assert type(half) is Fraction and half == Fraction(1, 2)


def test_scaling_by_a_fraction_stores_integral_results_as_int():
    x, y = polynomial(2).gens()
    e = (x.scale(2) + y.scale(Fraction(1, 3))).scale(Fraction(3, 2))
    assert e.coeffs == {(1, 0): 3, (0, 1): Fraction(1, 2)}
    assert type(e.coeffs[(1, 0)]) is int


def test_integral_fraction_equals_and_hashes_like_int():
    P = polynomial(2)
    stored_fraction = Element._raw(P, {(0, 1): Fraction(2)})
    stored_int = Element(P, {(0, 1): 2})
    assert stored_fraction == stored_int
    assert hash(stored_fraction) == hash(stored_int)
    assert str(stored_fraction) == str(stored_int) == "2*x2"


@pytest.mark.parametrize(
    "bad, name",
    [(0.1, "float"), ("1/3", "str"), (True, "bool"), (Decimal("0.5"), "Decimal")],
)
def test_inexact_coefficients_are_a_type_error(bad, name):
    P = polynomial(2)
    x = P.gen(0)
    with pytest.raises(TypeError, match=name):
        Element(P, {(1, 0): bad})
    with pytest.raises(TypeError, match=name):
        x.scale(bad)
    with pytest.raises(TypeError, match=name):
        P.scalar(bad)
    with pytest.raises(TypeError):
        x * bad
