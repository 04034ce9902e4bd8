"""Exact linear algebra, cross-checked against sympy's rational matrices."""
import random
from fractions import Fraction

import pytest

from tangentia import linalg

sympy = pytest.importorskip("sympy")


def _entry(rng):
    k = rng.random()
    if k < 0.35:
        return 0
    if k < 0.75:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 8))


def _matrices():
    """Seeded rational matrices: wide, tall and square shapes, with zero
    rows, repeated rows and rows that combine others."""
    rng = random.Random(20261018)
    out = []
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        extra = rng.random()
        if extra < 0.25:
            rows.append([0] * ncols)
        elif extra < 0.5:
            rows.append(list(rows[0]))
        elif extra < 0.75 and nrows > 1:
            rows.append([a - 3 * b for a, b in zip(rows[0], rows[1])])
        rng.shuffle(rows)
        out.append(rows)
    return out


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _fractions(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


def test_rref_and_rank_match_sympy():
    for rows in _matrices():
        red, pivots = linalg.rref(rows)
        ref, ref_pivots = _sympy(rows).rref()
        assert red == _fractions(ref)
        assert pivots == list(ref_pivots)
        assert linalg.rank(rows) == _sympy(rows).rank()


def test_inverse_matches_sympy():
    rng = random.Random(7)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        mat = [[_entry(rng) for _ in range(n)] for _ in range(n)]
        m = _sympy(mat)
        if m.det() == 0:
            with pytest.raises(linalg.SingularMatrix):
                linalg.inverse(mat)
            continue
        assert linalg.inverse(mat) == _fractions(m.inv())
        checked += 1
    assert checked > 50


def test_singular_and_empty_inputs():
    with pytest.raises(linalg.SingularMatrix):
        linalg.inverse([[1, 2], [Fraction(1, 2), 1]])
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.inverse([]) == []
