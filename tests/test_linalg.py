"""Exact linear algebra, cross-checked against sympy's rational matrices
where sympy is installed and against a plain Fraction Gauss-Jordan
elimination kept here."""
import random
from fractions import Fraction

import pytest

from tangentia import linalg

from conftest import check_scaled_inverse


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


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


def _sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _fractions(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


def test_rref_and_rank_match_sympy(sympy):
    for rows in _matrices():
        red, pivots = linalg.rref(rows)
        ref, ref_pivots = _sympy(sympy, rows).rref()
        assert red == _fractions(ref)
        assert pivots == list(ref_pivots)
        assert linalg.rank(rows) == _sympy(sympy, rows).rank()


def test_inverse_matches_sympy(sympy):
    rng = random.Random(7)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        mat = [[_entry(rng) for _ in range(n)] for _ in range(n)]
        m = _sympy(sympy, mat)
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
    assert linalg.scaled_inverse([]) == (1, [])


def _gauss_jordan(matrix):
    """The inverse by Gauss-Jordan elimination on Fractions, or None if
    the matrix is singular: the reference for the fraction-free one."""
    n = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot is None:
            return None
        aug[k], aug[pivot] = aug[pivot], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def _square_matrices(entry):
    """Seeded n x n matrices, n <= 5, about half of them singular (sparse
    draws, and a row repeated or combined from two others)."""
    rng = random.Random(20261019)
    out = []
    for _ in range(400):
        n = rng.randint(1, 5)
        mat = [[entry(rng) for _ in range(n)] for _ in range(n)]
        if n > 2 and rng.random() < 0.2:
            mat[-1] = [a - 2 * b for a, b in zip(mat[0], mat[1])]
        out.append(mat)
    return out


def test_scaled_inverse_is_an_integer_multiple_of_the_inverse():
    singular = regular = 0
    for m in _square_matrices(lambda rng: rng.choice([0, rng.randint(-9, 9)])):
        if _gauss_jordan(m) is None:
            with pytest.raises(linalg.SingularMatrix):
                linalg.scaled_inverse(m)
            singular += 1
            continue
        d, s = linalg.scaled_inverse(m)
        assert type(d) is int and check_scaled_inverse(m, s) == d
        regular += 1
    assert singular > 50 and regular > 150


def test_inverse_matches_fraction_gauss_jordan():
    checked = 0
    for m in _square_matrices(_entry):
        ref = _gauss_jordan(m)
        if ref is None:
            with pytest.raises(linalg.SingularMatrix):
                linalg.inverse(m)
            continue
        got = linalg.inverse(m)
        assert got == ref
        for row in got:
            for x in row:
                assert type(x) is int or x.denominator != 1, (m, x)
        checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "call, rows, shape",
    [
        (linalg.inverse, [[1, 2, 3], [4, 5, 7]], "2x3"),
        (linalg.inverse, [[1], [2]], "2x1"),
        (linalg.inverse, [[1, 2], [3]], "lengths 2, 1"),
        (linalg.rref, [[1, 2], [3, 4, 5]], "lengths 2, 3"),
    ],
)
def test_non_square_and_ragged_matrices_are_rejected(call, rows, shape):
    """A plain ValueError naming the shape, not SingularMatrix: these
    matrices are malformed, not singular.  ``inverse`` returned a 2x3
    matrix for the first, and ``rref`` dropped the 5 of the last."""
    with pytest.raises(ValueError, match=shape) as info:
        call(rows)
    assert type(info.value) is ValueError
