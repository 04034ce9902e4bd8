"""Small exact linear algebra over the rationals.

Matrices are lists of rows whose entries are ints or Fractions; a matrix
whose rows differ in length, or a non-square one given to an inverse,
raises a plain ``ValueError`` naming its shape.  ``rref`` clears each
row's denominators and eliminates fraction-free on integer rows, dividing
every new row by its content (the gcd of its entries) so the entries stay
small; rationals appear only at the end, when each pivot row is divided
by its pivot.  The inverse is fraction-free Gauss-Jordan elimination
(Bareiss, Math. Comp. 22, 1968) on integer rows: ``scaled_inverse`` gives
an integer multiple d m^-1 with no rationals at all, and ``inverse``
divides it by d once.  Results hold an ``int`` where an entry is integral
and a ``Fraction`` otherwise.
"""
from __future__ import annotations

import math
from fractions import Fraction


class SingularMatrix(ValueError):
    pass


def _width(rows):
    """The common length of ``rows``; ``ValueError`` if they differ."""
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        lengths = ", ".join(str(len(r)) for r in rows)
        raise ValueError(f"ragged matrix: rows of lengths {lengths}")
    return widths.pop() if widths else 0


def _primitive(row):
    """``row`` divided by the gcd of its entries (unchanged if all zero)."""
    g = math.gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def _cleared(row):
    """``(l, l * row)``: the least l > 0 that makes ``row`` an integer row."""
    if all(type(x) is int for x in row):
        return 1, list(row)
    row = [Fraction(x) for x in row]
    d = math.lcm(*(x.denominator for x in row))
    return d, [x.numerator * (d // x.denominator) for x in row]


def _divided(row, p):
    """``row / p``, entry by entry, ints where exact."""
    return [x // p if x % p == 0 else Fraction(x, p) for x in row]


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    ncols = _width(rows)
    mat = [_primitive(_cleared(r)[1]) for r in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                mat[i] = _primitive([a * x - b * y for x, y in zip(mat[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = [_divided(mat[i], mat[i][c]) for i, c in enumerate(pivots)]
    out.extend([0] * ncols for _ in range(len(mat) - r))
    return out, pivots


def rank(rows):
    return len(rref(rows)[1])


def scaled_inverse(matrix):
    """``(d, s)`` with d a nonzero int and s = d * matrix^-1 an integer
    matrix; raises SingularMatrix if the matrix is singular.

    Each row of the matrix is first cleared of denominators (row i times
    l_i), and Bareiss's fraction-free Gauss-Jordan elimination runs on
    [M | I] with M the integer matrix: step k combines every other row as
    (p_k * row - f * pivot_row) / p_{k-1}, with p_k the pivot of step k
    and p_{-1} = 1.  The division is exact, since every entry it gives is
    a minor of [M | I] up to sign (Sylvester's identity).  It ends at
    [d I | d M^-1] with d = +-det M.  The inverse of the given matrix is
    M^-1 L with L = diag(l_i), so column j of s is column j of d M^-1
    times l_j."""
    n = len(matrix)
    if _width(matrix) != n:
        raise ValueError(f"not a square matrix: {n}x{len(matrix[0])}")
    scales, aug = [], []
    for i, row in enumerate(matrix):
        l, ints = _cleared(row)
        scales.append(l)
        aug.append(ints + [int(i == j) for j in range(n)])
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot is None:
            raise SingularMatrix("matrix is not invertible over the rationals")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        prow = aug[k]
        p = prow[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(aug[i], prow)]
        prev = p
    return prev, [[x * l for x, l in zip(row[n:], scales)] for row in aug]


def inverse(matrix):
    """Inverse of a square matrix; raises SingularMatrix if it is singular."""
    d, s = scaled_inverse(matrix)
    return [_divided(row, d) for row in s]
