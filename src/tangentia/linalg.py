"""Small exact linear algebra over the rationals.

Matrices are lists of rows whose entries are ints or Fractions.  ``rref``
clears each row's denominators and eliminates fraction-free on integer
rows, dividing every new row by its content (the gcd of its entries) so
the entries stay small; rationals appear only at the end, when each pivot
row is divided by its pivot.  Results hold an ``int`` where an entry is
integral and a ``Fraction`` otherwise.
"""
from __future__ import annotations

import math
from fractions import Fraction


def _primitive(row):
    """``row`` divided by the gcd of its entries (unchanged if all zero)."""
    g = math.gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def _integer_row(row):
    """A primitive integer row spanning the same line as ``row``."""
    row = [x if type(x) is int else Fraction(x) for x in row]
    d = math.lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (d // x.denominator) for x in row])


def _divided(row, p):
    """``row / p``, entry by entry, ints where exact."""
    return [x // p if x % p == 0 else Fraction(x, p) for x in row]


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    mat = [_integer_row(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
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


class SingularMatrix(ValueError):
    pass


def inverse(matrix):
    """Inverse of a square matrix; raises SingularMatrix otherwise."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is not invertible over the rationals")
    return [row[n:] for row in red[:n]]

