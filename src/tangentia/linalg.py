"""Small exact linear algebra over the rationals.

``rref`` and ``rank`` take rows as dicts from column keys (anything that
compares: ints, trace keys, ``(coordinate, key)`` pairs) to ints or
Fractions; the columns are the sorted union of the rows' keys, and a row
that is not a dict raises ``TypeError`` before any row is reduced.
``rref`` reads the rows one at a time into a reduced basis of sparse
primitive integer rows, reduces only the rows that raise the rank, stops
at full column rank and forms rationals only when it divides by the
pivots.  ``scaled_inverse`` and ``inverse`` take small dense square
matrices (a ragged or non-square one raises a plain ``ValueError`` naming
its shape) and use fraction-free Gauss-Jordan elimination (Bareiss, Math.
Comp. 22, 1968): ``scaled_inverse`` gives an integer multiple d m^-1 with
no rationals at all, and ``inverse`` divides it by d once.  Results hold
an ``int`` where an entry is integral and a ``Fraction`` otherwise.
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
    """The sparse row ``row`` divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    if g > 1:
        return {j: x // g for j, x in row.items()}
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
    """Reduced row echelon form of dict rows.  Returns ``(reduced,
    pivots)``: the nonzero reduced rows in pivot order, as dicts keyed
    like the input and listing their keys in column order, and the
    pivot key of each.

    The reduced basis is built incrementally.  With D the lcm of the
    pivots and M_c basis row c scaled to D at its pivot c, the residual
    of an integer row v is D v - sum_c v[c] M_c: zero at every pivot, and
    zero at every free column exactly when v is in the span.  A nonzero
    residual, made primitive, becomes a basis row whose leading column is
    the new pivot; that column is eliminated from the basis rows that
    have it (fraction-free, then each is made primitive again).  Every
    basis row is zero before its own pivot, so the basis divided by its
    pivots is the unique reduced echelon form.  Once the pivots fill
    every column (one per distinct key), no further row is reduced.  The
    keys are mapped to ints once, so the loops hash no nested tuples."""
    rows = list(rows)  # read three times: checked, keyed, reduced
    for row in rows:
        if not isinstance(row, dict):
            raise TypeError(f"expected a dict row, got {type(row).__name__}")
    keys = sorted(set().union(*rows))
    column = {key: j for j, key in enumerate(keys)}
    ncols = len(keys)
    basis = {}  # pivot column -> primitive row, zero at the other pivots
    scaled = {}  # pivot column -> basis row times D / pivot, off the pivot
    lcm = 1
    for row in rows:
        if len(basis) == ncols:
            break
        entries = {column[key]: x for key, x in row.items() if x}
        residual = {}
        for c, x in zip(entries, _cleared(entries.values())[1]):
            m = scaled.get(c)
            if m is None:
                residual[c] = residual.get(c, 0) + lcm * x
            else:
                for j, y in m.items():
                    residual[j] = residual.get(j, 0) - x * y
        new = {j: x for j, x in residual.items() if x}
        if not new:
            continue
        new = _primitive(new)
        q = min(new)
        p = new[q]
        for c, brow in basis.items():
            f = brow.get(q)
            if f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                combined = {j: a * x for j, x in brow.items()}
                for j, y in new.items():
                    combined[j] = combined.get(j, 0) - b * y
                basis[c] = _primitive({j: x for j, x in combined.items() if x})
        basis[q] = new
        lcm = math.lcm(*(brow[c] for c, brow in basis.items()))
        scaled = {
            c: {j: x * (lcm // brow[c]) for j, x in brow.items() if j != c}
            for c, brow in basis.items()
        }
    pivots = sorted(basis)
    reduced = []
    for c in pivots:
        row = basis[c]
        js = sorted(row)
        values = _divided([row[j] for j in js], row[c])
        reduced.append({keys[j]: x for j, x in zip(js, values)})
    return reduced, [keys[c] for c in pivots]


def rank(rows):
    """The number of pivots of ``rref(rows)``."""
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
