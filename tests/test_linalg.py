"""Exact linear algebra, cross-checked against sympy's rational matrices
where sympy is installed, against a plain Fraction Gauss-Jordan
elimination kept here for the inverse, and against an all-rows
fraction-free Gauss-Jordan elimination on dense rows kept here for
``rref``, whose rows are dicts from column keys to entries."""
import math
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


def _keyed(rows, key=lambda j: j):
    """Dense rows as dict rows: column j under ``key(j)``, zeros left out."""
    return [{key(j): x for j, x in enumerate(row) if x} for row in rows]


def test_rref_and_rank_match_sympy(sympy):
    for rows in _matrices():
        red, pivots = linalg.rref(_keyed(rows))
        ref, ref_pivots = _sympy(sympy, rows).rref()
        assert red == _keyed(_fractions(ref)[: len(ref_pivots)])
        assert pivots == list(ref_pivots)
        assert linalg.rank(_keyed(rows)) == _sympy(sympy, rows).rank()


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
    # no zero rows pad the result, and a key held at 0 is no pivot
    assert linalg.rref([{}, {"a": 0}, {}]) == ([], [])
    assert linalg.rank([{"a": 0, "b": 0}]) == 0
    # rows given as an iterator are all read: the type check does not
    # use them up
    assert linalg.rref(iter([{0: 1}, {1: 2}])) == ([{0: 1}, {1: 1}], [0, 1])
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
    ],
)
def test_non_square_and_ragged_matrices_are_rejected(call, rows, shape):
    """A plain ValueError naming the shape, not SingularMatrix: these
    matrices are malformed, not singular.  ``inverse`` returned a 2x3
    matrix for the first."""
    with pytest.raises(ValueError, match=shape) as info:
        call(rows)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("call", [linalg.rref, linalg.rank])
@pytest.mark.parametrize(
    "rows, kind",
    [
        ([[1, 2], [3, 4, 5]], "list"),
        ([{0: 1}, {1: 2}, (0, 3)], "tuple"),
        ([{0: 1}, None], "NoneType"),
    ],
)
def test_rows_that_are_not_dicts_are_rejected(call, rows, kind):
    """A dense row is no dict row: read as one it would go silently
    wrong, so it raises TypeError, also after dict rows."""
    with pytest.raises(TypeError, match=f"expected a dict row, got {kind}$"):
        call(rows)


# -- rref against an all-rows Gauss-Jordan elimination ------------------------


def _reference_rref(rows):
    """Fraction-free Gauss-Jordan elimination over every row for every
    pivot column, each row kept primitive: the reference for the
    incremental ``rref``."""
    def primitive(row):
        g = math.gcd(*row)
        return [x // g for x in row] if g > 1 else row

    mat = []
    for row in rows:
        row = [Fraction(x) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        mat.append(primitive([int(x * d) for x in row]))
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
                mat[i] = primitive([p // g * x - f // g * y for x, y in zip(mat[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = [
        [x // mat[i][c] if x % mat[i][c] == 0 else Fraction(x, mat[i][c]) for x in mat[i]]
        for i, c in enumerate(pivots)
    ]
    out.extend([0] * ncols for _ in range(len(mat) - r))
    return out, pivots


def _assert_matches_reference(rows, key=lambda j: j):
    """``rref`` of the dict rows of ``rows``, keyed by ``key``, against the
    reference on the dense rows; ``key`` must keep the column order."""
    red, pivots = linalg.rref(_keyed(rows, key))
    ref, ref_pivots = _reference_rref(rows)
    ref = _keyed(ref[: len(ref_pivots)], key)
    assert pivots == [key(j) for j in ref_pivots]
    assert red == ref
    # the reduced rows list their keys in column order, with int entries
    # where integral
    assert [list(row) for row in red] == [sorted(row) for row in ref]
    assert [[type(x) for x in row.values()] for row in red] == [
        [type(x) for x in row.values()] for row in ref
    ]
    assert linalg.rank(_keyed(rows, key)) == len(ref_pivots)
    return ref_pivots


def _oracle_like(rng):
    """A tall sparse +-1 matrix of full column rank, in the shape of the
    divergence oracle's rows: every column is some row's only entry."""
    ncols = rng.randint(20, 60)
    rows = []
    for _ in range(rng.randint(2 * ncols, 4 * ncols)):
        row = [0] * ncols
        for j in rng.sample(range(ncols), rng.randint(1, 4)):
            row[j] = rng.choice((1, -1))
        rows.append(row)
    for j in range(ncols):
        rows.insert(rng.randrange(len(rows) + 1), [int(i == j) for i in range(ncols)])
    return rows


def _span_like(rng):
    """A dense rank-deficient integer matrix, in the shape of a tangent
    span's conjugated rows: combinations of fewer rows than columns."""
    ncols = rng.randint(18, 24)
    base = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(3, ncols - 2))]
    rows = []
    for _ in range(rng.randint(90, 120)):
        coefficients = [rng.randint(-3, 3) for _ in base]
        rows.append([sum(a * b[j] for a, b in zip(coefficients, base)) for j in range(ncols)])
    return rows


def test_rref_of_oracle_like_matrices_matches_the_reference():
    rng = random.Random(243)
    for _ in range(8):
        rows = _oracle_like(rng)
        assert _assert_matches_reference(rows) == list(range(len(rows[0])))


def test_rref_of_span_like_matrices_matches_the_reference():
    rng = random.Random(58)
    for _ in range(8):
        rows = _span_like(rng)
        assert len(_assert_matches_reference(rows)) < len(rows[0])


def test_rref_orders_columns_by_their_keys():
    """Keys of any comparable kind, such as ``(coordinate, basis key)``
    pairs, order the columns by comparison: an order-keeping relabelling
    gives the same reduced rows relabelled, and reversed keys reduce the
    columns right to left."""
    rng = random.Random(24)
    for _ in range(4):
        rows = _span_like(rng)
        _assert_matches_reference(rows, key=lambda j: (j // 5, (j % 5,)))
        _assert_matches_reference(rows, key=lambda j: f"c{j:03d}")
        # column c keyed -c is column n - 1 - c of the flipped rows
        n = len(rows[0])
        _assert_matches_reference([row[::-1] for row in rows], key=lambda j: j - n + 1)
    # the oracle's rows: the trace classes of Fox derivatives, keyed by
    # exponent vector, with columns no row has left out
    red, pivots = linalg.rref([{(0, 2): 2, (1, 1): -1}, {(1, 1): 3}, {(0, 2): 1}])
    assert red == [{(0, 2): 1}, {(1, 1): 1}] and pivots == [(0, 2), (1, 1)]


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[]],
        [[], [], []],
        [[0, 0, 0]],
        [[0, 3, -6]],
        [[Fraction(2, 3), Fraction(-4, 9), 5]],
        [[0, 0], [0, 0], [1, 2]],
        [[1, 2, 3], [1, 2, 3], [2, 4, 6], [0, 0, 0]],
        [[2, 4], [Fraction(1, 2), 1], [0, Fraction(1, 3)], [3, 5]],
        [[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(1, 5), Fraction(1, 7)]],
        [[0, 0, 0, 5], [0, 0, 2, 3], [0, 7, 1, 1], [0, 0, 0, 1]],
    ],
)
def test_rref_of_small_matrices_matches_the_reference(rows):
    _assert_matches_reference(rows)


def test_rref_matches_the_reference_on_the_seeded_matrices():
    for rows in _matrices():
        _assert_matches_reference(rows)
        # a key a row holds at 0 adds no entry, though it counts as a column
        held = [{j: x for j, x in enumerate(row)} for row in rows]
        assert linalg.rref(held) == linalg.rref(_keyed(rows))


def test_rref_matches_the_reference_on_generated_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.one_of(
        st.integers(-5, 5),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.just(0),
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        st.integers(0, 7).flatmap(
            lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=9)
        ),
        st.randoms(use_true_random=False),
    )
    def check(rows, rng):
        # repeated and combined rows make the dependent cases common
        if rows:
            rows = rows + [list(rng.choice(rows))]
            rows.append([a - 2 * b for a, b in zip(rng.choice(rows), rng.choice(rows))])
        _assert_matches_reference(rows)

    check()


class _CountingRow(dict):
    """A row that counts how often its entries are read."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()


def test_rref_stops_reading_rows_at_full_column_rank():
    plain = [
        [1, 2, 0], [0, 0, 0], [2, 4, 0], [0, 1, 5], [1, 0, 1], [3, 1, 4], [1, 5, 9], [0, 0, 0]
    ]
    rows = [_CountingRow(r) for r in _keyed(plain)]
    red, pivots = linalg.rref(rows)
    ref, ref_pivots = _reference_rref(plain)
    assert (red, pivots) == (_keyed(ref[:3]), ref_pivots)
    assert pivots == [0, 1, 2]
    # the fifth row reaches full column rank; the three after it are
    # never cleared or reduced
    assert [r.reads for r in rows] == [1, 1, 1, 1, 1, 0, 0, 0]
    # every row is type-checked before any is reduced
    with pytest.raises(TypeError, match="expected a dict row, got list"):
        linalg.rref(rows + [[1, 2]])
    assert [r.reads for r in rows] == [1, 1, 1, 1, 1, 0, 0, 0]
