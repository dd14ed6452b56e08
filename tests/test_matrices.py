import dataclasses
from fractions import Fraction
from math import inf, lcm, nan, nextafter
from itertools import permutations, product
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

import basiskit.matrices as matrices
from basiskit.errors import BackendMismatch, DimensionMismatch, Singular
from basiskit.groups import rotation_2d
from basiskit.matrices import Matrix, _int_rows, metric_dot, vector
from basiskit.scalars import APPROX, EXACT

F = Fraction


def m(rows, backend=EXACT):
    return Matrix.from_rows(rows, backend)


def test_shape_and_access():
    a = m([[1, 2, 3], [4, 5, 6]])
    assert a.nrows == 2 and a.ncols == 3
    assert a.entries[1] == (F(4), F(5), F(6))
    assert tuple(row[2] for row in a.entries) == (F(3), F(6))
    assert not a.is_square


def test_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        m([[1, 2], [3]])


def test_mul_oracle():
    a = m([[1, 2], [3, 4]])
    b = m([[0, 1], [1, 0]])
    assert a.mul(b).entries == ((2, 1), (4, 3))
    assert b.mul(a).entries == ((3, 4), (1, 2))


def test_matvec_and_vecmat_orientations():
    a = m([[1, 2], [3, 4]])
    u = vector([1, 1], EXACT)
    # column vector on the right
    assert a.matvec(u) == (F(3), F(7))
    # row vector on the left
    assert a.vecmat(u) == (F(4), F(6))


def test_det_oracle():
    assert m([[1, 2], [3, 4]]).det() == F(-2)
    assert m([[2, 0, 0], [0, 3, 0], [0, 0, 4]]).det() == F(24)
    assert m([[1, 2], [2, 4]]).det() == 0


def test_inverse_oracle():
    # worked by hand: [[1,2],[3,4]]^-1 = [[-2, 1], [3/2, -1/2]]
    inv = m([[1, 2], [3, 4]]).inverse()
    assert inv.entries == ((F(-2), F(1)), (F(3, 2), F(-1, 2)))


def test_inverse_of_singular_raises():
    with pytest.raises(Singular):
        m([[1, 2], [2, 4]]).inverse()
    with pytest.raises(Singular):
        m([[1.0, 2.0], [2.0, 4.0 + 1e-12]], APPROX).inverse()


def test_float_inverse_pivots():
    # needs a row swap to find a usable pivot
    a = m([[0.0, 1.0], [1.0, 0.0]], APPROX)
    assert a.inverse().eq(a)


def test_kron_oracle():
    a = m([[1, 2], [3, 4]])
    e = Matrix.identity(2, EXACT)
    k = a.kron(e)
    assert k.nrows == 4 and k.ncols == 4
    assert k.entries == (
        (1, 0, 2, 0),
        (0, 1, 0, 2),
        (3, 0, 4, 0),
        (0, 3, 0, 4),
    )


def test_block_diag():
    a = m([[1]])
    b = m([[2, 3], [4, 5]])
    assert a.block_diag(b).entries == (
        (1, 0, 0),
        (0, 2, 3),
        (0, 4, 5),
    )


def test_backend_mixing_rejected():
    a = m([[1, 2], [3, 4]])
    b = m([[1.0, 0.0], [0.0, 1.0]], APPROX)
    with pytest.raises(BackendMismatch):
        a.mul(b)


def test_metric_dot():
    u = vector([1, 2], EXACT)
    v = vector([3, 4], EXACT)
    assert metric_dot(u, v, (1, 1)) == F(11)
    assert metric_dot(u, v, (1, -1)) == F(-5)


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def invertible_2x2(draw):
    a, b, c, d = (draw(small_fractions) for _ in range(4))
    assume(a * d - b * c != 0)
    return m([[a, b], [c, d]])


@given(invertible_2x2())
def test_inverse_round_trip(a):
    assert a.mul(a.inverse()).is_identity()
    assert a.inverse().mul(a).is_identity()


@given(invertible_2x2(), invertible_2x2())
def test_det_multiplicative(a, b):
    assert a.mul(b).det() == a.det() * b.det()


@given(invertible_2x2(), invertible_2x2())
def test_transpose_reverses_products(a, b):
    assert a.mul(b).transpose().eq(b.transpose().mul(a.transpose()))


def test_close_within_tolerance():
    u = vector([1.0, 2.0], APPROX)
    v = vector([1.0 + 1e-12, 2.0], APPROX)
    assert APPROX.close(u, v)


# -- exact kernels against Fraction elimination ---------------------------------
#
# The reference below is the Gaussian and Gauss-Jordan elimination on
# Fraction entries that the exact backend ran before its fraction-free
# kernels; the kernels must give the same values and the same Singular.


def reference_det(rows):
    n = len(rows)
    rows = [list(r) for r in rows]
    det = F(1)
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(rows[r][k]))
        if rows[pivot_row][k] == 0:
            return F(0)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        pivot = rows[k][k]
        det = det * pivot
        for r in range(k + 1, n):
            factor = rows[r][k] / pivot
            if factor == 0:
                continue
            for c in range(k, n):
                rows[r][c] = rows[r][c] - factor * rows[k][c]
    return det


def reference_inverse(rows):
    n = len(rows)
    aug = [
        list(row) + [F(1) if i == j else F(0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(aug[r][k]))
        if aug[pivot_row][k] == 0:
            raise Singular(f"matrix is singular at column {k}")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot = aug[k][k]
        aug[k] = [x / pivot for x in aug[k]]
        for r in range(n):
            if r == k or aug[r][k] == 0:
                continue
            factor = aug[r][k]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[k])]
    return tuple(tuple(row[n:]) for row in aug)


def reference_mul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def _random_fraction(rng):
    return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 5, 6)))


def _random_rational_matrix(rng, n, shape):
    """One of several shapes: full, a zero leading pivot, a zero first
    column, a dependent row, low rank, a dependent column in the middle."""
    rows = [[_random_fraction(rng) for _ in range(n)] for _ in range(n)]
    if shape == "zero-pivot":
        rows[0][0] = F(0)
    elif shape == "zero-column":
        for row in rows:
            row[0] = F(0)
    elif shape == "dependent-row" and n > 1:
        i, j = rng.sample(range(n), 2)
        c = _random_fraction(rng)
        rows[i] = [c * x for x in rows[j]]
    elif shape == "low-rank":
        r = rng.randint(1, max(1, n - 1))
        left = [[_random_fraction(rng) for _ in range(r)] for _ in range(n)]
        right = [[_random_fraction(rng) for _ in range(n)] for _ in range(r)]
        rows = [list(row) for row in reference_mul(left, right)]
    elif shape == "dependent-column" and n > 2:
        k = rng.randint(1, n - 1)
        for row in rows:
            row[k] = row[0] * F(rng.randint(-3, 3), rng.randint(1, 3)) + row[k - 1]
    return rows


SHAPES = ("full", "zero-pivot", "zero-column", "dependent-row", "low-rank", "dependent-column")


def _differential_cases(count=1080, seed=20260):
    rng = Random(seed)
    for i in range(count):
        n = 1 + i % 9
        yield rng, n, _random_rational_matrix(rng, n, SHAPES[(i // 9) % len(SHAPES)])


def test_exact_kernels_match_fraction_elimination():
    singular_columns = set()
    for rng, n, rows in _differential_cases():
        a = m(rows)
        det = a.det()
        assert type(det) is Fraction and det == reference_det(rows), rows
        try:
            expected = reference_inverse(rows)
        except Singular as exc:
            with pytest.raises(Singular) as raised:
                a.inverse()
            assert str(raised.value) == str(exc), rows
            singular_columns.add(str(exc))
            assert det == 0
        else:
            inv = a.inverse()
            assert inv.entries == expected, rows
            assert all(type(x) is Fraction for row in inv.entries for x in row)
        width = rng.randint(1, 4)
        b = [[_random_fraction(rng) for _ in range(width)] for _ in range(n)]
        assert a.mul(m(b)).entries == reference_mul(rows, b)
        u = tuple(_random_fraction(rng) for _ in range(n))
        assert a.matvec(u) == tuple(row[0] for row in reference_mul(rows, [[x] for x in u]))
        assert a.vecmat(u) == reference_mul([u], rows)[0]
    # the singular inputs reach every column position, not only the first
    assert {f"matrix is singular at column {k}" for k in range(9)} <= singular_columns


def test_exact_and_float_backends_agree_on_integer_matrices():
    rng = Random(7)
    checked = 0
    for i in range(300):
        n = 1 + i % 6
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        exact, approx_ = m(rows), m(rows, APPROX)
        assert abs(approx_.det() - exact.det()) <= 1e-9
        if exact.det() == 0:
            continue
        inv_exact, inv_float = exact.inverse(), approx_.inverse()
        assert inv_float.max_diff(m(inv_exact.entries, APPROX)) <= 1e-9
        checked += 1
    assert checked > 200


# -- cached kernel operands against the generic paths ---------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def rational_rows(n, width):
    return st.lists(
        st.lists(rationals, min_size=width, max_size=width), min_size=n, max_size=n
    )


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cached_exact_kernels_match_fraction_references(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(rational_rows(n, n))
    b = data.draw(rational_rows(n, data.draw(st.integers(1, 4))))
    u = tuple(data.draw(rational_rows(1, n))[0])
    a = m(rows)
    # the second round reads the operand forms the first one cached
    for _ in range(2):
        assert a.det() == reference_det(rows)
        try:
            expected = reference_inverse(rows)
        except Singular:
            with pytest.raises(Singular):
                a.inverse()
        else:
            assert a.inverse().entries == expected
        assert a.mul(m(b)).entries == reference_mul(rows, b)
        assert m(b).transpose().mul(a).entries == reference_mul(list(zip(*b)), rows)
        assert a.matvec(u) == tuple(row[0] for row in reference_mul(rows, [[x] for x in u]))
        assert a.vecmat(u) == reference_mul([u], rows)[0]


def test_a_chain_of_products_caches_forms_of_canonical_entries():
    rng = Random(11)
    a = m(_random_rational_matrix(rng, 3, "full"))
    product, expected = a, a.entries
    for _ in range(8):
        product, expected = product.mul(a), reference_mul(expected, a.entries)
        assert product.entries == expected
        ints, dens = product._exact_rows
        # each row over the least common denominator of its reduced entries,
        # not over the product of the factors' denominators
        assert dens == tuple(lcm(*(x.denominator for x in row)) for row in expected)
        assert (ints, dens) == _int_rows(expected)


def test_cached_forms_are_not_changed_by_a_row_swap():
    a = m([[0, 1, F(1, 2)], [F(2, 3), 0, 0], [0, 3, 1]])
    twin = m(a.entries)
    rows = a._exact_rows
    calls = [a.det(), a.inverse().entries, a.det(), a.mul(a).entries, a.inverse().entries]
    assert calls[0] == calls[2] == reference_det(a.entries)
    assert calls[1] == calls[4] == reference_inverse(a.entries)
    assert calls[3] == reference_mul(a.entries, a.entries)
    assert a._exact_rows is rows and rows == _int_rows(a.entries)
    swap = m([[0, 1], [1, 0]])
    assert [swap.det(), swap.inverse(), swap.det(), swap.mul(swap)] == [
        F(-1), swap, F(-1), Matrix.identity(2, EXACT)
    ]
    # the cache is no field: equality, hash and repr see the entries only
    assert a == twin and hash(a) == hash(twin) and repr(a) == repr(twin)


def left_fold(terms):
    """``terms`` added one after another to ``0.0``, as IEEE doubles."""
    total = 0.0
    for t in terms:
        total = total + t
    return total


def generator_mul(a, b):
    cols = b.transpose().entries
    return tuple(
        tuple(left_fold(x * y for x, y in zip(row, col)) for col in cols)
        for row in a.entries
    )


def generator_matvec(a, u):
    return tuple(left_fold(x * y for x, y in zip(row, u)) for row in a.entries)


def generator_vecmat(a, u):
    return tuple(
        left_fold(u[r] * a.entries[r][c] for r in range(a.nrows)) for c in range(a.ncols)
    )


def bits(values):
    return [x.hex() for x in values]


floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1, 1e-300]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(deadline=None)
@given(st.data())
def test_float_products_are_bit_identical_to_the_generator_formulas(data):
    n, width = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))

    def draw(size):
        return tuple(data.draw(st.lists(floats, min_size=size, max_size=size)))

    a = Matrix(tuple(draw(width) for _ in range(n)), APPROX)
    b = Matrix(tuple(draw(n) for _ in range(width)), APPROX)
    u, v = draw(width), draw(n)
    for _ in range(2):
        assert [bits(r) for r in a.mul(b).entries] == [bits(r) for r in generator_mul(a, b)]
        assert bits(a.matvec(u)) == bits(generator_matvec(a, u))
        assert bits(a.vecmat(v)) == bits(generator_vecmat(a, v))


def test_float_products_keep_signed_zeros_and_cancellation():
    a = Matrix(((-0.0, -0.0, -0.0), (1e16, 1.0, -1e16), (0.1, 0.2, 0.3)), APPROX)
    ones = (1.0, 1.0, 1.0)
    # a sum of -0.0 starts from 0.0, so it is +0.0; the 1.0 in
    # 1e16 + 1.0 - 1e16 is lost to rounding, on every Python version
    assert a.matvec(ones)[0].hex() == "0x0.0p+0"
    assert a.matvec(ones)[1] == 0.0
    assert bits(a.matvec(ones)) == bits(generator_matvec(a, ones))
    assert bits(a.transpose().vecmat(ones)) == bits(a.matvec(ones))
    column = Matrix(tuple((x,) for x in ones), APPROX)
    assert a.mul(column).entries == tuple((x,) for x in a.matvec(ones))
    for u in (ones, (-0.0, 1.0, 1e16), (1e16, -1e16, 0.5)):
        assert bits(a.vecmat(u)) == bits(generator_vecmat(a, u))
        assert bits(a.matvec(u)) == bits(generator_matvec(a, u))
    assert [bits(r) for r in a.mul(a).entries] == [bits(r) for r in generator_mul(a, a)]


@settings(deadline=None)
@given(st.data())
def test_float_kernels_fold_left_with_cancelling_terms(data):
    # each vector holds terms and their negatives around small ones, the
    # sums that compensated summation would round differently
    n = data.draw(st.integers(1, 4))
    big = data.draw(st.lists(floats, min_size=n, max_size=n))
    small = data.draw(st.lists(st.sampled_from([1.0, -1.0, 0.5, -0.0, 1e-300]), min_size=n, max_size=n))
    terms = data.draw(st.permutations(big + small + [-x for x in big]))
    u = tuple(terms)
    ones = tuple(1.0 for _ in u)
    row, column = Matrix((u,), APPROX), Matrix(tuple((x,) for x in u), APPROX)
    expected = left_fold(u).hex()
    assert row.matvec(ones)[0].hex() == expected
    assert column.vecmat(ones)[0].hex() == expected
    assert row.mul(Matrix(tuple((1.0,) for _ in u), APPROX)).entries[0][0].hex() == expected


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_exact_kron_is_the_entrywise_fraction_product(data):
    a = data.draw(rational_rows(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))))
    b = data.draw(rational_rows(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))))
    k = m(a).kron(m(b))
    assert k.entries == tuple(
        tuple(x * y for x in arow for y in brow) for arow in a for brow in b
    )
    assert all(type(x) is Fraction for x in k.flat)


# -- float elimination against the loops it replaced ---------------------------
#
# The references are the Gaussian and Gauss-Jordan loops with partial
# pivoting that the float backend ran before its straight-line 2-by-2
# kernels and its column-dropping elimination; results must match bit for
# bit, and a singular matrix must fail at the same column.


def reference_float_det(rows):
    n = len(rows)
    rows = [list(r) for r in rows]
    det = 1.0
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(rows[r][k]))
        if rows[pivot_row][k] == 0:
            return 0.0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        pivot = rows[k][k]
        det = det * pivot
        for r in range(k + 1, n):
            factor = rows[r][k] / pivot
            if factor == 0:
                continue
            for c in range(k, n):
                rows[r][c] = rows[r][c] - factor * rows[k][c]
    return det


def reference_float_inverse(rows, backend=APPROX):
    n = len(rows)
    aug = [
        list(row) + [1.0 if i == j else 0.0 for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(aug[r][k]))
        if backend.is_zero(aug[pivot_row][k]):
            raise Singular(f"matrix is singular at column {k}")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot = aug[k][k]
        aug[k] = [x / pivot for x in aug[k]]
        for r in range(n):
            if r == k or aug[r][k] == 0:
                continue
            factor = aug[r][k]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[k])]
    return tuple(tuple(row[n:]) for row in aug)


def inverse_bits(invert):
    """The bits of the inverse's rows, or the message of its ``Singular``."""
    try:
        return [bits(row) for row in invert()]
    except Singular as exc:
        return str(exc)


def assert_elimination_bits(rows):
    a = Matrix(tuple(map(tuple, rows)), APPROX)
    for _ in range(2):
        assert a.det().hex() == reference_float_det(rows).hex(), rows
        assert inverse_bits(lambda: a.inverse().entries) == inverse_bits(
            lambda: reference_float_inverse(rows)
        ), rows


TOL = APPROX.tolerance
NEAR_TOLERANCE = (TOL, -TOL, nextafter(TOL, inf), -nextafter(TOL, inf), nextafter(TOL, 0.0))
pivots = st.one_of(floats, st.sampled_from(NEAR_TOLERANCE), st.sampled_from([2.0, -2.0, 3.0]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_elimination_is_bit_identical_to_the_loops_it_replaced(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(pivots, min_size=n, max_size=n), min_size=n, max_size=n))
    assert_elimination_bits(rows)


def test_float_pivot_ties_go_to_the_first_row():
    # |1| == |-1|: the first row stays the pivot row, so no swap, no sign flip
    tie = Matrix(((1.0, 2.0), (-1.0, 3.0)), APPROX)
    assert tie.det() == 5.0
    assert_elimination_bits([[1.0, 2.0], [-1.0, 3.0]])
    assert_elimination_bits([[-1.0, 2.0], [1.0, 3.0]])
    assert_elimination_bits([[2.0, 1.0, 0.5], [-2.0, 0.0, 1.0], [2.0, -1.0, 3.0]])
    assert_elimination_bits([[0.0, 1.0, 1.0], [-0.0, 1.0, -1.0], [1.0, 1.0, 1.0]])


def test_float_pivots_just_above_and_below_the_tolerance():
    above, below = nextafter(TOL, inf), nextafter(TOL, 0.0)
    for size in (2, 3):
        for column in range(size):
            for pivot in (above, -above, TOL, -TOL, below):
                a = Matrix.diagonal([pivot if k == column else 1.0 for k in range(size)], APPROX)
                assert_elimination_bits(a.entries)
                if pivot in (above, -above):
                    assert a.inverse().entries[column][column] == 1 / pivot
                else:
                    with pytest.raises(Singular, match=f"at column {column}$"):
                        a.inverse()


def test_float_quarter_turns_keep_their_signed_zeros():
    quarter = ((-0.0, -1.0), (1.0, -0.0))
    about_z = ((-0.0, -1.0, 0.0), (1.0, -0.0, 0.0), (0.0, 0.0, 1.0))
    for rows in (quarter, about_z):
        assert_elimination_bits(rows)
        a = Matrix(rows, APPROX)
        assert a.det() == 1.0
        assert [bits(r) for r in a.mul(a).entries] == [bits(r) for r in generator_mul(a, a)]
    # the second row is the pivot row; the first row's factor -0.0 counts as
    # 0, so it is left alone, and the identity's 0.0 over its pivot -1.0 is -0.0
    assert bits(Matrix(quarter, APPROX).inverse().entries[0]) == ["0x0.0p+0", "0x1.0000000000000p+0"]
    assert bits(Matrix(quarter, APPROX).inverse().entries[1]) == ["-0x1.0000000000000p+0", "-0x0.0p+0"]


def test_a_float_rotation_times_its_inverse_matches_the_loops():
    planar = rotation_2d(0.3)
    c, s = planar.entries[0][0], planar.entries[1][0]
    spatial = Matrix(((c, 0.0, -s), (0.0, 1.0, 0.0), (s, 0.0, c)), APPROX)
    for r in (planar, spatial):
        inverse = Matrix(reference_float_inverse(r.entries), APPROX)
        assert [bits(row) for row in r.inverse().entries] == [bits(row) for row in inverse.entries]
        product = r.mul(r.inverse())
        assert [bits(row) for row in product.entries] == [bits(row) for row in generator_mul(r, inverse)]
        assert product.is_identity()
        assert r.det().hex() == reference_float_det(r.entries).hex()


# -- the written-out 3-by-3 inverse -------------------------------------------
#
# Each case must give the bits of the elimination loop and of the
# reference, or the same Singular message, and must not run the loop.

loop_float_inverse = matrices._float_inverse


@pytest.fixture
def no_general_elimination(monkeypatch):
    def refuse(rows, tol):
        raise AssertionError(f"a {len(rows)}x{len(rows)} inverse ran the general elimination")

    monkeypatch.setattr(matrices, "_float_inverse", refuse)


def assert_inverse3_bits(rows):
    """The bits of the 3-by-3 kernel, which equal the loop's and the
    reference's; a Singular's message in their place."""
    rows = tuple(map(tuple, rows))
    got = inverse_bits(lambda: Matrix(rows, APPROX).inverse().entries)
    assert got == inverse_bits(lambda: loop_float_inverse(rows, TOL)), rows
    assert got == inverse_bits(lambda: reference_float_inverse(rows)), rows
    return got


def pivot_path(rows):
    """The rows, by their place in ``rows``, that partial pivoting takes
    as the pivots of columns 0 and 1."""
    rows, path = [(i, list(row)) for i, row in enumerate(rows)], []
    for k in range(2):
        j = max(range(k, 3), key=lambda r: abs(rows[r][1][k]))
        rows[k], rows[j] = rows[j], rows[k]
        pivot = rows[k][1]
        path.append(rows[k][0])
        for r in range(k + 1, 3):
            f = rows[r][1][k] / pivot[k]
            rows[r] = (rows[r][0], [x - f * y for x, y in zip(rows[r][1], pivot)])
    return tuple(path)


def test_each_pivot_order_of_the_3x3_inverse_matches_the_loop(no_general_elimination):
    # every order of the first column's sizes, each with the second
    # column's pivot in the first remaining row and in the other one
    found = {}
    for order in permutations(range(3)):
        column0 = [(0.5, -2.0, 3.0)[rank] for rank in order]
        for column1 in product((0.25, -1.5, 2.5, 4.0), repeat=3):
            rows = [(c0, c1, c2) for c0, c1, c2 in zip(column0, column1, (1.0, -0.75, 0.3))]
            first, second = pivot_path(rows)
            key = (order, second == min({0, 1, 2} - {first}))
            if key not in found:
                found[key] = rows
                assert isinstance(assert_inverse3_bits(rows), list), rows
    assert len(found) == 12


TIES_AND_ZEROS_3X3 = (
    # first-column ties: all three, rows 1 and 2, rows 0 and 1, rows 0 and 2
    [[1.0, 2.0, 0.5], [-1.0, 3.0, 1.0], [1.0, -1.0, 2.0]],
    [[0.5, 2.0, 0.5], [2.0, 3.0, 1.0], [-2.0, -1.0, 2.0]],
    [[2.0, 2.0, 0.5], [-2.0, 3.0, 1.0], [1.0, -1.0, 2.0]],
    [[-2.0, 2.0, 0.5], [1.0, 3.0, 1.0], [2.0, -1.0, 2.0]],
    # a second-column tie after the first step, either sign
    [[4.0, 0.0, 1.0], [1.0, 2.0, 3.0], [2.0, -2.0, 1.0]],
    [[4.0, 1.0, 1.0], [2.0, 2.5, 3.0], [-2.0, 0.5, 1.0]],
    # factors 0.0 and -0.0 are skipped, so the rows keep their -0.0s
    [[3.0, 1.0, 1.0], [-0.0, -0.0, 2.0], [0.0, 2.0, -0.0]],
    [[0.0, 1.0, 2.0], [3.0, 1.0, 1.0], [-0.0, 2.0, 5.0]],
    [[2.0, 1.0, -0.0], [-0.0, 3.0, 1.0], [0.0, -0.0, 4.0]],
    [[2.0, -0.0, 1.0], [0.0, -3.0, -0.0], [-0.0, 0.0, -4.0]],
    # negative pivots turn the identity's 0.0s into -0.0s
    [[-0.0, -1.0, 0.0], [1.0, -0.0, 0.0], [0.0, 0.0, 1.0]],
    [[-1.0, -0.0, -0.0], [-0.0, -1.0, -0.0], [-0.0, -0.0, -1.0]],
    [[0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0]],
)


@pytest.mark.parametrize("rows", TIES_AND_ZEROS_3X3)
def test_3x3_pivot_ties_and_signed_zeros_match_the_loop(no_general_elimination, rows):
    assert isinstance(assert_inverse3_bits(rows), list)


@pytest.mark.parametrize("column", range(3))
def test_3x3_pivots_at_and_above_the_tolerance_match_the_loop(no_general_elimination, column):
    # an upper triangle puts the pivot at ``column`` after nontrivial steps
    above, below = nextafter(TOL, inf), nextafter(TOL, 0.0)
    for pivot in (above, -above, TOL, -TOL, below, 0.0, -0.0):
        rows = [[1.0, 5.0, 2.0], [0.0, 0.5, 3.0], [0.0, 0.0, -0.25]]
        rows[column][column] = pivot
        got = assert_inverse3_bits(rows)
        if pivot in (above, -above):
            assert isinstance(got, list)
        else:
            assert got == f"matrix is singular at column {column}"


@pytest.mark.parametrize(
    "column, rows",
    [
        (0, [[0.0, 1.0, 2.0], [-0.0, 3.0, 4.0], [0.0, 5.0, 6.0]]),
        (1, [[1.0, 2.0, 3.0], [2.0, 4.0, 7.0], [3.0, 6.0, 1.0]]),
        (2, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]),
    ],
)
def test_a_singular_3x3_raises_at_the_loops_column(no_general_elimination, column, rows):
    assert assert_inverse3_bits(rows) == f"matrix is singular at column {column}"
    with pytest.raises(Singular, match=f"^matrix is singular at column {column}$"):
        Matrix(tuple(map(tuple, rows)), APPROX).inverse()


@pytest.mark.parametrize(
    "rows",
    [
        [[inf, 1.0, 2.0], [1.0, 2.0, 3.0], [0.0, 1.0, 1.0]],
        [[1.0, 2.0, 3.0], [-inf, 1.0, 1.0], [2.0, 1.0, 0.0]],
        [[1.0, inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[2.0, 1.0, 0.0], [1.0, 3.0, -inf], [0.0, 1.0, 1.0]],
        [[nan, 1.0, 2.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        [[1.0, 2.0, 3.0], [nan, 1.0, 1.0], [2.0, 1.0, 0.0]],
        [[1.0, 2.0, 3.0], [0.5, 1.0, 1.0], [nan, nan, nan]],
        [[3.0, 1.0, 1.0], [1.0, nan, 2.0], [0.0, 1.0, 4.0]],
        [[inf, inf, inf], [1.0, 2.0, 3.0], [0.0, 1.0, 1.0]],
    ],
)
def test_3x3_rows_with_inf_or_nan_match_the_loop(no_general_elimination, rows):
    assert_inverse3_bits(rows)


def test_a_3x3_float_inverse_never_runs_the_general_elimination(no_general_elimination):
    rng = Random(2027)
    for _ in range(2000):
        rows = tuple(tuple(rng.choice(SWEEP_POOL) if rng.random() < 0.5 else rng.uniform(-4.0, 4.0)
                           for _ in range(3)) for _ in range(3))
        assert_inverse3_bits(rows)
    with pytest.raises(AssertionError, match="4x4 inverse ran the general elimination"):
        Matrix.diagonal([2.0] * 4, APPROX).inverse()


def test_a_matrix_is_inverted_once_and_a_singular_one_raises_each_time(monkeypatch):
    runs = []
    kernel = matrices._FLOAT_INVERSE[3]
    monkeypatch.setitem(matrices._FLOAT_INVERSE, 3, lambda rows, tol: runs.append(rows) or kernel(rows, tol))
    a = Matrix(((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 2.0)), APPROX)
    assert a.inverse() is a.inverse()
    assert len(runs) == 1
    singular = Matrix(((1.0, 2.0, 3.0), (2.0, 4.0, 6.0), (0.0, 0.0, 1.0)), APPROX)
    for _ in range(2):
        with pytest.raises(Singular, match="at column 1$"):
            singular.inverse()
    assert len(runs) == 3
    exact = Matrix.from_rows([[1, 2], [3, 4]], EXACT)
    assert exact.inverse() is exact.inverse()


@pytest.mark.parametrize(
    "rows, backend, forms",
    [
        (
            [[1, F(1, 2), 0], [F(2, 3), 3, 1], [0, -1, F(5, 4)]],
            EXACT,
            ("flat", "_exact_rows", "_exact_cols"),
        ),
        ([[0.5, -0.0, 2.0], [1.25, 3.0, 1.0], [0.0, -1.0, 0.75]], APPROX, ("flat",)),
    ],
    ids=["exact", "float"],
)
def test_the_kept_hash_and_forms_leave_equality_repr_and_hash_unchanged(monkeypatch, rows, backend, forms):
    built = []

    def counted(name, build):
        return lambda *args: built.append(name) or build(*args)

    for name in forms:
        kept = Matrix.__dict__[name]
        monkeypatch.setattr(kept, "build", counted(name, kept.build))
    monkeypatch.setattr(matrices, "_int_rows", counted("_int_rows", _int_rows))
    a, fresh = m(rows, backend), m(rows, backend)
    # the hash of the fields, before and after anything is kept
    assert hash(a) == hash((a.entries, a.backend)) == hash(Matrix(a.entries, a.backend))
    for _ in range(2):
        a.inverse()
        for name in forms:
            getattr(a, name)
        a.mul(a), a.det(), a.eq(a)
        assert hash(a) == hash(Matrix(a.entries, a.backend)) == hash(fresh)
    assert set(vars(a)) == {"entries", "backend", "_hash", "_inverse", *forms}
    assert set(vars(fresh)) == {"entries", "backend", "_hash"}
    assert a == fresh and repr(a) == repr(fresh) == repr(Matrix(a.entries, backend))
    assert repr(a) == f"Matrix(entries={a.entries!r}, backend={backend!r})"
    # each form is built once per matrix, an exact row or column form from
    # one _int_rows
    exact_forms = [name for name in forms if name.startswith("_exact")]
    assert sorted(built) == sorted([*forms, *["_int_rows"] * len(exact_forms)])


# -- a seeded sweep of every float kernel --------------------------------------
#
# More cases than the Hypothesis budget: 5,000 seeded matrices per size,
# drawn from signed zeros, pivot ties, values at the tolerance, 1e16
# cancellation and, rarely, infinities and NaN.  ``float.hex`` prints
# every NaN alike, as reports do, so a NaN's sign is not compared.

SWEEP_POOL = (
    0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, 0.1, -0.1,
    1e16, -1e16, 1e-300, -1e-300, *NEAR_TOLERANCE, -nextafter(TOL, 0.0),
)


def sweep_draw(rng):
    roll = rng.random()
    if roll < 0.02:
        return rng.choice((inf, -inf, nan))
    if roll < 0.7:
        return rng.choice(SWEEP_POOL)
    return rng.uniform(-4.0, 4.0)


def sweep_square(rng, n):
    return tuple(tuple(sweep_draw(rng) for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_seeded_float_kernels_match_the_references_bit_for_bit(n):
    rng = Random(19 + n)
    draw = lambda: sweep_draw(rng)
    square = lambda: sweep_square(rng, n)

    for _ in range(5000):
        rows = square()
        assert_elimination_bits(rows)
        a, b = Matrix(rows, APPROX), Matrix(square(), APPROX)
        u = tuple(draw() for _ in range(n))
        assert [bits(r) for r in a.mul(b).entries] == [bits(r) for r in generator_mul(a, b)]
        assert bits(a.matvec(u)) == bits(generator_matvec(a, u))
        assert bits(a.vecmat(u)) == bits(generator_vecmat(a, u))


# -- kernel results built without Matrix.__init__ ------------------------------


def assert_built_as_the_constructor_builds(result):
    """A kernel's result is the matrix ``Matrix(entries, backend)`` builds."""
    built = Matrix(result.entries, result.backend)
    assert list(vars(result)) == list(vars(built)) == ["entries", "backend"]
    assert result == built and hash(result) == hash(built) and repr(result) == repr(built)
    assert result.flat == built.flat
    assert vars(result) == vars(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.entries = built.entries


@pytest.mark.parametrize("n", range(1, 6))
def test_float_kernel_results_are_the_matrices_the_constructor_builds(n):
    # the seeded sweep's matrices, infinities and NaN included
    rng = Random(19 + n)
    inverted = 0
    for _ in range(500):
        a, b = Matrix(sweep_square(rng, n), APPROX), Matrix(sweep_square(rng, n), APPROX)
        assert_built_as_the_constructor_builds(a.mul(b))
        try:
            inverse = a.inverse()
        except Singular:
            continue
        assert_built_as_the_constructor_builds(inverse)
        inverted += 1
    assert inverted > 100


def test_exact_kernel_results_are_the_matrices_the_constructor_builds():
    inverted = 0
    for rng, n, rows in _differential_cases(count=270):
        a = m(rows)
        width = rng.randint(1, 4)
        assert_built_as_the_constructor_builds(a.mul(m([[_random_fraction(rng) for _ in range(width)] for _ in range(n)])))
        try:
            inverse = a.inverse()
        except Singular:
            continue
        assert_built_as_the_constructor_builds(inverse)
        inverted += 1
    assert inverted > 100
