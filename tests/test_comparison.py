"""The backend's comparison rule against per-scalar reference loops.

Every equality, residual and vanishing test of the package goes through
``Backend.close``, ``Backend.residual`` and ``Backend.is_zero`` on flat
tuples.  The references below are the per-scalar loops those methods
replaced; the tests check that both give the same answers on both
backends, non-finite floats included, and pin the answers that differ.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from basiskit.bases import Basis, VectorSpace, gram_schmidt
from basiskit.errors import DependentInput, DimensionMismatch, Singular
from basiskit.groups import AffineTransform, MatrixGroup
from basiskit.matrices import Matrix
from basiskit.objects import GeometricalObject, dual_functor, fundamental_functor
from basiskit.scalars import EXACT, approx

F = Fraction
TOL = 1e-9
FLOAT = approx(TOL)
NAN, INF = float("nan"), float("inf")


# -- the per-scalar references ------------------------------------------------


def ref_scalar_eq(backend, x, y) -> bool:
    if backend.is_exact:
        return x == y
    return abs(x - y) <= backend.tolerance


def ref_vec_eq(u, v, backend) -> bool:
    return len(u) == len(v) and all(ref_scalar_eq(backend, a, b) for a, b in zip(u, v))


def ref_vec_max_diff(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return max((abs(a - b) for a, b in zip(u, v)), default=0.0)


def ref_matrix_eq(a: Matrix, b: Matrix) -> bool:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        return False
    return all(
        ref_scalar_eq(a.backend, x, y)
        for r1, r2 in zip(a.entries, b.entries)
        for x, y in zip(r1, r2)
    )


def ref_matrix_max_diff(a: Matrix, b: Matrix):
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise DimensionMismatch("matrix shapes differ")
    return max(abs(x - y) for r1, r2 in zip(a.entries, b.entries) for x, y in zip(r1, r2))


def ref_is_invertible(m: Matrix) -> bool:
    det = m.det()
    if m.backend.is_exact:
        return det != 0
    return abs(det) > m.backend.tolerance


def ref_pivot_vanishes(backend, pivot) -> bool:
    return abs(pivot) <= backend.tolerance


def ref_basis_eq(b1: Basis, b2: Basis) -> bool:
    if b1.space != b2.space or not ref_matrix_eq(b1.rows(), b2.rows()):
        return False
    if b1.origin is None and b2.origin is None:
        return True
    return ref_vec_eq(b1.origin, b2.origin, b1.space.backend)


def ref_object_eq(o1: GeometricalObject, o2: GeometricalObject) -> bool:
    return (
        o1.functor == o2.functor
        and ref_vec_eq(o1.coords, o2.coords, o1.anchor.space.backend)
        and ref_basis_eq(o1.anchor, o2.anchor)
        and ref_matrix_eq(o1.w_basis, o2.w_basis)
    )


def same_float(x, y) -> bool:
    """Equal floats, or both NaN."""
    return (math.isnan(x) and math.isnan(y)) or x == y


# -- strategies ----------------------------------------------------------------

# values at and around the tolerance, signed zeros and non-finite floats
SPECIAL = [0.0, -0.0, 1.0, TOL, -TOL, TOL / 2, 2 * TOL, 1.0 + TOL, NAN, INF, -INF]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def float_pairs(draw, max_len=4):
    """Two float tuples, mostly of equal length, the second often a small
    perturbation of the first."""
    xs = tuple(draw(st.lists(floats, max_size=max_len)))
    if draw(st.booleans()):
        return xs, tuple(draw(st.lists(floats, max_size=max_len)))
    shifts = st.sampled_from([0.0, -0.0, TOL / 2, TOL, -TOL, 2 * TOL, NAN, INF])
    return xs, tuple(x + draw(shifts) for x in xs)


@st.composite
def fraction_pairs(draw, max_len=4):
    xs = tuple(draw(st.lists(fractions, max_size=max_len)))
    if draw(st.booleans()):
        return xs, tuple(draw(st.lists(fractions, max_size=max_len)))
    shifts = st.sampled_from([F(0), F(0), F(1, 10**12), F(-1, 3)])
    return xs, tuple(x + draw(shifts) for x in xs)


SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (4, 1)]
SQUARE = [(1, 1), (2, 2)]


@st.composite
def matrix_pairs(draw, backend, shapes=SHAPES):
    scalars = fractions if backend.is_exact else floats
    shape = draw(st.sampled_from(shapes))
    other = draw(st.sampled_from(shapes)) if draw(st.booleans()) else shape

    def rows(nr, nc):
        return tuple(tuple(draw(scalars) for _ in range(nc)) for _ in range(nr))

    a = rows(*shape)
    if other == shape and draw(st.booleans()):
        b = a  # equal, or equal up to a small shift below
        if not backend.is_exact:
            shift = draw(st.sampled_from([0.0, TOL / 2, 2 * TOL]))
            b = tuple(tuple(x + shift for x in row) for row in a)
    else:
        b = rows(*other)
    return Matrix(a, backend), Matrix(b, backend)


BACKENDS = pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])


# -- close, residual and is_zero against the references ---------------------------


@settings(max_examples=300)
@given(float_pairs())
def test_float_close_and_residual_match_the_references(pair):
    xs, ys = pair
    assert FLOAT.close(xs, ys) == ref_vec_eq(xs, ys, FLOAT)
    if len(xs) != len(ys):
        with pytest.raises(DimensionMismatch):
            FLOAT.compare(xs, ys)[1]
        with pytest.raises(DimensionMismatch):
            ref_vec_max_diff(xs, ys)
    else:
        assert same_float(FLOAT.compare(xs, ys)[1], ref_vec_max_diff(xs, ys))


@settings(max_examples=200)
@given(fraction_pairs())
def test_exact_close_and_residual_match_the_references(pair):
    xs, ys = pair
    assert EXACT.close(xs, ys) == ref_vec_eq(xs, ys, EXACT)
    if len(xs) != len(ys):
        with pytest.raises(DimensionMismatch):
            EXACT.compare(xs, ys)[1]
    else:
        residual = EXACT.compare(xs, ys)[1]
        assert type(residual) is float
        assert residual == float(ref_vec_max_diff(xs, ys))


@settings(max_examples=300)
@given(floats)
def test_float_is_zero_matches_the_references(x):
    # the vanishing test is the complement of the old invertibility rule,
    # NaN included, and the old pivot rule on every number
    assert FLOAT.is_zero(x) == (not abs(x) > TOL)
    if not math.isnan(x):
        assert FLOAT.is_zero(x) == ref_pivot_vanishes(FLOAT, x)


@given(fractions)
def test_exact_is_zero_is_equality_with_zero(x):
    assert EXACT.is_zero(x) == (x == 0)


def test_non_finite_answers_are_pinned():
    assert not FLOAT.close((NAN,), (NAN,))
    assert not FLOAT.close((INF,), (INF,))
    assert FLOAT.close((-0.0,), (0.0,))
    assert FLOAT.compare((0.0, 1.0), (-0.0, 1.0))[1] == 0.0
    assert FLOAT.compare((), ())[1] == 0.0
    assert not FLOAT.is_zero(INF) and not FLOAT.is_zero(-INF)
    # a NaN supports no claim: it vanishes, and it is close to nothing
    assert FLOAT.is_zero(NAN)
    assert not EXACT.close((F(1),), (F(1), F(0)))


def test_a_nan_pivot_is_singular():
    # the old pivot rule, abs(pivot) <= tol, let a NaN pivot through and
    # returned a matrix of NaNs; the vanishing test calls it zero
    m = Matrix(((NAN, 0.0), (0.0, 1.0)), FLOAT)
    assert not ref_pivot_vanishes(FLOAT, NAN)
    with pytest.raises(Singular):
        m.inverse()
    assert not m.is_invertible() and not ref_is_invertible(m)


def test_gram_schmidt_calls_a_nan_residue_dependent():
    # a residue with a NaN entry vanishes; the old max-norm test depended on
    # where the NaN stood and let this input through to a degenerate basis
    with pytest.raises(DependentInput) as raised:
        gram_schmidt([[NAN, 0.0], [0.0, 1.0]], (2, 0))
    assert raised.value.index == 0


# -- values against field-by-field references ----------------------------------------


@BACKENDS
@settings(max_examples=150)
@given(data=st.data())
def test_matrix_comparisons_match_the_references(backend, data):
    a, b = data.draw(matrix_pairs(backend))
    assert a.eq(b) == ref_matrix_eq(a, b)
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        with pytest.raises(DimensionMismatch):
            a.max_diff(b)
    else:
        assert same_float(a.max_diff(b), float(ref_matrix_max_diff(a, b)))
    if a.is_square:
        assert a.is_invertible() == ref_is_invertible(a)
        assert a.flat == tuple(x for row in a.entries for x in row)


@BACKENDS
def test_matrices_of_one_flat_tuple_and_different_shapes_differ(backend):
    one = backend.one()
    row = Matrix(((one, one, one, one),), backend)
    square = Matrix(((one, one), (one, one)), backend)
    column = row.transpose()
    for a, b in [(row, square), (square, column), (row, column)]:
        assert a.flat == b.flat
        assert not a.eq(b) and not ref_matrix_eq(a, b)
        with pytest.raises(DimensionMismatch):
            a.max_diff(b)


@BACKENDS
@settings(max_examples=100)
@given(data=st.data())
def test_affine_and_payload_equality_match_the_references(backend, data):
    scalars = fractions if backend.is_exact else floats
    a, b = data.draw(matrix_pairs(backend, SQUARE))
    s = tuple(data.draw(scalars) for _ in range(a.nrows))
    t = tuple(data.draw(scalars) for _ in range(b.nrows))
    if a.nrows == b.nrows and data.draw(st.booleans()):
        t = s
    f, g = AffineTransform(a, s), AffineTransform(b, t)
    expected = ref_matrix_eq(a, b) and ref_vec_eq(s, t, backend)
    assert f.eq(g) == expected
    assert f.flat == a.flat + s
    if a.nrows == b.nrows:
        group = MatrixGroup("AFFINE", a.nrows, backend)
        assert group.payload_eq(f, g) == expected
        assert group.payload_entries(f) == f.flat
        group = MatrixGroup("GL", a.nrows, backend)
        assert group.payload_eq(a, b) == ref_matrix_eq(a, b)
        assert group.payload_entries(a) == a.flat


FEW_FLOATS = st.sampled_from([0.0, 1.0, 2.0, -3.0, TOL / 2, NAN])


@BACKENDS
@settings(max_examples=100)
@given(data=st.data())
def test_basis_and_object_equality_match_the_references(backend, data):
    scalars = fractions if backend.is_exact else FEW_FLOATS
    shifts = [F(0)] if backend.is_exact else [0.0, 0.0, TOL / 2, 2 * TOL]
    kind = data.draw(st.sampled_from(["central_affine", "affine"]))
    space = VectorSpace(kind, 2, backend)

    def basis():
        rows = ((1, 0), (0, 1)) if data.draw(st.booleans()) else ((2, 1), (1, 1))
        shift = data.draw(st.sampled_from(shifts))
        origin = tuple(data.draw(scalars) for _ in range(2)) if kind == "affine" else None
        vectors = tuple(tuple(backend.coerce(x) + shift for x in r) for r in rows)
        return Basis(space, vectors, origin)

    b1, b2 = basis(), basis()
    assert b1.eq(b2) == ref_basis_eq(b1, b2)
    # the same vectors in the other kind of space
    other_kind = "central_affine" if kind == "affine" else "affine"
    origin = None if kind == "affine" else (backend.zero(),) * 2
    other = Basis(VectorSpace(other_kind, 2, backend), b1.vectors, origin)
    assert not b1.eq(other) and not ref_basis_eq(b1, other)

    functors = [fundamental_functor(), dual_functor()]

    def obj(anchor):
        functor = data.draw(st.sampled_from(functors))
        coords = tuple(data.draw(scalars) for _ in range(2))
        w = data.draw(st.sampled_from([((1, 0), (0, 1)), ((1, 1), (0, 1))]))
        w_basis = Matrix(tuple(tuple(map(backend.coerce, r)) for r in w), backend)
        return GeometricalObject(functor, coords, anchor, w_basis)

    o1, o2 = obj(b1), obj(data.draw(st.sampled_from([b1, b2])))
    assert o1.eq(o2) == ref_object_eq(o1, o2)
    assert o1.eq(o1) == ref_object_eq(o1, o1)
