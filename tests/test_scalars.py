from fractions import Fraction
from math import inf, nan, nextafter
from random import Random

import pytest

from basiskit.descriptors import basis_from_descriptor, group_from_descriptor
from basiskit.errors import BackendMismatch, DimensionMismatch, ParseError
from basiskit.scalars import APPROX, EXACT, Backend, approx, scalar_from_json, scalar_to_json


def test_exact_coercion():
    assert EXACT.coerce(3) == Fraction(3)
    assert EXACT.coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert EXACT.coerce(4.0) == Fraction(4)


def test_exact_rejects_non_integral_floats():
    with pytest.raises(BackendMismatch):
        EXACT.coerce(0.5)


def test_approx_coerces_everything_numeric():
    assert APPROX.coerce(3) == 3.0
    assert APPROX.coerce(Fraction(1, 2)) == 0.5
    assert isinstance(APPROX.coerce(1), float)


def test_backend_validation():
    with pytest.raises(ValueError):
        Backend("fuzzy")
    with pytest.raises(ValueError):
        Backend("exact", tolerance=1e-9)
    with pytest.raises(ValueError):
        Backend("approx", tolerance=0.0)


def test_approx_gives_one_backend_per_tolerance():
    assert approx(2.5e-7) is approx(2.5e-7)
    assert approx(2.5e-7) is not approx(5e-7)
    assert approx() is APPROX is approx(1e-9)


def test_a_group_and_a_basis_parsed_at_one_tolerance_share_their_backend():
    group = group_from_descriptor(
        {"kind": "matrix", "family": "SO", "dim": 2, "signature": [2, 0]}, None, 3e-8
    )
    basis = basis_from_descriptor(
        {"space": {"kind": "euclid", "dim": 2}, "vectors": [[1, 0], [0, 1]]}, None, 3e-8
    )
    assert group.backend is basis.space.backend is approx(3e-8)


def test_a_backend_built_apart_equals_the_shared_one():
    built = Backend("approx", 1e-9)
    assert built is not APPROX and built == APPROX and hash(built) == hash(APPROX)


def test_is_exact_is_derived_from_the_kind_and_nothing_else():
    assert EXACT.is_exact and not APPROX.is_exact
    with pytest.raises(TypeError):
        Backend("exact", is_exact=False)
    # it takes no part in equality, hashing or the repr
    assert Backend("exact") == EXACT and hash(Backend("exact")) == hash(EXACT)
    assert hash(approx(1e-9)) == hash(("approx", 1e-9))
    assert repr(approx(1e-6)) == "Backend(kind='approx', tolerance=1e-06)"
    with pytest.raises(AttributeError):
        EXACT.is_exact = False


def test_eq_semantics():
    assert EXACT.close((Fraction(1, 3),), (Fraction(1, 3),))
    assert not EXACT.close((Fraction(1, 3),), (Fraction(1, 3) + Fraction(1, 10**12),))
    tol = approx(1e-6)
    assert tol.close((1.0,), (1.0 + 1e-7,))
    assert not tol.close((1.0,), (1.0 + 1e-5,))


TOL = APPROX.tolerance
# differences of 0.0 against TOL are the tolerance exactly, against the
# next float one ulp above it
FLOAT_POOL = (
    0.0, -0.0, inf, -inf, nan, 1.0, -1.0, 0.5, 1e16,
    TOL, -TOL, nextafter(TOL, inf), -nextafter(TOL, inf), nextafter(TOL, 0.0),
)
EXACT_POOL = (Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(5, 2), Fraction(10**20, 7))


def close_and_residual(backend, xs, ys):
    holds, residual = backend.compare(xs, ys)
    assert type(holds) is bool and type(residual) is float
    return holds, residual.hex()


def max_residual(xs, ys):
    """The residual as the builtin ``max`` takes it."""
    return float(max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)).hex()


@pytest.mark.parametrize("backend", [APPROX, approx(0.5), EXACT], ids=["approx", "approx(0.5)", "exact"])
def test_compare_is_close_and_residual_bit_for_bit(backend):
    rng = Random(27)
    pool = EXACT_POOL if backend.is_exact else FLOAT_POOL
    residuals = set()
    for _ in range(4000):
        n = rng.randrange(6)
        xs = tuple(rng.choice(pool) for _ in range(n))
        ys = tuple(rng.choice(pool) if rng.random() < 0.6 else x for x in xs)
        want = backend.close(xs, ys), max_residual(xs, ys)
        assert close_and_residual(backend, xs, ys) == want, (xs, ys)
        residuals.add(want[1])
    if not backend.is_exact:
        # the sweep saw a NaN residual, and the tolerance and one ulp above
        assert {"nan", TOL.hex(), nextafter(TOL, inf).hex()} <= residuals


def test_compare_keeps_the_first_nan_rule_and_signed_zeros():
    cases = [
        ((nan, 0.0), (0.0, 0.0), (False, "nan")),  # a NaN first is the residual
        ((0.0, nan), (0.0, 0.0), (False, "0x0.0p+0")),  # a later one is not
        ((1.0, nan, 3.0), (0.0, 0.0, 0.0), (False, "0x1.8000000000000p+1")),
        ((inf,), (inf,), (False, "nan")),
        ((-0.0, 0.0), (0.0, -0.0), (True, "0x0.0p+0")),
        ((TOL,), (0.0,), (True, TOL.hex())),
        ((0.0,), (-nextafter(TOL, inf),), (False, nextafter(TOL, inf).hex())),
        ((), (), (True, "0x0.0p+0")),
    ]
    for xs, ys, want in cases:
        assert close_and_residual(APPROX, xs, ys) == want
        assert want == (APPROX.close(xs, ys), max_residual(xs, ys))
    assert close_and_residual(EXACT, (Fraction(1, 3),), (Fraction(-1, 3),)) == (False, (2 / 3).hex())


def test_an_exact_residual_beyond_the_float_range_is_inf():
    huge = Fraction(10**400)
    assert EXACT.compare((huge, Fraction(0)), (Fraction(0), Fraction(0))) == (False, inf)
    assert EXACT.compare((-huge,), (huge,)) == (False, inf)


@pytest.mark.parametrize("backend", [APPROX, EXACT], ids=["approx", "exact"])
def test_compare_refuses_unequal_lengths(backend):
    one = backend.one()
    with pytest.raises(DimensionMismatch, match="vector lengths differ: 2 vs 1"):
        backend.compare((one, one), (one,))


def test_exact_measure_is_equality_with_no_residual():
    third = Fraction(1, 3)
    assert EXACT.measure((third, Fraction(1)), (third, Fraction(1))) == (True, None)
    assert EXACT.measure((third,), (-third,)) == (False, None)
    assert EXACT.measure((), ()) == (True, None)
    # unequal lengths are unequal tuples, not a dimension error
    assert EXACT.measure((third, third), (third,)) == (False, None)
    rng = Random(30)
    for _ in range(500):
        xs = tuple(rng.choice(EXACT_POOL) for _ in range(rng.randrange(4)))
        ys = tuple(rng.choice(EXACT_POOL) if rng.random() < 0.5 else x for x in xs)
        holds, residual = EXACT.measure(xs, ys)
        assert type(holds) is bool and residual is None
        assert holds == (xs == ys) == EXACT.close(xs, ys)


@pytest.mark.parametrize(
    "xs, ys",
    [
        ((-0.0, 0.0), (0.0, -0.0)),
        ((nan, 0.0), (0.0, 0.0)),
        ((0.0, nan), (0.0, 0.0)),
        ((1.0, nan, 3.0), (0.0, 0.0, 0.0)),
        ((inf,), (inf,)),
        ((inf, 1.0), (0.0, 1.0)),
        ((TOL,), (0.0,)),
        ((0.0,), (-nextafter(TOL, inf),)),
        ((), ()),
    ],
    ids=["signed-zeros", "nan-first", "nan-later", "nan-mixed", "inf-inf", "inf",
         "tolerance", "one-ulp-above", "empty"],
)
def test_float_measure_is_compare_bit_for_bit(xs, ys):
    holds, residual = APPROX.measure(xs, ys)
    want_holds, want_residual = APPROX.compare(xs, ys)
    assert type(holds) is bool and type(residual) is float
    assert (holds, residual.hex()) == (want_holds, want_residual.hex())


def test_float_measure_refuses_unequal_lengths():
    with pytest.raises(DimensionMismatch, match="vector lengths differ: 2 vs 1"):
        APPROX.measure((1.0, 1.0), (1.0,))


def test_require_same():
    with pytest.raises(BackendMismatch):
        EXACT.require_same(APPROX)
    EXACT.require_same(EXACT)
    # different tolerances are different backends
    with pytest.raises(BackendMismatch):
        approx(1e-9).require_same(approx(1e-6))


def test_require_same_takes_an_identical_backend_without_comparing():
    class Loud(Backend):
        def __eq__(self, other):
            raise AssertionError("compared")

        __hash__ = Backend.__hash__

    loud = Loud("approx", 1e-9)
    loud.require_same(loud)
    with pytest.raises(AssertionError, match="compared"):
        loud.require_same(APPROX)


def test_scalar_json_round_trip_exact():
    x = Fraction(-7, 3)
    encoded = scalar_to_json(x, EXACT)
    assert encoded == "-7/3"
    assert scalar_from_json(encoded, EXACT) == x


def test_scalar_json_round_trip_approx():
    encoded = scalar_to_json(0.25, APPROX)
    assert encoded == 0.25
    assert scalar_from_json(encoded, APPROX) == 0.25
    # fraction strings are accepted by the float backend too
    assert scalar_from_json("1/4", APPROX) == 0.25


def test_scalar_json_rejects_garbage():
    with pytest.raises(ParseError):
        scalar_from_json("one half", EXACT)
    with pytest.raises(ParseError):
        scalar_from_json(True, EXACT)
    with pytest.raises(ParseError):
        scalar_from_json([1], APPROX)
    with pytest.raises(ParseError):
        scalar_from_json(0.5, EXACT)
