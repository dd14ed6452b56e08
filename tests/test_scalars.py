from fractions import Fraction

import pytest

from basiskit.errors import BackendMismatch, ParseError
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


def test_require_same():
    with pytest.raises(BackendMismatch):
        EXACT.require_same(APPROX)
    EXACT.require_same(EXACT)
    # different tolerances are different backends
    with pytest.raises(BackendMismatch):
        approx(1e-9).require_same(approx(1e-6))


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
