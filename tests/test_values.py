"""The value types keep the behaviour of the frozen records they are.

One table row per class: its constructor's fields in order, the
defaults, the exact ``repr``, the fields ``==`` and ``hash`` read, and
whether it is frozen.  Assigning or deleting an attribute of a frozen
value raises ``dataclasses.FrozenInstanceError`` with the record's
message.
"""

import importlib
import pkgutil
import time
from dataclasses import FrozenInstanceError
from types import SimpleNamespace
from unittest.mock import ANY

import pytest

import basiskit
from basiskit.bases import (
    Basis,
    CoordinateRepCheckReport,
    CoordinateVector,
    StandardCoordinates,
    VectorSpace,
)
from basiskit.errors import BasiskitError, DimensionMismatch
from basiskit.groups import AffineTransform, GroupElement, cyclic_group
from basiskit.matrices import Matrix
from basiskit.objects import GeometricalObject, TypeAFunctor
from basiskit.records import Frozen, Record
from basiskit.reports import CheckLine, RunReport
from basiskit.representations import (
    ClassificationReport,
    Orbit,
    OrbitPartitionReport,
    SameSideWitness,
    VarianceVerdict,
    Verdict,
)
from basiskit.scalars import APPROX, EXACT, Backend

Z3 = cyclic_group(3)
E0, E1, E2 = Z3.store
I2 = Matrix(((1, 0), (0, 1)), EXACT)
PLANE = VectorSpace("central_affine", 2, EXACT)
FRAME = Basis(PLANE, ((1, 0), (0, 1)))
FUNCTOR = TypeAFunctor("fundamental")
PASS = Verdict(True)
I2_REPR = "Matrix(entries=((1, 0), (0, 1)), backend=Backend(kind='exact', tolerance=0.0))"
PLANE_REPR = ("VectorSpace(kind='central_affine', dim=2, "
              "backend=Backend(kind='exact', tolerance=0.0), signature=None)")
FRAME_REPR = f"Basis(space={PLANE_REPR}, vectors=((1, 0), (0, 1)), origin=None)"


def row(cls, fields, args, text, *, defaults=(), required=None, compared=None, others=None,
        frozen=True):
    """A table row: ``cls(*args)`` has the init ``fields`` in order, the
    last ``len(defaults)`` of them defaulted to ``defaults`` when only the
    ``required`` arguments are given (the leading ``args`` by default),
    and ``repr`` ``text``; ``compared`` names the fields ``==`` and
    ``hash`` read, all of them by default.  ``others[i]`` is a different
    value the field ``i`` may take on its own, ``"other"`` by default and
    ``None`` where no other value passes the constructor's checks."""
    if required is None:
        required = args[: len(fields) - len(defaults)]
    return pytest.param(
        SimpleNamespace(cls=cls, fields=fields, args=args, text=text, defaults=defaults,
                        required=required,
                        compared=fields if compared is None else compared,
                        others=others or ("other",) * len(fields), frozen=frozen),
        id=cls.__name__,
    )


ROWS = [
    row(Backend, ("kind", "tolerance"), ("approx", 1e-06),
        "Backend(kind='approx', tolerance=1e-06)", defaults=(0.0,), required=("exact",),
        others=(None, 0.001)),
    row(Matrix, ("entries", "backend"), (((1, 0), (0, 1)), EXACT), I2_REPR),
    row(GroupElement, ("group", "payload"), (Z3, 1), "<1>", others=(cyclic_group(3), 2)),
    row(AffineTransform, ("linear", "translation"), (I2, (0, 1)),
        f"AffineTransform(linear={I2_REPR}, translation=(0, 1))",
        others=(Matrix(((2, 0), (0, 2)), EXACT), (1, 1))),
    row(TypeAFunctor, ("tag", "power", "parts", "table"), ("table", 2, (FUNCTOR,), (I2,)),
        "TypeAFunctor(tag='table', power=2, parts=(TypeAFunctor(tag='fundamental', power=None, "
        f"parts=None, table=None),), table=({I2_REPR},))", defaults=(None, None, None),
        required=("identity",), others=("identity", 3, (), (I2, I2))),
    row(GeometricalObject, ("functor", "coords", "anchor", "w_basis"), (FUNCTOR, (1, 2), FRAME, I2),
        "GeometricalObject(functor=TypeAFunctor(tag='fundamental', power=None, parts=None, "
        f"table=None), coords=(1, 2), anchor={FRAME_REPR}, w_basis={I2_REPR})"),
    row(VectorSpace, ("kind", "dim", "backend", "signature"), ("pseudo_euclid", 2, APPROX, (1, 1)),
        "VectorSpace(kind='pseudo_euclid', dim=2, backend=Backend(kind='approx', "
        "tolerance=1e-09), signature=(1, 1))", defaults=(None,),
        required=("central_affine", 2, APPROX), others=(None, None, EXACT, (0, 2))),
    row(Basis, ("space", "vectors", "origin"), (PLANE, ((1, 0), (0, 1)), (0, 0)),
        f"Basis(space={PLANE_REPR}, vectors=((1, 0), (0, 1)), origin=(0, 0))", defaults=(None,)),
    row(StandardCoordinates, ("grid", "basis", "reference"), (I2, FRAME, FRAME),
        f"StandardCoordinates(grid={I2_REPR}, basis={FRAME_REPR}, reference={FRAME_REPR})"),
    row(CoordinateVector, ("components", "basis"), ((1, 2), FRAME),
        f"CoordinateVector(components=(1, 2), basis={FRAME_REPR})"),
    row(CoordinateRepCheckReport, ("composition", "effectiveness"), (PASS, Verdict(False)),
        "CoordinateRepCheckReport(composition=Verdict(passed=True, mode='', checked=0, "
        "counterexample=None, residual_max=None, detail=''), effectiveness=Verdict(passed=False, "
        "mode='', checked=0, counterexample=None, residual_max=None, detail=''))"),
    row(Verdict, ("passed", "mode", "checked", "counterexample", "residual_max", "detail"),
        (False, "sampled(4)", 4, (1, 2), 0.5, "note"),
        "Verdict(passed=False, mode='sampled(4)', checked=4, counterexample=(1, 2), "
        "residual_max=0.5, detail='note')", defaults=("", 0, None, None, "")),
    row(VarianceVerdict,
        ("verdict", "mode", "homomorphism_witness", "antihomomorphism_witness", "checked"),
        ("covariant", "exhaustive", None, (1, 2), 9),
        "VarianceVerdict(verdict='covariant', mode='exhaustive', homomorphism_witness=None, "
        "antihomomorphism_witness=(1, 2), checked=9)", defaults=(None, None, 0)),
    row(ClassificationReport,
        ("kernel", "effective", "transitive", "unreachable_pair", "single_transitive",
         "unique_transport", "uniqueness_agrees"),
        ((0,), True, False, (0, 1), False, True, True),
        "ClassificationReport(kernel=(0,), effective=True, transitive=False, "
        "unreachable_pair=(0, 1), single_transitive=False, unique_transport=True, "
        "uniqueness_agrees=True)"),
    row(Orbit, ("base", "points", "witnesses", "index"), (0, (0, 1), ((0, E0), (1, E1)), "index"),
        "Orbit(base=0, points=(0, 1), witnesses=((0, <0>), (1, <1>)))",
        compared=("base", "points", "witnesses")),
    row(OrbitPartitionReport,
        ("passed", "mode", "checked", "counterexample", "residual_max", "detail", "orbits"),
        (True, "exhaustive", 3, None, None, "", ((0,), (1, 2))),
        "OrbitPartitionReport(passed=True, mode='exhaustive', checked=3, counterexample=None, "
        "residual_max=None, detail='', orbits=((0,), (1, 2)))",
        defaults=("", 0, None, None, "", ())),
    row(SameSideWitness,
        ("a", "b", "origin", "point", "same_side_value", "required_value", "conjugate"),
        (E1, E2, E0, E2, E0, E0, E1),
        "SameSideWitness(a=<1>, b=<2>, origin=<0>, point=<2>, same_side_value=<0>, "
        "required_value=<0>, conjugate=<1>)"),
    row(CheckLine, ("name", "verdict"), ("axioms", PASS),
        "CheckLine(name='axioms', verdict=Verdict(passed=True, mode='', checked=0, "
        "counterexample=None, residual_max=None, detail=''))", frozen=False),
    row(RunReport, ("command", "checks", "data", "started"), ("repcheck", [], {"n": 1}, 2.5),
        "RunReport(command='repcheck', checks=[], data={'n': 1}, started=2.5)",
        defaults=([], {}, ANY), frozen=False),
]


def test_the_table_has_every_value_type():
    assert len(ROWS) == 19


def values(x, names):
    return tuple(getattr(x, name) for name in names)


@pytest.mark.parametrize("case", ROWS)
def test_construction_by_position_and_by_keyword(case):
    by_position = case.cls(*case.args)
    by_keyword = case.cls(**dict(zip(case.fields, case.args)))
    assert values(by_position, case.fields) == values(by_keyword, case.fields) == case.args
    assert list(vars(by_position))[: len(case.fields)] == list(case.fields)
    with pytest.raises(TypeError):
        case.cls(*case.args, None)
    # the trailing fields take their defaults
    defaulted = case.cls(*case.required)
    assert values(defaulted, case.fields[len(case.required) :]) == case.defaults
    with pytest.raises(TypeError):
        case.cls(*case.required[:-1])


@pytest.mark.parametrize("case", ROWS)
def test_repr(case):
    assert repr(case.cls(*case.args)) == case.text


@pytest.mark.parametrize("case", ROWS)
def test_equality_reads_the_compared_fields_of_the_same_class(case):
    x = case.cls(*case.args)
    assert x == case.cls(*case.args) and not x != case.cls(*case.args)
    for i, (name, value) in enumerate(zip(case.fields, case.others)):
        if value is not None:
            other = case.cls(*case.args[:i], value, *case.args[i + 1 :])
            assert (x == other) is (name not in case.compared), name
    # an object with the same attributes is another class
    assert x != SimpleNamespace(**vars(x))
    if case.cls is not GroupElement:
        assert x.__eq__(SimpleNamespace(**vars(x))) is NotImplemented


def test_a_verdict_never_equals_an_orbit_partition_report():
    assert Verdict(True) != OrbitPartitionReport(True)
    assert OrbitPartitionReport(True) != Verdict(True)
    assert Verdict(True).__eq__(OrbitPartitionReport(True)) is NotImplemented


def test_a_value_holding_a_nan_equals_itself():
    nan = float("nan")
    verdict = Verdict(False, "sampled(1)", 1, None, nan)
    assert verdict == verdict and verdict == Verdict(False, "sampled(1)", 1, None, nan)
    assert verdict != Verdict(False, "sampled(1)", 1, None, float("nan"))
    grid = Matrix(((nan,),), APPROX)
    assert grid == grid and hash(grid) == hash((((nan,),), APPROX))


def record_types():
    """Every :class:`Record` subclass the package defines, after each of
    its modules is imported."""
    for module in pkgutil.iter_modules(basiskit.__path__):
        importlib.import_module(f"basiskit.{module.name}")
    found, stack = [], list(Record.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("basiskit.") and cls is not Frozen:
            found.append(cls)
    return found


def test_equality_and_hash_come_from_the_fields_alone():
    written_out = set()
    for cls in record_types():
        if cls._fields:
            # one field would make ``_values`` a bare value, not a tuple
            assert len(cls._fields) >= 2, cls
            assert "__eq__" not in vars(cls), cls
            assert "__hash__" not in vars(cls) or cls is Matrix, cls
        else:
            assert "__eq__" in vars(cls) and "__hash__" in vars(cls), cls
            written_out.add(cls)
    assert written_out == {GroupElement}


def test_group_elements_compare_by_group_and_payload():
    assert GroupElement(Z3, 1) == E1 and GroupElement(cyclic_group(3), 1) != E1
    assert hash(GroupElement(Z3, 1)) == hash((id(Z3), 1))


@pytest.mark.parametrize("case", ROWS)
def test_hash_is_the_hash_of_the_compared_fields(case):
    x = case.cls(*case.args)
    if case.frozen and case.cls is not GroupElement:
        assert hash(x) == hash(values(x, case.compared))
    elif not case.frozen:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(x)


@pytest.mark.parametrize("case", ROWS)
def test_frozen_values_refuse_assignment_and_deletion(case):
    x = case.cls(*case.args)
    for name in (case.fields[0], "extra"):
        if not case.frozen:
            setattr(x, name, "new")
            assert getattr(x, name) == "new"
            delattr(x, name)
            continue
        with pytest.raises(FrozenInstanceError) as raised:
            setattr(x, name, "new")
        assert str(raised.value) == f"cannot assign to field {name!r}"
        with pytest.raises(FrozenInstanceError) as raised:
            delattr(x, name)
        assert str(raised.value) == f"cannot delete field {name!r}"
    if case.frozen:
        assert values(x, case.fields) == case.args


def test_fields_left_out_of_repr_and_equality():
    assert EXACT.is_exact and not APPROX.is_exact and Backend("exact").is_exact
    assert list(vars(Backend("approx", 0.5))) == ["kind", "tolerance", "is_exact"]
    assert Orbit(0, (0,), (), "one index") == Orbit(0, (0,), (), "another")
    assert Orbit(0, (0,), (), "one index").index == "one index"


def test_run_report_defaults_are_fresh_per_report():
    before = time.monotonic()
    first, second = RunReport("a"), RunReport("b")
    assert first.checks == second.checks == [] and first.checks is not second.checks
    assert first.data == second.data == {} and first.data is not second.data
    assert before <= first.started <= second.started <= time.monotonic()


def test_a_euclid_space_fills_in_its_signature():
    assert VectorSpace("euclid", 3, EXACT).signature == (3, 0)
    assert VectorSpace("euclid", 3, EXACT, (3, 0)) == VectorSpace("euclid", 3, EXACT)
    assert repr(VectorSpace("euclid", 1, EXACT)) == (
        "VectorSpace(kind='euclid', dim=1, backend=Backend(kind='exact', tolerance=0.0), "
        "signature=(1, 0))"
    )


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Backend("float"), ValueError, "unknown backend kind 'float'"),
        (lambda: Backend("exact", 1e-9), ValueError, "exact backend takes no tolerance"),
        (lambda: Backend("approx"), ValueError, "approximate backend needs a positive finite tolerance"),
        (lambda: Backend("approx", -1.0), ValueError, "approximate backend needs a positive finite tolerance"),
        (lambda: Backend("approx", float("inf")), ValueError,
         "approximate backend needs a positive finite tolerance"),
        (lambda: Backend("approx", float("nan")), ValueError,
         "approximate backend needs a positive finite tolerance"),
        (lambda: VectorSpace("hyperbolic", 2, EXACT), BasiskitError, "unknown space kind 'hyperbolic'"),
        (lambda: VectorSpace("affine", 0, EXACT), BasiskitError, "space dimension must be positive"),
        (lambda: VectorSpace("pseudo_euclid", 2, EXACT), BasiskitError,
         "pseudo-euclid space of dimension 2 needs a signature (p, q) with q >= 1, got None"),
        (lambda: VectorSpace("pseudo_euclid", 2, EXACT, (2, 0)), BasiskitError,
         "pseudo-euclid space of dimension 2 needs a signature (p, q) with q >= 1, got (2, 0)"),
        (lambda: VectorSpace("euclid", 2, EXACT, (1, 1)), BasiskitError, "euclid signature must be (dim, 0)"),
        (lambda: VectorSpace("affine", 2, EXACT, (2, 0)), BasiskitError, "affine space takes no signature"),
        (lambda: TypeAFunctor("tensor"), BasiskitError, "unknown functor tag 'tensor'"),
        (lambda: TypeAFunctor("tensor_power"), BasiskitError, "tensor power needs a positive exponent"),
        (lambda: TypeAFunctor("tensor_power", 0), BasiskitError, "tensor power needs a positive exponent"),
        (lambda: TypeAFunctor("direct_sum", parts=()), BasiskitError, "direct sum needs at least one part"),
        (lambda: TypeAFunctor("table"), BasiskitError, "table functor needs its grids"),
        (lambda: AffineTransform(Matrix(((1, 0),), EXACT), (0,)), DimensionMismatch,
         "affine linear part must be square"),
        (lambda: AffineTransform(I2, (0,)), DimensionMismatch,
         "translation length does not match linear part"),
    ],
)
def test_constructors_validate_their_fields(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
