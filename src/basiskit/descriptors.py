"""JSON descriptors for groups, representations, bases and objects.

Exact scalars travel as ``"num/den"`` strings, float scalars as JSON
numbers.  Every descriptor this module can emit it can parse back to an
equal descriptor, which is what the command line round-trip relies on.

This module checks the JSON shape of a descriptor and hands each value
to the library constructor that already checks it, so each input rule
is stated once.  Malformed input raises
:class:`~basiskit.errors.ParseError`, its message prefixed once with the
field it came from ("carrier: ...", "assign: row 2: ...").  Three library
errors pass through as they are: :class:`~basiskit.errors.CayleyTableError`
(a table that is no group), :class:`~basiskit.errors.MembershipError` (a
value outside its group) and :class:`~basiskit.errors.EnumerationCapExceeded`
(a closure or carrier over the cap).  Whether a point lies in its carrier
is the carrier's ``contains`` to decide.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .bases import Basis, VectorSpace
from .errors import (
    BasiskitError, CayleyTableError, EnumerationCapExceeded, MembershipError, ParseError
)
from .groups import (
    DEFAULT_CLOSURE_CAP,
    AffineTransform,
    FiniteGroup,
    GroupElement,
    MatrixGroup,
    validate_cayley_table,
)
from .matrices import Matrix
from .objects import GeometricalObject, TypeAFunctor
from .representations import (
    CoordCarrier,
    FiniteCarrier,
    LinearTransformation,
    MappingTransformation,
    Representation,
    SelfCarrier,
    left_shift,
    right_shift,
)
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    Backend,
    approx,
    scalar_from_json,
    scalar_to_json,
)

__all__ = [
    "inline_json",
    "load_json",
    "group_from_descriptor",
    "group_to_descriptor",
    "representation_from_descriptor",
    "basis_from_descriptor",
    "basis_to_descriptor",
    "object_from_descriptor",
    "object_to_descriptor",
    "element_from_descriptor",
    "element_to_descriptor",
    "gram_schmidt_input_from_descriptor",
    "functor_from_descriptor",
    "functor_to_descriptor",
    "to_jsonable",
]


def inline_json(text: str):
    """A JSON value given inline, as on the command line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"inline value is not valid JSON: {exc}") from exc


def load_json(path: str):
    """Read a JSON document from a file path, or from the string itself
    when it starts with ``{`` or ``[`` (inline descriptors on the command
    line)."""
    if path.lstrip()[:1] in ("{", "["):
        return inline_json(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


# The library errors that reach the caller as they are.
_PASSED = (CayleyTableError, MembershipError, EnumerationCapExceeded)


def _checked(context: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, the library constructor that checks the
    value; its errors but those of ``_PASSED`` raise as a
    :class:`ParseError` prefixed with ``context``."""
    try:
        return build(*args, **kwargs)
    except _PASSED:
        raise
    except BasiskitError as exc:
        raise ParseError(f"{context}: {exc}") from exc


def _need(d: dict, key: str, context: str):
    if not isinstance(d, dict) or key not in d:
        raise ParseError(f"{context}: missing field {key!r}")
    return d[key]


def _is_index(value) -> bool:
    """An integer index; JSON ``true``/``false`` are not indices."""
    return isinstance(value, int) and not isinstance(value, bool)


def _need_list(value, context: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{context}: expected a list, got {value!r}")
    return value


def _need_int(value, context: str) -> int:
    if not _is_index(value):
        raise ParseError(f"{context}: expected an integer, got {value!r}")
    return value


def _signature_from(value, context: str) -> Optional[tuple]:
    """A metric signature ``(p, q)``; ``None`` when absent."""
    if value is None:
        return None
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(_is_index(x) and x >= 0 for x in value)
    ):
        raise ParseError(f"{context}: expected [p, q] with p, q >= 0, got {value!r}")
    return tuple(value)


def _scalars_from(values: list, backend: Backend) -> tuple:
    return tuple(scalar_from_json(v, backend) for v in values)


def _vector_from(values, backend: Backend, context: str) -> tuple:
    if not isinstance(values, list):
        raise ParseError(f"{context}: expected a list of scalars")
    return _checked(context, _scalars_from, values, backend)


def _vector_out(values, backend: Backend) -> list:
    return [scalar_to_json(v, backend) for v in values]


def _matrix_from(rows, backend: Backend, context: str) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{context}: expected a list of rows")
    def build():
        return Matrix.from_rows([[scalar_from_json(x, backend) for x in r] for r in rows], backend)

    return _checked(context, build)


def _matrix_out(m: Matrix) -> list:
    return [[scalar_to_json(x, m.backend) for x in row] for row in m.entries]


def _flat_matrix_from(values, dim: int, backend: Backend, context: str) -> Matrix:
    if not isinstance(values, list) or len(values) != dim * dim:
        raise ParseError(f"{context}: expected {dim * dim} row-major scalars")
    scalars = _checked(context, _scalars_from, values, backend)
    rows = [scalars[i * dim : (i + 1) * dim] for i in range(dim)]
    return Matrix.from_rows(rows, backend)


def _flat_matrix_out(m: Matrix) -> list:
    return [scalar_to_json(x, m.backend) for row in m.entries for x in row]


def _affine_out(a: AffineTransform) -> dict:
    return {"P": _matrix_out(a.linear), "R": _vector_out(a.translation, a.backend)}


# -- groups -------------------------------------------------------------------


def group_from_descriptor(
    d: dict,
    backend: Optional[Backend] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    cap: int = DEFAULT_CLOSURE_CAP,
):
    kind = _need(d, "kind", "group")
    if kind == "finite":
        table = _need(d, "table", "finite group")
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            raise ParseError("finite group: table must be a list of rows")
        names = d.get("names")
        if names is not None and not all(
            isinstance(x, str) for x in _need_list(names, "finite group: names")
        ):
            raise ParseError("finite group: names must be strings")
        group = _checked("finite group", validate_cayley_table, table, names=names)
        declared = d.get("identity")
        if declared is not None and (
            _need_int(declared, "finite group: identity") != group.identity_index
        ):
            raise ParseError(
                f"finite group: declared identity {declared}, "
                f"table gives {group.identity_index}"
            )
        return group
    if kind in ("matrix", "affine"):
        dim = _need_int(_need(d, "dim", f"{kind} group"), f"{kind} group: dim")
        if dim < 1:
            raise ParseError(f"{kind} group: bad dimension {dim!r}")
        if kind == "affine":
            family = "AFFINE"
            signature = None
        else:
            family = _need(d, "family", "matrix group")
            if family not in ("GL", "SL", "SO"):
                raise ParseError(f"matrix group: unknown family {family!r}")
            signature = _signature_from(d.get("signature"), "matrix group: signature")
        if "elements" in d and "generators" in d:
            raise ParseError(f"{kind} group: give elements or generators, not both")
        if backend is None:
            backend = approx(tolerance) if family == "SO" else EXACT
        payloads = None
        if "elements" in d:
            payloads = [
                _element_payload(e, family, dim, backend, f"{kind} group element")
                for e in _need_list(d["elements"], f"{kind} group: elements")
            ]
        group = _checked(
            f"{kind} group", MatrixGroup, family, dim, backend,
            signature=signature, elements=payloads,
        )
        if "generators" in d:
            gens = [
                _element_payload(e, family, dim, backend, f"{kind} group generator")
                for e in _need_list(d["generators"], f"{kind} group: generators")
            ]
            group.close_over(gens, cap=cap)
        return group
    raise ParseError(f"group: unknown kind {kind!r}")


def _element_payload(e, family: str, dim: int, backend: Backend, context: str):
    if family == "AFFINE":
        linear = _matrix_from(_need(e, "P", context), backend, context)
        shift = _vector_from(_need(e, "R", context), backend, context)
        return _checked(context, AffineTransform, linear, shift)
    return _flat_matrix_from(e, dim, backend, context)


def group_to_descriptor(group) -> dict:
    if isinstance(group, FiniteGroup):
        d = {
            "kind": "finite",
            "table": [list(row) for row in group.table],
            "identity": group.identity_index,
        }
        if group.names is not None:
            d["names"] = list(group.names)
        return d
    if group.family == "AFFINE":
        d = {"kind": "affine", "dim": group.dim}
        if group.store is not None:
            d["elements"] = [_affine_out(g.payload) for g in group.store]
        return d
    d = {"kind": "matrix", "family": group.family, "dim": group.dim}
    if group.family == "SO":
        d["signature"] = list(group.signature)
    if group.store is not None:
        d["elements"] = [_flat_matrix_out(g.payload) for g in group.store]
    return d


# -- elements ----------------------------------------------------------------


def element_from_descriptor(d, group) -> GroupElement:
    """An element given inline: ``{"index": i}``, ``{"matrix": rows}``,
    or ``{"P": rows, "R": shift}``."""
    if isinstance(group, FiniteGroup):
        if not isinstance(d, dict):
            d = {"index": d}
        index = _need(d, "index", "element")
        if not _is_index(index):
            raise ParseError(f"element: bad index {index!r}")
        return _checked("element", group.element, index)
    if group.family == "AFFINE":
        payload = _element_payload(d, "AFFINE", group.dim, group.backend, "element")
    else:
        rows = _need(d, "matrix", "element")
        payload = _matrix_from(rows, group.backend, "element")
    return group.element(payload)


def element_to_descriptor(g: GroupElement) -> dict:
    payload = g.payload
    if isinstance(payload, int):
        d = {"index": payload}
        name = g.name
        if name != str(payload):
            d["name"] = name
        return d
    if isinstance(payload, AffineTransform):
        return _affine_out(payload)
    return {"matrix": _matrix_out(payload)}


# -- representations ----------------------------------------------------------


def representation_from_descriptor(
    d: dict,
    backend: Optional[Backend] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> Representation:
    group = group_from_descriptor(
        _need(d, "group", "representation"), backend, tolerance, cap
    )
    side = _need(d, "side", "representation")
    carrier_d = _need(d, "carrier", "representation")
    carrier_kind = _need(carrier_d, "kind", "carrier")
    assign_d = _need(d, "assign", "representation")
    assign_kind = _need(assign_d, "kind", "assign")

    if assign_kind in ("shift-left", "shift-right"):
        if carrier_kind != "self":
            raise ParseError("shift assignments need the self carrier")
        expected_side = "left" if assign_kind == "shift-left" else "right"
        if side != expected_side:
            raise ParseError(f"{assign_kind} is a {expected_side}-side representation")
        return left_shift(group) if side == "left" else right_shift(group)

    if carrier_kind == "finite":
        size = _need_int(_need(carrier_d, "size", "carrier"), "carrier: size")
        if size > cap:
            raise EnumerationCapExceeded(f"finite carrier of {size} points exceeds the cap {cap}")
        carrier = _checked("carrier", FiniteCarrier, size)
    elif carrier_kind == "coords":
        dim = _need_int(_need(carrier_d, "dim", "carrier"), "carrier: dim")
        layout = _need(carrier_d, "layout", "carrier")
        carrier_backend = backend or getattr(group, "backend", EXACT)
        carrier = _checked("carrier", CoordCarrier, dim, layout, carrier_backend)
    elif carrier_kind == "self":
        carrier = SelfCarrier(group)
    else:
        raise ParseError(f"carrier: unknown kind {carrier_kind!r}")

    if assign_kind == "trivial":
        if isinstance(carrier, CoordCarrier):
            identity = Matrix.identity(carrier.dim, carrier.backend)
            fixed = LinearTransformation.trusted(carrier, identity)
        else:  # the identity row is a permutation by construction
            fixed = MappingTransformation.trusted(carrier, list(range(len(carrier.points()))))
        assign = lambda g: fixed
    elif assign_kind == "permutation-table":
        if not (isinstance(group, FiniteGroup) and isinstance(carrier, FiniteCarrier)):
            raise ParseError("permutation-table needs a finite group and a finite carrier")
        rows = _need(assign_d, "table", "assign")
        if not isinstance(rows, list) or len(rows) != group.order:
            raise ParseError(f"assign: expected {group.order} permutations")
        maps = [
            _checked(f"assign: row {i}", MappingTransformation, carrier,
                     _need_list(row, f"assign: row {i}"))
            for i, row in enumerate(rows)
        ]
        assign = lambda g: maps[g.payload]
    elif assign_kind == "linear":
        if not isinstance(carrier, CoordCarrier):
            raise ParseError("linear assignment needs a coordinate carrier")
        if isinstance(group, FiniteGroup):
            grids = _need(assign_d, "matrices", "assign")
            if not isinstance(grids, list) or len(grids) != group.order:
                raise ParseError(f"assign: expected {group.order} matrices")
            maps = [
                _checked(f"assign: matrix {i}", LinearTransformation, carrier,
                         _matrix_from(rows, carrier.backend, f"assign: matrix {i}"))
                for i, rows in enumerate(grids)
            ]
            assign = lambda g: maps[g.payload]
        else:
            if group.family == "AFFINE":
                raise ParseError("linear assignment needs a matrix group, not an affine one")
            if group.dim != carrier.dim:
                raise ParseError("linear assignment: carrier dimension differs from the group's")
            # membership decided that a member is invertible, and a
            # product or an inverse of members is one by construction
            assign = lambda g: LinearTransformation.trusted(carrier, g.payload)
    else:
        raise ParseError(f"assign: unknown kind {assign_kind!r}")
    return _checked(
        "representation", Representation, group, carrier, side, assign, label=assign_kind
    )


def point_from_descriptor(raw, carrier):
    """Interpret an inline JSON value as a carrier point.  Only its form is
    read here; whether it lies in the carrier is ``carrier.contains``'s to
    decide."""
    if isinstance(carrier, FiniteCarrier):
        return _need_int(raw, "point")
    if isinstance(carrier, CoordCarrier):
        return _vector_from(raw, carrier.backend, "point")
    if isinstance(carrier, SelfCarrier):
        return element_from_descriptor(raw, carrier.group)
    raise ParseError("point: this carrier has no JSON point form")


# -- spaces, bases ------------------------------------------------------------


def _space_from_descriptor(
    d: dict, backend: Optional[Backend], tolerance: float
) -> VectorSpace:
    kind = _need(d, "kind", "space")
    dim = _need_int(_need(d, "dim", "space"), "space: dim")
    signature = _signature_from(d.get("signature"), "space: signature")
    if backend is None:
        backend = approx(tolerance) if kind in ("euclid", "pseudo_euclid") else EXACT
    return _checked("space", VectorSpace, kind, dim, backend, signature=signature)


def basis_from_descriptor(
    d: dict, backend: Optional[Backend] = None, tolerance: float = DEFAULT_TOLERANCE
) -> Basis:
    space = _space_from_descriptor(_need(d, "space", "basis"), backend, tolerance)
    vectors_d = _need(d, "vectors", "basis")
    if not isinstance(vectors_d, list):
        raise ParseError("basis: vectors must be a list")
    vectors = [_vector_from(v, space.backend, "basis vector") for v in vectors_d]
    origin = None
    if d.get("origin") is not None:
        origin = _vector_from(d["origin"], space.backend, "basis origin")
    return _checked("basis", Basis.make, space, vectors, origin)


def basis_to_descriptor(b: Basis) -> dict:
    backend = b.space.backend
    space_d = {"kind": b.space.kind, "dim": b.space.dim}
    if b.space.kind == "pseudo_euclid":
        space_d["signature"] = list(b.space.signature)
    d = {
        "space": space_d,
        "vectors": [_vector_out(v, backend) for v in b.vectors],
    }
    if b.origin is not None:
        d["origin"] = _vector_out(b.origin, backend)
    return d


def gram_schmidt_input_from_descriptor(d) -> tuple:
    """``(vectors, signature)`` from ``{"signature": [p, q], "vectors": rows}``;
    the scalars are left to :func:`~basiskit.bases.gram_schmidt`."""
    if not isinstance(d, dict) or None in (d.get("signature"), d.get("vectors")):
        raise ParseError("gram-schmidt input needs 'signature' and 'vectors'")
    signature = _signature_from(d["signature"], "gram-schmidt signature")
    vectors = [
        _need_list(v, "gram-schmidt vector")
        for v in _need_list(d["vectors"], "gram-schmidt vectors")
    ]
    return vectors, signature


# -- functors, objects ---------------------------------------------------------


def functor_from_descriptor(d: dict) -> TypeAFunctor:
    tag = _need(d, "tag", "functor")
    if tag == "tensor_power":
        power = _need_int(_need(d, "k", "functor"), "functor: k")
        return _checked("functor", TypeAFunctor, tag, power=power)
    if tag == "direct_sum":
        parts = _need(d, "parts", "functor")
        if not isinstance(parts, list):
            raise ParseError("functor: parts must be a list")
        parts = tuple(functor_from_descriptor(p) for p in parts)
        return _checked("functor", TypeAFunctor, tag, parts=parts)
    return _checked("functor", TypeAFunctor, tag)


def functor_to_descriptor(f: TypeAFunctor) -> dict:
    if f.tag == "tensor_power":
        return {"tag": f.tag, "k": f.power}
    if f.tag == "direct_sum":
        return {"tag": f.tag, "parts": [functor_to_descriptor(p) for p in f.parts]}
    if f.tag == "table":
        # its grids are tied to one group's stored elements, which a
        # descriptor does not carry
        raise BasiskitError("a table functor has no descriptor: its grids belong to a stored group")
    return {"tag": f.tag}


def object_from_descriptor(
    d: dict, backend: Optional[Backend] = None, tolerance: float = DEFAULT_TOLERANCE
) -> GeometricalObject:
    functor = functor_from_descriptor(_need(d, "functor", "object"))
    anchor = basis_from_descriptor(_need(d, "anchor", "object"), backend, tolerance)
    be = anchor.space.backend
    coords = _vector_from(_need(d, "coords", "object"), be, "object coords")
    w_basis = None
    if d.get("w_basis") is not None:
        w_basis = _matrix_from(d["w_basis"], be, "object w_basis")
    return _checked("object", GeometricalObject.make, functor, coords, anchor, w_basis)


def object_to_descriptor(obj: GeometricalObject) -> dict:
    backend = obj.anchor.space.backend
    d = {
        "functor": functor_to_descriptor(obj.functor),
        "coords": _vector_out(obj.coords, backend),
        "anchor": basis_to_descriptor(obj.anchor),
    }
    if not obj.w_basis.is_identity():
        d["w_basis"] = _matrix_out(obj.w_basis)
    return d


# -- generic serialization for reports ------------------------------------------


def to_jsonable(value):
    """Render arbitrary check artifacts (witnesses, points) for a report."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return scalar_to_json(value, EXACT)
    if isinstance(value, GroupElement):
        return element_to_descriptor(value)
    if isinstance(value, Matrix):
        return _matrix_out(value)
    if isinstance(value, AffineTransform):
        return _affine_out(value)
    if isinstance(value, Basis):
        return basis_to_descriptor(value)
    if isinstance(value, GeometricalObject):
        return object_to_descriptor(value)
    if isinstance(value, (tuple, list)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    return repr(value)
