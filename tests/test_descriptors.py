"""JSON descriptor parsing and emission."""

import json
from fractions import Fraction

import pytest

from basiskit.descriptors import (
    basis_from_descriptor,
    basis_to_descriptor,
    element_from_descriptor,
    element_to_descriptor,
    functor_from_descriptor,
    functor_to_descriptor,
    group_from_descriptor,
    group_to_descriptor,
    load_json,
    object_from_descriptor,
    object_to_descriptor,
    point_from_descriptor,
    representation_from_descriptor,
    to_jsonable,
)
from basiskit.errors import (
    BasiskitError,
    CayleyTableError,
    MembershipError,
    ParseError,
)
from basiskit.groups import MatrixGroup, cyclic_group, quaternion_group
from basiskit.matrices import Matrix
from basiskit.objects import (
    GeometricalObject,
    direct_sum_functor,
    fundamental_functor,
    table_functor,
)
from basiskit.representations import check_axioms
from basiskit.scalars import EXACT

F = Fraction


# -- groups ---------------------------------------------------------------------


def test_finite_group_round_trip():
    d = group_to_descriptor(cyclic_group(3))
    group = group_from_descriptor(d)
    assert group.order == 3
    assert group_to_descriptor(group) == d


def test_finite_group_minimal_descriptor():
    group = group_from_descriptor({"kind": "finite", "table": [[0, 1], [1, 0]]})
    assert group.order == 2
    assert group.identity_index == 0


def test_finite_group_identity_cross_check():
    with pytest.raises(ParseError):
        group_from_descriptor(
            {"kind": "finite", "table": [[0, 1], [1, 0]], "identity": 1}
        )


def test_finite_group_bad_table():
    with pytest.raises(CayleyTableError):
        group_from_descriptor({"kind": "finite", "table": [[0, 1], [1, 7]]})


def test_matrix_group_round_trip():
    d = {
        "kind": "matrix",
        "family": "GL",
        "dim": 2,
        "elements": [[1, 0, 0, 1], ["1/2", 0, 0, 2]],
    }
    group = group_from_descriptor(d)
    assert len(group.store) == 2
    assert group.store[1].payload.entries[0][0] == F(1, 2)
    emitted = group_to_descriptor(group)
    assert emitted["elements"] == [[1, 0, 0, 1], ["1/2", 0, 0, 2]]
    assert group_to_descriptor(group_from_descriptor(emitted)) == emitted


def test_matrix_group_membership_enforced():
    with pytest.raises(MembershipError):
        group_from_descriptor(
            {"kind": "matrix", "family": "SL", "dim": 2, "elements": [[2, 0, 0, 1]]}
        )


def test_matrix_group_generators_close():
    d = {
        "kind": "matrix",
        "family": "GL",
        "dim": 2,
        "generators": [[0, -1, 1, 0]],
    }
    group = group_from_descriptor(d)
    assert len(group.store) == 4


def test_so_group_defaults_to_floats():
    d = {"kind": "matrix", "family": "SO", "dim": 2, "signature": [2, 0]}
    group = group_from_descriptor(d)
    assert not group.backend.is_exact
    emitted = group_to_descriptor(group)
    assert emitted["signature"] == [2, 0]


def test_affine_group_round_trip():
    d = {
        "kind": "affine",
        "dim": 2,
        "elements": [{"P": [[0, -1], [1, 0]], "R": [1, 1]}],
    }
    group = group_from_descriptor(d)
    emitted = group_to_descriptor(group)
    assert emitted == d
    assert group.store[0].payload.translation == (F(1), F(1))


def test_group_unknown_kind():
    with pytest.raises(ParseError):
        group_from_descriptor({"kind": "ring"})


def test_group_missing_field():
    with pytest.raises(ParseError):
        group_from_descriptor({"kind": "matrix", "family": "GL"})


def test_flat_element_length_checked():
    with pytest.raises(ParseError):
        group_from_descriptor(
            {"kind": "matrix", "family": "GL", "dim": 2, "elements": [[1, 0, 0]]}
        )


# -- elements --------------------------------------------------------------------


def test_finite_element_accepts_bare_index():
    z3 = cyclic_group(3)
    g = element_from_descriptor(2, z3)
    assert g.payload == 2
    assert element_to_descriptor(g) == {"index": 2}


def test_finite_element_range_checked():
    with pytest.raises(ParseError):
        element_from_descriptor({"index": 9}, cyclic_group(3))


def test_named_element_keeps_its_name():
    q8 = quaternion_group()
    g = next(g for g in q8.store if g.name == "k")
    d = element_to_descriptor(g)
    assert d["name"] == "k"
    assert element_from_descriptor(d, q8).eq_to(g)


def test_matrix_element_round_trip():
    gl2 = MatrixGroup.general_linear(2)
    d = {"matrix": [[1, "1/3"], [0, 1]]}
    g = element_from_descriptor(d, gl2)
    assert element_to_descriptor(g) == d


def test_affine_element_round_trip():
    aff = MatrixGroup.affine(2)
    d = {"P": [[1, 0], [0, 1]], "R": [3, "-1/2"]}
    g = element_from_descriptor(d, aff)
    assert element_to_descriptor(g) == d


# -- representations ---------------------------------------------------------------


def shift_descriptor(side):
    return {
        "group": {"kind": "finite", "table": group_to_descriptor(cyclic_group(3))["table"]},
        "side": side,
        "carrier": {"kind": "self"},
        "assign": {"kind": f"shift-{side}"},
    }


def test_shift_representation_parses():
    rep = representation_from_descriptor(shift_descriptor("left"))
    assert rep.side == "left"
    assert check_axioms(rep).passed


def test_shift_side_is_enforced():
    d = shift_descriptor("left")
    d["side"] = "right"
    with pytest.raises(ParseError):
        representation_from_descriptor(d)


def test_shift_needs_self_carrier():
    d = shift_descriptor("left")
    d["carrier"] = {"kind": "finite", "size": 3}
    with pytest.raises(ParseError):
        representation_from_descriptor(d)


def test_permutation_table_representation():
    d = {
        "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
        "side": "left",
        "carrier": {"kind": "finite", "size": 3},
        "assign": {"kind": "permutation-table", "table": [[0, 1, 2], [1, 0, 2]]},
    }
    rep = representation_from_descriptor(d)
    g = rep.group.element(1)
    assert rep.apply(g, 0) == 1
    assert rep.apply(g, 2) == 2
    assert check_axioms(rep).passed


def test_permutation_table_validated():
    d = {
        "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
        "side": "left",
        "carrier": {"kind": "finite", "size": 3},
        "assign": {"kind": "permutation-table", "table": [[0, 1, 2], [1, 1, 2]]},
    }
    with pytest.raises(ParseError):
        representation_from_descriptor(d)


def test_linear_representation_from_tables():
    d = {
        "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
        "side": "left",
        "carrier": {"kind": "coords", "dim": 2, "layout": "column"},
        "assign": {"kind": "linear", "matrices": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]},
    }
    rep = representation_from_descriptor(d)
    g = rep.group.element(1)
    assert rep.apply(g, (2, 3)) == (F(2), F(-3))
    assert check_axioms(rep).passed


def test_linear_representation_natural_action():
    d = {
        "group": {
            "kind": "matrix",
            "family": "GL",
            "dim": 2,
            "elements": [[1, 0, 0, 1], [1, 1, 0, 1]],
        },
        "side": "left",
        "carrier": {"kind": "coords", "dim": 2, "layout": "column"},
        "assign": {"kind": "linear"},
    }
    rep = representation_from_descriptor(d)
    g = rep.group.store[1]
    assert rep.apply(g, (1, 1)) == (F(2), F(1))


def test_linear_carrier_dim_must_match_group():
    d = {
        "group": {"kind": "matrix", "family": "GL", "dim": 2},
        "side": "left",
        "carrier": {"kind": "coords", "dim": 3, "layout": "column"},
        "assign": {"kind": "linear"},
    }
    with pytest.raises(ParseError):
        representation_from_descriptor(d)


def test_trivial_representation():
    d = {
        "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
        "side": "left",
        "carrier": {"kind": "finite", "size": 2},
        "assign": {"kind": "trivial"},
    }
    rep = representation_from_descriptor(d)
    g = rep.group.element(1)
    assert rep.apply(g, 0) == 0
    assert check_axioms(rep).passed


def test_unknown_assign_kind():
    d = shift_descriptor("left")
    d["assign"] = {"kind": "antilinear"}
    with pytest.raises(ParseError):
        representation_from_descriptor(d)


def test_bad_side_string():
    d = shift_descriptor("left")
    d["side"] = "middle"
    with pytest.raises(ParseError):
        representation_from_descriptor(d)


# -- points ------------------------------------------------------------------------


def test_points_by_carrier():
    rep = representation_from_descriptor(
        {
            "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
            "side": "left",
            "carrier": {"kind": "finite", "size": 4},
            "assign": {"kind": "trivial"},
        }
    )
    assert point_from_descriptor(3, rep.carrier) == 3
    # the form is parsed here; whether the point lies in the carrier is
    # the carrier's to decide
    assert point_from_descriptor(4, rep.carrier) == 4
    assert not rep.carrier.contains(4)
    for raw in ("two", True, 1.0):
        with pytest.raises(ParseError):
            point_from_descriptor(raw, rep.carrier)


def test_coordinate_point():
    rep = representation_from_descriptor(
        {
            "group": {"kind": "matrix", "family": "GL", "dim": 2},
            "side": "left",
            "carrier": {"kind": "coords", "dim": 2, "layout": "column"},
            "assign": {"kind": "linear"},
        }
    )
    assert point_from_descriptor(["1/2", 3], rep.carrier) == (F(1, 2), F(3))


def test_self_carrier_point():
    rep = representation_from_descriptor(shift_descriptor("left"))
    p = point_from_descriptor({"index": 2}, rep.carrier)
    assert p.payload == 2


# -- bases --------------------------------------------------------------------------


def test_basis_round_trip_exact():
    d = {
        "space": {"kind": "central_affine", "dim": 2},
        "vectors": [[1, "1/2"], [0, 1]],
    }
    b = basis_from_descriptor(d)
    assert b.vectors[0] == (F(1), F(1, 2))
    assert basis_to_descriptor(b) == d


def test_basis_round_trip_euclid():
    d = {
        "space": {"kind": "euclid", "dim": 2},
        "vectors": [[1.0, 0.0], [0.0, 1.0]],
    }
    b = basis_from_descriptor(d)
    assert not b.space.backend.is_exact
    assert basis_to_descriptor(b) == d


def test_basis_round_trip_affine_origin():
    d = {
        "space": {"kind": "affine", "dim": 2},
        "vectors": [[1, 0], [0, 1]],
        "origin": [5, 7],
    }
    b = basis_from_descriptor(d)
    assert b.origin == (F(5), F(7))
    assert basis_to_descriptor(b) == d


def test_basis_round_trip_signature():
    d = {
        "space": {"kind": "pseudo_euclid", "dim": 2, "signature": [1, 1]},
        "vectors": [[1.0, 0.0], [0.0, 1.0]],
    }
    assert basis_to_descriptor(basis_from_descriptor(d)) == d


def test_degenerate_basis_is_a_parse_error():
    with pytest.raises(ParseError):
        basis_from_descriptor(
            {"space": {"kind": "euclid", "dim": 2}, "vectors": [[1, 0], [2, 0]]}
        )


# -- functors and objects --------------------------------------------------------------


@pytest.mark.parametrize(
    "d",
    [
        {"tag": "identity"},
        {"tag": "fundamental"},
        {"tag": "dual"},
        {"tag": "tensor_power", "k": 3},
        {
            "tag": "direct_sum",
            "parts": [{"tag": "fundamental"}, {"tag": "tensor_power", "k": 2}],
        },
    ],
)
def test_functor_round_trip(d):
    assert functor_to_descriptor(functor_from_descriptor(d)) == d


def test_a_table_functor_is_not_written_without_its_grids():
    # {"tag": "table"} would not parse back; the emitter says so instead
    z2 = cyclic_group(2)
    table = table_functor(z2, [Matrix.identity(1, EXACT), Matrix.from_rows([[-1]], EXACT)])
    for functor in (table, direct_sum_functor(fundamental_functor(), table)):
        with pytest.raises(BasiskitError, match="table functor"):
            functor_to_descriptor(functor)


def test_unknown_functor_tag():
    with pytest.raises(ParseError):
        functor_from_descriptor({"tag": "spinor"})


def test_object_round_trip():
    d = {
        "functor": {"tag": "dual"},
        "coords": [1, "2/3"],
        "anchor": {
            "space": {"kind": "central_affine", "dim": 2},
            "vectors": [[1, 0], [0, 1]],
        },
    }
    obj = object_from_descriptor(d)
    assert obj.coords == (F(1), F(2, 3))
    assert object_to_descriptor(obj) == d


def test_object_round_trip_with_w_basis():
    d = {
        "functor": {"tag": "fundamental"},
        "coords": [5, 7],
        "anchor": {
            "space": {"kind": "central_affine", "dim": 2},
            "vectors": [[1, 0], [0, 1]],
        },
        "w_basis": [[0, 1], [1, 0]],
    }
    obj = object_from_descriptor(d)
    assert object_to_descriptor(obj) == d


def test_object_coordinate_count_checked():
    with pytest.raises(ParseError):
        object_from_descriptor(
            {
                "functor": {"tag": "fundamental"},
                "coords": [1, 2, 3],
                "anchor": {
                    "space": {"kind": "central_affine", "dim": 2},
                    "vectors": [[1, 0], [0, 1]],
                },
            }
        )


# -- files and report payloads ------------------------------------------------------------


def test_load_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "finite", "table": [[0]]}))
    assert load_json(str(path)) == {"kind": "finite", "table": [[0]]}
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        load_json(str(bad))


def test_load_json_inline():
    assert load_json('{"kind": "finite", "table": [[0]]}') == {
        "kind": "finite",
        "table": [[0]],
    }
    assert load_json(" [1, 2]") == [1, 2]
    with pytest.raises(ParseError, match="inline"):
        load_json("{nope")


def test_to_jsonable_covers_the_artifacts():
    z3 = cyclic_group(3)
    gl2 = MatrixGroup.general_linear(2)
    from basiskit.bases import Basis, VectorSpace

    basis = Basis.make(VectorSpace("central_affine", 2, EXACT), [[1, 0], [0, 1]])
    obj = GeometricalObject.make(fundamental_functor(), [1, 2], basis)
    rendered = to_jsonable(
        {
            "fraction": F(-7, 3),
            "element": z3.element(1),
            "grid": Matrix.from_rows([[1, 2], [3, 4]], EXACT),
            "basis": basis,
            "object": obj,
            "mixed": [True, None, 1.5, (F(1, 2),)],
        }
    )
    assert rendered["fraction"] == "-7/3"
    assert rendered["element"] == {"index": 1}
    assert rendered["grid"] == [[1, 2], [3, 4]]
    assert rendered["mixed"] == [True, None, 1.5, ["1/2"]]
    json.dumps(rendered)
