"""Command line behaviour: outputs, exit codes, determinism."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from basiskit.cli import build_parser, main


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def shift_rep(tmp_path, side="left"):
    return write(
        tmp_path,
        f"shift_{side}.json",
        {
            "group": {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
            "side": side,
            "carrier": {"kind": "self"},
            "assign": {"kind": f"shift-{side}"},
        },
    )


def euclid_basis(tmp_path, name, vectors):
    return write(
        tmp_path,
        name,
        {"space": {"kind": "euclid", "dim": 2}, "vectors": vectors},
    )


def quarter_turn_group(tmp_path):
    return write(
        tmp_path,
        "so2_quarters.json",
        {
            "kind": "matrix",
            "family": "SO",
            "dim": 2,
            "signature": [2, 0],
            "elements": [
                [1, 0, 0, 1],
                [0, -1, 1, 0],
                [-1, 0, 0, -1],
                [0, 1, -1, 0],
            ],
        },
    )


def vector_object(tmp_path):
    return write(
        tmp_path,
        "vec.json",
        {
            "functor": {"tag": "fundamental"},
            "coords": [1, 0],
            "anchor": {
                "space": {"kind": "central_affine", "dim": 2},
                "vectors": [[1, 0], [0, 1]],
            },
        },
    )


# -- repcheck ----------------------------------------------------------------


def test_repcheck_passes(tmp_path, capsys):
    code = main(["repcheck", "--input", shift_rep(tmp_path), "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["schema"] == "basiskit/1"
    assert out["status"] == "pass"
    names = [line["name"] for line in out["checks"]]
    assert names == ["axioms", "inverse-law", "variance"]
    assert out["data"]["classification"]["single_transitive"] is True


def test_repcheck_classification_carries_the_variance_verdict(tmp_path, capsys):
    # two sampled pairs of S3 do not tell the sides apart: at seed 6 the
    # pairs of the side law's two triples commute, so the variance line
    # says "both", and the classification repeats that verdict
    from basiskit.groups import symmetric_group

    path = write(
        tmp_path,
        "s3_left.json",
        {
            "group": {"kind": "finite", "table": [list(r) for r in symmetric_group(3).table]},
            "side": "left",
            "carrier": {"kind": "self"},
            "assign": {"kind": "shift-left"},
        },
    )
    argv = ["repcheck", "--input", path, "--sample", "sampled", "--samples", "2"]
    assert main(argv + ["--seed", "6", "--report", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    variance = next(c for c in out["checks"] if c["name"] == "variance")
    assert variance["detail"] == "verdict both, expected covariant"
    assert out["data"]["classification"]["variance"] == "both"


@pytest.mark.parametrize("side, per_pair", [("left", 1), ("right", 2)])
def test_repcheck_forms_each_composite_once(tmp_path, monkeypatch, side, per_pair):
    # one pass decides the side law and variance: on the left the side
    # law's composite, f(a) after f(s), is the product of variance, so each
    # pair forms one row; the right side law needs the other order too
    from basiskit import representations
    from basiskit.groups import symmetric_group

    s4 = symmetric_group(4)
    path = write(
        tmp_path,
        f"s4_{side}.json",
        {
            "group": {"kind": "finite", "table": [list(r) for r in s4.table]},
            "side": side,
            "carrier": {"kind": "self"},
            "assign": {"kind": f"shift-{side}"},
        },
    )
    formed = []
    after = representations._after
    monkeypatch.setattr(representations, "_after", lambda x, y: formed.append(1) or after(x, y))
    assert main(["repcheck", "--input", path, "--report", "json"]) == 0
    assert len(formed) == per_pair * s4.order * len(s4.generators)


def test_repcheck_with_a_singular_linear_matrix_is_exit_2(tmp_path, capsys):
    path = write(
        tmp_path,
        "z2_singular.json",
        {
            "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
            "side": "left",
            "carrier": {"kind": "coords", "dim": 2, "layout": "column"},
            "assign": {"kind": "linear", "matrices": [[[1, 0], [0, 1]], [[1, 2], [2, 4]]]},
        },
    )
    assert_one_line_error(main(["repcheck", "--input", path]), capsys)


def test_a_float_linear_gl_repcheck_takes_no_determinant_of_a_product(tmp_path, capsys, monkeypatch):
    # 1e-4 I is a member, so its square 1e-8 I is one too, though its
    # determinant 1e-16 is under the tolerance; only the stored elements
    # take a determinant, on entering the group
    from basiskit.matrices import Matrix

    doc = {
        "group": {"kind": "matrix", "family": "GL", "dim": 2,
                  "elements": [[1.0, 0.0, 0.0, 1.0], [1e-4, 0.0, 0.0, 1e-4]]},
        "side": "left",
        "carrier": {"kind": "coords", "dim": 2, "layout": "column"},
        "assign": {"kind": "linear"},
    }
    dets, det = [], Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda self: dets.append(self.flat) or det(self))
    code = main(["repcheck", "--input", write(tmp_path, "gl_small.json", doc), "--approx", "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(c["name"], c["passed"]) for c in out["checks"]] == [
        ("axioms", True), ("inverse-law", True), ("variance", True)
    ]
    assert dets == [(1.0, 0.0, 0.0, 1.0), (1e-4, 0.0, 0.0, 1e-4)]


def golden_job(folder, name):
    golden = Path(__file__).parent / "golden" / folder
    job = json.loads((golden / "expected.json").read_text(encoding="utf-8"))[name]
    return [str(golden / a) if a.endswith(".json") else a for a in job["argv"]], job


def test_float_so_linear_repchecks_take_no_determinant(tmp_path, capsys, monkeypatch):
    # SO membership decides M^T eta M = eta, and no product or inverse of
    # members takes a determinant: the golden SO(2) order-36 repcheck and
    # a closed SO(3) of order 24 take none
    from basiskit.matrices import Matrix

    dets, det = [], Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda self: dets.append(self) or det(self))
    argv, job = golden_job("float", "so2_order36_repcheck")
    assert main(argv) == job["rc"] == 0
    assert capsys.readouterr() == (job["stdout"], "")
    so3 = json.loads((Path(__file__).parent / "golden" / "float" / "so3_O_group.json").read_text())
    doc = {
        "group": so3,
        "side": "right",
        "carrier": {"kind": "coords", "dim": 3, "layout": "row"},
        "assign": {"kind": "linear"},
    }
    code = main(["repcheck", "--input", write(tmp_path, "so3_O_rep.json", doc), "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and all(c["passed"] for c in out["checks"])
    assert dets == []


@pytest.mark.parametrize(
    "name, runs",
    [
        ("so2_order12_orbit", 12),
        # one computed inverse equals a stored rotation bit for bit, so the
        # representation's cache hands it back as that rotation's grid: 36 + 1
        ("so2_order36_repcheck", 37),
        ("gl3_sum_orbit", 9),
    ],
)
def test_each_stored_matrix_is_inverted_once(capsys, monkeypatch, name, runs):
    # the sweep and the orbit, or the inverse law's f(g^-1) and f(g)^-1,
    # share one inverse per matrix: half the eliminations of inverting
    # every stored element twice
    import basiskit.matrices as matrices
    from basiskit.matrices import Matrix

    Matrix.identity.cache_clear()  # no inverse kept from an earlier test
    counted = []

    def counting(kernel):
        return lambda *args: counted.append(1) or kernel(*args)

    for size, kernel in list(matrices._FLOAT_INVERSE.items()):
        monkeypatch.setitem(matrices._FLOAT_INVERSE, size, counting(kernel))
    for kernel in ("_float_inverse", "_fraction_free_inverse"):
        monkeypatch.setattr(matrices, kernel, counting(getattr(matrices, kernel)))
    if name == "gl3_sum_orbit":
        golden = Path(__file__).parent / "golden" / "exact"
        argv = ["object", "--input", str(golden / "gl3_sum_object.json"), "--group",
                str(golden / "gl3_order8_group.json"), "--orbit"]
        assert main(argv) == 0 and "orbit_size: 8" in capsys.readouterr().out
    else:
        argv, job = golden_job("float", name)
        assert main(argv) == job["rc"]
        assert capsys.readouterr() == (job["stdout"], "")
    assert len(counted) == runs


def test_a_linear_assignment_on_an_affine_group_is_exit_2(tmp_path, capsys):
    doc = {
        "group": {"kind": "affine", "dim": 2},
        "side": "left",
        "carrier": {"kind": "coords", "dim": 2, "layout": "column"},
        "assign": {"kind": "linear"},
    }
    assert_one_line_error(main(["repcheck", "--input", write(tmp_path, "affine_linear.json", doc)]), capsys)


def test_repcheck_text_report(tmp_path, capsys):
    code = main(["repcheck", "--input", shift_rep(tmp_path, "right")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "axioms" in out


def test_repcheck_sampled_runs_a_sampled_inverse_law(tmp_path, capsys):
    argv = ["repcheck", "--input", shift_rep(tmp_path), "--sample", "sampled"]
    code = main(argv + ["--samples", "6", "--seed", "5", "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    inverse = next(line for line in out["checks"] if line["name"] == "inverse-law")
    assert inverse == {
        "name": "inverse-law",
        "passed": True,
        "mode": "sampled(k=6, seed=5)",
        "checked": 6,
    }


def test_repcheck_catches_a_broken_assignment(tmp_path, capsys):
    path = write(
        tmp_path,
        "broken.json",
        {
            "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
            "side": "left",
            "carrier": {"kind": "finite", "size": 3},
            # the involution is sent to a 3-cycle, so f(gg) != f(g)f(g)
            "assign": {"kind": "permutation-table", "table": [[0, 1, 2], [1, 2, 0]]},
        },
    )
    code = main(["repcheck", "--input", path, "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "fail"
    axioms = next(line for line in out["checks"] if line["name"] == "axioms")
    assert axioms["passed"] is False


# -- orbit -------------------------------------------------------------------


def test_orbit_listing(tmp_path, capsys):
    path = write(
        tmp_path,
        "swap.json",
        {
            "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
            "side": "left",
            "carrier": {"kind": "finite", "size": 3},
            "assign": {"kind": "permutation-table", "table": [[0, 1, 2], [1, 0, 2]]},
        },
    )
    code = main(["orbit", "--input", path, "--point", "0", "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["data"]["size"] == 2
    assert sorted(out["data"]["orbit_sizes"]) == [1, 2]


def test_orbit_whole_partition(tmp_path, capsys):
    code = main(["orbit", "--input", shift_rep(tmp_path), "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["data"]["orbit_count"] == 1


# -- basis subcommands ----------------------------------------------------------


def test_basis_transform(tmp_path, capsys):
    basis = euclid_basis(tmp_path, "e.json", [[1.0, 0.0], [0.0, 1.0]])
    group = quarter_turn_group(tmp_path)
    code = main(
        [
            "basis",
            "transform",
            "--input",
            basis,
            "--group",
            group,
            "--element",
            '{"matrix": [[0, -1], [1, 0]]}',
            "--report",
            "json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["data"]["mode"] == "passive"
    assert out["data"]["result"]["vectors"] == [[0.0, -1.0], [1.0, 0.0]]


def test_basis_transform_active_checks_coordinates(tmp_path, capsys):
    basis = euclid_basis(tmp_path, "e.json", [[1.0, 0.0], [0.0, 1.0]])
    group = quarter_turn_group(tmp_path)
    code = main(
        [
            "basis",
            "transform",
            "--input",
            basis,
            "--group",
            group,
            "--element",
            '{"matrix": [[0, -1], [1, 0]]}',
            "--mode",
            "active",
            "--report",
            "json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    check = out["checks"][0]
    assert check["name"] == "coordinates-preserved"
    assert check["passed"] is True
    assert check["checked"] == 3


def test_basis_change_connected(tmp_path, capsys):
    b1 = euclid_basis(tmp_path, "b1.json", [[1.0, 0.0], [0.0, 1.0]])
    b2 = euclid_basis(tmp_path, "b2.json", [[0.0, 1.0], [-1.0, 0.0]])
    group = write(
        tmp_path, "so2.json", {"kind": "matrix", "family": "SO", "dim": 2, "signature": [2, 0]}
    )
    code = main(
        ["basis", "change", "--source", b1, "--target", b2, "--group", group, "--report", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [line["passed"] for line in out["checks"]] == [True, True]
    assert out["data"]["element"]["matrix"] == [[0.0, 1.0], [-1.0, 0.0]]


def test_basis_change_not_connected(tmp_path, capsys):
    b1 = euclid_basis(tmp_path, "b1.json", [[1.0, 0.0], [0.0, 1.0]])
    skew = euclid_basis(tmp_path, "skew.json", [[1.0, 1.0], [0.0, 1.0]])
    group = write(
        tmp_path, "so2.json", {"kind": "matrix", "family": "SO", "dim": 2, "signature": [2, 0]}
    )
    code = main(
        ["basis", "change", "--source", b1, "--target", skew, "--group", group, "--report", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["checks"][0]["name"] == "connected"
    assert out["checks"][0]["passed"] is False


def finite_z2_group(tmp_path):
    return write(tmp_path, "z2.json", {"kind": "finite", "table": [[0, 1], [1, 0]]})


def test_basis_change_with_a_cayley_table_group_is_exit_2(tmp_path, capsys):
    b = euclid_basis(tmp_path, "b.json", [[1.0, 0.0], [0.0, 1.0]])
    argv = ["basis", "change", "--source", b, "--target", b, "--group", finite_z2_group(tmp_path)]
    assert_one_line_error(main(argv), capsys)


def test_gram_schmidt_pass(tmp_path, capsys):
    path = write(
        tmp_path, "gs.json", {"signature": [2, 0], "vectors": [[1.0, 1.0], [0.0, 1.0]]}
    )
    code = main(["basis", "gram-schmidt", "--input", path, "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "pass"
    first = out["data"]["result"]["vectors"][0]
    assert first[0] == pytest.approx(0.7071067811865475)


def test_gram_schmidt_null_vector(tmp_path, capsys):
    path = write(
        tmp_path, "gs_null.json", {"signature": [1, 1], "vectors": [[1.0, 1.0], [0.0, 1.0]]}
    )
    code = main(["basis", "gram-schmidt", "--input", path, "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "NullVector at input index 0" in out["checks"][0]["detail"]


def test_standard_coords(tmp_path, capsys):
    ref = write(
        tmp_path,
        "ref.json",
        {"space": {"kind": "central_affine", "dim": 2}, "vectors": [[2, 0], [0, 1]]},
    )
    b = write(
        tmp_path,
        "b.json",
        {"space": {"kind": "central_affine", "dim": 2}, "vectors": [[2, 2], [0, 3]]},
    )
    code = main(
        ["basis", "standard-coords", "--input", b, "--reference", ref, "--report", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["data"]["grid"] == [[1, 2], [0, 3]]
    assert out["data"]["identity"] is False


def test_coordrep(tmp_path, capsys):
    group = quarter_turn_group(tmp_path)
    code = main(["basis", "coordrep", "--group", group, "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    names = [line["name"] for line in out["checks"]]
    assert names == ["coordinate-composition", "coordinate-effectiveness"]


def test_a_measured_zero_residual_is_reported(tmp_path, capsys):
    # float quarter turns permute coordinates, so every product is exact:
    # the float composition measures a residual of 0.0 and reports it, while
    # effectiveness and the exact backend measure none
    group = quarter_turn_group(tmp_path)
    for backend, residual in (["--approx"], [0.0]), (["--exact"], [None]):
        code = main(["basis", "coordrep", "--group", group, "--report", "json", *backend])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [line.get("residual") for line in out["checks"]] == residual + [None]
        assert "residual" not in out["checks"][1]


def test_coordrep_with_a_cayley_table_group_is_exit_2(tmp_path, capsys):
    code = main(["basis", "coordrep", "--group", finite_z2_group(tmp_path)])
    assert_one_line_error(code, capsys)


def test_repcheck_proves_the_s5_left_shift_on_its_generators(capsys):
    # all triples of S5 on itself are 1.7M cases, over the cap; the pairs
    # (a, s) with s one of the 2 generators are 28,800, under it
    path = Path(__file__).parent / "golden" / "exact" / "s5_left_shift.json"
    assert main(["repcheck", "--input", str(path), "--report", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    modes = {line["name"]: (line["mode"], line["checked"]) for line in checks}
    assert modes == {
        "axioms": ("exhaustive(generators=2)", 1 + 120 * 2 * 120),
        "inverse-law": ("exhaustive", 120),
        "variance": ("exhaustive(generators=2)", 120 * 2),
    }


def test_repcheck_decides_an_exact_linear_representation_on_grids(tmp_path, capsys):
    # the permutation matrices of Z3 on column coordinates: every pair with
    # the one generator second is decided on its grids, and an exhaustive
    # demand is met
    path = write(
        tmp_path,
        "z3_linear.json",
        {
            "group": {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
            "side": "left",
            "carrier": {"kind": "coords", "dim": 3, "layout": "column"},
            "assign": {
                "kind": "linear",
                "matrices": [
                    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                ],
            },
        },
    )
    for sample in ("auto", "exhaustive"):
        assert main(["repcheck", "--input", path, "--sample", sample, "--report", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        modes = {line["name"]: (line["mode"], line["checked"]) for line in checks}
        assert modes == {
            "axioms": ("exhaustive(grids, generators=1)", 1 + 3),
            "inverse-law": ("exhaustive", 3),
            "variance": ("exhaustive(generators=1)", 3),
        }


# -- object ------------------------------------------------------------------


def test_object_transform_and_invariance(tmp_path, capsys):
    obj = vector_object(tmp_path)
    group = write(
        tmp_path,
        "gl2.json",
        {"kind": "matrix", "family": "GL", "dim": 2},
    )
    code = main(
        [
            "object",
            "--input",
            obj,
            "--group",
            group,
            "--element",
            '{"matrix": [[2, 1], [1, 1]]}',
            "--report",
            "json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["data"]["representative"] == [1, 0]
    assert out["checks"][0]["name"] == "invariance"
    assert out["checks"][0]["passed"] is True


def test_object_element_moves_the_object_once(tmp_path, capsys, monkeypatch):
    from basiskit.objects import ObjectTransformation

    applied = []
    apply = ObjectTransformation.apply
    monkeypatch.setattr(
        ObjectTransformation, "apply", lambda self, o: applied.append(1) or apply(self, o)
    )
    group = write(tmp_path, "gl2.json", {"kind": "matrix", "family": "GL", "dim": 2})
    argv = ["object", "--input", vector_object(tmp_path), "--group", group,
            "--element", '{"matrix": [[0, -1], [1, 0]]}', "--report", "json"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"]["result_representative"] == [1, 0]
    assert out["checks"][0]["passed"] is True
    assert len(applied) == 1


def test_object_orbit(tmp_path, capsys):
    obj = write(
        tmp_path,
        "vec_exact_turns.json",
        {
            "functor": {"tag": "fundamental"},
            "coords": [1, 0],
            "anchor": {
                "space": {"kind": "central_affine", "dim": 2},
                "vectors": [[1, 0], [0, 1]],
            },
        },
    )
    group = write(
        tmp_path,
        "turns.json",
        {
            "kind": "matrix",
            "family": "GL",
            "dim": 2,
            "generators": [[0, -1, 1, 0]],
        },
    )
    code = main(["object", "--input", obj, "--group", group, "--orbit", "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["data"]["orbit_size"] == 4
    assert out["checks"][0]["name"] == "invariance"
    assert out["checks"][1]["name"] == "orbit-well-defined"


def test_object_orbit_computes_the_base_orbit_once(tmp_path, capsys, monkeypatch):
    # 4 for the orbit and 16 for re-enumerating it from each of its 4
    # points; the invariance sweep builds no moved object
    from basiskit.objects import ObjectTransformation

    calls = [0]
    apply = ObjectTransformation.apply

    def counted(self, obj):
        calls[0] += 1
        return apply(self, obj)

    monkeypatch.setattr(ObjectTransformation, "apply", counted)
    argv = ["object", "--input", vector_object(tmp_path), "--group", quarter_turn_group(tmp_path)]
    assert main(argv + ["--orbit", "--report", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c["checked"] for c in out["checks"]] == [4, 4]
    assert calls[0] == 20


def test_object_sweep_computes_the_unchanged_representative_once(
    tmp_path, capsys, monkeypatch
):
    # one for the report and the sweep together; the sweep forms each
    # element's w' E' itself
    import basiskit.cli as cli
    import basiskit.objects as objects

    calls = [0]
    representative = objects.representative

    def counted(obj):
        calls[0] += 1
        return representative(obj)

    monkeypatch.setattr(cli, "representative", counted)
    monkeypatch.setattr(objects, "representative", counted)
    argv = ["object", "--input", vector_object(tmp_path), "--group", quarter_turn_group(tmp_path)]
    assert main(argv + ["--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["checked"] == 4
    assert calls[0] == 1


def test_a_float_sweep_moves_no_anchor_while_an_element_still_does(tmp_path, capsys):
    # the anchor 1e-4 I moved by 1e-4 I has determinant 1e-16, under the
    # absolute tolerance; the sweep never moves it, as over the rationals
    def probe(scalar):
        small, one, zero = scalar("1/10000"), scalar("1"), scalar("0")
        obj = write(tmp_path, "small_object.json", {
            "functor": {"tag": "fundamental"},
            "coords": [scalar("1/2"), scalar("-1")],
            "anchor": {
                "space": {"kind": "central_affine", "dim": 2},
                "vectors": [[small, zero], [zero, small]],
            },
        })
        group = write(tmp_path, "small_group.json", {
            "kind": "matrix", "family": "GL", "dim": 2,
            "elements": [[one, zero, zero, one], [small, zero, zero, small]],
        })
        return ["object", "--input", obj, "--group", group, "--report", "json"]

    as_float = lambda text: float(Fraction(text))
    for argv in (probe(as_float) + ["--approx"], probe(str)):
        assert main(argv) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert (check["name"], check["passed"], check["checked"]) == ("invariance", True, 2)
    element = json.dumps({"matrix": [[1e-4, 0.0], [0.0, 1e-4]]})
    assert main(probe(as_float) + ["--approx", "--element", element]) == 2
    assert capsys.readouterr() == (
        "", "error: DegenerateBasis: basis vectors are linearly dependent\n"
    )


def test_object_axioms_flag(tmp_path, capsys):
    obj = vector_object(tmp_path)
    group = write(
        tmp_path,
        "turns.json",
        {"kind": "matrix", "family": "GL", "dim": 2, "generators": [[0, -1, 1, 0]]},
    )
    code = main(
        [
            "object", "--input", obj, "--group", group,
            "--axioms", "--samples", "40", "--report", "json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    axioms = next(l for l in out["checks"] if l["name"] == "vector-space-axioms")
    assert axioms["passed"] is True
    assert out["data"]["settings"]["samples"] == 40


def test_reports_echo_their_settings(tmp_path, capsys):
    code = main(["repcheck", "--input", shift_rep(tmp_path), "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    settings = out["data"]["settings"]
    assert settings["backend"] == "default"
    assert settings["tolerance"] == 1e-9
    assert settings["seed"] == 42


def test_trivial_representation_reports_its_kernel(tmp_path, capsys):
    path = write(
        tmp_path,
        "trivial.json",
        {
            "group": {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
            "side": "left",
            "carrier": {"kind": "finite", "size": 2},
            "assign": {"kind": "trivial"},
        },
    )
    code = main(["repcheck", "--input", path, "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["data"]["classification"]["kernel_size"] == 3
    assert out["data"]["classification"]["effective"] is False


def self_shift(group):
    return {"group": group, "side": "left", "carrier": {"kind": "self"}, "assign": {"kind": "shift-left"}}


def test_shift_of_a_store_that_is_not_closed_is_exit_2(tmp_path, capsys):
    # the square of [[1, 1], [0, 1]] is not stored, so that element's shift
    # sends a stored element outside the carrier
    group = {"kind": "matrix", "family": "GL", "dim": 2, "elements": [[1, 0, 0, 1], [1, 1, 0, 1]]}
    path = write(tmp_path, "gl2_shift.json", self_shift(group))
    code = main(["repcheck", "--input", path, "--report", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: CarrierMismatch: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["repcheck", "orbit"])
def test_shift_of_a_float_store_that_is_not_closed_names_the_missing_product(
    tmp_path, capsys, command
):
    # rot(0.3) squared is not stored; the error names the two positions once
    turn = [math.cos(0.3), -math.sin(0.3), math.sin(0.3), math.cos(0.3)]
    group = {"kind": "matrix", "family": "SO", "dim": 2, "elements": [[1.0, 0.0, 0.0, 1.0], turn]}
    argv = [command, "--input", write(tmp_path, "so2_shift.json", self_shift(group))]
    if command == "orbit":
        argv += ["--point", json.dumps({"matrix": [[1.0, 0.0], [0.0, 1.0]]})]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        "error: CarrierMismatch: the store is not closed: the product of stored "
        "elements 1 and 1 lies outside the carrier\n",
    )


def test_shift_of_a_store_without_the_identity_names_the_missing_identity(tmp_path, capsys):
    # -I squared is I, which is not stored: the shift cannot even act by I
    group = {"kind": "matrix", "family": "GL", "dim": 2, "elements": [[-1, 0, 0, -1]]}
    path = write(tmp_path, "minus_identity.json", self_shift(group))
    assert main(["repcheck", "--input", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: CarrierMismatch: the store is not closed: <matrix(")
    assert err.endswith(")> is not stored\n")


@pytest.mark.parametrize(
    "group, positions",
    [
        # equal within the tolerance: no lookup could tell them apart
        ({"kind": "matrix", "family": "SO", "dim": 2,
          "elements": [[1, 0, 0, 1], [1, 1e-12, -1e-12, 1]]}, (0, 1)),
        # the identity listed twice
        ({"kind": "matrix", "family": "GL", "dim": 2,
          "elements": [[1, 0, 0, 1], [0, -1, 1, 0], ["2/2", 0, 0, 1]]}, (0, 2)),
    ],
    ids=["float", "exact"],
)
def test_a_store_with_equal_elements_is_exit_2_naming_both(tmp_path, capsys, group, positions):
    path = write(tmp_path, "shift.json", self_shift(group))
    code = main(["repcheck", "--input", path, "--report", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(
        "error: matrix group: stored elements %d and %d are equal" % positions
    )
    assert captured.err.count("\n") == 1


def test_shift_of_a_float_closure_passes(tmp_path, capsys):
    # the images are looked up among the stored rotations, within the
    # tolerance, and every fact is the one the element-by-element
    # comparison of products gives
    golden = Path(__file__).parent / "golden" / "float" / "so2_order12_group.json"
    path = write(tmp_path, "so2_shift.json", self_shift(json.loads(golden.read_text())))
    code = main(["repcheck", "--input", path, "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["checks"] == [
        {"checked": 1729, "mode": "exhaustive", "name": "axioms", "passed": True},
        {"checked": 12, "mode": "exhaustive", "name": "inverse-law", "passed": True},
        {
            "checked": 144,
            "detail": "verdict both, expected covariant",
            "mode": "exhaustive",
            "name": "variance",
            "passed": True,
        },
    ]
    assert out["data"]["classification"] == {
        "effective": True,
        "kernel_size": 1,
        "side": "left",
        "single_transitive": True,
        "transitive": True,
        "uniqueness_agrees": True,
        "variance": "both",
    }


def test_runaway_closure_is_exit_1(tmp_path, capsys):
    group = write(
        tmp_path,
        "runaway.json",
        {"kind": "matrix", "family": "GL", "dim": 1, "generators": [[2]]},
    )
    code = main(["basis", "coordrep", "--group", group, "--cap", "50"])
    err = capsys.readouterr().err
    assert code == 1
    assert "50" in err


def test_object_element_needs_group(tmp_path, capsys):
    code = main(
        ["object", "--input", vector_object(tmp_path), "--element", '{"matrix": [[1,0],[0,1]]}']
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_object_with_an_unstored_group_and_nothing_to_check_is_exit_2(tmp_path, capsys, backend):
    # no store to sweep and no --element, --axioms or --orbit: no check would run
    if backend == "exact":
        obj = vector_object(tmp_path)
        group = {"kind": "matrix", "family": "GL", "dim": 2}
    else:
        obj = write(tmp_path, "vec4.json", {
            "functor": {"tag": "fundamental"},
            "coords": [1.0, 0.5, -2.0, 0.25],
            "anchor": {
                "space": {"kind": "pseudo_euclid", "dim": 4, "signature": [3, 1]},
                "vectors": [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)],
            },
        })
        group = {"kind": "matrix", "family": "SO", "dim": 4, "signature": [3, 1]}
    argv = ["object", "--input", obj, "--group", write(tmp_path, "unstored.json", group)]
    assert_one_line_error(main(argv + ["--report", "json"]), capsys)
    assert main(["object", "--input", obj, "--report", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["checks"]) == ("pass", [])
    n = 2 if backend == "exact" else 4
    element = json.dumps({"matrix": [[1 if i == j else 0 for j in range(n)] for i in range(n)]})
    assert main(argv + ["--element", element, "--report", "json"]) == 0
    assert [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]] == ["invariance"]


# -- selftest and failure plumbing ----------------------------------------------


def test_selftest_passes(capsys):
    code = main(["selftest", "--samples", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_selftest_json_is_deterministic(capsys):
    assert main(["selftest", "--samples", "10", "--report", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--samples", "10", "--report", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "basiskit/1"
    assert payload["data"]["seed"] == 42


def test_selftest_json_matches_the_golden_report(capsys):
    golden = Path(__file__).parent / "golden" / "selftest_seed42.json"
    assert main(["selftest", "--seed", "42", "--report", "json"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_missing_file_is_exit_2(tmp_path, capsys):
    code = main(["repcheck", "--input", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_invalid_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = main(["repcheck", "--input", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_membership_error_is_exit_2(tmp_path, capsys):
    group = write(
        tmp_path,
        "sl_bad.json",
        {"kind": "matrix", "family": "SL", "dim": 2, "elements": [[2, 0, 0, 1]]},
    )
    code = main(["basis", "coordrep", "--group", group])
    assert code == 2
    assert "error" in capsys.readouterr().err


# -- malformed finite tables, indices and settings -------------------------------


def finite_rep(tmp_path, table, carrier=None, assign=None):
    return write(
        tmp_path,
        "finite_rep.json",
        {
            "group": {"kind": "finite", "table": table},
            "side": "left",
            "carrier": carrier or {"kind": "self"},
            "assign": assign or {"kind": "shift-left"},
        },
    )


def assert_one_line_error(code, capsys):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    # each context prefixes the message once, not once per nesting level
    contexts = captured.err.split(": ")[:-1]
    assert len(contexts) == len(set(contexts)), captured.err


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1], 5],  # a row that is not a list
        [[0, 1], "10"],
        [[0, True], [True, 0]],  # booleans are not element indices
    ],
)
def test_malformed_cayley_table_is_exit_2(tmp_path, capsys, table):
    code = main(["repcheck", "--input", finite_rep(tmp_path, table)])
    assert_one_line_error(code, capsys)


@pytest.mark.parametrize(
    "perms",
    [
        [[0, 1], 3],  # a row that is not a list
        [[0, 1], "10"],
        [[0, 1], [True, 0]],  # passes sorted(row) == [0, 1] but is not a permutation
        [[0, 1], ["a", 1]],
    ],
)
def test_malformed_permutation_table_is_exit_2(tmp_path, capsys, perms):
    path = finite_rep(
        tmp_path,
        [[0, 1], [1, 0]],
        carrier={"kind": "finite", "size": 2},
        assign={"kind": "permutation-table", "table": perms},
    )
    code = main(["repcheck", "--input", path])
    assert_one_line_error(code, capsys)


def test_boolean_point_is_exit_2(tmp_path, capsys):
    path = finite_rep(
        tmp_path,
        [[0, 1], [1, 0]],
        carrier={"kind": "finite", "size": 2},
        assign={"kind": "permutation-table", "table": [[0, 1], [1, 0]]},
    )
    assert_one_line_error(main(["orbit", "--input", path, "--point", "true"]), capsys)
    assert main(["orbit", "--input", path, "--point", "1", "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["base"] == 1


@pytest.mark.parametrize("point", ["true", '{"index": true}', '"1"'])
def test_boolean_element_is_exit_2(tmp_path, capsys, point):
    path = shift_rep(tmp_path)
    assert_one_line_error(main(["orbit", "--input", path, "--point", point]), capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["repcheck", "--input", "REP", "--sample", "sampled", "--samples", "-5"],
        ["repcheck", "--input", "REP", "--samples", "0"],
        ["object", "--input", "OBJ", "--samples", "-1"],
        ["basis", "coordrep", "--group", "GROUP", "--samples", "0"],
        ["selftest", "--samples", "0"],
    ],
)
def test_samples_below_one_is_exit_2(tmp_path, capsys, argv):
    files = {
        "REP": shift_rep(tmp_path),
        "OBJ": vector_object(tmp_path),
        "GROUP": quarter_turn_group(tmp_path),
    }
    code = main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 1, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["repcheck", "--input", "REP", "--cap", "-5"],
        ["orbit", "--input", "REP", "--cap", "0"],
        ["basis", "coordrep", "--group", "GROUP", "--cap", "0"],
        ["object", "--input", "OBJ", "--group", "GROUP", "--orbit", "--cap", "0"],
    ],
)
def test_cap_below_one_is_exit_2(tmp_path, capsys, argv):
    # a cap below one would refuse every closure and orbit, or on a Cayley
    # table go unread; either way it is a setting that checks nothing
    files = {
        "REP": shift_rep(tmp_path),
        "OBJ": vector_object(tmp_path),
        "GROUP": quarter_turn_group(tmp_path),
    }
    code = main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --cap must be at least 1, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "flag", [["--sample", "sampled"], ["--samples", "5"], ["--seed", "3"]]
)
def test_orbit_rejects_the_sampling_flags_it_never_reads(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--input", shift_rep(tmp_path), *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# -- malformed descriptor fields, tolerance, parser reuse ------------------------


def plane_basis():
    return {"space": {"kind": "central_affine", "dim": 2}, "vectors": [[1, 0], [0, 1]]}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (
            ["repcheck", "--input", "DOC"],
            {
                "group": {"kind": "finite", "table": [[0, 1], [1, 0]], "names": 5},
                "side": "left",
                "carrier": {"kind": "self"},
                "assign": {"kind": "shift-left"},
            },
        ),
        (
            ["basis", "coordrep", "--group", "DOC"],
            {"kind": "matrix", "family": "SO", "dim": 2, "signature": 2},
        ),
        (
            ["basis", "coordrep", "--group", "DOC"],
            {"kind": "matrix", "family": "GL", "dim": 2, "elements": 5},
        ),
        (
            ["basis", "coordrep", "--group", "DOC"],
            {"kind": "matrix", "family": "GL", "dim": 2, "generators": 5},
        ),
        (
            ["basis", "coordrep", "--group", "DOC"],
            {"kind": "matrix", "family": "GL", "dim": 2, "elements": []},
        ),
        (
            ["repcheck", "--input", "DOC"],
            {
                "group": {"kind": "matrix", "family": "GL", "dim": 2, "elements": []},
                "side": "left",
                "carrier": {"kind": "coords", "dim": 2, "layout": "column"},
                "assign": {"kind": "linear"},
            },
        ),
        (
            ["object", "--input", "DOC"],
            {
                "functor": {"tag": "tensor_power", "k": "2"},
                "coords": [1, 0, 0, 1],
                "anchor": plane_basis(),
            },
        ),
        (
            ["object", "--input", "DOC"],
            {
                "functor": {"tag": "fundamental"},
                "coords": [1, 0],
                "anchor": {"space": {"kind": "central_affine", "dim": "2"}, "vectors": [[1, 0], [0, 1]]},
            },
        ),
        (
            ["repcheck", "--input", "DOC"],
            {
                "group": {"kind": "matrix", "family": "GL", "dim": 1, "elements": [[1]]},
                "side": "left",
                "carrier": {"kind": "coords", "dim": "1", "layout": "column"},
                "assign": {"kind": "linear"},
            },
        ),
        (
            ["object", "--input", "DOC"],
            {"functor": {"tag": "table"}, "coords": [1], "anchor": plane_basis()},
        ),
        (
            ["object", "--input", "DOC"],
            {
                "functor": {
                    "tag": "direct_sum",
                    "parts": [{"tag": "fundamental"}, {"tag": "table"}],
                },
                "coords": [1, 0, 1],
                "anchor": plane_basis(),
            },
        ),
        (
            ["object", "--input", "DOC"],
            {
                "functor": {"tag": "direct_sum", "parts": [{"tag": "table"}]},
                "coords": [1, 0],
                "anchor": plane_basis(),
            },
        ),
        (
            ["repcheck", "--input", "DOC"],
            {
                "group": {"kind": "matrix", "family": "GL", "dim": True, "elements": [[2]]},
                "side": "left",
                "carrier": {"kind": "coords", "dim": 1, "layout": "column"},
                "assign": {"kind": "linear"},
            },
        ),
        (
            ["basis", "coordrep", "--group", "DOC"],
            {"kind": "affine", "dim": True, "elements": [{"P": [[2]], "R": [0]}]},
        ),
        (
            ["repcheck", "--input", "DOC"],
            {
                "group": {"kind": "finite", "table": [[0]]},
                "side": "left",
                "carrier": {"kind": "finite", "size": True},
                "assign": {"kind": "permutation-table", "table": [[0]]},
            },
        ),
        *(
            (
                ["repcheck", "--input", "DOC"],
                {
                    # the identity of this table is element 1, which true and 1.0 equal
                    "group": {"kind": "finite", "table": [[1, 0], [0, 1]], "identity": identity},
                    "side": "left",
                    "carrier": {"kind": "self"},
                    "assign": {"kind": "shift-left"},
                },
            )
            for identity in (True, 1.0)
        ),
        (
            ["basis", "coordrep", "--group", "DOC"],
            {
                "kind": "matrix",
                "family": "GL",
                "dim": 2,
                "elements": [[1, 0, 0, 1], [2, 0, 0, 1]],
                "generators": [[0, -1, 1, 0]],
            },
        ),
        (
            ["basis", "coordrep", "--group", "DOC"],
            {
                "kind": "affine",
                "dim": 1,
                "elements": [{"P": [[1]], "R": [0]}],
                "generators": [{"P": [[1]], "R": [1]}],
            },
        ),
        (["basis", "gram-schmidt", "--input", "DOC"], [[1, 0], [0, 1]]),
        (
            ["basis", "gram-schmidt", "--input", "DOC"],
            {"signature": 2, "vectors": [[1, 0], [0, 1]]},
        ),
        (
            ["basis", "gram-schmidt", "--input", "DOC"],
            {"signature": [2, 0], "vectors": [5, [0, 1]]},
        ),
    ],
    ids=[
        "names-not-a-list",
        "signature-an-int",
        "elements-not-a-list",
        "generators-not-a-list",
        "elements-empty",
        "linear-rep-elements-empty",
        "tensor-power-k-a-string",
        "space-dim-a-string",
        "carrier-dim-a-string",
        "table-functor-without-grids",
        "table-functor-without-grids-in-a-direct-sum",
        "table-functor-alone-in-a-direct-sum",
        "group-dim-true",
        "affine-group-dim-true",
        "carrier-size-true",
        "finite-identity-true",
        "finite-identity-a-float",
        "matrix-elements-and-generators",
        "affine-elements-and-generators",
        "gram-schmidt-input-a-list",
        "gram-schmidt-signature-an-int",
        "gram-schmidt-vector-not-a-list",
    ],
)
def test_malformed_descriptor_field_is_exit_2(tmp_path, capsys, argv, doc):
    path = write(tmp_path, "doc.json", doc)
    assert_one_line_error(main([path if a == "DOC" else a for a in argv]), capsys)


NON_FINITE = ["1e400", "-1e400", "Infinity", "NaN"]


@pytest.mark.parametrize(
    "backend, entry",
    [(b, e) for b in ("--exact", "--approx") for e in NON_FINITE]
    # too large for a float, though finite: a fraction string and an integer
    + [("--approx", '"1e400"'), ("--approx", "1" + "0" * 400)],
    ids=lambda value: value if len(value) < 20 else "10**400",
)
def test_non_finite_scalar_is_exit_2(tmp_path, capsys, backend, entry):
    line = {"kind": "euclid", "dim": 1}
    basis = tmp_path / "basis.json"
    basis.write_text('{"space": %s, "vectors": [[%s]]}' % (json.dumps(line), entry))
    reference = write(tmp_path, "ref.json", {"space": line, "vectors": [[1]]})
    argv = ["basis", "standard-coords", "--input", str(basis), "--reference", reference]
    assert_one_line_error(main(argv + [backend]), capsys)


def test_a_bad_scalar_error_names_its_field(tmp_path, capsys):
    plane = {"space": {"kind": "euclid", "dim": 2}, "vectors": [[1, 0], [0, 1]]}
    bad_object = {"functor": {"tag": "fundamental"}, "coords": ["x", 0], "anchor": plane}
    bad_basis = {"space": plane["space"], "vectors": [["x", 0], [0, 1]]}
    bad_group = {"kind": "matrix", "family": "GL", "dim": 2, "elements": [["x", 0, 0, 1]]}
    runs = [
        (["object", "--input", write(tmp_path, "object.json", bad_object)], "object coords"),
        (["basis", "standard-coords", "--input", write(tmp_path, "basis.json", bad_basis),
          "--reference", write(tmp_path, "plane.json", plane)], "basis vector"),
        (["basis", "coordrep", "--group", write(tmp_path, "group.json", bad_group)],
         "matrix group element"),
    ]
    for argv, context in runs:
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {context}: bad scalar literal 'x': Invalid literal for Fraction: 'x'\n"
        )


@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_nonsense_tolerance_is_exit_2(tmp_path, capsys, value):
    code = main(
        ["basis", "coordrep", "--group", quarter_turn_group(tmp_path), "--tolerance", value]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: --tolerance must be a positive finite number, got {float(value)}\n"
    )


def test_tolerance_below_four_ulps_is_exit_2(tmp_path, capsys):
    # with a tolerance of 1e-300 no rounding error compares as equal, so the
    # closure of a rotation of order 7 would run on to the cap
    angle = 2 * math.pi / 7
    rotation = [math.cos(angle), -math.sin(angle), math.sin(angle), math.cos(angle)]
    group = write(
        tmp_path,
        "so2_order7.json",
        {"kind": "matrix", "family": "SO", "dim": 2, "generators": [rotation]},
    )
    argv = ["basis", "coordrep", "--group", group, "--report", "json"]
    assert main(argv + ["--tolerance", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --tolerance must be at least {4 * sys.float_info.epsilon} "
        "(four ulps of 1.0), got 1e-300\n"
    )
    for tail in (["--tolerance", "1e-12"], []):
        assert main(argv + tail) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["mode"] == "exhaustive-pairs(49)"


def test_main_reuses_one_parser_without_leaking_state(tmp_path, capsys, monkeypatch):
    import basiskit.cli as cli

    rep = shift_rep(tmp_path)
    calls = [
        ["repcheck", "--input", rep, "--sample", "sampled", "--samples", "5", "--report", "json"],
        ["repcheck", "--input", rep, "--sample", "sampled", "--report", "json"],
        ["repcheck"],  # missing --input: argparse exits
        ["orbit", "--input", rep, "--point", "1", "--cap", "50", "--report", "json"],
        ["orbit", "--input", rep, "--report", "json"],
        ["basis", "coordrep", "--group", quarter_turn_group(tmp_path), "--tolerance", "1e-6",
         "--report", "json"],
        ["basis", "coordrep", "--group", quarter_turn_group(tmp_path), "--report", "json"],
        ["no-such-command"],
        ["repcheck", "--input", rep, "--report", "json"],
    ]

    def run(fresh):
        outcomes = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    reused = run(fresh=False)
    assert len(built) == 1
    assert reused == run(fresh=True)
    assert reused[2][0] == ("exit", 2) and reused[7][0] == ("exit", 2)
    settings = [json.loads(out)["data"]["settings"] for _, out, _ in reused if out]
    assert [s["samples"] for s in settings[:2]] == [5, 1000]
    assert [s["cap"] for s in settings[2:4]] == [50, 100000]
    assert [s["tolerance"] for s in settings[4:6]] == [1e-6, 1e-9]
    cli._parser.cache_clear()


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def assert_golden_jobs(golden, capsys):
    jobs = json.loads((golden / "expected.json").read_text(encoding="utf-8"))
    for name, job in jobs.items():
        argv = [str(golden / a) if a.endswith(".json") else a for a in job["argv"]]
        assert main(argv) == job["rc"], name
        out, err = capsys.readouterr()
        assert (out, err) == (job["stdout"], ""), name


def test_float_jobs_match_the_golden_output(capsys):
    # SO(2) and SO(3) closures behind an object sweep, coordrep and repcheck;
    # the expected output was written before float closure used a cell index
    assert_golden_jobs(Path(__file__).parent / "golden" / "float", capsys)


def test_exact_jobs_match_the_golden_output(capsys):
    # rational GL(2), GL(3) and SL(3) groups behind coordrep, the vector space
    # axioms, a dual sweep, an affine basis change, an active transform and a
    # moved direct-sum object; the expected output was written before the
    # matrices cached their kernel operands
    assert_golden_jobs(Path(__file__).parent / "golden" / "exact", capsys)


def test_float_closure_past_the_float_range_is_exit_1(tmp_path, capsys, monkeypatch):
    # the powers of a boost of rapidity 3 overflow after 237 elements; the
    # closure stops there instead of scanning on to the default cap
    from basiskit.groups import GroupElement, boost_2d

    calls = [0]
    eq_to = GroupElement.eq_to

    def counted(self, other):
        calls[0] += 1
        return eq_to(self, other)

    monkeypatch.setattr(GroupElement, "eq_to", counted)
    boost = [x for row in boost_2d(3.0).entries for x in row]
    group = write(
        tmp_path,
        "boost.json",
        {"kind": "matrix", "family": "SO", "dim": 2, "signature": [1, 1], "generators": [boost]},
    )
    assert main(["basis", "coordrep", "--group", group]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: EnumerationCapExceeded: closure left the float range")
    assert err.count("\n") == 1
    assert calls[0] <= 2 * 240


def test_a_tensor_square_under_a_stored_rapidity_15_boost_is_no_singular_input(tmp_path, capsys):
    # the grid at the boost's inverse is built from the 2-by-2 inverse, so no
    # 4-by-4 elimination meets a pivot below the absolute tolerance; the
    # verdict itself still waits for a tolerance scaled to the entries
    from basiskit.groups import boost_2d

    boost = [x for row in boost_2d(15.0).entries for x in row]
    group = write(
        tmp_path,
        "boost.json",
        {"kind": "matrix", "family": "SO", "dim": 2, "signature": [1, 1],
         "elements": [[1.0, 0.0, 0.0, 1.0], boost]},
    )
    space = {"kind": "pseudo_euclid", "dim": 2, "signature": [1, 1]}
    obj = write(
        tmp_path,
        "object.json",
        {"functor": {"tag": "tensor_power", "k": 2}, "coords": [0.5, -1, 2, 0.25],
         "anchor": {"space": space, "vectors": [[1.2, 0.1], [0.2, 0.9]]}},
    )
    assert main(["object", "--input", obj, "--group", group, "--report", "json"]) != 2
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["checks"][0]["name"] == "invariance"


def test_float_closure_cap_bounds_its_running_time(tmp_path, capsys):
    # a rotation by one radian has infinite order; the cap stops the closure
    rotation = [math.cos(1.0), -math.sin(1.0), math.sin(1.0), math.cos(1.0)]
    group = write(
        tmp_path,
        "so2.json",
        {"kind": "matrix", "family": "SO", "dim": 2, "generators": [rotation]},
    )
    assert main(["basis", "coordrep", "--group", group, "--cap", "2000"]) == 1
    assert capsys.readouterr().err == (
        "error: EnumerationCapExceeded: closure exceeded the cap of 2000 elements "
        "(2000 found, frontier of 1)\n"
    )


@pytest.mark.parametrize("command", ["repcheck", "orbit"])
@pytest.mark.parametrize("size, cap", [(10**30, None), (11, 10)])
def test_a_finite_carrier_above_the_cap_is_refused_before_its_points_exist(
    tmp_path, capsys, monkeypatch, command, size, cap
):
    import basiskit.representations as representations

    def no_points(self, n):
        raise AssertionError(f"a carrier of {n} points was built")

    monkeypatch.setattr(representations.FiniteCarrier, "__init__", no_points)
    doc = {
        "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
        "side": "left",
        "carrier": {"kind": "finite", "size": size},
        "assign": {"kind": "trivial"},
    }
    argv = [command, "--input", write(tmp_path, "big_carrier.json", doc)]
    argv += [] if cap is None else ["--cap", str(cap)]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "",
        f"error: EnumerationCapExceeded: finite carrier of {size} points exceeds "
        f"the cap {cap or 100000}\n",
    )


def test_a_finite_carrier_at_the_cap_is_built(tmp_path, capsys):
    doc = {
        "group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
        "side": "left",
        "carrier": {"kind": "finite", "size": 10},
        "assign": {"kind": "trivial"},
    }
    argv = ["orbit", "--input", write(tmp_path, "carrier.json", doc), "--cap", "10"]
    assert main(argv + ["--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["orbit_count"] == 10


def test_object_orbit_builds_one_transformation_per_stored_element(capsys, monkeypatch):
    # the invariance sweep builds no transformation and the orbit one for
    # each of the 12 stored rotations; the output is the golden one
    from basiskit.objects import ObjectTransformation

    golden = Path(__file__).parent / "golden" / "float"
    job = json.loads((golden / "expected.json").read_text(encoding="utf-8"))["so2_order12_orbit"]
    assert "--orbit" in job["argv"]
    calls = [0]
    of = ObjectTransformation.of.__func__

    def counted(cls, carrier, g):
        calls[0] += 1
        return of(cls, carrier, g)

    monkeypatch.setattr(ObjectTransformation, "of", classmethod(counted))
    argv = [str(golden / a) if a.endswith(".json") else a for a in job["argv"]]
    assert main(argv) == job["rc"]
    assert capsys.readouterr() == (job["stdout"], "")
    assert calls[0] == 12


# -- a forced backend and a finite group's linear assignment ----------------------


@pytest.mark.parametrize(
    "flag, mode, residual",
    [
        ("--exact", "exhaustive(grids, generators=2)", None),
        ("--approx", "sampled(k=50, seed=42)", 0.0),
    ],
)
def test_a_forced_backend_parses_the_grids_of_a_finite_groups_linear_assignment(
    capsys, flag, mode, residual
):
    # a Cayley table has no backend of its own, so the flag alone decides
    # the coordinate carrier and the grids read onto it
    path = Path(__file__).parent / "golden" / "exact" / "s4_linear_rep.json"
    argv = ["repcheck", "--input", str(path), flag, "--samples", "50", "--report", "json"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    axioms = out["checks"][0]
    assert (axioms["name"], axioms["mode"], axioms.get("residual")) == ("axioms", mode, residual)
    assert out["data"]["settings"]["backend"] == flag[2:]


# -- malformed inputs, each with its one error line --------------------------------


Z2_TABLE = {"kind": "finite", "table": [[0, 1], [1, 0]]}


def z2_rep(carrier, assign, group=Z2_TABLE):
    return {"group": group, "side": "left", "carrier": carrier, "assign": assign}


def object_doc(**fields):
    return {"functor": {"tag": "fundamental"}, "coords": [1, 0], "anchor": plane_basis(), **fields}


COLUMN_LINE = {"kind": "coords", "dim": 1, "layout": "column"}
SWAP = {"kind": "permutation-table", "table": [[0, 1], [1, 0]]}
REPCHECK = ["repcheck", "--input", "DOC"]
ORBIT = ["orbit", "--input", "DOC"]
COORDREP = ["basis", "coordrep", "--group", "DOC"]
STANDARD_COORDS = ["basis", "standard-coords", "--input", "DOC", "--reference", "DOC"]
EUCLID_PLANE = {"kind": "euclid", "dim": 2}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (
            REPCHECK,
            z2_rep({"kind": "self"}, {"kind": "shift-left"}, {**Z2_TABLE, "names": ["e", 1]}),
            "finite group: names must be strings",
        ),
        (
            REPCHECK,
            z2_rep(
                {"kind": "self"},
                {"kind": "shift-left"},
                {"kind": "finite", "table": [[(i + j) % 257 for j in range(257)] for i in range(257)]},
            ),
            "finite group: table of size 257 exceeds the validation cap 256",
        ),
        (COORDREP, {"kind": "matrix", "family": "GL", "dim": 0}, "matrix group: bad dimension 0"),
        (COORDREP, {"kind": "matrix", "family": "U", "dim": 2}, "matrix group: unknown family 'U'"),
        (
            COORDREP,
            {"kind": "affine", "dim": 2, "elements": [{"P": [[1, 0], [0, 1]], "R": [0]}]},
            "affine group element: translation length does not match linear part",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "finite", "size": 0}, {"kind": "trivial"}),
            "carrier: a finite carrier needs at least one point, got size 0",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "coords", "dim": 0, "layout": "row"}, {"kind": "trivial"}),
            "carrier: a coordinate carrier needs a positive dimension, got 0",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "coords", "dim": 2, "layout": "diagonal"}, {"kind": "trivial"}),
            "carrier: unknown layout 'diagonal'",
        ),
        (REPCHECK, z2_rep({"kind": "torus"}, {"kind": "trivial"}), "carrier: unknown kind 'torus'"),
        (
            REPCHECK,
            z2_rep(
                {"kind": "finite", "size": 2},
                SWAP,
                {"kind": "matrix", "family": "GL", "dim": 1, "elements": [[1], [-1]]},
            ),
            "permutation-table needs a finite group and a finite carrier",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "self"}, SWAP),
            "permutation-table needs a finite group and a finite carrier",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "finite", "size": 2}, {"kind": "permutation-table", "table": [[0, 1]]}),
            "assign: expected 2 permutations",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "finite", "size": 2}, {"kind": "linear", "matrices": [[[1]], [[-1]]]}),
            "linear assignment needs a coordinate carrier",
        ),
        (
            REPCHECK,
            z2_rep(COLUMN_LINE, {"kind": "linear", "matrices": [[[1]]]}),
            "assign: expected 2 matrices",
        ),
        (
            REPCHECK,
            z2_rep(COLUMN_LINE, {"kind": "linear", "matrices": [[[1]], [[-1, 0], [0, 1]]]}),
            "assign: matrix 1: grid is 2x2, carrier dimension 1",
        ),
        (
            REPCHECK,
            z2_rep(COLUMN_LINE, {"kind": "linear", "matrices": [[[1]], [[1], [0, 1]]]}),
            "assign: matrix 1: matrix rows have unequal lengths",
        ),
        # a singular matrix is refused when the descriptor is read, by
        # every command, whether or not the command reaches that element
        *(
            (
                argv,
                z2_rep(COLUMN_LINE, {"kind": "linear", "matrices": [[[1]], [[0]]]}),
                "assign: matrix 1: transformation grid is singular",
            )
            for argv in (REPCHECK, ORBIT, ORBIT + ["--point", "[1]"])
        ),
        (
            REPCHECK,
            z2_rep({"kind": "finite", "size": 2}, {"kind": "permutation-table", "table": [[0, 1], [True, 0]]}),
            "assign: row 1: mapping sends point 0 outside the carrier",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "finite", "size": 2}, {"kind": "permutation-table", "table": [[0, 1], 3]}),
            "assign: row 1: expected a list, got 3",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "finite", "size": 2}, {"kind": "permutation-table", "table": [[0, 1], [1, 1]]}),
            "assign: row 1: mapping is not injective",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "finite", "size": 2}, {"kind": "permutation-table", "table": [[0, 1], [1]]}),
            "assign: row 1: mapping covers 1 of 2 points",
        ),
        (
            REPCHECK,
            z2_rep({"kind": "finite", "size": 2}, {"kind": "permutation-table", "table": [[1, 0], [0, 1]]}),
            "representation: permutation-table: the identity element is not assigned the identity map",
        ),
        (
            ORBIT + ["--point", "2"],
            z2_rep({"kind": "finite", "size": 2}, SWAP),
            "CarrierMismatch: base point 2 is not in the carrier",
        ),
        (
            ORBIT + ["--point", "true"],
            z2_rep({"kind": "finite", "size": 2}, SWAP),
            "point: expected an integer, got True",
        ),
        (
            REPCHECK,
            {**z2_rep({"kind": "finite", "size": 2}, SWAP), "side": "up"},
            "representation: side must be 'left' or 'right', got 'up'",
        ),
        (
            REPCHECK,
            {**z2_rep({"kind": "self"}, {"kind": "shift-left"}), "side": "up"},
            "shift-left is a left-side representation",
        ),
        (
            STANDARD_COORDS,
            {"space": {"kind": "pseudo_euclid", "dim": 2}, "vectors": [[1, 0], [0, 1]]},
            "space: pseudo-euclid space of dimension 2 needs a signature (p, q) with q >= 1, got None",
        ),
        (
            STANDARD_COORDS,
            {"space": EUCLID_PLANE, "vectors": {"e1": [1, 0]}},
            "basis: vectors must be a list",
        ),
        (
            ["object", "--input", "DOC"],
            object_doc(functor={"tag": "direct_sum", "parts": {"tag": "fundamental"}}),
            "functor: parts must be a list",
        ),
        (
            STANDARD_COORDS,
            {"space": EUCLID_PLANE, "vectors": [[1, 0], 1]},
            "basis vector: expected a list of scalars",
        ),
        (
            ["object", "--input", "DOC"],
            object_doc(w_basis=[1, 0, 0, 1]),
            "object w_basis: expected a list of rows",
        ),
        (
            ["object", "--input", "DOC"],
            object_doc(w_basis=[[1, 0], [0]]),
            "object w_basis: matrix rows have unequal lengths",
        ),
        (
            ["object", "--input", "DOC", "--axioms"],
            object_doc(),
            "--axioms needs --group for sampling elements",
        ),
        (
            ["object", "--input", "DOC", "--orbit"],
            object_doc(),
            "--orbit needs --group with stored elements",
        ),
    ],
    ids=[
        "names-not-strings",
        "table-above-the-size-cap",
        "matrix-group-dim-0",
        "unknown-family",
        "affine-translation-length",
        "carrier-size-0",
        "carrier-dim-0",
        "unknown-layout",
        "unknown-carrier-kind",
        "permutation-table-on-a-matrix-group",
        "permutation-table-on-the-self-carrier",
        "permutation-count",
        "linear-on-a-finite-carrier",
        "linear-matrix-count",
        "linear-matrix-size",
        "linear-matrix-ragged",
        "singular-linear-matrix-repcheck",
        "singular-linear-matrix-orbit",
        "singular-linear-matrix-orbit-point",
        "permutation-row-holding-true",
        "permutation-row-a-number",
        "permutation-row-not-injective",
        "permutation-row-short",
        "permutation-identity-row-not-the-identity",
        "point-outside-a-finite-carrier",
        "point-true-on-a-finite-carrier",
        "side-unknown",
        "side-unknown-under-a-shift",
        "pseudo-euclid-without-signature",
        "basis-vectors-not-a-list",
        "functor-parts-not-a-list",
        "vector-not-a-list",
        "matrix-not-a-list-of-rows",
        "ragged-rows",
        "axioms-without-group",
        "orbit-without-group",
    ],
)
def test_malformed_input_names_its_fault_in_one_error_line(tmp_path, capsys, argv, doc, message):
    path = write(tmp_path, "doc.json", doc)
    code = main([path if a == "DOC" else a for a in argv])
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


def test_an_element_that_is_not_json_is_exit_2(tmp_path, capsys):
    argv = ["basis", "transform", "--input", euclid_basis(tmp_path, "b.json", [[1, 0], [0, 1]])]
    code = main(argv + ["--group", quarter_turn_group(tmp_path), "--element", "[0, "])
    message = "inline value is not valid JSON: Expecting value: line 1 column 5 (char 4)"
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


# -- working paths that the other tests and the workloads leave unreached -----------


def test_trivial_assignment_on_a_coordinate_carrier(tmp_path, capsys):
    doc = z2_rep({"kind": "coords", "dim": 2, "layout": "column"}, {"kind": "trivial"})
    assert main(["repcheck", "--input", write(tmp_path, "rep.json", doc), "--report", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["passed"], c["mode"]) for c in out["checks"]] == [
        ("axioms", True, "exhaustive(grids, generators=1)"),
        ("inverse-law", True, "exhaustive"),
        ("variance", True, "exhaustive(generators=1)"),
    ]


def test_orbit_of_a_coordinate_point_leaves_the_partition_unchecked(tmp_path, capsys):
    doc = z2_rep({"kind": "coords", "dim": 2, "layout": "column"}, {"kind": "trivial"})
    argv = ["orbit", "--input", write(tmp_path, "rep.json", doc), "--point", "[1, 2]"]
    assert main(argv + ["--report", "json"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["partition"] == "not checked: orbit partition needs an enumerable carrier"
    assert (data["size"], data["points"]) == (1, [[1, 2]])


def test_an_element_read_from_a_file(tmp_path, capsys):
    element = write(tmp_path, "element.json", {"matrix": [[0, -1], [1, 0]]})
    argv = ["basis", "transform", "--input", euclid_basis(tmp_path, "b.json", [[1, 0], [0, 1]])]
    argv += ["--group", quarter_turn_group(tmp_path), "--element", "@" + element]
    assert main(argv + ["--report", "json"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["element"] == {"matrix": [[0.0, -1.0], [1.0, 0.0]]}
    assert data["result"]["vectors"] == [[0.0, -1.0], [1.0, 0.0]]


def test_object_axioms_sample_an_unstored_float_boost_group(tmp_path, capsys):
    anchor = {"space": {"kind": "pseudo_euclid", "dim": 2, "signature": [1, 1]}, "vectors": [[1, 0], [0, 1]]}
    obj = write(tmp_path, "obj.json", object_doc(anchor=anchor))
    group = write(tmp_path, "so11.json", {"kind": "matrix", "family": "SO", "dim": 2, "signature": [1, 1]})
    argv = ["object", "--input", obj, "--group", group, "--axioms", "--samples", "5"]
    assert main(argv + ["--report", "json"]) == 0
    [axioms] = json.loads(capsys.readouterr().out)["checks"]
    assert (axioms["name"], axioms["passed"], axioms["mode"]) == (
        "vector-space-axioms",
        True,
        "sampled(k=5, seed=42)",
    )


def test_object_axioms_on_an_unstored_so3_have_no_sampler(tmp_path, capsys):
    space = {"kind": "euclid", "dim": 3}
    anchor = {"space": space, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    obj = write(tmp_path, "obj.json", object_doc(coords=[1, 0, 0], anchor=anchor))
    group = write(tmp_path, "so3.json", {"kind": "matrix", "family": "SO", "dim": 3, "signature": [3, 0]})
    code = main(["object", "--input", obj, "--group", group, "--axioms"])
    message = "BasiskitError: no sampler for MatrixGroup(SO(3), backend=approx) without stored elements"
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


def test_an_orbit_point_outside_a_stored_groups_store_is_exit_2(tmp_path, capsys):
    # a member of GL(2) that is not among the four stored elements
    group = {"kind": "matrix", "family": "GL", "dim": 2, "elements": [[1, 0, 0, 1], [0, -1, 1, 0], [-1, 0, 0, -1], [0, 1, -1, 0]]}
    doc = {"group": group, "side": "left", "carrier": {"kind": "self"}, "assign": {"kind": "shift-left"}}
    argv = ["orbit", "--input", write(tmp_path, "rep.json", doc)]
    code = main(argv + ["--point", '{"matrix": [[2, 0], [0, 1]]}'])
    point = "<matrix(((Fraction(2, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))))>"
    message = f"CarrierMismatch: base point {point} is not in the carrier"
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")
    assert main(argv + ["--point", '{"matrix": [[0, -1], [1, 0]]}', "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["size"] == 4


def test_an_exact_residual_beyond_the_float_range_reads_inf(tmp_path, capsys):
    group = {"kind": "matrix", "family": "SL", "dim": 2, "elements": [[1, 0, 0, 1], [10**400, 0, 0, 1]]}
    code = main(["basis", "coordrep", "--group", write(tmp_path, "group.json", group)])
    assert (code, *capsys.readouterr()) == (2, "", "error: value is not in SL(2) (residual inf)\n")


# every subcommand's options with their defaults; the settings echo of a
# report prints them, so none may move
COMMON = {"--tolerance": 1e-9, "--report": "text"}
BACKEND = {"--exact": False, "--approx": False}
OPTIONS = {
    "repcheck": {
        "--input": None, **BACKEND, **COMMON,
        "--sample": "auto", "--samples": 1000, "--seed": 42, "--cap": 100000,
    },
    "orbit": {"--input": None, "--point": None, **BACKEND, **COMMON, "--cap": 100000},
    "basis transform": {
        "--input": None, "--group": None, "--element": None, "--mode": "passive", **BACKEND, **COMMON,
    },
    "basis change": {"--source": None, "--target": None, "--group": None, **BACKEND, **COMMON},
    "basis gram-schmidt": {"--input": None, **COMMON},
    "basis standard-coords": {"--input": None, "--reference": None, **BACKEND, **COMMON},
    "basis coordrep": {
        "--group": None, **BACKEND, **COMMON, "--samples": 100, "--seed": 42, "--cap": 100000,
    },
    "object": {
        "--input": None, "--group": None, "--element": None, "--orbit": False, "--axioms": False,
        **BACKEND, **COMMON, "--samples": 1000, "--seed": 42, "--cap": 100000,
    },
    "selftest": {**COMMON, "--samples": 60, "--seed": 42},
}


def _options(parser, prefix=()) -> dict:
    """``{subcommand: {option: default}}`` over every leaf parser."""
    found, own = {}, {}
    for action in parser._actions:
        if action.choices is not None and not action.option_strings:
            for name, sub in action.choices.items():
                found.update(_options(sub, (*prefix, name)))
        elif action.option_strings and action.dest != "help":
            own[action.option_strings[0]] = action.default
    return found or {" ".join(prefix): own}


def test_each_subcommand_keeps_its_options_and_defaults():
    assert _options(build_parser()) == OPTIONS
