"""Report rendering: the text form, pinned line by line but for ``elapsed``."""

from fractions import Fraction

import pytest

from basiskit.cli import main
from basiskit.reports import RunReport
from basiskit.representations import Verdict

Z2_ON_THREE_POINTS = (
    '{"group": {"kind": "finite", "table": [[0, 1], [1, 0]]}, "side": "left", '
    '"carrier": {"kind": "finite", "size": 3}, '
    '"assign": {"kind": "permutation-table", "table": [[0, 1, 2], [1, 2, 0]]}}'
)

SO2_QUARTER_TURNS = (
    '{"kind": "matrix", "family": "SO", "dim": 2, "signature": [2, 0], '
    '"elements": [[1, 0, 0, 1], [0, -1, 1, 0], [-1, 0, 0, -1], [0, 1, -1, 0]]}'
)


def without_elapsed(text):
    """The report with its one time-dependent line taken out."""
    lines = text.splitlines()
    assert lines[-1].startswith("  elapsed: ") and lines[-1].endswith("s")
    return lines[:-1]


def run_text(tmp_path, capsys, argv, files):
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code = main(argv + ["--report", "text"])
    return code, without_elapsed(capsys.readouterr().out)


def demo_report():
    report = RunReport("demo")
    report.add_verdict("exact-law", Verdict(True, "exhaustive(grids)", 12))
    report.add_verdict(
        "float-law",
        Verdict(
            False,
            "sampled(k=4, seed=7)",
            2,
            ((Fraction(1, 2), 0.25), (1.0,)),
            3.25e-07,
            "gram matrix differs from the metric",
        ),
    )
    report.add_verdict("bare", Verdict(True, residual_max=0.0))
    report.data["seed"] = 7
    return report


def test_a_text_report_shows_each_verdict_once_with_its_witness():
    report = demo_report()
    assert not report.passed
    assert without_elapsed(report.to_text()) == [
        "demo: FAIL",
        "  [ok ] exact-law (exhaustive(grids), 12 checked)",
        "  [FAIL] float-law (sampled(k=4, seed=7), 2 checked, residual 3.25e-07, "
        "gram matrix differs from the metric)",
        '        counterexample: [["1/2", 0.25], [1.0]]',
        "  [ok ] bare (residual 0)",
        "  seed: 7",
    ]


def test_a_json_report_line_names_only_the_fields_its_verdict_set():
    checks = demo_report().as_dict()["checks"]
    assert checks == [
        {"name": "exact-law", "passed": True, "mode": "exhaustive(grids)", "checked": 12},
        {
            "name": "float-law",
            "passed": False,
            "mode": "sampled(k=4, seed=7)",
            "checked": 2,
            "counterexample": [["1/2", 0.25], [1.0]],
            "residual": 3.25e-07,
            "detail": "gram matrix differs from the metric",
        },
        {"name": "bare", "passed": True, "residual": 0.0},
    ]


def test_a_report_passes_when_every_line_passes():
    report = RunReport("empty")
    assert report.passed
    report.add_verdict("one", Verdict(True))
    assert report.passed and report.as_dict()["status"] == "pass"
    assert without_elapsed(report.to_text()) == ["empty: PASS", "  [ok ] one"]
    report.add_verdict("two", Verdict(False, detail="broken"))
    assert not report.passed and report.as_dict()["status"] == "fail"


def test_a_failing_repcheck_renders_its_counterexamples_as_text(tmp_path, capsys):
    code, lines = run_text(
        tmp_path, capsys, ["repcheck", "--input", "z2.json"], {"z2.json": Z2_ON_THREE_POINTS}
    )
    assert code == 1
    assert lines == [
        "repcheck: FAIL",
        "  [FAIL] axioms (exhaustive(generators=1), 5 checked)",
        '        counterexample: [{"index": 1}, {"index": 1}, 0]',
        "  [FAIL] inverse-law (exhaustive, 2 checked)",
        '        counterexample: [{"index": 1}]',
        "  [FAIL] variance (exhaustive(generators=1), 2 checked, verdict neither, "
        "expected covariant or contravariant)",
        '        counterexample: [[{"index": 1}, {"index": 1}], [{"index": 1}, {"index": 1}]]',
        '  classification: {"side": "left", "variance": "neither", "kernel_size": 1, '
        '"effective": true, "transitive": false, "single_transitive": false, '
        '"uniqueness_agrees": true}',
        '  settings: {"backend": "default", "tolerance": 1e-09, "sample": "auto", '
        '"samples": 1000, "seed": 42, "cap": 100000}',
    ]


@pytest.mark.parametrize(
    "backend, check, vectors, element, result",
    [
        (
            "--exact",
            "  [ok ] coordinates-preserved (3 checked)",
            "[[3, 1], [1, 2]]",
            "[[0, -1], [1, 0]]",
            "[[-1, 3], [-2, 1]]",
        ),
        (
            "--approx",
            "  [ok ] coordinates-preserved (3 checked, residual 5.55e-17)",
            "[[3.0, 1.0], [1.0, 2.0]]",
            "[[0.0, -1.0], [1.0, 0.0]]",
            "[[-1.0, 3.0], [-2.0, 1.0]]",
        ),
    ],
)
def test_an_active_transform_shows_a_residual_only_in_floating_point(
    tmp_path, capsys, backend, check, vectors, element, result
):
    files = {
        "b.json": '{"space": {"kind": "euclid", "dim": 2}, "vectors": [[3, 1], [1, 2]]}',
        "so2.json": SO2_QUARTER_TURNS,
    }
    argv = ["basis", "transform", "--input", "b.json", "--group", "so2.json",
            "--element", '{"matrix": [[0, -1], [1, 0]]}', "--mode", "active", backend]
    code, lines = run_text(tmp_path, capsys, argv, files)
    assert code == 0
    space = '{"kind": "euclid", "dim": 2}'
    assert lines == [
        "basis transform: PASS",
        check,
        f'  input: {{"space": {space}, "vectors": {vectors}}}',
        f'  element: {{"matrix": {element}}}',
        '  mode: "active"',
        f'  result: {{"space": {space}, "vectors": {result}}}',
        f'  settings: {{"backend": "{backend[2:]}", "tolerance": 1e-09}}',
    ]
