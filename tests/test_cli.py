"""End-to-end checks of the command line front end, run in process."""

from __future__ import annotations

import json

import pytest

from ghlab.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main, run_config
from ghlab.gluing import glued_from_json
from ghlab.metric_core import MetricError
from ghlab.numerics import SQRT2_OVER_4, format_scalar
from ghlab.tunnels import extent, passage_from_json

LINE_SPACE = {
    "points": ["a", "b", "c"],
    "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
}

# two intervals glued along [0, 2]; local distance at r = 2 is exactly 1/3
GLUED_DOC = {
    "host": {
        "points": ["p0", "p1", "p2"],
        "dist": [["0", "2", "7/3"], ["2", "0", "1/3"], ["7/3", "1/3", "0"]],
    },
    "X": {
        "points": ["x0", "x1"],
        "dist": [["0", "7/3"], ["7/3", "0"]],
        "basepoint": 0,
    },
    "Y": {
        "points": ["y0", "y1"],
        "dist": [["0", "2"], ["2", "0"]],
        "basepoint": 0,
    },
    "embedX": [0, 2],
    "embedY": [0, 1],
}

W1_DOC = {
    "space": {"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]},
    "mu": ["1/2", "1/2"],
    "nu": ["1", "0"],
}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, json.loads(captured.out), captured


def test_w1_pinned_rational(tmp_path, capsys):
    path = write_json(tmp_path, "w1.json", W1_DOC)
    rc, report, captured = run(capsys, ["w1", "--in", path, "--backend", "rational"])
    assert rc == EXIT_OK
    assert report == {"command": "w1", "routes": "primal=dual", "value": "1/2"}
    assert captured.err.startswith("wall-clock:")


def test_w1_float_default_backend(tmp_path, capsys):
    path = write_json(tmp_path, "w1.json", W1_DOC)
    rc, report, _ = run(capsys, ["w1", "--in", path])
    assert rc == EXIT_OK
    assert report["value"] == pytest.approx(0.5)
    assert isinstance(report["value"], float)


def test_dist_alias_produces_identical_bytes(tmp_path, capsys):
    path = write_json(tmp_path, "w1.json", W1_DOC)
    assert main(["w1", "--in", path, "--backend", "rational"]) == EXIT_OK
    direct = capsys.readouterr().out
    assert main(["dist", "w1", "--in", path, "--backend", "rational"]) == EXIT_OK
    aliased = capsys.readouterr().out
    assert aliased == direct


def test_delta_r_pinned_rational(tmp_path, capsys):
    path = write_json(tmp_path, "glued.json", GLUED_DOC)
    rc, report, _ = run(
        capsys, ["delta-r", "--glued", path, "-r", "2", "--backend", "rational"]
    )
    assert rc == EXIT_OK
    assert report == {"command": "delta-r", "r": 2, "routes": "agree", "value": "1/3"}


def test_env_backend_and_flag_override(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "glued.json", GLUED_DOC)
    monkeypatch.setenv("GHLAB_BACKEND", "rational")
    rc, report, _ = run(capsys, ["delta-r", "--glued", path, "-r", "2"])
    assert rc == EXIT_OK
    assert report["value"] == "1/3"  # env selected the exact backend
    rc, report, _ = run(
        capsys, ["delta-r", "--glued", path, "-r", "2", "--backend", "float"]
    )
    assert rc == EXIT_OK
    assert isinstance(report["value"], float)  # explicit flag wins over env


def test_axiom_violation_exits_2(tmp_path, capsys):
    doc = {
        "space": {
            "points": ["a", "b", "c"],
            # a-c distance breaks the triangle inequality through b
            "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
        },
        "a": [0],
        "b": [1, 2],
    }
    path = write_json(tmp_path, "bad.json", doc)
    rc, report, _ = run(capsys, ["hausdorff", "--in", path])
    assert rc == EXIT_VALIDATION
    assert report["error"]["kind"] == "AxiomViolation"


def test_float_Delta_r_answers_where_rounding_grazes_the_triangle(tmp_path, capsys):
    # Float cross distances of the glued and refined hosts meet the triangle
    # inequality only up to rounding; float mode must still give the exact
    # answer.
    x = write_json(
        tmp_path, "x.json", {"points": ["0", "1"], "dist": [[0, 8], [8, 0]], "basepoint": 1}
    )
    y_doc = {
        "points": ["0", "1", "2"],
        "dist": [[0, "2/3", 4], ["2/3", 0, "14/3"], [4, "14/3", 0]],
        "basepoint": 1,
    }
    y = write_json(tmp_path, "y.json", y_doc)
    argv = ["Delta-r", "--x", x, "--y", y, "-r", "2"]
    rc, report, _ = run(capsys, argv)
    assert rc == EXIT_OK
    assert report["value"] == 2.0 and isinstance(report["value"], float)
    rc, exact, _ = run(capsys, argv + ["--backend", "rational"])
    assert rc == EXIT_OK
    assert exact["value"] == 2


def test_points_that_print_alike_get_distinct_host_labels(tmp_path, capsys):
    # JSON points 1 and "1" are distinct but both print as 1
    x = write_json(
        tmp_path, "x.json", {"points": [1, "1"], "dist": [[0, 2], [2, 0]], "basepoint": 0}
    )
    y = write_json(tmp_path, "y.json", {"points": ["a"], "dist": [[0]], "basepoint": 0})
    for backend in ("rational", "float"):
        for argv in (["Delta-r", "-r", "1"], ["inframetric"]):
            rc, report, _ = run(capsys, argv + ["--x", x, "--y", y, "--backend", backend])
            assert rc == EXIT_OK, report
    rc, report, _ = run(capsys, ["Delta-r", "-r", "1", "--x", x, "--y", y, "--backend", "rational"])
    assert report["value"] == 1
    assert report["witness"]["host"]["points"] == ["X:1", "X:#1:1", "Y:a"]


def test_missing_file_exits_3(capsys):
    rc, report, _ = run(capsys, ["w1", "--in", "/nonexistent/w1.json"])
    assert rc == EXIT_IO
    assert report["error"]["kind"] == "FileNotFoundError"


def test_malformed_json_exits_4(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc, report, _ = run(capsys, ["w1", "--in", str(path)])
    assert rc == EXIT_PARSE
    assert report["error"]["kind"] == "JSONDecodeError"


def test_missing_field_exits_4(tmp_path, capsys):
    doc = dict(W1_DOC)
    del doc["nu"]
    path = write_json(tmp_path, "w1.json", doc)
    rc, report, _ = run(capsys, ["w1", "--in", str(path)])
    assert rc == EXIT_PARSE
    assert report["error"]["kind"] == "ParseFailure"


def test_csv_input_for_hausdorff_rejected(tmp_path, capsys):
    path = tmp_path / "space.csv"
    path.write_text("a,b\n0,1\n1,0\n", encoding="utf-8")
    rc, report, _ = run(capsys, ["hausdorff", "--in", str(path)])
    assert rc == EXIT_PARSE
    assert report["error"]["kind"] == "ParseFailure"


def test_out_file_matches_stdout(tmp_path, capsys):
    path = write_json(tmp_path, "glued.json", GLUED_DOC)
    out = tmp_path / "report.json"
    rc = main(
        ["delta-r", "--glued", path, "-r", "2", "--backend", "rational", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert out.read_text(encoding="utf-8") == captured.out


def test_error_report_also_written_to_out(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["w1", "--in", "/nonexistent/w1.json", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_IO
    assert out.read_text(encoding="utf-8") == captured.out


def test_csv_pointed_spaces_with_base_flags(tmp_path, capsys):
    csv_text = "a,b,c\n0,1,2\n1,0,1\n2,1,0\n"
    path = tmp_path / "line.csv"
    path.write_text(csv_text, encoding="utf-8")
    # basing one copy at label "c" and the other at index 0 gives isometric
    # pointed spaces (the line read backwards), so the searched distance is 0
    rc, report, _ = run(
        capsys,
        [
            "Delta-r",
            "--x",
            str(path),
            "--y",
            str(path),
            "--x-base",
            "c",
            "--y-base",
            "0",
            "-r",
            "1",
            "--backend",
            "rational",
        ],
    )
    assert rc == EXIT_OK
    assert report["value"] == 0
    assert report["certificate"] == "family-minimum"
    glued_from_json(report["witness"], "rational")  # witness re-validates


def test_inframetric_report_shape(tmp_path, capsys):
    x = write_json(tmp_path, "x.json", {**LINE_SPACE, "basepoint": 0})
    y = write_json(tmp_path, "y.json", {**LINE_SPACE, "basepoint": "a"})
    rc, report, _ = run(
        capsys, ["inframetric", "--x", x, "--y", y, "--backend", "rational"]
    )
    assert rc == EXIT_OK
    assert report["raw"] == 0
    assert report["truncated"] == "1/2"
    assert report["value"] == "1/2"
    assert report["certificate"] == "family-minimum"
    assert report["mode"] == "exact"
    glued_from_json(report["witness"], "rational")


def test_propinquity_isometric_pair(tmp_path, capsys):
    x = write_json(tmp_path, "x.json", {**LINE_SPACE, "basepoint": 1})
    relabeled = {
        "points": ["u", "v", "w"],
        "dist": LINE_SPACE["dist"],
        "basepoint": 1,
    }
    y = write_json(tmp_path, "y.json", relabeled)
    rc, report, _ = run(
        capsys, ["propinquity", "--x", x, "--y", y, "--backend", "rational"]
    )
    assert rc == EXIT_OK
    assert report["bracket"] == [0, 0]
    assert report["raw"] == 0
    assert report["truncated"] == format_scalar(SQRT2_OVER_4)
    assert report["value"] == report["truncated"]


def test_extent_report_matches_library(tmp_path, capsys):
    doc = {"gluing": GLUED_DOC}
    path = write_json(tmp_path, "passage.json", doc)
    rc, report, _ = run(
        capsys, ["extent", "--passage", path, "-r", "2", "--backend", "rational"]
    )
    assert rc == EXIT_OK
    p = passage_from_json(doc, "rational")
    assert report["value"] == format_scalar(extent(p, 2))
    assert report["certificate"]["admissible"] is True


def test_verify_deterministic_bytes_and_shape(capsys):
    argv = ["verify", "--suite", "fundamental", "--cases", "3", "--seed", "7"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert second == first
    report = json.loads(first)
    assert report["all_passed"] is True
    assert report["backend"] == "rational"
    assert report["suite"] == "fundamental"
    assert report["seed"] == 7
    for entry in report["results"]:
        assert set(entry) == {"theorem", "cases", "failures", "counterexample"}
        assert entry["failures"] == 0


def test_config_validation_failures(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "w1.json", W1_DOC)
    monkeypatch.setenv("GHLAB_BACKEND", "decimal")
    rc, report, _ = run(capsys, ["w1", "--in", path])
    assert rc == EXIT_VALIDATION
    assert report["error"]["kind"] == "MetricError"
    monkeypatch.delenv("GHLAB_BACKEND")

    rc, report, _ = run(capsys, ["w1", "--in", path, "--budget", "0"])
    assert rc == EXIT_VALIDATION

    rc, report, _ = run(capsys, ["w1", "--in", path, "--tol", "0"])
    assert rc == EXIT_VALIDATION  # float mode requires a positive tolerance


def test_run_config_direct_validation():
    with pytest.raises(MetricError):
        run_config(backend="decimal")
    with pytest.raises(MetricError):
        run_config(mode="guess")
    with pytest.raises(MetricError):
        run_config(budget=0)
    with pytest.raises(MetricError):
        run_config(backend="rational", tolerance="-1/2")
    cfg = run_config(backend="rational")
    assert cfg.tolerance == 0
