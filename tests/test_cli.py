"""End-to-end checks of the command line front end, run in process."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import pytest

import oracles
from ghlab import cli
from ghlab.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main, run_config
from ghlab.gluing import glued_from_json
from ghlab.metric_core import MetricError, pointed, pointed_from_json, space_from_json
from ghlab.numerics import SQRT2_OVER_4, format_scalar, json_number
from ghlab.tunnels import extent, local_propinquity, passage_from_json
from ghlab.verify import MAX_CASES

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


def test_rational_w1_on_zero_distance_pairs_answers_exactly(tmp_path, capsys):
    # every pair is at distance 0; the dual LP once read float rounding of
    # its int columns at tol 0 as infeasibility and exited 2
    doc = {
        "space": {"points": ["0", "1", "2", "3"], "dist": [[0] * 4 for _ in range(4)]},
        "mu": ["3/7", "1/7", "2/7", "1/7"],
        "nu": ["1/3", 0, "1/6", "1/2"],
    }
    path = write_json(tmp_path, "w1.json", doc)
    for backend in ("rational", "float"):
        rc, report, _ = run(capsys, ["w1", "--in", path, "--backend", backend])
        assert rc == EXIT_OK
        assert report["value"] == 0


@pytest.mark.xfail(
    strict=True,
    reason="a degenerate basic cell of the transport simplex computes 0 * inf, so the value "
    "and the dual value are nan (FOUND in CHANGES.md)",
)
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_w1_between_diracs_beside_a_point_at_infinite_distance(tmp_path, capsys, backend):
    # b is at infinite distance from a and c, and d(a, c) = 1: W1(delta_a,
    # delta_c) is 1, but `gh w1` exits 2 with "transport value nan disagrees
    # with dual value nan"
    doc = {
        "space": {"points": ["a", "b", "c"], "dist": [[0, "inf", 1], ["inf", 0, "inf"], [1, "inf", 0]]},
        "mu": [1, 0, 0],
        "nu": [0, 0, 1],
    }
    path = write_json(tmp_path, "w1.json", doc)
    rc, report, _ = run(capsys, ["w1", "--in", path, "--backend", backend])
    assert rc == EXIT_OK
    assert Fraction(str(report["value"])) == 1


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


def test_witness_with_points_that_print_alike_feeds_back_into_delta_r(tmp_path, capsys):
    # the witness names X's points 1 and "1" apart, so it reads back in
    x = write_json(
        tmp_path, "x.json", {"points": [1, "1"], "dist": [[0, 2], [2, 0]], "basepoint": 0}
    )
    y = write_json(tmp_path, "y.json", {"points": ["a"], "dist": [[0]], "basepoint": 0})
    argv = ["Delta-r", "-r", "1", "--x", x, "--y", y, "--backend", "rational"]
    rc, report, _ = run(capsys, argv)
    assert rc == EXIT_OK
    glued = write_json(tmp_path, "witness.json", report["witness"])
    rc, again, _ = run(capsys, ["delta-r", "--glued", glued, "-r", "1", "--backend", "rational"])
    assert rc == EXIT_OK, again
    assert again["value"] == report["value"]
    assert report["witness"]["X"]["points"] == ["1", "#1:1"]


@pytest.mark.parametrize(
    "space",
    [
        {"points": "abc", "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "basepoint": 0},
        {"points": ["a", "b", "c"], "dist": ["011", "101", "110"], "basepoint": 0},
    ],
)
def test_string_points_or_rows_are_rejected(tmp_path, capsys, space):
    x = write_json(tmp_path, "x.json", space)
    y = write_json(tmp_path, "y.json", {"points": ["q"], "dist": [[0]], "basepoint": 0})
    for backend in ("rational", "float"):
        rc, report, _ = run(capsys, ["Delta-r", "-r", "1", "--x", x, "--y", y, "--backend", backend])
        assert rc == EXIT_VALIDATION
        assert report["error"]["kind"] == "MetricError"


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


@pytest.mark.parametrize("document", ["ok", "broken"])
def test_unwritable_out_exits_3_with_one_report(tmp_path, capsys, document):
    # whether the command itself succeeded or failed
    path = tmp_path / "w1.json"
    path.write_text(json.dumps(W1_DOC) if document == "ok" else "{not json", encoding="utf-8")
    out = tmp_path / "missing" / "report.json"
    rc, report, _ = run(capsys, ["w1", "--in", str(path), "--out", str(out)])
    assert rc == EXIT_IO  # json.loads above read the one report stdout holds
    assert report["error"]["kind"] == "FileNotFoundError"
    assert str(out) in report["error"]["message"]


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_a_zero_denominator_exits_4(tmp_path, capsys, backend):
    x = write_json(tmp_path, "x.json", {"points": ["a"], "dist": [[0]], "basepoint": 0})
    argv = ["Delta-r", "--x", x, "--y", x, "-r", "1/0", "--backend", backend]
    rc, report, _ = run(capsys, argv)
    assert rc == EXIT_PARSE
    assert report["error"] == {"kind": "ValueError", "message": "not a scalar: '1/0'"}
    space = {"points": ["a", "b"], "dist": [["0", "1/0"], ["1/0", "0"]]}
    for doc in (dict(W1_DOC, mu=["1/0", "1/2"]), dict(W1_DOC, space=space)):
        path = write_json(tmp_path, "w1.json", doc)
        rc, report, _ = run(capsys, ["w1", "--in", path, "--backend", backend])
        assert rc == EXIT_PARSE
        assert report["error"] == {"kind": "ValueError", "message": "not a scalar: '1/0'"}



NEGATIVE_INFINITY = {"kind": "ValueError", "message": "not a scalar: -inf"}


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_a_negative_infinity_distance_exits_4(tmp_path, capsys, backend):
    # json.loads reads the literal -Infinity as float("-inf"); it was once
    # read as +inf, and Delta-r answered "inf"
    doc = {"points": ["a", "b"], "dist": [[0, -math.inf], [-math.inf, 0]], "basepoint": 0}
    assert "-Infinity" in json.dumps(doc)
    x = write_json(tmp_path, "x.json", doc)
    rc, report, _ = run(capsys, ["Delta-r", "--x", x, "--y", x, "-r", "1", "--backend", backend])
    assert (rc, report) == (EXIT_PARSE, {"error": NEGATIVE_INFINITY})


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_a_negative_infinity_weight_exits_4(tmp_path, capsys, backend):
    # once reported as "weights sum to inf"
    path = write_json(tmp_path, "w1.json", dict(W1_DOC, mu=[-math.inf, "1/2"]))
    rc, report, _ = run(capsys, ["w1", "--in", path, "--backend", backend])
    assert (rc, report) == (EXIT_PARSE, {"error": NEGATIVE_INFINITY})


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_an_out_of_range_float_literal_reads_as_its_quoted_string(tmp_path, capsys, backend):
    # json.loads reads the literal 1e400 as inf, so a finite distance once
    # came back as "inf"; it now answers as "1e400" does
    one = write_json(tmp_path, "one.json", {"points": ["a"], "dist": [[0]], "basepoint": 0})
    reports = []
    for big in ("1e400", '"1e400"', "-1e400", '"-1e400"'):
        x = tmp_path / "x.json"
        x.write_text(f'{{"points": ["a", "b"], "dist": [[0, {big}], [{big}, 0]], "basepoint": 0}}')
        argv = ["Delta-r", "--x", str(x), "--y", one, "-r", "1", "--backend", backend]
        reports.append(run(capsys, argv)[:2])
    literal, quoted, negative, negative_quoted = reports
    assert literal == quoted
    assert negative[0] != EXIT_OK and negative_quoted[0] != EXIT_OK
    if backend == "rational":
        assert literal[0] == EXIT_OK and literal[1]["value"] == format_scalar(Fraction(10**400, 2))
    else:
        assert literal == (EXIT_PARSE, {"error": {"kind": "ValueError", "message": "not a scalar: '1e400'"}})


# a two-point space at distance 1e400, written as a JSON literal
BIG_SPACE = '{"points": ["a", "b"], "dist": [[0, 1e400], [1e400, 0]], "basepoint": 0}'
BIG_GLUED = (
    '{"host": %s, "X": %s, "Y": {"points": ["c"], "dist": [[0]], "basepoint": 0},'
    ' "embedX": [0, 1], "embedY": [0]}' % (BIG_SPACE, BIG_SPACE)
)
# reader, its document, and the space holding the distance in what it reads
BIG_READERS = {
    "space_from_json": (space_from_json, BIG_SPACE, lambda s: s),
    "pointed_from_json": (pointed_from_json, BIG_SPACE, lambda p: p.space),
    "glued_from_json": (glued_from_json, BIG_GLUED, lambda g: g.host),
    "passage_from_json": (passage_from_json, '{"gluing": %s}' % BIG_GLUED, lambda p: p.carrier),
}


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("reader", sorted(BIG_READERS))
def test_the_library_readers_read_an_out_of_range_literal_as_gh_does(reader, backend):
    # json.loads without the parse_float hook reads the literal 1e400 as inf
    read, text, space_of = BIG_READERS[reader]
    if backend == "rational":
        assert space_of(read(text, backend)).d(0, 1) == 10**400
    else:
        with pytest.raises(ValueError, match="not a scalar: '1e400'"):
            read(text, backend)


TINY = Fraction(1, 10**400)


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_an_underflowing_float_literal_reads_as_its_quoted_string(tmp_path, capsys, backend):
    # json.loads reads the literal 1e-400 as 0.0, so two distinct points
    # once sat at distance 0 on the rational backend; it now answers as
    # "1e-400" does, which the float backend reads as 0.0
    reports = []
    for tiny in ("1e-400", '"1e-400"'):
        path = tmp_path / "in.json"
        path.write_text(f'{{"space": {{"points": ["a", "b"], "dist": [[0, {tiny}], [{tiny}, 0]]}},'
                        ' "a": [0], "b": [1]}')
        reports.append(run(capsys, ["hausdorff", "--in", str(path), "--backend", backend])[:2])
    literal, quoted = reports
    assert literal == quoted and literal[0] == EXIT_OK
    assert literal[1]["value"] == (format_scalar(TINY) if backend == "rational" else 0.0)


@pytest.mark.parametrize("literal", ["0.1", "0e5", "-0.0", "2.5e-3"])
def test_a_literal_that_only_rounds_stays_a_float(literal):
    # the text is kept only where the float is inf or a zero the literal is not
    assert json_number(literal) == float(literal) and type(json_number(literal)) is float


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_a_library_reader_reads_an_underflowing_literal_as_gh_does(backend):
    text = '{"points": ["a", "b"], "dist": [[0, 1e-400], [1e-400, 0]], "basepoint": 0}'
    want = TINY if backend == "rational" else 0.0
    got = pointed_from_json(text, backend).space.d(0, 1)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_an_infinite_tolerance_exits_2(tmp_path, capsys, backend):
    # --tol inf was taken; on rational rows holding a 401-digit int the
    # bracket then added inf to a Fraction beyond float range and raised
    # OverflowError
    x = write_json(tmp_path, "x.json", {"points": ["a"], "dist": [[0]], "basepoint": 0})
    y = write_json(tmp_path, "y.json", {"points": ["b", "c"], "dist": [[0, 10**400], [10**400, 0]],
                                        "basepoint": 0})
    rc, report, _ = run(capsys, ["propinquity", "--x", x, "--y", y, "--tol", "inf", "--backend", backend])
    assert rc == EXIT_VALIDATION
    assert report["error"]["message"] == "tolerance must be finite and within float range"


def test_a_rational_tolerance_beyond_float_range_exits_2(tmp_path, capsys):
    # an empty zero region's distance is the float inf, and adding the
    # tolerance 10**400 to it raised OverflowError
    x = write_json(tmp_path, "x.json", {"points": ["a"], "dist": [[0]], "basepoint": 0})
    y = write_json(tmp_path, "y.json", {"points": ["b", "c"], "dist": [[0, 1], [1, 0]], "basepoint": 0})
    for tol in ("1e400", str(10**400)):
        argv = ["propinquity", "--x", x, "--y", y, "--tol", tol, "--backend", "rational"]
        rc, report, _ = run(capsys, argv)
        assert rc == EXIT_VALIDATION
        assert report["error"]["message"] == "tolerance must be finite and within float range"


@pytest.mark.parametrize("big", ["1e400", 10**400], ids=["decimal", "401-digit-int"])
def test_a_finite_scalar_beyond_float_range_exits_4_on_the_float_backend(tmp_path, capsys, big):
    space = {"points": ["a", "b"], "dist": [[0, big], [big, 0]]}
    path = write_json(tmp_path, "w1.json", dict(W1_DOC, space=space))
    x = write_json(tmp_path, "x.json", {"points": ["a"], "dist": [[0]], "basepoint": 0})
    for argv in (["w1", "--in", path], ["Delta-r", "--x", x, "--y", x, "-r", str(big)]):
        rc, report, _ = run(capsys, argv + ["--backend", "float"])
        assert rc == EXIT_PARSE
        want = repr(big) if argv[0] == "w1" else repr(str(big))
        assert report["error"] == {"kind": "ValueError", "message": f"not a scalar: {want}"}
        rc, report, _ = run(capsys, argv + ["--backend", "rational"])
        assert rc == EXIT_OK


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_propinquity_with_no_gluing_passage_answers_an_unbounded_bracket(tmp_path, capsys, backend):
    # every correspondence pairs far with b, so its distortion and every
    # bridge width are inf: no gluing passage is generated, and hi stays inf
    x = write_json(tmp_path, "x.json", {
        "points": ["a", "far"], "dist": [[0, "inf"], ["inf", 0]], "basepoint": 0,
    })
    y = write_json(tmp_path, "y.json", {"points": ["b"], "dist": [[0]], "basepoint": 0})
    rc, report, _ = run(capsys, ["propinquity", "--x", x, "--y", y, "--backend", backend])
    assert rc == EXIT_OK
    assert report["bracket"] == [0, "inf"] and report["raw"] == "inf"
    assert report["certificate"] is None  # no passage certifies hi


@pytest.mark.parametrize("scale", ["e19", "e30"])
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_propinquity_of_far_spaces_finds_a_finite_upper_end(tmp_path, capsys, backend, scale):
    # the first upper end doubles from 1; at 64 doublings, about 1.8e19, it
    # stopped short and answered (0, inf) with no certificate, though the
    # inframetric of the e30 pair is 2e30
    def scaled(points, rows, base):
        dist = [[float(f"{v}{scale}") if v else 0 for v in row] for row in rows]
        return {"points": points, "dist": dist, "basepoint": base}

    docs = (
        scaled(["a", "b"], [[0, 1], [1, 0]], "a"),
        scaled(["p", "q", "s"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]], "q"),
    )
    x, y = (write_json(tmp_path, f"{name}.json", doc) for name, doc in zip("xy", docs))
    rc, report, _ = run(capsys, ["propinquity", "--x", x, "--y", y, "--backend", backend])
    assert rc == EXIT_OK and report["certificate"] == "family-minimum"
    lo, hi = (Fraction(str(v)) for v in report["bracket"])
    unit = Fraction(f"1{scale}")
    assert lo <= hi and unit < hi < 3 * unit
    if backend == "rational":
        a, b = (pointed_from_json(json.dumps(doc)) for doc in docs)
        assert local_propinquity(a, b, 1 / hi)[0] < hi


def test_propinquity_zeros_are_in_the_rows_scalar_type(tmp_path, capsys):
    # an isometric pair answers (0, 0) and a pair with no gluing passage
    # (0, inf); on float rows each 0 is printed 0.0, as `gh inframetric`
    # prints its raw, and on rational rows it stays an int
    x = write_json(tmp_path, "x.json", {"points": ["a", "b"], "dist": [[0, 1], [1, 0]],
                                        "basepoint": 0})
    for backend, zero in (("float", "0.0"), ("rational", "0")):
        rc, _, captured = run(capsys, ["propinquity", "--x", x, "--y", x, "--backend", backend])
        text = "".join(captured.out.split())
        assert rc == EXIT_OK
        assert f'"bracket":[{zero},{zero}]' in text and f'"raw":{zero},' in text
    far = write_json(tmp_path, "far.json", {
        "points": ["a", "far"], "dist": [[0, "inf"], ["inf", 0]], "basepoint": 0,
    })
    y = write_json(tmp_path, "y.json", {"points": ["b"], "dist": [[0]], "basepoint": 0})
    rc, _, captured = run(capsys, ["propinquity", "--x", far, "--y", y])
    assert rc == EXIT_OK and '"bracket":[0.0,"inf"]' in "".join(captured.out.split())
    fx = pointed(space_from_json({"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}, "float"), 0)
    assert repr(local_propinquity(fx, fx, 1.0)[0]) == "0.0"


def test_rational_rows_holding_inf_bracket_exactly(tmp_path, capsys):
    # an inf entry is not a float row entry, so the bracket stays rational;
    # it once bisected in floats and printed [0.5, 0.5000000000009095]
    x = write_json(tmp_path, "x.json", {
        "points": ["a", "far"], "dist": [[0, "inf"], ["inf", 0]], "basepoint": "a",
    })
    y = write_json(tmp_path, "y.json", {
        "points": ["a", "far", "c"],
        "dist": [[0, "inf", 1], ["inf", 0, "inf"], [1, "inf", 0]],
        "basepoint": "a",
    })
    rc, report, _ = run(capsys, ["propinquity", "--x", x, "--y", y, "--backend", "rational"])
    assert rc == EXIT_OK
    assert report["bracket"] == ["1/2", format_scalar(Fraction(2**39 + 1, 2**40))]


# name -> (a minimal argv after the name, the namespace it parses to, its handler)
_MINIMAL_ARGV = {
    "hausdorff": (["--in", "d.json"], {"infile": "d.json"}, cli._run_hausdorff),
    "delta-r": (["--glued", "g.json", "-r", "2"], {"glued": "g.json", "r": "2"}, cli._run_delta_r),
    "Delta-r": (
        ["--x", "x.json", "--y", "y.json", "-r", "1"],
        {"x": "x.json", "y": "y.json", "r": "1", "x_base": None, "y_base": None},
        cli._run_Delta_r,
    ),
    "inframetric": (
        ["--x", "x.json", "--y", "y.json"],
        {"x": "x.json", "y": "y.json", "x_base": None, "y_base": None},
        cli._run_inframetric,
    ),
    "w1": (["--in", "d.json"], {"infile": "d.json"}, cli._run_w1),
    "extent": (["--passage", "p.json", "-r", "3"], {"passage": "p.json", "r": "3"}, cli._run_extent),
    "propinquity": (
        ["--x", "x.json", "--y", "y.json"],
        {"x": "x.json", "y": "y.json", "x_base": None, "y_base": None},
        cli._run_propinquity,
    ),
    "verify": ([], {"suite": "all", "cases": None}, cli._run_verify),
}
_CONFIG_UNSET = {"backend": None, "tol": None, "seed": None, "mode": None, "budget": None, "out": None}
_CONFIG_ARGV = ["--backend", "rational", "--tol", "1/3", "--seed", "7", "--mode", "heuristic",
                "--budget", "5", "--out", "o.json"]
_CONFIG_SET = {"backend": "rational", "tol": "1/3", "seed": 7, "mode": "heuristic", "budget": 5,
               "out": "o.json"}


def test_every_subcommand_parses_its_own_flags_and_the_config_flags():
    # one parser for every parse: its subparsers share the config flags'
    # Action objects, so a default set through one would reach them all
    parser = cli.build_parser()
    assert set(cli._COMMANDS) == set(_MINIMAL_ARGV)
    for config_argv, config in ((_CONFIG_ARGV, _CONFIG_SET), ([], _CONFIG_UNSET)):
        for name, (argv, own, handler) in _MINIMAL_ARGV.items():
            args = parser.parse_args([name] + argv + config_argv)
            assert vars(args) == {"command": name, "run": handler, **own, **config}, name


@pytest.mark.parametrize("name", sorted(_MINIMAL_ARGV))
def test_subcommand_help_lists_each_config_flag_once(capsys, name):
    with pytest.raises(SystemExit) as done:
        main([name, "-h"])
    assert done.value.code == 0
    usage, _, body = capsys.readouterr().out.partition("\n\n")
    own, _, config = body.partition("run configuration:\n")
    for flag in _CONFIG_SET:
        token = re.compile(rf"(?<![\w-])--{flag}(?![\w-])")
        assert len(token.findall(usage)) == 1, flag
        assert len(token.findall(own)) == 0, flag
        assert len(re.findall(rf"^  --{flag}\b", config, re.M)) == 1, flag


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--suite=bogus", "argument --suite: invalid choice: 'bogus'"),
        ("--cases=x", "argument --cases: invalid int value: 'x'"),
        ("--seed=1.5", "argument --seed: invalid int value: '1.5'"),
    ],
)
def test_a_verify_flag_gh_cannot_read_exits_4_with_one_report(capsys, backend, flag, message):
    # argparse once printed its usage to stderr and raised SystemExit(2),
    # with nothing on stdout
    rc, report, _ = run(capsys, ["verify", "--cases=1", flag, "--backend", backend])
    assert rc == EXIT_PARSE and report["error"]["kind"] == "ParseFailure"
    assert report["error"]["message"].startswith(f"gh verify: {message}")


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("cases", [MAX_CASES + 1, 10**20])
def test_a_verify_case_count_above_the_cap_is_refused_at_once(capsys, backend, cases):
    # refused before any case runs: a suite has no time budget of its own
    argv = ["verify", "--suite", "fundamental", "--cases", str(cases), "--backend", backend]
    rc, report, _ = run(capsys, argv)
    assert rc == EXIT_VALIDATION and report["error"]["kind"] == "MetricError"
    assert report["error"]["message"] == f"cases must be from 1 to {MAX_CASES}, got {cases}"


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


def test_rational_inframetric_of_two_points_prints_an_int_zero(tmp_path, capsys):
    # t* is infinite here; the raw threshold is exactly 0, not a float 0.0
    doc = {"points": ["p"], "dist": [["0"]], "basepoint": 0}
    x, y = write_json(tmp_path, "x.json", doc), write_json(tmp_path, "y.json", doc)
    rc, report, captured = run(capsys, ["inframetric", "--x", x, "--y", y, "--backend", "rational"])
    assert rc == EXIT_OK
    assert '"raw": 0,' in captured.out
    assert report["raw"] == 0 and isinstance(report["raw"], int)
    assert report["truncated"] == "1/2"


def test_float_inframetric_of_two_points_prints_a_float_floor(tmp_path, capsys):
    # the zero raw and the 1/2 floor both take the float backend's type
    doc = {"points": ["p"], "dist": [["0"]], "basepoint": 0}
    x, y = write_json(tmp_path, "x.json", doc), write_json(tmp_path, "y.json", doc)
    rc, report, captured = run(capsys, ["inframetric", "--x", x, "--y", y, "--backend", "float"])
    assert rc == EXIT_OK
    assert '"raw": 0.0,' in captured.out
    assert '"truncated": 0.5,' in captured.out
    assert report["truncated"] == report["value"] == 0.5
    assert "1/2" not in captured.out


def test_float_Delta_r_of_a_point_with_itself_prints_a_float_zero(tmp_path, capsys):
    # the zero local distance takes the float host's own zero, not an int 0
    doc = {"points": ["p"], "dist": [["0"]], "basepoint": 0}
    x = write_json(tmp_path, "x.json", doc)
    for search in ("exact", "heuristic"):
        rc, report, captured = run(capsys, ["Delta-r", "--x", x, "--y", x, "-r", "1", "--mode", search])
        assert rc == EXIT_OK
        assert '"value": 0.0,' in captured.out
        assert report["value"] == 0.0 and isinstance(report["value"], float)


def test_simplex_budget_exhaustion_names_its_kind(tmp_path, capsys, monkeypatch):
    from ghlab import cli
    from ghlab.simplex import IterationBudgetExceeded

    def exhausted(*args, **kwargs):
        raise IterationBudgetExceeded("transportation simplex exceeded its iteration budget")

    monkeypatch.setattr(cli, "w1", exhausted)
    path = write_json(tmp_path, "w1.json", W1_DOC)
    rc, report, _ = run(capsys, ["w1", "--in", path, "--backend", "rational"])
    assert rc == EXIT_VALIDATION
    assert report["error"]["kind"] == "IterationBudgetExceeded"


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


# two points and a line of three glued at width 5/7: sevenths, thirds and
# halves, so a rational extent scans a grid of unit 8 * 42
SEVENTHS_PASSAGE = {
    "gluing": {
        "host": {
            "points": ["X:x0", "X:x1", "X:x2", "Y:y0", "Y:y1"],
            "dist": [
                [0, "3/2", "5/2", "5/7", "43/21"],
                ["3/2", 0, 1, "43/21", "5/7"],
                ["5/2", 1, 0, "43/21", "5/7"],
                ["5/7", "43/21", "43/21", 0, "4/3"],
                ["43/21", "5/7", "5/7", "4/3", 0],
            ],
        },
        "embedX": [0, 1, 2],
        "embedY": [3, 4],
        "X": {
            "points": ["x0", "x1", "x2"],
            "dist": [[0, "3/2", "5/2"], ["3/2", 0, 1], ["5/2", 1, 0]],
            "basepoint": 0,
        },
        "Y": {"points": ["y0", "y1"], "dist": [[0, "4/3"], ["4/3", 0]], "basepoint": 0},
    }
}


@pytest.mark.parametrize("tol, eps, probes", [("0", "5/7", 6), ("1/10", "5/8", 6)])
def test_rational_extent_prints_its_certificate_off_the_grid(tmp_path, capsys, tol, eps, probes):
    # the report as it printed before extents scanned an integer grid: eps
    # in the caller's numbers, the reference scan's value, and the probe
    # count of the check at the caller's numbers, which the continuum
    # check agrees is admissible
    path = write_json(tmp_path, "passage.json", SEVENTHS_PASSAGE)
    argv = ["extent", "--passage", path, "-r", "2", "--backend", "rational", "--tol", tol]
    rc, report, _ = run(capsys, argv)
    assert rc == EXIT_OK
    certificate = {"admissible": True, "eps": eps, "family": "canonical", "probes": probes}
    assert report == {"certificate": certificate, "command": "extent", "r": 2, "value": eps}
    p = passage_from_json(SEVENTHS_PASSAGE, "rational")
    value, probe = oracles.extent_scan_reference(p, 2, tol=Fraction(tol))
    assert format_scalar(value) == format_scalar(probe) == eps
    assert oracles.check_admissible_continuum(p, 2, probe, tol=Fraction(tol))[0]


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


def test_float_propinquity_answers_in_floats(tmp_path, capsys):
    # a pair whose rational bracket ends in p/q; the float backend bisects
    # on floats, so every number it prints is a float
    x = write_json(tmp_path, "x.json", {"points": ["0", "1"], "dist": [[0, 4], [4, 0]],
                                        "basepoint": 0})
    y = write_json(tmp_path, "y.json", {
        "points": ["0", "1", "2"],
        "dist": [[0, "9/2", "5/2"], ["9/2", 0, 2], ["5/2", 2, 0]],
        "basepoint": 0,
    })
    pair = ["propinquity", "--x", x, "--y", y]
    rc, exact, _ = run(capsys, pair + ["--backend", "rational"])
    assert rc == EXIT_OK and exact["bracket"] == ["5/4", "687194767361/549755813888"]
    rc, report, captured = run(capsys, pair)
    assert rc == EXIT_OK
    assert "/" not in captured.out
    numbers = report["bracket"] + [report["raw"], report["truncated"], report["value"]]
    assert all(isinstance(v, float) for v in numbers)
    assert report["bracket"][0] <= 687194767361 / 549755813888 and 5 / 4 <= report["raw"]
