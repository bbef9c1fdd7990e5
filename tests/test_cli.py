import argparse
import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tropwave
from tropwave import cli, jsonio
from tropwave.cli import main
from tropwave.geometry import QPolygon
from tropwave.series import distance_function

from conftest import square13, unit_square


@pytest.fixture
def files(tmp_path):
    sq = unit_square()
    jsonio.dump(jsonio.polygon_to_json(sq), tmp_path / "square.json")
    jsonio.dump(jsonio.series_to_json(square13()), tmp_path / "series.json")
    jsonio.dump({"points": [["1/2", "1/2"], ["1/4", "3/4"]]},
                tmp_path / "points.json")
    jsonio.dump({"degrees": [{"n": [1, 0], "m": 2}, {"n": [0, 1], "m": 1},
                             {"n": [-1, 0], "m": 2}, {"n": [0, -1], "m": 1}]},
                tmp_path / "degrees.json")
    return tmp_path


def _manifest_digests(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return {f["path"]: f["sha256"] for f in json.load(fh)["files"]}


class TestWaveCommand:
    def test_figure_event(self, files):
        out = str(files / "w")
        assert main(["--out", out, "wave", str(files / "series.json"),
                     "1/5,1/2"]) == 0
        with open(os.path.join(out, "event.json")) as fh:
            ev = json.load(fh)
        assert ev["increment"] == "2/15"
        assert ev["monomial"] == [1, 0]
        assert os.path.exists(os.path.join(out, "curve_before.svg"))
        assert os.path.exists(os.path.join(out, "curve_after.svg"))

    def test_point_on_curve_identical_svgs(self, files):
        out = str(files / "w0")
        assert main(["--out", out, "wave", str(files / "series.json"),
                     "1/3,1/2"]) == 0
        with open(os.path.join(out, "event.json")) as fh:
            assert json.load(fh)["increment"] == "0/1"
        with open(os.path.join(out, "curve_before.svg")) as fh:
            before = fh.read()
        with open(os.path.join(out, "curve_after.svg")) as fh:
            after = fh.read()
        assert before == after

    def test_outside_point_exit_3(self, files):
        assert main(["--out", str(files / "we"), "wave",
                     str(files / "series.json"), "2,2"]) == 3

    @pytest.mark.parametrize("argv, message", [
        (["wave", "{series}", "0,1/2"], "wave point 0,1/2 must be interior"),
        (["dynamics", "{square}", "{edge}"], "point 1/2,1 must be interior"),
    ])
    def test_a_boundary_point_is_named_as_given(self, files, argv, message,
                                                capsys):
        # a point on the boundary is no wave point; the message prints it
        # as a point argument is written
        jsonio.dump({"points": [["1/2", "1/2"], ["1/2", "1"]]},
                    files / "edge.json")
        paths = {k: str(files / f"{k}.json")
                 for k in ("series", "square", "edge")}
        assert main(["--out", str(files / "wb")]
                    + [a.format(**paths) for a in argv]) == 3
        assert capsys.readouterr().err == f"domain violation: {message}\n"

    def test_parse_error_exit_2(self, files):
        assert main(["--out", str(files / "wp"), "wave",
                     str(files / "missing.json"), "1/2,1/2"]) == 2


@pytest.mark.parametrize("argv", [
    ["stats", "{half}", "--n", "2", "--trials", "1"],
    ["dynamics", "{half}", "{points}"],
    ["coarsen", "{half}", "{points}", "--eps", "1/8"],
    ["--tol", "x", "stats", "{square}"],
    ["--config", "{missing}", "stats", "{square}"],
    ["--config", "{zero_bound}", "stats", "{square}"],
    ["--config", "{not_object}", "stats", "{square}"],
    ["--denom-bound", "0", "stats", "{square}"],
    ["stats", "{square}", "--n", "0"],
    ["stats", "{square}", "--trials", "-3"],
    ["lift-check", "--trials", "-2"],
    ["dynamics", "{square}", "{points_not_list}"],
    ["coarsen", "{square}", "{points_not_list}", "--eps", "1/8"],
    ["dynamics", "{square}", "{not_object}"],
    ["coarsen", "{square}", "{not_object}", "--eps", "1/8"],
    ["stats", "{float_normal}", "--n", "2", "--trials", "1"],
    ["dynamics", "{square}", "{float_points}"],
    ["dynamics", "{square}", "{bool_points}"],
    ["curve", "{float_series}"],
    ["curve", "{bool_series}"],
    ["verge", "{square}", "{float_degrees}", "--eps", "1/8"],
    ["verge", "{square}", "{zero_degree_normal}", "--eps", "1/8"],
    ["verge", "{square}", "{repeated_side}", "--eps", "1/8"],
    ["--config", "{float_tol}", "stats", "{square}"],
    ["--config", "{bool_tol}", "stats", "{square}"],
    ["--config", "{float_ints}", "stats", "{square}"],
    ["--config", "{bool_ints}", "stats", "{square}"],
    ["--max-steps", "-5", "dynamics", "{square}", "{points}"],
    ["--config", "{negative_steps}", "dynamics", "{square}", "{points}"],
    ["--out", "", "curve", "{series}"],
    ["--config", "{empty_out}", "curve", "{series}"],
    ["--out", "{square}", "curve", "{series}"],
    ["--out", "{square}/sub", "curve", "{series}"],
    ["--denom-bound", "1", "stats", "{square}", "--n", "1"],
    ["--denom-bound", "2", "stats", "{square}", "--n", "3"],
    ["dynamics", "{not_utf8}", "{points}"],
    ["dynamics", "{square}", "{not_utf8}"],
    ["curve", "{not_utf8}"],
    ["verge", "{square}", "{not_utf8}", "--eps", "1/8"],
    ["dynamics", "{deep}", "{points}"],
    ["dynamics", "{square}", "{deep}"],
    ["curve", "{deep}"],
    ["verge", "{square}", "{deep}", "--eps", "1/8"],
    ["--config", "{deep}", "curve", "{series}"],
    ["curve", "{repeated_monomial}"],
    ["--tol", "-1", "dynamics", "{square}", "{points}"],
    ["--config", "{negative_tol}", "dynamics", "{square}", "{points}"],
    ["make-nice", "{series}", "--eps", "0"],
    ["verge", "{square}", "{degrees}", "--eps", "-1"],
    ["coarsen", "{square}", "{points}", "--eps", "0"],
    ["verge", "{square}", "{zero_degree}", "--eps", "1/8"],
    ["verge", "{square}", "{missing_side}", "--eps", "1/8"],
    ["verge", "{square}", "{foreign_side}", "--eps", "1/8"],
    ["make-nice", "{series}", "--eps", "x"],
    ["wave", "{series}", "x,1/2"],
    ["--config", "{bad_tol}", "stats", "{square}"],
], ids=["unbounded-stats", "unbounded-dynamics", "unbounded-coarsen",
        "bad-tol", "missing-config", "config-denom-bound-0",
        "config-not-object", "denom-bound-0", "n-0", "stats-trials-negative",
        "lift-check-trials-negative", "dynamics-points-not-list",
        "coarsen-points-not-list", "dynamics-points-not-object",
        "coarsen-points-not-object", "float-normal", "float-point",
        "bool-point", "float-coefficient", "bool-exponent", "float-degree",
        "verge-zero-normal", "verge-repeated-side",
        "config-float-tol", "config-bool-tol", "config-float-ints",
        "config-bool-ints", "max-steps-negative",
        "config-max-steps-negative", "out-empty", "config-out-empty",
        "out-is-a-file", "out-under-a-file", "stats-no-grid-point",
        "stats-too-few-grid-points", "dynamics-polygon-not-utf8",
        "dynamics-points-not-utf8", "curve-series-not-utf8",
        "verge-degrees-not-utf8", "dynamics-polygon-deep",
        "dynamics-points-deep", "curve-series-deep", "verge-degrees-deep",
        "config-deep", "series-repeated-monomial", "tol-negative",
        "config-tol-negative", "make-nice-eps-0", "verge-eps-negative",
        "coarsen-eps-0", "verge-degree-0", "verge-missing-side",
        "verge-foreign-side", "eps-not-rational", "point-not-rational",
        "config-tol-not-rational"])
def test_bad_input_exit_2(files, argv, monkeypatch):
    # a single half-plane is an unbounded polygon
    jsonio.dump({"halfplanes": [{"n": [1, 0], "a": "0/1"}]},
                files / "half.json")
    jsonio.dump({"denom_bound": 0}, files / "zero_bound.json")
    jsonio.dump([1], files / "not_object.json")
    jsonio.dump({"points": 5}, files / "points_not_list.json")
    # JSON floats and booleans where exact numbers belong
    square = jsonio.polygon_to_json(unit_square())
    square["halfplanes"][0]["n"] = [1.7, 0]
    jsonio.dump(square, files / "float_normal.json")
    jsonio.dump({"points": [[0.5, "1/2"]]}, files / "float_points.json")
    jsonio.dump({"points": [[True, "1/2"]]}, files / "bool_points.json")
    series = jsonio.series_to_json(square13())
    assert series["support"][2] == {"v": [0, 0], "a": "1/3"}
    series["support"][2]["a"] = 0.3
    jsonio.dump(series, files / "float_series.json")
    series = jsonio.series_to_json(square13())
    assert series["support"][4]["v"] == [1, 0]
    series["support"][4]["v"] = [True, 0]
    jsonio.dump(series, files / "bool_series.json")
    jsonio.dump({"degrees": [{"n": [1, 0], "m": 2.0}, {"n": [0, 1], "m": 1},
                             {"n": [-1, 0], "m": 1}, {"n": [0, -1], "m": 1}]},
                files / "float_degrees.json")
    # a zero normal has no side; [2, 0] names the side of [1, 0] again
    jsonio.dump({"degrees": [{"n": [0, 0], "m": 1}]},
                files / "zero_degree_normal.json")
    jsonio.dump({"degrees": [{"n": [1, 0], "m": 1}, {"n": [0, 1], "m": 1},
                             {"n": [-1, 0], "m": 1}, {"n": [0, -1], "m": 1},
                             {"n": [2, 0], "m": 2}]},
                files / "repeated_side.json")
    # a degree below 1, a side left out, and [1, 1], which is no side of
    # the square
    square_sides = [{"n": [1, 0], "m": 1}, {"n": [0, 1], "m": 1},
                    {"n": [-1, 0], "m": 1}, {"n": [0, -1], "m": 1}]
    jsonio.dump({"degrees": [{"n": [1, 0], "m": 0}] + square_sides[1:]},
                files / "zero_degree.json")
    jsonio.dump({"degrees": square_sides[1:]}, files / "missing_side.json")
    jsonio.dump({"degrees": square_sides + [{"n": [1, 1], "m": 1}]},
                files / "foreign_side.json")
    # (0, 0) twice: the last entry alone is the zero series
    jsonio.dump({"domain": jsonio.polygon_to_json(unit_square()),
                 "support": [{"v": [0, 0], "a": "1/2"},
                             {"v": [0, 0], "a": "0"}]},
                files / "repeated_monomial.json")
    jsonio.dump({"tol": 0.1}, files / "float_tol.json")
    jsonio.dump({"tol": True}, files / "bool_tol.json")
    jsonio.dump({"seed": 1.7, "denom_bound": 8.9}, files / "float_ints.json")
    jsonio.dump({"max_steps": True}, files / "bool_ints.json")
    jsonio.dump({"max_steps": -5}, files / "negative_steps.json")
    jsonio.dump({"tol": "-1"}, files / "negative_tol.json")
    jsonio.dump({"tol": "x"}, files / "bad_tol.json")
    jsonio.dump({"out": ""}, files / "empty_out.json")
    (files / "not_utf8.json").write_bytes(b'{"points": ["\xff"]}')
    (files / "deep.json").write_text("[" * 100000 + "]" * 100000)
    names = ("half", "points", "square", "series", "missing", "zero_bound",
             "not_object", "points_not_list", "float_normal", "float_points",
             "bool_points", "float_series", "bool_series", "float_degrees",
             "zero_degree_normal", "repeated_side", "repeated_monomial",
             "negative_tol", "float_tol", "bool_tol", "float_ints", "bool_ints",
             "negative_steps", "empty_out", "not_utf8", "deep", "degrees",
             "zero_degree", "missing_side", "foreign_side", "bad_tol")
    paths = {k: str(files / f"{k}.json") for k in names}
    argv = [a.format(**paths) for a in argv]
    # the default output directory "out" lands in the test's directory
    monkeypatch.chdir(files)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value
        code = exc.code
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["curve", "{repeated}"], "monomial [0, 0] is given twice"),
    (["--tol", "-1", "dynamics", "{square}", "{points}"],
     "'-1' is not a nonnegative rational"),
    (["--config", "{config}", "dynamics", "{square}", "{points}"],
     "'-1' is not a nonnegative rational"),
])
def test_a_repeated_monomial_or_negative_tolerance_is_a_parse_error(
        files, argv, message, capsys):
    # a series file listing (0, 0) twice would be read as one of them, and
    # a negative tolerance would switch the tolerance stop off
    jsonio.dump({"domain": jsonio.polygon_to_json(unit_square()),
                 "support": [{"v": [0, 0], "a": "0"}, {"v": [1, 0], "a": "0"},
                             {"v": [0, 0], "a": "1/2"}]},
                files / "repeated.json")
    jsonio.dump({"tol": "-1"}, files / "config.json")
    paths = {k: str(files / f"{k}.json")
             for k in ("repeated", "square", "points", "config")}
    out = ["--out", str(files / "o")]
    assert main(out + [a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and message in err
    assert not (files / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["--tol", "x", "dynamics", "{square}", "{points}"],
     "--tol: bad rational 'x'"),
    (["--config", "{config}", "dynamics", "{square}", "{points}"],
     "config.json: ParseError: tol: bad rational 'x'"),
    (["make-nice", "{series}", "--eps", "x"], "--eps: bad rational 'x'"),
    (["coarsen", "{square}", "{points}", "--eps", "1/0"],
     "--eps: bad rational '1/0'"),
    (["wave", "{series}", "x,1/2"], "point 'x,1/2': bad rational 'x'"),
])
def test_a_malformed_rational_names_its_input(files, argv, message, capsys):
    # a command with several rational inputs says which one is malformed:
    # the flag, the config key or the point argument
    jsonio.dump({"tol": "x"}, files / "config.json")
    paths = {k: str(files / f"{k}.json")
             for k in ("series", "square", "points", "config")}
    out = ["--out", str(files / "o")]
    assert main(out + [a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and message in err
    assert not (files / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["make-nice", "{series}", "--eps", "0"], "--eps '0' is not positive"),
    (["verge", "{square}", "{degrees}", "--eps", "-1"],
     "--eps '-1' is not positive"),
    (["coarsen", "{square}", "{points}", "--eps", "0"],
     "--eps '0' is not positive"),
    (["verge", "{square}", "{zero}", "--eps", "1/4"],
     "zero.json: ValueError: 0 is not a positive integer"),
    (["verge", "{square}", "{three}", "--eps", "1/4"],
     "three.json: the degrees must name exactly the sides of"),
    (["verge", "{square}", "{diagonal}", "--eps", "1/4"],
     "diagonal.json: the degrees must name exactly the sides of"),
])
def test_a_bad_eps_or_degree_file_is_a_parse_error(files, argv, message,
                                                   capsys):
    # eps must be positive, and a degree file gives each side of the polygon
    # a positive degree; the CLI refuses either before any computation,
    # naming the flag or the file, where the library would raise
    # RefineError (exit 5)
    sides = jsonio.load(files / "degrees.json")["degrees"]
    jsonio.dump({"degrees": [{"n": [1, 0], "m": 0}] + sides[1:]},
                files / "zero.json")
    jsonio.dump({"degrees": sides[:3]}, files / "three.json")
    jsonio.dump({"degrees": sides[:3] + [{"n": [1, 1], "m": 1}]},
                files / "diagonal.json")
    paths = {k: str(files / f"{k}.json") for k in (
        "series", "square", "points", "degrees", "zero", "three", "diagonal")}
    out = ["--out", str(files / "o")]
    assert main(out + [a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and message in err
    assert not (files / "o").exists()


class TestDynamicsCommand:
    def test_stabilizes(self, files):
        out = str(files / "d")
        assert main(["--out", out, "dynamics", str(files / "square.json"),
                     str(files / "points.json")]) == 0
        with open(os.path.join(out, "result.json")) as fh:
            res = json.load(fh)
        assert res["stopped_reason"] == "Stabilized"

    def test_step_limit_exit_4(self, files, tmp_path):
        # a pair that does not stabilize after a single wave
        jsonio.dump({"points": [["1/5", "1/2"], ["1/2", "1/3"]]},
                    tmp_path / "pts.json")
        assert main(["--out", str(files / "d4"), "--max-steps", "1",
                     "dynamics", str(files / "square.json"),
                     str(tmp_path / "pts.json")]) == 4

    def test_zero_max_steps_applies_no_wave(self, files, tmp_path):
        # the zero series is not stabilized at any point: exit 4, no event
        out = str(files / "d0")
        assert main(["--out", out, "--max-steps", "0", "dynamics",
                     str(files / "square.json"), str(files / "points.json")]) == 4
        with open(os.path.join(out, "result.json")) as fh:
            assert json.load(fh)["steps"] == 0
        with open(os.path.join(out, "events.jsonl")) as fh:
            assert fh.read() == ""
        # with no points the start is already stabilized
        jsonio.dump({"points": []}, tmp_path / "none.json")
        assert main(["--out", str(files / "d00"), "--max-steps", "0",
                     "dynamics", str(files / "square.json"),
                     str(tmp_path / "none.json")]) == 0

    def test_exterior_point_exit_3(self, files, tmp_path):
        jsonio.dump({"points": [["2/1", "2/1"]]}, tmp_path / "bad.json")
        assert main(["--out", str(files / "d3"), "dynamics",
                     str(files / "square.json"), str(tmp_path / "bad.json")]) == 3


class TestStatsCommand:
    def test_byte_reproducible(self, files):
        o1, o2 = str(files / "s1"), str(files / "s2")
        for out in (o1, o2):
            assert main(["--out", out, "--seed", "9", "stats",
                         str(files / "square.json"), "--n", "3",
                         "--trials", "2"]) == 0
        with open(os.path.join(o1, "stats.json"), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(o2, "stats.json"), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2
        assert _manifest_digests(o1) == _manifest_digests(o2)

    def test_ccdf_monotone(self, files):
        out = str(files / "s3")
        assert main(["--out", out, "--seed", "4", "stats",
                     str(files / "square.json"), "--n", "4",
                     "--trials", "2"]) == 0
        with open(os.path.join(out, "stats.json")) as fh:
            stats = json.load(fh)
        probs = [jsonio.frac_from_str(p) for _, p in stats["ccdf"]]
        assert all(x >= y for x, y in zip(probs, probs[1:]))
        assert "alpha" in stats["hill"]

    def test_step_limit_exit_4(self, files, capsys):
        # three waves stop both trials short: the statistics are written,
        # and the run exits 4 as a capped dynamics does
        out = str(files / "s4")
        assert main(["--out", out, "--max-steps", "3", "stats",
                     str(files / "square.json"), "--n", "4",
                     "--trials", "2"]) == 4
        assert "stopped at step limit" in capsys.readouterr().err
        with open(os.path.join(out, "stats.json")) as fh:
            trials = json.load(fh)["trials"]
        assert [t["stopped_reason"] for t in trials] == ["StepLimit"] * 2
        assert set(_manifest_digests(out)) == {"stats.json"}


class TestOtherCommands:
    def test_lift_check(self, files):
        assert main(["--out", str(files / "l"), "--seed", "2", "lift-check",
                     "--trials", "200"]) == 0
        with open(files / "l" / "lift_report.json", "rb") as fh:
            data = fh.read()
        assert json.loads(data)["failures"] == []
        # the report's bytes are pinned: the draws, the checks and the
        # writer all feed them
        assert hashlib.sha256(data).hexdigest() == (
            "626c855ccf423e13b6f32209e41b94a28e1c98b53183f0681794874326d6ccd5")

    def test_lift_check_failure_writes_its_report(self, files):
        # a failure's witness holds Fractions; the report writes them as
        # "p/q" strings or null, exits 5 and lists the report in the manifest
        from tropwave import lift2
        compare = lift2._compare_lift
        calls = []

        def failing_once(Fp, p, SF):
            calls.append(p)
            if len(calls) == 1:
                return False, ((1, 0), F(1, 2), None)
            return compare(Fp, p, SF)

        out = str(files / "lf")
        with mock.patch.object(lift2, "_compare_lift", failing_once):
            assert main(["--out", out, "lift-check", "--trials", "2"]) == 5
        with open(os.path.join(out, "lift_report.json"), "rb") as fh:
            data = fh.read()
        rep = json.loads(data)
        assert rep["trials"] == 2
        assert [f[3] for f in rep["failures"]] == [[[1, 0], "1/2", None]]
        assert _manifest_digests(out) == {
            "lift_report.json": hashlib.sha256(data).hexdigest()}

    def test_verge(self, files):
        assert main(["--out", str(files / "v"), "verge",
                     str(files / "square.json"), str(files / "degrees.json"),
                     "--eps", "1/4"]) == 0
        assert os.path.exists(files / "v" / "curve.svg")

    def test_make_nice(self, files, tmp_path):
        tri = QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
        jsonio.dump(jsonio.series_to_json(distance_function(tri)),
                    tmp_path / "tri_series.json")
        out = str(files / "mn")
        assert main(["--out", out, "make-nice", str(tmp_path / "tri_series.json"),
                     "--eps", "1/8"]) == 0
        with open(os.path.join(out, "plan.json")) as fh:
            plan = json.load(fh)
        assert plan["steps"]

    def test_coarsen(self, files):
        out = str(files / "co")
        assert main(["--out", out, "coarsen", str(files / "square.json"),
                     str(files / "points.json"), "--eps", "1/8"]) == 0
        with open(os.path.join(out, "plan.json")) as fh:
            plan = json.load(fh)
        assert plan["face_collapse_events"] == 0
        assert all(jsonio.frac_from_str(e) > 0 for e in plan["decremented"])

    def test_capped_coarsen_exits_4_and_writes_nothing(self, files,
                                                       tmp_path, capsys):
        # a truncated dynamic has no final state to certify; this pair
        # takes three positive waves from the verge polynomial
        jsonio.dump({"points": [["1/5", "1/2"], ["1/2", "1/3"]]},
                    tmp_path / "pts.json")
        out = files / "co4"
        assert main(["--out", str(out), "--max-steps", "1", "coarsen",
                     str(files / "square.json"), str(tmp_path / "pts.json"),
                     "--eps", "1/8"]) == 4
        assert "stopped at step limit" in capsys.readouterr().err
        assert not out.exists()

    def test_curve(self, files):
        out = str(files / "c")
        assert main(["--out", out, "curve", str(files / "series.json")]) == 0
        with open(os.path.join(out, "curve.json")) as fh:
            curve = json.load(fh)
        assert len(curve["edges"]) == 8

    def test_config_file_with_flag_override(self, files, tmp_path):
        cfg = {"seed": 5, "max_steps": 7, "out": str(files / "cfg_out")}
        with open(tmp_path / "cfg.json", "w") as fh:
            json.dump(cfg, fh)
        out = str(files / "cfg_override")
        assert main(["--config", str(tmp_path / "cfg.json"), "--out", out,
                     "stats", str(files / "square.json"), "--n", "2",
                     "--trials", "1"]) == 0
        assert os.path.exists(os.path.join(out, "stats.json"))
        with open(os.path.join(out, "stats.json")) as fh:
            assert json.load(fh)["seed"] == 5

    def test_manifest_digests_match_contents(self, files):
        out = str(files / "m")
        assert main(["--out", out, "curve", str(files / "series.json")]) == 0
        for name, digest in _manifest_digests(out).items():
            with open(os.path.join(out, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_dump_writes_json_dump_bytes_in_one_call(tmp_path):
    sample = {"b": [1, {"c": ["1/2", None, True]}, []], "a": {}, "z": "t^(1/2)"}
    jsonio.dump(sample, tmp_path / "one.json")
    with open(tmp_path / "chunks.json", "w") as fh:
        json.dump(sample, fh, indent=1, sort_keys=True)
        fh.write("\n")
    assert ((tmp_path / "one.json").read_bytes()
            == (tmp_path / "chunks.json").read_bytes())
    with pytest.raises(TypeError):
        jsonio.dump({"a": [1, F(1, 2)]}, tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()


# -- in-process calls share one parser ------------------------------------------


def test_main_builds_the_parser_once(files):
    # every parser, subcommand parsers included, is built in the first call
    cli._parser.cache_clear()
    with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True,
                           side_effect=argparse.ArgumentParser.__init__) as built:
        counts = []
        for out in ("p1", "p2"):
            assert main(["--out", str(files / out), "curve",
                         str(files / "series.json")]) == 0
            counts.append(built.call_count)
    assert counts == [9, 9]  # tropwave and its eight subcommands


def _outputs(out_dir):
    """Every file a call wrote, by name, as bytes."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _alone(argv, cwd):
    """The exit code and the outputs of ``argv`` run as the only call of a
    fresh process in ``cwd``; its --out is the last relative one."""
    src = os.path.dirname(os.path.dirname(tropwave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cwd.mkdir()
    proc = subprocess.run([sys.executable, "-m", "tropwave.cli", *argv],
                          cwd=cwd, env=env, capture_output=True)
    return proc.returncode, _outputs(cwd / argv[argv.index("--out") + 1])


def test_one_call_does_not_leak_into_the_next(files, monkeypatch):
    # a usage error that sets a flag before it fails, then a valid call;
    # then a --seed call, then one without: each writes what it writes
    # as the only call of a process, manifest config included
    sq, pts = str(files / "square.json"), str(files / "points.json")
    stats = ["stats", sq, "--n", "2", "--trials", "1"]
    calls = [["--out", "dyn", "dynamics", sq, pts],
             ["--seed", "5", "--out", "seeded", *stats],
             ["--out", "unseeded", *stats]]
    (files / "seq").mkdir()
    monkeypatch.chdir(files / "seq")
    with pytest.raises(SystemExit) as exc:
        main(["--max-steps", "3", "dynamics", sq])
    assert exc.value.code == 2
    for argv in calls:
        assert main(argv) == 0
    for i, argv in enumerate(calls):
        out = files / "seq" / argv[argv.index("--out") + 1]
        assert _alone(argv, files / f"alone{i}") == (0, _outputs(out))
    configs = [json.loads((files / "seq" / name / "manifest.json")
                          .read_text())["config"]
               for name in ("dyn", "seeded", "unseeded")]
    assert [c["max_steps"] for c in configs] == [10000] * 3
    assert [c["seed"] for c in configs] == [0, 5, 0]


# -- fuzzing the loaders -------------------------------------------------------

RATIONALS = st.builds(lambda p, q: f"{p}/{q}", st.integers(-4, 4),
                      st.integers(1, 4))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-4, 4),
                   st.floats(allow_nan=False, allow_infinity=False, width=16),
                   RATIONALS, st.sampled_from(["1/0", "x", "", "1.5", "2/-3"]))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["n", "a", "v", "halfplanes", "domain",
                                         "support", "points", "x"]),
                        inner, max_size=3)),
    max_leaves=8)
VECS = st.lists(st.integers(-3, 3), min_size=2, max_size=2)
POLYGONS = st.fixed_dictionaries({"halfplanes": st.lists(
    st.fixed_dictionaries({"n": VECS, "a": RATIONALS}), max_size=5)})
# the square's four side monomials plus random ones: often a valid series
SIDES = [{"v": [1, 0], "a": "0"}, {"v": [0, 1], "a": "0"},
         {"v": [-1, 0], "a": "1"}, {"v": [0, -1], "a": "1"}]
SUPPORTS = st.lists(st.fixed_dictionaries({"v": VECS, "a": RATIONALS}),
                    max_size=4).map(lambda extra: SIDES + extra)
COORDS = st.one_of(st.sampled_from(["1/2", "1/3", "2/3", "1/4", "3/4"]),
                   RATIONALS)
POINT_LISTS = st.lists(st.lists(COORDS, min_size=2, max_size=2), max_size=3)


def _replace(doc, path, value):
    """``doc`` with the node at ``path`` (a list of keys) replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _paths(doc, prefix=()):
    yield list(prefix)
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def near_valid(draw, doc):
    """A valid document with one node replaced by random JSON."""
    paths = list(_paths(doc))
    path = paths[draw(st.integers(0, len(paths) - 1))]
    return _replace(doc, path, draw(JSON))


SQUARE = jsonio.polygon_to_json(unit_square())
SERIES = jsonio.series_to_json(square13())
POINTS = {"points": [["1/2", "1/2"], ["1/4", "3/4"]]}

# random JSON, one node of a valid file replaced, or a random value under a
# file's top-level key
FUZZ_INPUTS = st.one_of(
    st.tuples(st.just("polygon"), st.one_of(
        JSON, POLYGONS, near_valid(SQUARE),
        st.fixed_dictionaries({"halfplanes": LEAVES | JSON}))),
    st.tuples(st.just("series"), st.one_of(
        JSON, near_valid(SERIES),
        st.fixed_dictionaries({"domain": st.just(SQUARE),
                               "support": SUPPORTS | LEAVES | JSON}))),
    st.tuples(st.just("points"), st.one_of(
        JSON, near_valid(POINTS),
        st.fixed_dictionaries({"points": POINT_LISTS | LEAVES | JSON}))),
)


@settings(max_examples=60)
@given(FUZZ_INPUTS)
def test_loader_fuzz_exits_with_a_documented_code(case):
    # every input ends in a documented exit code; an escaping exception
    # fails the test.  Dynamics are capped at two waves to bound the cost.
    kind, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in (("square", SQUARE), ("none", {"points": []}),
                          ("fuzz", doc)):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(obj, fh)
        fuzz = paths["fuzz"]
        argv = {"polygon": ["dynamics", fuzz, paths["none"]],
                "series": ["curve", fuzz],
                "points": ["dynamics", paths["square"], fuzz]}[kind]
        code = main(["--out", os.path.join(tmp, "out"), "--max-steps", "2"]
                    + argv)
    assert code in (0, 2, 3, 4, 5)


# -- rational strings ----------------------------------------------------------

def test_rational_string_forms():
    # integers, p/q and plain decimals keep their values ...
    for text, value in (("7/5", F(7, 5)), ("-3", F(-3)), ("1.25", F(5, 4)),
                        ("-0.5", F(-1, 2)), ("+2/4", F(1, 2)), (12, F(12)),
                        (-4, F(-4))):
        assert jsonio.frac_from_str(text) == value
    # ... and every other form is a parse error
    for text in ("1e3", "1E-2", "1_000", "1/2_0", " 1/2", "1/2\n", "1.", ".5",
                 "+", "", "1/0", "0x10", "inf", "nan", "٣", "1/-2"):
        with pytest.raises(jsonio.ParseError):
            jsonio.frac_from_str(text)


@pytest.mark.parametrize("argv", [
    ["--tol", "1e100000000", "dynamics", "{square}", "{points}"],
    ["dynamics", "{exponent}", "{points}"],
], ids=["tol", "polygon-offset"])
def test_exponent_rational_exits_2_quickly(files, argv):
    # an exponent would build a 330-million-bit integer before any check
    square = jsonio.polygon_to_json(unit_square())
    square["halfplanes"][0]["a"] = "1e100000000"
    jsonio.dump(square, files / "exponent.json")
    paths = {k: str(files / f"{k}.json") for k in ("square", "points",
                                                    "exponent")}
    argv = ["--out", str(files / "e")] + [a.format(**paths) for a in argv]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("denom_bound, n", [("1", "1"), ("2", "3")],
                         ids=["stats-no-grid-point", "stats-too-few-grid-points"])
def test_stats_grid_shortfall_exits_2_quickly_with_no_output(files, denom_bound,
                                                             n):
    # the grid's interior points are counted before the first draw; the
    # output directory is made only after sampling succeeds
    out = files / "s"
    start = time.perf_counter()
    assert main(["--out", str(out), "--denom-bound", denom_bound, "stats",
                 str(files / "square.json"), "--n", n]) == 2
    assert time.perf_counter() - start < 0.5
    assert not out.exists()


def test_stats_on_an_empty_fine_grid_exits_2_quickly(files):
    # a sliver with no interior point on the 10^9-step grid of --config
    sliver = QPolygon.from_vertices([(0, 0), (1, 1), (1, 1 - F(1, 10 ** 20))])
    jsonio.dump(jsonio.polygon_to_json(sliver), files / "sliver.json")
    jsonio.dump({"denom_bound": 10 ** 9}, files / "fine.json")
    start = time.perf_counter()
    assert main(["--out", str(files / "s"), "--config", str(files / "fine.json"),
                 "stats", str(files / "sliver.json"), "--n", "1"]) == 2
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("argv, code", [
    (["wave", "{files}/series.json", "2,2"], 3),
    (["make-nice", "{files}/tri_series.json", "--eps", "2"], 5),
], ids=["wave-exterior-point", "make-nice-eps-too-large"])
def test_failed_command_leaves_no_out_dir(files, argv, code):
    # the output directory is made at the first write, after the result
    tri = QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
    jsonio.dump(jsonio.series_to_json(distance_function(tri)),
                files / "tri_series.json")
    out = files / "o"
    assert main(["--out", str(out)]
                + [a.format(files=files) for a in argv]) == code
    assert not out.exists()


def test_unmakeable_out_dir_exits_2(files, monkeypatch):
    # running as root defeats chmod, so the refusal is simulated
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "makedirs", refuse)
    assert main(["--out", str(files / "p"), "curve",
                 str(files / "series.json")]) == 2
    assert main(["--out", str(files / "p"), "lift-check", "--trials", "1"]) == 2


# -- fuzzing argv and the config file ------------------------------------------

RATIONAL_TOKENS = st.one_of(RATIONALS, st.sampled_from(
    ["1/8", "1/3", "7/5", "1.25", "1/1000", "x", "", "1e3", "1/0"]))
POINT_TOKENS = st.one_of(
    st.builds(lambda x, y: f"{x},{y}", COORDS, COORDS),
    st.sampled_from(["1/5,1/2", "2,2", "0,1/2", "1/2", "x,y", "1e2,1", ""]))
COUNT_TOKENS = st.sampled_from(["1", "2", "3", "0", "x"])
OUT_NAMES = ("fresh", "", "file", "under-file")
FLAG_VALUES = {
    "--seed": st.sampled_from(["0", "7", "-3", "123456", "x", "1.5"]),
    "--tol": RATIONAL_TOKENS,
    "--max-steps": st.sampled_from(["0", "1", "2", "-1"]),
    "--denom-bound": st.sampled_from(["1", "2", "3", "8", "64", "0"]),
    "--out": st.sampled_from(OUT_NAMES),
}
CONFIG_VALUES = {
    "seed": st.integers(-10 ** 6, 10 ** 6) | JSON,
    "denom_bound": st.sampled_from([1, 2, 8, 64]) | JSON,
    "tol": RATIONAL_TOKENS | JSON,
    "max_steps": st.integers(0, 2) | JSON,
    "out": st.sampled_from(OUT_NAMES) | JSON,
}
# a config document: random JSON under each key, random JSON, invalid
# bytes, or nesting up to and past the depth the JSON parser allows
CONFIGS = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional=CONFIG_VALUES),
    JSON,
    st.just(b'{"seed": "\xff"}'),
    st.integers(1, 3000).map(lambda k: b"[" * k + b"]" * k),
    st.builds(lambda key, k: b'{"%s": %s}' % (key, b"[" * k + b"]" * k),
              st.sampled_from(sorted(k.encode() for k in CONFIG_VALUES)),
              st.integers(1, 3000)),
)
# stats keeps one trial: a polygon without --n points on the grid costs
# about 2.5 s of rejection sampling per trial
COMMANDS = st.one_of(
    st.builds(lambda p: ["wave", "{series}", p], POINT_TOKENS),
    st.just(["dynamics", "{square}", "{points}"]),
    st.builds(lambda n: ["stats", "{square}", "--trials", "1", "--n", n],
              COUNT_TOKENS),
    st.builds(lambda t: ["lift-check", "--trials", t], COUNT_TOKENS),
    st.builds(lambda f, e: ["make-nice", f, "--eps", e],
              st.sampled_from(["{series}", "{triangle}"]), RATIONAL_TOKENS),
    st.builds(lambda e: ["verge", "{square}", "{degrees}", "--eps", e],
              RATIONAL_TOKENS),
    st.builds(lambda e: ["coarsen", "{square}", "{points}", "--eps", e],
              RATIONAL_TOKENS),
    st.just(["curve", "{series}"]),
)


# the input files of the fuzzed commands, and where --out or a config's out
# points: a fresh path, nothing, an existing file, or a path under that file
INPUTS = {
    "square": SQUARE, "series": SERIES, "points": POINTS,
    "triangle": jsonio.series_to_json(distance_function(
        QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)]))),
    "degrees": {"degrees": [{"n": [1, 0], "m": 2}, {"n": [0, 1], "m": 1},
                            {"n": [-1, 0], "m": 2}, {"n": [0, -1], "m": 1}]},
}
OUT_PATHS = {"fresh": "fresh", "": "", "file": "square.json",
             "under-file": os.path.join("square.json", "out")}


@settings(max_examples=80)
@given(st.fixed_dictionaries({}, optional=FLAG_VALUES), CONFIGS, COMMANDS)
def test_argv_and_config_fuzz_exits_with_a_documented_code(flags, config,
                                                           command):
    # every argv and config ends in a documented exit code or argparse's
    # SystemExit(2); an escaping exception fails the test
    argv = []
    for flag, value in flags.items():
        argv += [flag, OUT_PATHS[value] if flag == "--out" else value]
    if config is not None:
        argv += ["--config", "config.json"]
        if isinstance(config, dict) and config.get("out") in OUT_NAMES:
            config = dict(config, out=OUT_PATHS[config["out"]])
    argv += [a.format(**{k: f"{k}.json" for k in INPUTS}) for a in command]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the default and every relative output directory
        try:
            for name, obj in INPUTS.items():
                jsonio.dump(obj, f"{name}.json")
            if isinstance(config, bytes):
                with open("config.json", "wb") as fh:
                    fh.write(config)
            elif config is not None:
                jsonio.dump(config, "config.json")
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a bad flag value
            code = exc.code
            assert code == 2
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4, 5)
