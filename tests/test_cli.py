import copy
import json
import os
import tempfile
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tropwave import jsonio
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
], ids=["unbounded-stats", "unbounded-dynamics", "unbounded-coarsen",
        "bad-tol", "missing-config", "config-denom-bound-0",
        "config-not-object", "denom-bound-0", "n-0", "stats-trials-negative",
        "lift-check-trials-negative", "dynamics-points-not-list",
        "coarsen-points-not-list", "dynamics-points-not-object",
        "coarsen-points-not-object", "float-normal", "float-point",
        "bool-point", "float-coefficient", "bool-exponent", "float-degree",
        "config-float-tol", "config-bool-tol", "config-float-ints",
        "config-bool-ints", "max-steps-negative",
        "config-max-steps-negative", "out-empty", "config-out-empty",
        "out-is-a-file", "out-under-a-file", "stats-no-grid-point",
        "stats-too-few-grid-points", "dynamics-polygon-not-utf8",
        "dynamics-points-not-utf8", "curve-series-not-utf8",
        "verge-degrees-not-utf8", "dynamics-polygon-deep",
        "dynamics-points-deep", "curve-series-deep", "verge-degrees-deep",
        "config-deep"])
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
    jsonio.dump({"tol": 0.1}, files / "float_tol.json")
    jsonio.dump({"tol": True}, files / "bool_tol.json")
    jsonio.dump({"seed": 1.7, "denom_bound": 8.9}, files / "float_ints.json")
    jsonio.dump({"max_steps": True}, files / "bool_ints.json")
    jsonio.dump({"max_steps": -5}, files / "negative_steps.json")
    jsonio.dump({"out": ""}, files / "empty_out.json")
    (files / "not_utf8.json").write_bytes(b'{"points": ["\xff"]}')
    (files / "deep.json").write_text("[" * 100000 + "]" * 100000)
    names = ("half", "points", "square", "series", "missing", "zero_bound",
             "not_object", "points_not_list", "float_normal", "float_points",
             "bool_points", "float_series", "bool_series", "float_degrees",
             "float_tol", "bool_tol", "float_ints", "bool_ints",
             "negative_steps", "empty_out", "not_utf8", "deep")
    paths = {k: str(files / f"{k}.json") for k in names}
    argv = [a.format(**paths) for a in argv]
    # the default output directory "out" lands in the test's directory
    monkeypatch.chdir(files)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value
        code = exc.code
    assert code == 2


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


class TestOtherCommands:
    def test_lift_check(self, files):
        assert main(["--out", str(files / "l"), "--seed", "2", "lift-check",
                     "--trials", "100"]) == 0
        with open(files / "l" / "lift_report.json") as fh:
            rep = json.load(fh)
        assert rep["failures"] == []

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
        import hashlib
        out = str(files / "m")
        assert main(["--out", out, "curve", str(files / "series.json")]) == 0
        for name, digest in _manifest_digests(out).items():
            with open(os.path.join(out, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest


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
    # the grid's interior points are counted after 1000 rejected draws, not
    # 100000; the output directory is made only after sampling succeeds
    out = files / "s"
    start = time.perf_counter()
    assert main(["--out", str(out), "--denom-bound", denom_bound, "stats",
                 str(files / "square.json"), "--n", n]) == 2
    assert time.perf_counter() - start < 0.5
    assert not out.exists()


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
