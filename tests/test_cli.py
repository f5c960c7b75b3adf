import argparse
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from polydual.cli import _SUBCOMMANDS, JobRequest, _build_parser, dumps, main, run
from polydual.errors import SchemaError
from polydual.geometry import Point2, RegularPolygonSpec, distances_from
from polydual.oracle import MAX_GRID_RESOLUTION, _phase_tables
from polydual.svg import Scene, render_svg

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

SQUARE_DISTANCES = "1,2.2360679774997896,2.2360679774997896,1"
SQUARE_POLYGON = "4,0,0,1.4142135623730951,0.7853981633974483"
README_PAIR = ["--polygon-a", "4,0,0,1.4142135623730951,45deg", "--polygon-b", "4,2,1,1,180deg"]


def run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "polydual.cli", *argv],
        capture_output=True,
        text=False,
    )
    return proc


class TestDumps:
    def test_seventeen_significant_digits_round_trip(self):
        values = [math.pi, 1.0, 0.1, 1e-300, 12345.6789, SQRT2]
        text = dumps(values)
        for original, parsed in zip(values, json.loads(text)):
            assert parsed == original

    def test_deterministic_key_order(self):
        assert dumps({"b": 1, "a": 2.5}) == '{"b":1,"a":2.5}'

    def test_non_finite_becomes_null(self):
        assert dumps(float("inf")) == "null"

    def test_booleans_are_not_integers(self):
        assert dumps({"flag": True}) == '{"flag":true}'

    def test_records_are_not_arrays(self):
        with pytest.raises(TypeError, match="cannot serialize Point2"):
            dumps(Point2(1.0, 2.0))
        with pytest.raises(TypeError, match="cannot serialize JobRequest"):
            dumps([JobRequest("dual", {})])


class TestRun:
    def test_square_dual(self):
        result, code = run(
            JobRequest("dual", {"distances": [1.0, SQRT5, SQRT5, 1.0]})
        )
        assert code == 0
        assert result["larger"]["circumradius"] == pytest.approx(SQRT2, rel=1e-12)
        assert result["larger"]["center_distance"] == pytest.approx(1.0, rel=1e-12)
        assert result["smaller"]["circumradius"] == pytest.approx(1.0, rel=1e-12)
        assert result["smaller"]["center_distance"] == pytest.approx(SQRT2, rel=1e-12)
        assert result["consistency"]["passed"] is True

    def test_pompeiu_sides(self):
        result, code = run(JobRequest("pompeiu", {"distances": [3.0, 5.0, 7.0]}))
        assert code == 0
        assert result["side_larger"] == pytest.approx(8.0, rel=1e-12)
        assert result["side_smaller"] == pytest.approx(4.358898943540674, rel=1e-12)

    def test_pompeiu_construct_fits_the_triple_once(self, monkeypatch):
        from polydual import pompeiu

        calls = []
        fit = pompeiu.solve
        monkeypatch.setattr(pompeiu, "solve", lambda *args: calls.append(args) or fit(*args))
        result, code = run(JobRequest("pompeiu", {"distances": [3, 5, 7], "construct": True}))
        assert code == 0 and "construction" in result
        assert len(calls) == 1

    def test_triangle_inequality_surfaced(self):
        result, code = run(JobRequest("dual", {"distances": [1.0, 1.0, 5.0]}))
        assert code == 1
        assert result["code"] == "TRIANGLE_INEQUALITY"
        assert "message" in result and "context" in result

    def test_dual_triple_on_circumcircle_matches_pompeiu(self):
        # degenerate within tol: a triangle, so dual answers as pompeiu does
        # rather than letting the fit's sharper test call it unrealizable
        payload = {"distances": [1.0, 1.0, 2.000000001]}
        dual, dual_code = run(JobRequest("dual", payload))
        pomp, pomp_code = run(JobRequest("pompeiu", payload))
        assert (dual_code, pomp_code) == (0, 0)
        assert dual.pop("consistency")["passed"] is True
        assert dual == pomp["solution"]
        assert list(dual) == list(pomp["solution"])
        assert dual["degeneracy"] == "on_circumcircle"

    def test_unknown_command(self):
        with pytest.raises(SchemaError):
            run(JobRequest("bogus", {}))

    def test_bad_payload(self):
        with pytest.raises(SchemaError):
            run(JobRequest("dual", {"distances": "nope"}))

    def test_two_points_payload(self):
        result, code = run(
            JobRequest(
                "two-points",
                {
                    "polygon_a": {
                        "n": 4,
                        "center": {"x": 0, "y": 0},
                        "r": SQRT2,
                        "phase": math.pi / 4,
                    },
                    "polygon_b": {
                        "n": 4,
                        "center": {"x": 2, "y": 1},
                        "r": 1.0,
                        "phase": math.pi,
                    },
                },
            )
        )
        assert code == 0
        assert result["m1"]["x"] == pytest.approx(0.6, rel=1e-9)
        assert result["m2"]["y"] == pytest.approx(0.0, abs=1e-12)
        assert all(m["ok"] for m in result["matches"])

    def test_degree_suffix_angles(self):
        result, code = run(
            JobRequest(
                "reconstruct",
                {
                    "polygon": {
                        "n": 4,
                        "center": {"x": 0, "y": 0},
                        "r": SQRT2,
                        "phase": "45deg",
                    },
                    "point": {"x": 1, "y": 0},
                    "direction": "90deg",
                },
            )
        )
        assert code == 0
        assert result["b_polygon"]["center"]["x"] == pytest.approx(1.0, rel=1e-12)
        assert result["b_polygon"]["center"]["y"] == pytest.approx(SQRT2, rel=1e-12)


class TestRoundTrip:
    def test_reconstruct_feeds_back_through_dual(self):
        rec, code = run(
            JobRequest(
                "reconstruct",
                {
                    "polygon": {
                        "n": 5,
                        "center": {"x": 0.2, "y": -0.3},
                        "r": 2.0,
                        "phase": 0.4,
                    },
                    "point": {"x": 1.1, "y": 0.2},
                    "direction": 0.9,
                },
            )
        )
        assert code == 0
        first, code = run(
            JobRequest("dual", {"distances": rec["distances"]})
        )
        assert code == 0
        second, code = run(
            JobRequest("dual", {"distances": rec["companion_distances"]})
        )
        assert code == 0
        for key in ("larger", "smaller"):
            for field in ("circumradius", "center_distance"):
                assert first[key][field] == pytest.approx(second[key][field], rel=1e-9)


class TestProcessLevel:
    def test_square_dual_exit_zero(self):
        proc = run_cli(["dual", "--distances", SQUARE_DISTANCES])
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["larger"]["circumradius"] == pytest.approx(SQRT2, rel=1e-12)
        assert out["consistency"]["passed"] is True
        assert proc.stdout.endswith(b"\n")

    def test_triangle_inequality_exit_one(self):
        proc = run_cli(["dual", "--distances", "1,1,5"])
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["code"] == "TRIANGLE_INEQUALITY"

    def test_usage_error_exit_two(self):
        proc = run_cli(["dual"])
        assert proc.returncode == 2

    def test_schema_error_exit_two(self):
        proc = run_cli(["dual", "--distances", "1,foo,3"])
        assert proc.returncode == 2

    def test_byte_determinism_json(self):
        a = run_cli(["dual", "--distances", SQUARE_DISTANCES])
        b = run_cli(["dual", "--distances", SQUARE_DISTANCES])
        assert a.stdout == b.stdout

    def test_byte_determinism_svg(self, tmp_path):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        argv = [
            "render",
            "--scene",
            "dual",
            "--polygon",
            SQUARE_POLYGON,
            "--point",
            "1,0",
        ]
        a = run_cli(argv + ["--out", str(out1)])
        b = run_cli(argv + ["--out", str(out2)])
        assert a.returncode == b.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert a.stdout == b.stdout


def _count_classes(svg_text):
    root = ET.fromstring(svg_text)
    counts = {}
    for el in root.iter():
        cls = el.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


class TestRenderStructure:
    def test_dual_scene_counts(self):
        result, code = run(
            JobRequest(
                "render",
                {
                    "scene": "dual",
                    "polygon": {
                        "n": 4,
                        "center": {"x": 0, "y": 0},
                        "r": SQRT2,
                        "phase": math.pi / 4,
                    },
                    "point": {"x": 1, "y": 0},
                    "direction": 0.0,
                },
            )
        )
        assert code == 0
        counts = _count_classes(result["svg"])
        assert counts["polygon"] == 2
        assert counts["construction-circle"] == 3
        assert counts["point-marker"] == 1

    def test_dual_scene_with_mirror(self):
        result, code = run(
            JobRequest(
                "render",
                {
                    "scene": "dual",
                    "polygon": {
                        "n": 4,
                        "center": {"x": 0, "y": 0},
                        "r": SQRT2,
                        "phase": math.pi / 4,
                    },
                    "point": {"x": 1, "y": 0},
                    "direction": 0.0,
                    "mirror": True,
                },
            )
        )
        assert code == 0
        counts = _count_classes(result["svg"])
        assert counts["polygon"] == 3
        assert counts["construction-circle"] == 3
        assert counts["point-marker"] == 1

    def test_two_points_scene_counts(self):
        result, code = run(
            JobRequest(
                "render",
                {
                    "scene": "two-points",
                    "polygon_a": {
                        "n": 4,
                        "center": {"x": 0, "y": 0},
                        "r": SQRT2,
                        "phase": math.pi / 4,
                    },
                    "polygon_b": {
                        "n": 4,
                        "center": {"x": 2, "y": 1},
                        "r": 1.0,
                        "phase": math.pi,
                    },
                },
            )
        )
        assert code == 0
        counts = _count_classes(result["svg"])
        assert counts["polygon"] == 2
        assert counts["construction-circle"] == 2
        assert counts["point-marker"] == 2

    def test_pompeiu_scene_counts(self):
        result, code = run(
            JobRequest("render", {"scene": "pompeiu", "distances": [3.0, 5.0, 7.0]})
        )
        assert code == 0
        counts = _count_classes(result["svg"])
        assert counts["polygon"] == 2
        assert counts["point-marker"] == 1
        assert counts["distance-segment"] == 6
        assert counts.get("construction-circle", 0) == 0

    def test_svg_is_wellformed_xml(self):
        result, _ = run(
            JobRequest("render", {"scene": "pompeiu", "distances": [3.0, 5.0, 7.0]})
        )
        ET.fromstring(result["svg"])  # parse must succeed


class TestVerifyCommand:
    def test_small_verify_run(self):
        result, code = run(
            JobRequest("verify", {"instances": 3, "n_min": 3, "n_max": 5, "seed": 100})
        )
        assert code == 0
        assert result["instances"] == 3
        assert result["found"] == 3
        assert result["agreed"] == 3
        assert result["max_param_error"] <= 1e-5


def _square_request(**changes):
    polygon = {"n": 4, "center": {"x": 0.0, "y": 0.0}, "r": 1.0}
    polygon.update(changes.pop("polygon", {}))
    return {"polygon": polygon, "point": {"x": 0.3, "y": 0.1}, **changes}


#: Every integer payload key, as a payload builder around one value.
INTEGER_KEYS = [
    ("verify", lambda v: {"instances": v}),
    ("verify", lambda v: {"seed": v}),
    ("verify", lambda v: {"n_min": v}),
    ("verify", lambda v: {"n_max": v}),
    ("verify", lambda v: {"grid": v}),
    ("verify", lambda v: {"refine": v}),
    ("reconstruct", lambda v: _square_request(polygon={"n": v})),
    ("reconstruct", lambda v: _square_request(anchor_index=v)),
    ("render", lambda v: _square_request(scene="dual", anchor_index=v)),
]
INTEGER_IDS = ["instances", "seed", "n_min", "n_max", "grid", "refine", "polygon.n",
               "anchor_index", "render-anchor_index"]

#: Every float payload key, as a payload builder around one value.
NUMBER_KEYS = [
    ("dual", lambda v: {"distances": [3.0, v, 7.0]}),
    ("reconstruct", lambda v: _square_request(point={"x": v, "y": 0.1})),
    ("reconstruct", lambda v: _square_request(point={"x": 0.3, "y": v})),
    ("reconstruct", lambda v: _square_request(polygon={"center": {"x": v, "y": 0.0}})),
    ("reconstruct", lambda v: _square_request(polygon={"center": {"x": 0.0, "y": v}})),
    ("reconstruct", lambda v: _square_request(polygon={"r": v})),
    ("reconstruct", lambda v: _square_request(polygon={"phase": v})),
    ("reconstruct", lambda v: _square_request(direction=v)),
    ("dual", lambda v: {"distances": [3.0, 5.0, 7.0], "tol": v}),
]
NUMBER_IDS = ["distances", "point.x", "point.y", "center.x", "center.y", "r", "phase", "direction",
              "tol"]


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("command, payload", INTEGER_KEYS, ids=INTEGER_IDS)
def test_infinite_integer_is_a_schema_error(command, payload, value):
    # int() raises OverflowError on an infinite float; it must not escape run()
    with pytest.raises(SchemaError, match="must be an integer"):
        run(JobRequest(command, payload(value)))


@pytest.mark.parametrize("command, payload", NUMBER_KEYS, ids=NUMBER_IDS)
def test_integer_too_large_for_a_float_is_a_schema_error(command, payload):
    # float() raises OverflowError on such an int; it must not escape run()
    with pytest.raises(SchemaError, match="must be a number"):
        run(JobRequest(command, payload(10**400)))


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "command, payload", INTEGER_KEYS + NUMBER_KEYS, ids=INTEGER_IDS + NUMBER_IDS
)
def test_boolean_is_not_a_number(command, payload, value):
    # int() and float() take True as 1 and False as 0
    with pytest.raises(SchemaError, match="must be an? (integer|number), got (True|False)"):
        run(JobRequest(command, payload(value)))


@pytest.mark.parametrize(
    "value", [math.inf, -math.inf, math.nan, "inf", "-inf", "nan", "1e400deg", "abc"]
)
@pytest.mark.parametrize("key", ["phase", "direction"])
def test_angle_that_is_not_a_finite_number_names_its_key(key, value):
    command, payload = NUMBER_KEYS[NUMBER_IDS.index(key)]
    with pytest.raises(SchemaError, match=rf"^'(polygon\.)?{key}' must be a (finite angle|number)"):
        run(JobRequest(command, payload(value)))


@pytest.mark.parametrize("value", [4.9, -0.5, 1e-300])
@pytest.mark.parametrize("command, payload", INTEGER_KEYS, ids=INTEGER_IDS)
def test_fractional_integer_is_a_schema_error(command, payload, value):
    # int() truncates a float toward zero
    with pytest.raises(SchemaError, match="must be an integer"):
        run(JobRequest(command, payload(value)))


@pytest.mark.parametrize(
    "command, payload",
    [
        ("dual", {"distances": [True, True, True]}),
        ("dual", {"distances": [3.0, 5.0, 7.0], "tol": True}),
        ("reconstruct", _square_request(polygon={"n": 4.9})),
        ("verify", {"instances": 1.9, "n_min": 3.7, "n_max": 4.2}),
    ],
    ids=["bool-distances", "bool-tol", "fractional-n", "fractional-verify"],
)
def test_payloads_once_coerced_are_schema_errors(command, payload):
    with pytest.raises(SchemaError):
        run(JobRequest(command, payload))


def test_integral_float_is_an_integer():
    assert run(JobRequest("reconstruct", _square_request(polygon={"n": 4.0}))) == run(
        JobRequest("reconstruct", _square_request(polygon={"n": 4}))
    )


ALONG_LINE = ",".join(repr(1.0 + k / 65) for k in range(65))


def test_dual_fits_65_distances_that_no_polygon_gives(capsys):
    # no vertex cap: 65 distances along a line get a fit, whose residual
    # rejects them
    assert main(["dual", "--distances", ALONG_LINE]) == 0
    consistency = json.loads(capsys.readouterr().out)["consistency"]
    assert consistency["passed"] is False
    assert consistency["residual"] == pytest.approx(0.106, abs=5e-4)


@pytest.mark.parametrize("n", [65, 200, 1000])
def test_regular_polygons_past_64_vertices(n, capsys):
    poly = RegularPolygonSpec(n, Point2(0.0, 0.0), 1.0, 0.3)
    point = Point2(0.25, 0.1)
    distances = ",".join(repr(v) for v in distances_from(point, poly).values)
    assert main(["dual", "--distances", distances]) == 0
    dual = json.loads(capsys.readouterr().out)
    assert dual["consistency"]["passed"]
    assert dual["larger"]["circumradius"] == pytest.approx(1.0, rel=1e-12)
    assert dual["larger"]["center_distance"] == pytest.approx(math.hypot(0.25, 0.1), rel=1e-12)
    assert main(["averages", "--distances", distances]) == 0
    averages = json.loads(capsys.readouterr().out)
    assert len(averages["values"]) == n - 1
    assert averages["consistency"]["passed"]
    assert [c["order"] for c in averages["consistency"]["checks"]] == list(range(3, n))


@pytest.mark.parametrize(
    "argv",
    [
        ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "5,2,0,1,180deg"],
        ["reconstruct", "--polygon", SQUARE_POLYGON, "--point", "1,0", "--anchor-index", "9"],
        ["verify", "--instances", "1", "--grid", "4"],
        ["verify", "--instances", "1", "--n-min", "2"],
        ["verify", "--instances", "-2"],
        ["averages", "--distances", "1e154,1.1e154,1.2e154"],
        ["dual", "--distances", "3,5,7", "--tol", "-1"],
        ["two-points", *README_PAIR, "--tol", "nan"],
        ["two-points", *README_PAIR, "--tol", "inf"],
        ["render", "--scene", "dual", "--polygon", "4,0,0,8e307", "--point", "1e307,0"],
        ["verify", "--instances", "1", "--grid", "8", "--refine", "0"],
        ["verify", "--instances", "1", "--n-min", "9", "--n-max", "8"],
        ["verify", "--instances", "0", "--n-min", "9", "--n-max", "8"],
        None,
    ],
    ids=["two-points-mixed-n", "anchor-index-9", "grid-4", "n-min-2", "instances-negative",
         "averages-sum-overflow", "tol-negative", "tol-nan", "tol-inf", "render-width-overflow",
         "refine-0", "n-range-reversed", "n-range-reversed-no-instances", "run-instances-x"],
)
def test_precondition_failures_are_schema_errors(argv, capsys):
    if argv is None:
        with pytest.raises(SchemaError):
            run(JobRequest("verify", {"instances": "x"}))
        return
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("schema error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("grid", [MAX_GRID_RESOLUTION, MAX_GRID_RESOLUTION + 1])
def test_grid_is_bounded(grid, capsys):
    # with no instance no search runs, so neither value builds a phase table
    misses = _phase_tables.cache_info().misses
    ok = grid <= MAX_GRID_RESOLUTION
    assert main(["verify", "--instances", "0", "--grid", str(grid)]) == (0 if ok else 2)
    captured = capsys.readouterr()
    if ok:
        assert json.loads(captured.out)["instances"] == 0
        assert run(JobRequest("verify", {"instances": 0, "grid": grid}))[1] == 0
    else:
        assert captured.out == ""
        assert captured.err == f"schema error: grid_resolution must be <= {MAX_GRID_RESOLUTION}\n"
        with pytest.raises(SchemaError, match=f"must be <= {MAX_GRID_RESOLUTION}"):
            run(JobRequest("verify", {"instances": 0, "grid": grid}))
    assert _phase_tables.cache_info().misses == misses


def test_option_count():
    # a new knob must be a deliberate change: update this count with it
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = [
        a for sp in sub.choices.values() for a in sp._actions
        if not isinstance(a, argparse._HelpAction)
    ]
    assert len(options) == 38


#: argv lists that argparse answers itself, with help or a usage error.
PARSER_EXITS = [
    ["--help"],
    *([command, "--help"] for command in _SUBCOMMANDS),
    ["averages"],
    ["dual", "--tol", "1e-9"],
    ["reconstruct", "--polygon", SQUARE_POLYGON],
    ["pompeiu", "--construct"],
    ["two-points", "--polygon-b", "4,2,1,1,180deg"],
    ["verify", "--grid"],  # verify has no required option: its value is missing instead
    ["render", "--mirror"],
    ["bogus"],
    [],
    ["dual", "--distances", SQUARE_DISTANCES, "extra"],
]


def _parser_exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err, exc.value.code


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_one_subparser_parses_as_all_of_them(argv, capsys):
    want = _parser_exit(_build_parser().parse_args, argv, capsys)
    one = _build_parser(argv[0] if argv else None)
    (sub,) = [a for a in one._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ([argv[0]] if argv and argv[0] in _SUBCOMMANDS else list(_SUBCOMMANDS))
    assert _parser_exit(one.parse_args, argv, capsys) == want
    assert _parser_exit(main, argv, capsys) == want
    assert want[2] == (0 if "--help" in argv else 2)


@pytest.mark.parametrize(
    "argv, message",
    [([], "the following arguments are required: command"),
     (["bogus"], "argument command: invalid choice: 'bogus'")],
)
def test_command_errors_name_the_command_argument(argv, message, capsys):
    _, err, code = _parser_exit(main, argv, capsys)
    assert code == 2
    assert f"polydual: error: {message}" in err


def test_verify_takes_no_tol(capsys):
    # the oracle judges its finds at a fixed tolerance, so --tol would change nothing
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--instances", "1", "--grid", "8", "--refine", "1", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _svg_numbers(text):
    """Every number-like token in the document's attribute values."""
    numbers = []
    for value in re.findall(r'="([^"]*)"', text):
        for token in re.split(r"[ ,]", value):
            try:
                numbers.append(float(token))
            except ValueError:
                pass
    return numbers


def test_render_svg_near_the_float_limit_prints_finite_numbers():
    # a width of 2 * 1.2 * 7.4e307 = 1.78e308 still fits; at 7.5e307 it does not
    def scene(r):
        far = Point2(0.9 * r, 0.0)
        return Scene(
            polygons=((RegularPolygonSpec(5, Point2(0.0, 0.0), r, 0.3), "A"),),
            circles=((Point2(0.0, 0.0), r),),
            markers=((far, "M"),),
            spokes=((far, 0),),
        )

    numbers = _svg_numbers(render_svg(scene(7.4e307)))
    assert len(numbers) > 20
    assert all(math.isfinite(v) for v in numbers)
    with pytest.raises(ValueError):
        render_svg(scene(7.5e307))


def test_zero_tol_is_valid(capsys):
    assert main(["two-points", *README_PAIR, "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["m2"] is not None


def _run_fresh(lines):
    """Run a script in a new interpreter that imports the package from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )


def test_no_command_imports_numpy():
    """Every command, ``verify`` included, runs without numpy, and submodules stay modules."""
    # verify last: its report is the one read back
    argvs = [
        ["dual", "--distances", "3,5,7"],
        ["averages", "--distances", SQUARE_DISTANCES],
        ["reconstruct", "--polygon", SQUARE_POLYGON, "--point", "1,0"],
        ["pompeiu", "--distances", "3,5,7", "--construct"],
        ["two-points", *README_PAIR],
        ["render", "--scene", "pompeiu", "--distances", "3,5,7"],
        ["verify", "--instances", "50"],
    ]
    proc = _run_fresh([
        "import contextlib, io, json, sys, types",
        "sys.modules['numpy'] = None  # an attempt to import numpy now raises ImportError",
        "import polydual.cli",
        f"for argv in {argvs!r}:",
        "    out = io.StringIO()",
        "    with contextlib.redirect_stdout(out):",
        "        assert polydual.cli.main(argv) == 0, argv",
        "r = json.loads(out.getvalue())",
        "assert r['instances'] == r['found'] == r['agreed'] == 50, r",
        "import polydual.two_points",
        "assert isinstance(polydual.two_points, types.ModuleType), polydual.two_points",
    ])
    assert proc.returncode == 0, proc.stderr


def test_cli_process_skips_dataclasses_inspect_and_numpy():
    """The records are tuples, so ``dual`` and ``render`` load none of these."""
    proc = _run_fresh([
        "import contextlib, io, sys",
        "import polydual.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert polydual.cli.main(['dual', '--distances', '3,5,7']) == 0",
        "    assert polydual.cli.main(",
        "        ['render', '--scene', 'pompeiu', '--distances', '3,5,7']) == 0",
        "loaded = sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules))",
        "assert not loaded, loaded",
    ])
    assert proc.returncode == 0, proc.stderr


#: What ``import polydual.cli`` loads before any command runs.
CLI_BASE = {"polydual", "polydual.cli", "polydual.errors", "polydual.geometry"}
PENTAGON_DISTANCES = ",".join(
    map(repr, distances_from(Point2(0.3, 0.1), RegularPolygonSpec(5, Point2(0.0, 0.0), 1.0)).values)
)


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["dual", "--distances", "3,5,7"], {"dual"}),
        (["dual", "--distances", PENTAGON_DISTANCES], {"dual"}),
        (["averages", "--distances", SQUARE_DISTANCES], {"cyclic"}),
        (["reconstruct", "--polygon", SQUARE_POLYGON, "--point", "1,0"], {"reconstruct"}),
        (["pompeiu", "--distances", "3,5,7", "--construct"], {"dual", "pompeiu"}),
        (["two-points", *README_PAIR], {"two_points"}),
        (["render", "--scene", "dual", "--polygon", SQUARE_POLYGON, "--point", "1,0"],
         {"reconstruct", "svg"}),
        (["render", "--scene", "two-points", *README_PAIR], {"svg", "two_points"}),
        (["render", "--scene", "pompeiu", "--distances", "3,5,7"], {"dual", "pompeiu", "svg"}),
        (["verify", "--instances", "1"], {"oracle"}),
    ],
    ids=["dual-3", "dual-5", "averages", "reconstruct", "pompeiu-construct", "two-points",
         "render-dual", "render-two-points", "render-pompeiu", "verify"],
)
def test_each_command_loads_only_its_modules(argv, modules):
    """A fresh process loads the CLI's base modules plus its own command's."""
    proc = _run_fresh([
        "import contextlib, io, sys",
        "import polydual.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert polydual.cli.main({argv!r}) == 0",
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'polydual')))",
    ])
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == CLI_BASE | {f"polydual.{m}" for m in modules}


def test_main_writes_output_file(tmp_path, capsys):
    out = tmp_path / "dual.json"
    code = main(["dual", "--distances", SQUARE_DISTANCES, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == out.read_text()  # the file and stdout hold the same text
    data = json.loads(out.read_text())
    assert data["larger"]["circumradius"] == pytest.approx(SQRT2, rel=1e-12)


def test_unwritable_out_is_a_schema_error(tmp_path, capsys):
    for out in (str(tmp_path), ""):
        assert main(["dual", "--distances", "3,5,7", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("schema error:")
        assert "Traceback" not in captured.err


SQUARE = {"n": 4, "center": {"x": 0.0, "y": 0.0}, "r": SQRT2, "phase": "45deg"}
README_PAYLOAD_PAIR = {
    "polygon_a": SQUARE,
    "polygon_b": {"n": 4, "center": {"x": 2.0, "y": 1.0}, "r": 1.0, "phase": "180deg"},
}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["averages", "--distances", "3,5,7"], {"distances": [3.0, 5.0, 7.0]}),
        (["dual", "--distances", "3,5,7"], {"distances": [3.0, 5.0, 7.0]}),
        (["pompeiu", "--distances", "3,5,7"], {"distances": [3.0, 5.0, 7.0]}),
        (["reconstruct", "--polygon", "4,0,0,1.4142135623730951,45deg", "--point", "1,0"],
         {"polygon": SQUARE, "point": {"x": 1.0, "y": 0.0}}),
        (["render", "--scene", "dual", "--polygon", "4,0,0,1.4142135623730951,45deg",
          "--point", "1,0"],
         {"scene": "dual", "polygon": SQUARE, "point": {"x": 1.0, "y": 0.0}}),
        (["two-points", *README_PAIR], README_PAYLOAD_PAIR),
        (["verify", "--instances", "1"], {"instances": 1}),
    ],
    ids=["averages", "dual", "pompeiu", "reconstruct", "render-dual", "two-points", "verify"],
)
def test_json_api_and_argv_share_defaults(argv, payload, capsys):
    # only the required inputs: every default comes from where both entry points read it
    result, code = run(JobRequest(argv[0], payload))
    assert code == 0
    assert main(argv) == 0
    assert capsys.readouterr().out == (result["svg"] if argv[0] == "render" else dumps(result) + "\n")
