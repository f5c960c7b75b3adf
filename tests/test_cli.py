import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _count_classes
from polydual.cli import (
    _SUBCOMMANDS,
    JobRequest,
    _options,
    _quote,
    _read_argv,
    _Usage,
    dumps,
    main,
    run,
)
from polydual.errors import SchemaError
from polydual.geometry import Point2, RegularPolygonSpec, distances_from
from polydual.oracle import MAX_GRID_RESOLUTION, _phase_tables
from polydual.svg import Scene, render_svg

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

SQUARE_DISTANCES = "1,2.2360679774997896,2.2360679774997896,1"
SQUARE_POLYGON = "4,0,0,1.4142135623730951,0.7853981633974483"
README_PAIR = ["--polygon-a", "4,0,0,1.4142135623730951,45deg", "--polygon-b", "4,2,1,1,180deg"]


def _run_python(*args, text=True):
    """Run a new interpreter with ``args``, importing the package from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=text,
    )


def run_cli(argv):
    """``python -m polydual.cli`` with ``argv``, its output as bytes."""
    return _run_python("-m", "polydual.cli", *argv, text=False)


def _readme_argvs():
    """The argv of every README line that starts with the command."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [shlex.split(line)[1:] for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("polydual ")]


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

    @given(st.text(st.characters(exclude_categories=())))
    @example("\x7f")  # DEL, which json escapes although it is ASCII
    @example("\ud800 \udfff \U0001f600 \U0010ffff")  # lone surrogates, astral characters
    @example('"\\/\b\t\n\f\r\x00\x1f\x80\xe9\uffff')
    def test_quote_is_json_dumps(self, text):
        assert _quote(text) == json.dumps(text)

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

    def test_usage_error_exit_two(self):
        proc = run_cli(["dual"])
        assert proc.returncode == 2

    def test_schema_error_exit_two(self):
        proc = run_cli(["dual", "--distances", "1,foo,3"])
        assert proc.returncode == 2

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
]
INTEGER_IDS = ["instances", "seed", "n_min", "n_max", "grid", "refine", "polygon.n"]

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
    # 65 distances along a line get a fit, whose polygon's distances miss
    # them by a residual in the input's units
    assert main(["dual", "--distances", ALONG_LINE]) == 0
    consistency = json.loads(capsys.readouterr().out)["consistency"]
    assert consistency["passed"] is False
    assert consistency["residual"] == pytest.approx(0.1086, abs=5e-4)


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
    assert "passed" not in averages
    assert [c["order"] for c in averages["checks"]] == list(range(3, n))


@pytest.mark.parametrize(
    "argv",
    [
        ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "5,2,0,1,180deg"],
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
    ids=["two-points-mixed-n", "grid-4", "n-min-2", "instances-negative",
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
    assert sum(len(_options(command)) for command in _SUBCOMMANDS) == 35


def _reference_parser():
    """argparse built from the option table: the reference the argv reader is compared with."""
    parser = argparse.ArgumentParser(prog="polydual")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _SUBCOMMANDS:
        sp = sub.add_parser(command)
        for flag, (required, takes_value) in _options(command).items():
            action = "store" if takes_value else "store_true"
            sp.add_argument(flag, required=required, action=action)
    return parser


REFERENCE = _reference_parser()

#: argv lists that get help or a usage error.
PARSER_EXITS = [
    ["--help"],
    *([command, "--help"] for command in _SUBCOMMANDS),
    ["averages"],
    ["dual", "--tol", "1e-9"],
    ["reconstruct", "--polygon", SQUARE_POLYGON],
    ["pompeiu", "--construct"],
    ["two-points", "--polygon-b", "4,2,1,1,180deg"],
    ["two-points", "--poly", "4,0,0,1,0", "--polygon-b", "4,2,1,1,180deg"],  # ambiguous
    ["verify", "--grid"],  # verify has no required option: its value is missing instead
    ["render", "--mirror"],
    ["bogus"],
    [],
    ["dual", "--distances", SQUARE_DISTANCES, "extra"],
]


def _parser_exit(argv, capsys):
    """The reference parser's stdout, stderr and exit status for ``argv``."""
    with pytest.raises(SystemExit) as exc:
        REFERENCE.parse_args(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err, exc.value.code


def _main_exit(argv):
    """``main(argv)``'s stdout, stderr and exit status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def _error(err):
    """What a usage error's last line says after the program's name."""
    return err.splitlines()[-1].partition(": error: ")[2]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_main_exits_as_the_parser_does(argv, capsys):
    want_out, want_err, want_code = _parser_exit(argv, capsys)
    out, err, code = _main_exit(argv)
    assert code == want_code == (0 if "--help" in argv else 2)
    if code:  # the same fault; argparse also lists the choices of an unknown command
        assert out == ""
        assert err.startswith("usage: polydual")
        assert _error(err) and _error(want_err).startswith(_error(err))
    else:  # the command's usage line names every flag it takes
        assert err == ""
        assert out.startswith("usage: polydual") and want_out.startswith("usage: polydual")
        assert len(argv) == 1 or all(flag in out for flag in _options(argv[0]))


@pytest.mark.parametrize(
    "argv",
    [["dual", "--distances", "3,5,7", "--"], ["verify", "--out", "--a b"]],
    ids=" ".join,
)
def test_a_stray_or_spaced_double_dash_is_a_usage_error(argv):
    # a stray '--', or a spaced value that starts with '--', gets no answer
    out, err, code = _main_exit(argv)
    assert (out, code) == ("", 2)
    assert "polydual: error: " in err


def _argparse_read(argv):
    """The command and the values the reference parser sets, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(REFERENCE.parse_args(argv))
        except SystemExit:
            return None
    command = args.pop("command")
    return command, {key: value for key, value in args.items() if value not in (None, False)}


def _reader_read(argv):
    """``_read_argv(argv)``, or None where it raises ``_Usage``."""
    try:
        return _read_argv(argv)
    except _Usage:
        return None


def _has_spaced_value(argv, dashes):
    """Whether some flag of ``argv`` is followed by a token that starts with ``dashes``.

    With one '-', the token must not start with two.
    """
    return any(
        flag.startswith("--") and "=" not in flag and value.startswith(dashes)
        and (dashes == "--" or value[:2] != "--")
        for flag, value in zip(argv[1:], argv[2:])
    )


FLAGS = sorted({flag for command in _SUBCOMMANDS for flag in _options(command)})
#: Help, abbreviations (unique or not), a positional and separators.
ODD_FLAGS = ["-h", "--help", "--he", "--dist", "--poly", "--polygon-", "--n", "--sc", "--", "-",
             "extra"]
VALUES = ["--", "-0.5", "-1,2,3", "", " -1", "3,5,7", "4,0,0,1", "1,0", "1e-9", "5", "=x",
          "--out", "--a b", "-h", "-x", "dual", "two-points", "pompeiu", "star"]


@st.composite
def _argvs(draw):
    """A command, then its required flags and up to four more of any command's, or odd ones.

    Each flag is bare, joined to a value by '=' or followed by one.
    """
    command = draw(st.sampled_from(list(_SUBCOMMANDS)))
    options = _options(command)
    flags = [flag for flag, (required, _) in options.items() if required]
    flags += draw(st.lists(st.sampled_from(list(options)) | st.sampled_from(FLAGS + ODD_FLAGS),
                           max_size=4))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw(st.sampled_from(VALUES) | st.text(max_size=3))
        form = draw(st.sampled_from(["bare", "joined", "spaced"]))
        argv += {"bare": [flag], "joined": [f"{flag}={value}"], "spaced": [flag, value]}[form]
    return argv


def _with_known_argvs(test):
    """``test`` with every golden-corpus and README argv as an explicit example."""
    corpus = json.loads(
        (Path(__file__).parent / "golden" / "cli_corpus.json").read_text(encoding="utf-8"))
    for argv in [e["argv"] for e in corpus] + _readme_argvs():
        test = example(argv)(test)
    return test


@_with_known_argvs
@settings(max_examples=500)  # about one argv in seven is one the reader takes
@given(_argvs())
def test_argv_reader_agrees_with_argparse_where_it_reads(argv):
    """Where both read, the same values; where one alone reads, a value the other refuses."""
    read, want = _reader_read(argv), _argparse_read(argv)
    if read is None:  # main writes the help, or the usage error
        out, err, code = _main_exit(argv)
        if code == 0:
            assert any(t in ("-h", "--h", "--he", "--hel", "--help") for t in argv), argv
            assert out.startswith("usage: polydual") and err == ""
        else:
            assert (code, out) == (2, "")
            assert err.startswith("usage: polydual") and "\npolydual: error: " in err
        if want is not None:  # argparse takes a spaced value with a space in it as a value
            assert _has_spaced_value(argv, "--"), argv
    elif want is not None:
        if sys.version_info < (3, 13):  # there argparse turns an '=' value '--…' into []
            values = read[1]
            want = (want[0], {k: values[k] if v == [] and values[k].startswith("--") else v
                              for k, v in want[1].items()})
        assert read == want
    else:  # argparse reads the value as a flag
        assert _has_spaced_value(argv, "-"), argv


def test_argv_reader_reads_every_readme_example():
    for argv in _readme_argvs():
        assert _read_argv(argv), argv


@pytest.mark.parametrize(
    "argv, values",
    [
        (["dual", "--distances=3,5,7", "--distances=1,1,1"], {"distances": "1,1,1"}),  # the last
        (["dual", "--dist", "3,5,7"], {"distances": "3,5,7"}),  # a unique prefix
        (["render", "--scene", "pompeiu", "--distances", "-1,2,3"],
         {"scene": "pompeiu", "distances": "-1,2,3"}),  # spaced, starting with one '-'
        (["verify", "--out=--"], {"out": "--"}),  # an '=' value as written
        (["render", "--sc=dual", "--polygon", "4,0,0,1", "--poi", "-0.5,0", "--mirror",
          "--mirror"],
         {"scene": "dual", "polygon": "4,0,0,1", "point": "-0.5,0", "mirror": True}),
        (["render", "--scene=star"], {"scene": "star"}),  # the render command refuses it
    ],
    ids=["repeated", "prefix", "spaced-negative", "two-dash-value", "every-form", "unknown-scene"],
)
def test_argv_reader_reads(argv, values):
    assert _read_argv(argv) == (argv[0], values)


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", "--distances", "3,5,7", "extra"],  # positional
        ["dual", "--distances", "3,5,7", "-h"],
        ["dual", "--distances", "3,5,7", "--he"],  # a prefix of --help
        ["two-points", *README_PAIR, "--poly=4,0,0,1"],  # an ambiguous prefix
        ["dual", "--tol", "1e-9"],  # a required option missing
        ["pompeiu", "--distances=3,5,7", "--construct=1"],
        ["dual", "--distances"],
        ["dual", "--distances", "--tol", "1e-9"],  # a spaced value starting with '--'
        ["verify", "--out", "-h"],
        ["dual", "--distances=3,5,7", "--"],  # a stray separator
        ["bogus"],
        [],
    ],
    ids=" ".join,
)
def test_argv_reader_declines(argv):
    with pytest.raises(_Usage):
        _read_argv(argv)


@pytest.mark.parametrize(
    "argv, command, error",
    [
        (["--he"], None, None),
        (["dual", "--distances=3,5,7", "-h"], "dual", None),
        ([], None, "the following arguments are required: command"),
        (["bogus", "--help"], None, "argument command: invalid choice: 'bogus'"),
        (["dual", "--distances=3,5,7", "extra"], "dual", "unrecognized arguments: extra"),
        (["dual", "--distances=3,5,7", "--"], "dual", "unrecognized arguments: --"),
        (["verify", "--n=3"], "verify", "ambiguous option: --n could match --n-min, --n-max"),
        (["dual", "--distances", "--tol", "1"], "dual",
         "argument --distances: expected one argument"),
        (["verify", "--out"], "verify", "argument --out: expected one argument"),
        (["render", "--scene=dual", "--mirror=no"], "render",
         "argument --mirror: ignored explicit argument 'no'"),
        (["reconstruct", "--point=1,0"], "reconstruct",
         "the following arguments are required: --polygon"),
        (["two-points"], "two-points",
         "the following arguments are required: --polygon-a, --polygon-b"),
    ],
    ids=["help-alone", "help-after-command", "no-command", "unknown-command", "positional",
         "stray-separator", "ambiguous", "spaced-two-dash-value", "missing-value",
         "bare-flag-value", "missing-required", "missing-both"],
)
def test_usage_exception_names_its_fault(argv, command, error):
    with pytest.raises(_Usage) as exc:
        _read_argv(argv)
    assert exc.value.args == (command, error)


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", "--distances=--"],
        ["dual", "--dist=--"],
        ["dual", "--distances=3,5,7", "--distances=--"],
    ],
    ids=" ".join,
)
def test_a_two_dash_value_is_a_schema_error(argv, tmp_path, monkeypatch, capsys):
    # an '=' value is read as written, so '--' reaches the distance reader
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "schema error: 'distances[0]' must be a number, got '--'\n"


def test_out_may_be_named_two_dashes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--instances", "0", "--out=--"]) == 0
    assert (tmp_path / "--").read_text(encoding="utf-8") == capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [([], "the following arguments are required: command"),
     (["bogus"], "argument command: invalid choice: 'bogus'")],
)
def test_command_errors_name_the_command_argument(argv, message):
    _, err, code = _main_exit(argv)
    assert code == 2
    assert f"polydual: error: {message}" in err


def test_verify_takes_no_tol():
    # the oracle judges its finds at a fixed tolerance, so --tol would change nothing
    out, err, code = _main_exit(
        ["verify", "--instances", "1", "--grid", "8", "--refine", "1", "--tol", "1e-9"])
    assert (out, code) == ("", 2)
    assert err.endswith("polydual: error: unrecognized arguments: --tol\n")


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


def _assert_order_free(n, ratio, radius, rng, requests):
    """Each (command, payload) answers a shuffled distance list with the same bytes.

    An error object too: its context names the sides in descending order.
    """
    poly = RegularPolygonSpec(n, Point2(0.0, 0.0), radius, 0.3)
    point = Point2(ratio * radius * 0.8, ratio * radius * 0.6)
    distances = list(distances_from(point, poly).values)
    shuffled = rng.sample(distances, n)
    for command, payload in requests:
        (out, code), (out_s, code_s) = (
            run(JobRequest(command, {**payload, "distances": d})) for d in (distances, shuffled)
        )
        assert code_s == code, command
        assert dumps(out_s) == dumps(out), command


@given(st.integers(4, 40), st.floats(0.05, 3.0), st.floats(1e-3, 1e3),
       st.randoms(use_true_random=False))
def test_distance_lists_print_the_same_bytes_for_any_order(n, ratio, radius, rng):
    _assert_order_free(n, ratio, radius, rng, [("averages", {}), ("dual", {})])


@given(st.floats(0.05, 3.0), st.floats(1e-3, 1e3), st.randoms(use_true_random=False))
def test_triangles_print_the_same_bytes_for_any_order(ratio, radius, rng):
    _assert_order_free(3, ratio, radius, rng, [
        ("pompeiu", {}),
        ("pompeiu", {"construct": True}),
        ("render", {"scene": "pompeiu"}),
    ])


@pytest.mark.parametrize(
    "command, payload, distances",
    [
        ("dual", {}, [1, 2, 4]),  # TRIANGLE_INEQUALITY
        ("pompeiu", {}, [0.1, 0.2, 5]),
        ("pompeiu", {"construct": True}, [1, 2, 3]),  # DEGENERATE
        ("render", {"scene": "pompeiu"}, [1, 2, 3]),
    ],
    ids=["dual", "pompeiu", "pompeiu-construct", "render"],
)
def test_error_objects_print_the_same_bytes_for_any_order(command, payload, distances):
    printed = {
        dumps(run(JobRequest(command, {**payload, "distances": list(order)})))
        for order in itertools.permutations(distances)
    }
    assert len(printed) == 1 and '"code":' in printed.pop()


def test_zero_tol_is_valid(capsys):
    assert main(["two-points", *README_PAIR, "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["m2"] is not None


@pytest.mark.parametrize(
    "pair",
    [README_PAIR, ["--polygon-a", "4,0,0,1,0", "--polygon-b", "4,-2,0,3,0"],
     ["--polygon-a", "4,0,0,1,0", "--polygon-b", "4,3,0,2,180deg"]],
    ids=["readme", "collinear-outside", "collinear-between"],
)
def test_zero_tol_matches_at_the_floor(pair, capsys):
    # the distances carry rounding; verify_permutation floors tol at 1e-10
    assert main(["two-points", *pair, "--tol", "0"]) == 0
    assert all(m["ok"] for m in json.loads(capsys.readouterr().out)["matches"])


@pytest.mark.parametrize(
    "command, payload",
    [("averages", {"distances": [3, 5, 7]}),
     ("verify", {"instances": 1, "grid": 8, "refine": 1})],
)
def test_tol_is_read_only_by_commands_that_take_it(command, payload):
    # averages and verify take no --tol, so a payload's tol is never read
    for tol in ("abc", -1.0, math.nan):
        assert run(JobRequest(command, {**payload, "tol": tol})) == run(
            JobRequest(command, payload))
    with pytest.raises(SchemaError, match="'tol' must be a number"):
        run(JobRequest("dual", {"distances": [3, 5, 7], "tol": "abc"}))


def _run_fresh(lines):
    """Run a script in a new interpreter that imports the package from src."""
    return _run_python("-c", "\n".join(lines))


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


#: What every command's process loads besides its own modules: ``import
#: polydual.cli`` loads the package, ``cli`` and ``errors``, and each command's
#: module loads ``geometry``.
CLI_BASE = {"polydual", "polydual.cli", "polydual.errors", "polydual.geometry"}
PENTAGON_DISTANCES = ",".join(
    map(repr, distances_from(Point2(0.3, 0.1), RegularPolygonSpec(5, Point2(0.0, 0.0), 1.0)).values)
)


#: Each command's own modules, a render command's by its scene.
OWN_MODULES = {
    "dual": {"dual"},
    "averages": {"cyclic"},
    "reconstruct": {"reconstruct"},
    "pompeiu": {"dual", "pompeiu"},
    "two-points": {"two_points"},
    "verify": {"oracle"},
    "render dual": {"reconstruct", "svg"},
    "render two-points": {"svg", "two_points"},
    "render pompeiu": {"dual", "pompeiu", "svg"},
}
MODULE_ARGVS = {
    "dual-3": ["dual", "--distances", "3,5,7"],
    "dual-5": ["dual", "--distances", PENTAGON_DISTANCES],
    "averages": ["averages", "--distances", SQUARE_DISTANCES],
    "reconstruct": ["reconstruct", "--polygon", SQUARE_POLYGON, "--point", "1,0"],
    "pompeiu-construct": ["pompeiu", "--distances", "3,5,7", "--construct"],
    "two-points": ["two-points", *README_PAIR],
    "render-dual": ["render", "--scene", "dual", "--polygon", SQUARE_POLYGON, "--point", "1,0"],
    "render-two-points": ["render", "--scene", "two-points", *README_PAIR],
    "render-pompeiu": ["render", "--scene", "pompeiu", "--distances", "3,5,7"],
    "verify": ["verify", "--instances", "1"],
    "reconstruct-negative": ["reconstruct", "--polygon", "4,0,0,1", "--point", "-0.5,0",
                             "--direction", "-0.5"],
    "dual-prefix": ["dual", "--dist", "3,5,7"],
    # every README example, its --out file redirected by the test
    **{f"readme-{i:02d}-{argv[0]}": argv for i, argv in enumerate(_readme_argvs())},
}


@pytest.mark.parametrize("argv", list(MODULE_ARGVS.values()), ids=list(MODULE_ARGVS))
def test_each_command_loads_only_its_modules(argv, tmp_path):
    """A fresh process loads the CLI's base modules plus its own command's, and neither
    argparse nor json.

    So does ``python -m polydual.cli``, read from its ``-X importtime`` report,
    where the CLI runs as ``__main__``: no module imports ``polydual.cli``,
    which would compile and run it a second time.  An ``--out`` file lands
    in ``tmp_path``.
    """
    argv = [str(tmp_path / a) if flag == "--out" else a for flag, a in zip(["", *argv], argv)]
    modules = OWN_MODULES[f"render {argv[2]}" if argv[0] == "render" else argv[0]]
    expected = CLI_BASE | {f"polydual.{m}" for m in modules}
    proc = _run_fresh([
        "import contextlib, io, sys",
        "import polydual.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert polydual.cli.main({argv!r}) == 0",
        "assert not {'argparse', 'json'} & set(sys.modules), sorted(sys.modules)",
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'polydual')))",
    ])
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == expected
    proc = _run_python("-X", "importtime", "-m", "polydual.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    imported = set(re.findall(r"\|\s*([\w.]+)\s*$", proc.stderr, re.M))
    assert not {"argparse", "json"} & {m.split(".")[0] for m in imported}, proc.stderr
    assert {m for m in imported if m.split(".")[0] == "polydual"} == expected - {"polydual.cli"}


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["dual"], 2)], ids=["help", "usage"])
def test_help_and_usage_errors_load_neither_argparse_nor_json(argv, code):
    """The option table writes both: a fresh process loads no command module, argparse or json.

    Both in process and under ``python -m polydual.cli`` with ``-X importtime``.
    """
    proc = _run_fresh([
        "import contextlib, io, sys",
        "import polydual.cli",
        "out = contextlib.redirect_stdout(io.StringIO())",
        "with out, contextlib.redirect_stderr(io.StringIO()):",
        f"    assert polydual.cli.main({argv!r}) == {code}",
        "assert not {'argparse', 'json'} & set(sys.modules), sorted(sys.modules)",
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'polydual')))",
    ])
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == {"polydual", "polydual.cli", "polydual.errors"}
    proc = _run_python("-X", "importtime", "-m", "polydual.cli", *argv)
    assert proc.returncode == code, proc.stderr
    assert ("usage: polydual" in proc.stdout) == (code == 0)
    imported = set(re.findall(r"\|\s*([\w.]+)\s*$", proc.stderr, re.M))
    assert not {"argparse", "json"} & {m.split(".")[0] for m in imported}, proc.stderr
    assert {m for m in imported if m.startswith("polydual")} == {"polydual", "polydual.errors"}


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


def _verdicts(report):
    """Every ``passed`` and ``ok`` value in a parsed JSON report, however deep."""
    if isinstance(report, dict):
        for key, value in report.items():
            yield from [value] if key in ("passed", "ok") else _verdicts(value)
    elif isinstance(report, list):
        for value in report:
            yield from _verdicts(value)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # every README example, its --out files landing in tmp_path; each is a genuine
    # configuration, so every verdict it prints is true, and every verify run agrees
    argvs = _readme_argvs()
    assert argvs
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        report = json.loads(out) if out.startswith("{") else {}
        assert all(v is True for v in _verdicts(report)), (argv, out)
        if argv[0] == "verify":
            assert report["instances"] == report["found"] == report["agreed"], (argv, out)


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
