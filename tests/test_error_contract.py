"""Every request meets the error contract: exit 0, 1 or 2, and nothing else.

Random payloads go through ``run`` for all seven commands, and random argv
lists through ``main``.  In process a request answers (exit 0), comes back
as a domain error object (exit 1) or raises ``SchemaError``; through
``main`` it returns 0, 1 or 2, or argparse exits with 2.  Vertex counts,
``instances``, ``grid`` and ``refine`` are drawn small or invalid, never
large and valid, so every request ends quickly.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydual.cli import _SUBCOMMANDS, JobRequest, dumps, main, run
from polydual.cyclic import averages_from_parameters
from polydual.errors import SchemaError
from polydual.geometry import MAX_VERTICES, Point2, RegularPolygonSpec, distances_from
from polydual.oracle import OracleConfig, agreement, random_instance
from polydual.reconstruct import construct_dual
from polydual.svg import Scene, render_svg
from polydual.two_points import two_points

HUGE = 10**400
HUGE_TEXT = str(HUGE)

# --------------------------------------------------------------------------
# payloads for run()

#: Values that no key takes as a valid number, count or record.
junk = st.sampled_from(
    [None, True, False, math.nan, math.inf, -math.inf, "", "x", "nan", [], {}, [1.0], {"x": 1.0}]
)
#: Numbers too large for a vertex count, and some for a float.
huge = st.sampled_from([HUGE, -HUGE, 1e308, MAX_VERTICES + 1, str(MAX_VERTICES + 1), "1e308"])
#: Any number a key may be sent: odd floats, ints, numeric strings, huge ones, junk.
odd_number = st.one_of(
    st.floats(), st.integers(-10, 10), st.sampled_from(["3", " 0.5 ", "1e-9", "-2"]), huge, junk
)


def mostly(valid, bad=odd_number):
    """``valid`` seven times in eight, ``bad`` otherwise, so most requests get deep."""
    return st.integers(0, 7).flatmap(lambda k: valid if k else bad)


coordinate = mostly(st.floats(-10.0, 10.0))
length = mostly(st.floats(0.0, 10.0))
angle = mostly(st.one_of(st.floats(-10.0, 10.0), st.sampled_from(["45deg", "-30deg", "0.5"])))
vertex_count = mostly(st.integers(3, 12), st.one_of(st.integers(-1, 2), st.just("4.5"), huge, junk))


def record(**fields):
    """An object with every field, else one missing some of them, or junk."""
    return mostly(
        st.fixed_dictionaries(fields),
        st.one_of(st.fixed_dictionaries({}, optional=fields), junk),
    )


point = record(x=coordinate, y=coordinate)
polygon = record(n=vertex_count, center=point, r=length, phase=angle)


@st.composite
def polygon_distances(draw, n):
    """Distances from a point to the vertices of some regular polygon."""
    poly = RegularPolygonSpec(
        draw(n), Point2(0.0, 0.0), draw(st.floats(0.1, 10.0)), draw(st.floats(0.0, 7.0))
    )
    at = Point2(draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)))
    return list(distances_from(at, poly).values)


def distances(lo, hi):
    return mostly(
        st.one_of(
            polygon_distances(st.integers(lo, hi)),
            st.lists(mostly(st.floats(0.0, 10.0)), min_size=lo, max_size=hi),
        ),
        st.one_of(st.lists(odd_number, max_size=hi), junk),
    )


@st.composite
def shared_vertex_pairs(draw):
    """Two same-n polygons through the vertex (r_a, 0) of the first, up to rounding."""
    n, r_a, r_b = draw(st.integers(3, 12)), draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    t = draw(st.floats(0.0, 7.0))
    a = {"n": n, "center": {"x": 0.0, "y": 0.0}, "r": r_a}
    b = {"n": n, "center": {"x": r_a - r_b * math.cos(t), "y": -r_b * math.sin(t)}, "r": r_b,
         "phase": t}
    return {"polygon_a": a, "polygon_b": b}


tol = st.one_of(st.just(1e-9), mostly(st.floats(0.0, 1e-3)), st.sampled_from(["1e-9", "0", "x"]))
count = mostly(st.integers(-1, 2), junk)


def keys(required, optional=None):
    """A payload with ``required`` keys (mostly) and some of ``optional`` and ``tol``."""
    return st.tuples(
        mostly(st.fixed_dictionaries(required), st.fixed_dictionaries({}, optional=required)),
        st.fixed_dictionaries({}, optional={**(optional or {}), "tol": tol}),
    ).map(lambda parts: {**parts[0], **parts[1]})


PAYLOADS = {
    "averages": keys({"distances": distances(3, 8)}),
    "dual": keys({"distances": distances(3, 8)}),
    "pompeiu": keys({"distances": distances(3, 3)}, {"construct": st.booleans()}),
    "reconstruct": keys(
        {"polygon": polygon, "point": point}, {"direction": angle, "anchor_index": count}
    ),
    "two-points": st.one_of(
        keys({"polygon_a": polygon, "polygon_b": polygon}),
        st.tuples(shared_vertex_pairs(), keys({})).map(lambda parts: {**parts[0], **parts[1]}),
    ),
    "verify": keys({}, {
        "instances": count,
        "n_min": vertex_count,
        "n_max": vertex_count,
        "grid": mostly(st.integers(7, 12), junk),
        "refine": mostly(st.integers(0, 2), junk),
        "seed": mostly(st.integers(), st.one_of(huge, junk)),
    }),
}
#: Each scene with the payload of the command whose figure it draws, or a bad scene.
PAYLOADS["render"] = st.sampled_from(
    [("dual", "reconstruct"), ("two-points", "two-points"), ("pompeiu", "pompeiu")]
).flatmap(lambda scene: st.tuples(
    st.fixed_dictionaries({"scene": mostly(st.just(scene[0]), st.just("x"))},
                          optional={"mirror": st.booleans()}),
    PAYLOADS[scene[1]],
)).map(lambda parts: {**parts[0], **parts[1]})
assert set(PAYLOADS) == set(_SUBCOMMANDS)

requests = st.sampled_from(sorted(PAYLOADS)).flatmap(
    lambda command: PAYLOADS[command].map(lambda payload: JobRequest(command, payload))
)


def run_exit(request):
    """``run``'s exit status for ``request``; any exception but ``SchemaError`` escapes."""
    try:
        result, code = run(request)
    except SchemaError:
        return 2
    assert code in (0, 1)
    if code == 1:
        assert set(result) == {"code", "message", "context"}
    dumps(result)  # what main prints must serialize
    return code


@settings(max_examples=400)
@given(requests)
def test_every_payload_meets_the_error_contract(request):
    run_exit(request)


# --------------------------------------------------------------------------
# the same requests as argv lists for main()


#: A record's fields in argv order: a polygon's n,cx,cy,r[,phase], a point's x,y.
FIELDS = ("n", "center", "x", "y", "r", "phase")


def text(value):
    """A payload value as argv text: records and lists comma-joined."""
    if isinstance(value, dict):
        return ",".join(text(value[k]) for k in FIELDS if k in value)
    if isinstance(value, list):
        return ",".join(text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def argv_of(request):
    """``request`` as an argv list; a key its command has no option for is left out."""
    flags = {f for fs, _ in _SUBCOMMANDS[request.command][2] for f in fs}
    argv = [request.command]
    for key, value in request.payload.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            continue
        if key in ("construct", "mirror"):
            argv += [flag] if value else []
        else:
            argv.append(f"{flag}={text(value)}")  # a value may start with "-"
    return argv


def main_exit(argv):
    """``main``'s exit status for ``argv``, with stdout and stderr checked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    return code


@settings(max_examples=300)
@given(requests.map(argv_of))
def test_every_argv_meets_the_error_contract(argv):
    main_exit(argv)


# --------------------------------------------------------------------------
# regression cases

SQUARE = {"n": 4, "center": {"x": 0.0, "y": 0.0}, "r": 1.0}


def _with_n(n):
    return {**SQUARE, "n": n}


@pytest.mark.parametrize("n", [HUGE, MAX_VERTICES + 1, 1e308], ids=["10**400", "bound+1", "1e308"])
@pytest.mark.parametrize(
    "command, payload",
    [
        ("reconstruct", lambda n: {"polygon": _with_n(n), "point": {"x": 0.3, "y": 0.0}}),
        ("two-points", lambda n: {"polygon_a": _with_n(n), "polygon_b": SQUARE}),
        ("two-points", lambda n: {"polygon_a": SQUARE, "polygon_b": _with_n(n)}),
        ("render", lambda n: {"scene": "dual", "polygon": _with_n(n), "point": {"x": 0.3, "y": 0.0}}),
        ("verify", lambda n: {"n_min": n, "n_max": n}),
        ("verify", lambda n: {"n_min": 3, "n_max": n, "instances": 0}),
    ],
    ids=["reconstruct", "two-points-a", "two-points-b", "render", "verify", "verify-n-max"],
)
def test_vertex_count_past_the_bound_is_a_schema_error(command, payload, n):
    # 10**400 raised OverflowError out of run(), and 1e308 or the bound + 1
    # built that many vertices
    with pytest.raises(SchemaError):
        run(JobRequest(command, payload(n)))


@pytest.mark.parametrize("n", [HUGE_TEXT, str(MAX_VERTICES + 1)], ids=["10**400", "bound+1"])
@pytest.mark.parametrize(
    "argv",
    [
        lambda n: ["reconstruct", "--polygon", f"{n},0,0,1", "--point", "0.3,0"],
        lambda n: ["two-points", "--polygon-a", f"{n},0,0,1", "--polygon-b", "4,2,0,1"],
        lambda n: ["render", "--scene", "dual", "--polygon", f"{n},0,0,1", "--point", "0.3,0"],
        lambda n: ["verify", "--n-min", n, "--n-max", n],
    ],
    ids=["reconstruct", "two-points", "render", "verify"],
)
def test_vertex_count_past_the_bound_exits_2(argv, n):
    assert main_exit(argv(n)) == 2


def test_the_bound_itself_is_a_valid_vertex_count():
    assert RegularPolygonSpec(MAX_VERTICES, Point2(0.0, 0.0), 1.0).n == MAX_VERTICES


def test_tol_takes_a_numeric_string():
    distances = {"distances": [3.0, 5.0, 7.0]}
    assert run(JobRequest("dual", {**distances, "tol": "1e-9"})) == run(
        JobRequest("dual", {**distances, "tol": 1e-9})
    )
    assert run_exit(JobRequest("dual", {**distances, "tol": "1e-9"})) == 0


@pytest.mark.parametrize("command", [["dual"], None, 3])
def test_a_command_that_is_not_a_name_is_a_schema_error(command):
    # a list raised TypeError from the dictionary lookup
    with pytest.raises(SchemaError, match="unknown command"):
        run(JobRequest(command, {"distances": [3.0, 5.0, 7.0]}))


# --------------------------------------------------------------------------
# a broken precondition is a SchemaError where it is checked; anything else is a bug


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: two_points(RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0),
                            RegularPolygonSpec(5, Point2(2.0, 0.0), 1.0)),
         "vertex counts differ: 4 != 5"),
        (lambda: construct_dual(RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0), Point2(0.3, 0.0),
                                anchor_index=4),
         r"anchor_index must be in \[0, 4\), got 4"),
        (lambda: render_svg(Scene(circles=((Point2(0.0, 0.0), 1e308),))),
         "the scene's extent is outside the float range"),
        (lambda: averages_from_parameters(2, 1.0, 0.5), "need n >= 3, got 2"),
        (lambda: random_instance(0, (2, 5)), "invalid vertex-count range"),
        (lambda: agreement(0, -1, (3, 8), OracleConfig()), "instances must be >= 0, got -1"),
        (lambda: run(JobRequest("reconstruct", {"polygon": {**SQUARE, "phase": [1]},
                                                "point": {"x": 0.3, "y": 0.0}})),
         r"'polygon.phase' must be a number, got \[1\]"),
        (lambda: run(JobRequest("dual", [3.0, 5.0, 7.0])), "payload must be an object"),
    ],
    ids=["two-points-n", "anchor-index", "svg-extent", "averages-n", "instance-range",
         "instances", "angle-type", "payload-type"],
)
def test_a_broken_precondition_raises_schema_error_where_it_is_checked(build, message):
    with pytest.raises(SchemaError, match=message):
        build()


def test_a_stray_value_error_is_not_a_schema_error(monkeypatch, capsys):
    # a ValueError no precondition check raised is a bug: it escapes as
    # itself rather than reading as a malformed request with exit 2
    def solve(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr("polydual.dual.solve", solve)
    for call in (lambda: run(JobRequest("dual", {"distances": [3, 5, 7]})),
                 lambda: main(["dual", "--distances", "3,5,7"])):
        with pytest.raises(ValueError, match="boom") as exc:
            call()
        assert type(exc.value) is ValueError
    assert capsys.readouterr() == ("", "")
