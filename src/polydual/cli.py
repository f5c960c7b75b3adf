"""Command-line front end: JSON in/out, SVG figures, stable formatting.

Every command builds a ``JobRequest(command, payload)``, dispatches
through ``run`` and prints one JSON document (or an SVG for ``render``).
Every option but ``--out`` is a payload key, its flag with underscores;
an unset option stays out, and the code that reads the key supplies its
default.  All numbers are rendered with 17 significant digits and
dictionary order is fixed, so identical requests produce byte-identical
output.  Exit codes: 0 on success, 1 on a domain error (with a
machine-readable error object), 2 on usage or schema violations.
``dual`` judges consistency by the fit residual of ``dual.solve``;
``averages`` keeps the paper's even-power means and their closure
identities.  Errors are mapped in one place: ``run`` rejects a ``tol``
(default 1e-9) that is not a finite number >= 0 and turns domain errors
into an error object; ``main`` maps a ``SchemaError``, raised wherever a
precondition is checked, and a failure to write ``--out``, to exit 2.
Any other exception is a bug and escapes as itself.  Argv text goes
into the payload as split strings, parsed by the same code as JSON
values.  Each handler imports the modules it runs, so a process loads
only its own command's.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from .errors import DomainError, SchemaError
from .geometry import DistanceSpec, Point2, RegularPolygonSpec, distances_from, verify_permutation

if TYPE_CHECKING:
    from .cyclic import ConsistencyReport
    from .dual import DualSolution
    from .reconstruct import DualPolygonPair


class JobRequest(NamedTuple):
    command: str
    payload: dict[str, Any]


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit numbers


def dumps(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format(obj, ".17g") if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif type(obj) in (list, tuple):  # records are tuples too; they stay unserializable
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# payload parsing


def _parse_number(value: Any, name: str, kind: type = float) -> Any:
    """``kind(value)`` of a JSON value or argv text; a value it refuses is a schema error.

    So is a boolean, and for ``int`` a float that is not integral, which
    ``kind`` would take as 1, 0 or a truncation.
    """
    what = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise SchemaError(f"'{name}' must be {what}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"'{name}' must be {what}, got {value!r}") from exc


def _parse_angle(value: Any, name: str) -> float:
    """Radians, or degrees as text ending in ``deg``; a non-finite angle is a schema error."""
    if isinstance(value, str) and value.strip().endswith("deg"):
        angle = math.radians(_parse_number(value.strip()[:-3], name))
    else:
        angle = _parse_number(value, name)
    if not math.isfinite(angle):
        raise SchemaError(f"'{name}' must be a finite angle, got {value!r}")
    return angle


def _parse_distances(payload: dict[str, Any]) -> DistanceSpec:
    raw = payload.get("distances")
    if not isinstance(raw, (list, tuple)):
        raise SchemaError("'distances' must be an array of numbers")
    return DistanceSpec(tuple(_parse_number(v, f"distances[{i}]") for i, v in enumerate(raw)))


def _parse_triangle(payload: dict[str, Any]) -> tuple[float, ...]:
    d = _parse_distances(payload)
    if d.n != 3:
        raise SchemaError("'pompeiu' needs exactly 3 distances")
    return d.values


def _parse_point(obj: Any, name: str) -> Point2:
    if not isinstance(obj, dict) or "x" not in obj or "y" not in obj:
        raise SchemaError(f"'{name}' must be an object with 'x' and 'y'")
    return Point2(_parse_number(obj["x"], f"{name}.x"), _parse_number(obj["y"], f"{name}.y"))


def _parse_polygon(obj: Any, name: str) -> RegularPolygonSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"'{name}' must be an object with n, center, r, phase")
    for key in ("n", "center", "r"):
        if key not in obj:
            raise SchemaError(f"'{name}' is missing '{key}'")
    return RegularPolygonSpec(
        _parse_number(obj["n"], f"{name}.n", int),
        _parse_point(obj["center"], f"{name}.center"),
        _parse_number(obj["r"], f"{name}.r"),
        _parse_angle(obj.get("phase", 0.0), f"{name}.phase"),
    )


# ---------------------------------------------------------------------------
# result shaping

#: Where the point sits relative to the larger polygon's circumcircle, by
#: ``Degeneracy`` value.
_POINT_CLASS = {
    "none": "inside_larger",
    "on_circumcircle": "on_circle",
    "at_center": "center_degenerate",
}


def _point_json(p: Point2) -> dict[str, float]:
    return {"x": p.x, "y": p.y}


def _polygon_json(p: RegularPolygonSpec) -> dict[str, Any]:
    return {
        "n": p.n,
        "center": _point_json(p.center),
        "r": p.circumradius,
        "phase": p.phase,
    }


def _consistency_json(report: ConsistencyReport) -> dict[str, Any]:
    return {
        "passed": report.passed,
        "moment_inequality_ok": report.moment_inequality_ok,
        "checks": [
            {
                "order": c.order,
                "expected": c.expected,
                "actual": c.actual,
                "residual": c.residual,
                "passed": c.passed,
            }
            for c in report.checks
        ],
    }


def _solution_json(sol: DualSolution) -> dict[str, Any]:
    return {
        "mean_square": sol.mean_square,
        "discriminant": sol.discriminant,
        "larger": {
            "circumradius": sol.larger.circumradius,
            "center_distance": sol.larger.center_distance,
        },
        "smaller": {
            "circumradius": sol.smaller.circumradius,
            "center_distance": sol.smaller.center_distance,
        },
        "degeneracy": sol.degeneracy.value,
        "point_class": _POINT_CLASS[sol.degeneracy.value],
    }


# ---------------------------------------------------------------------------
# command handlers


def _cmd_averages(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    from . import cyclic

    avgs = cyclic.averages_from_distances(_parse_distances(payload))
    report = cyclic.check_consistency(avgs, max(tol, 1e-12))
    return {
        "n": avgs.n,
        "values": list(avgs.values),
        "consistency": _consistency_json(report),
    }


def _cmd_dual(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    from .dual import solve

    sol = solve(_parse_distances(payload), tol)
    out = _solution_json(sol)
    residual = sol.residual
    out["consistency"] = {"passed": residual <= max(tol, 1e-12), "residual": residual}
    return out


def _dual_pair(payload: dict[str, Any]) -> DualPolygonPair:
    from .reconstruct import construct_dual

    return construct_dual(
        _parse_polygon(payload.get("polygon"), "polygon"),
        _parse_point(payload.get("point"), "point"),
        _parse_angle(payload.get("direction", 0.0), "direction"),
        anchor_index=_parse_number(payload.get("anchor_index", 0), "anchor_index", int),
    )


def _cmd_reconstruct(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    pair = _dual_pair(payload)
    point = pair.point
    d_in = distances_from(point, pair.primary_polygon)
    d_b = distances_from(point, pair.b_polygon)
    match = verify_permutation(d_in, d_b, max(tol, 1e-10))
    mirror = verify_permutation(d_in, distances_from(point, pair.c_polygon))
    return {
        "b_polygon": _polygon_json(pair.b_polygon),
        "c_polygon": _polygon_json(pair.c_polygon),
        "center_direction": pair.center_direction,
        "distances": list(d_in.values),
        "companion_distances": list(d_b.values),
        "match_residual": max(match.residual, mirror.residual),
        "permutation": {
            "ok": match.ok,
            "indices": list(match.permutation),
            "residual": match.residual,
        },
    }


def _cmd_pompeiu(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    from . import pompeiu

    tri = pompeiu.pompeiu_from_distances(*_parse_triangle(payload), tol)
    dual = pompeiu.solve_equilateral(tri)
    out: dict[str, Any] = {
        "area": tri.area,
        "degenerate": tri.degenerate,
        "weitzenbock_margin": pompeiu.weitzenbock_margin(tri),
        "side_larger": dual.side_larger,
        "side_smaller": dual.side_smaller,
        "solution": _solution_json(dual.solution),
    }
    if payload.get("construct"):
        tp = pompeiu.construct_triangles(tri)
        out["construction"] = {
            "point": _point_json(tp.point),
            "larger": [_point_json(v) for v in tp.larger],
            "smaller": [_point_json(v) for v in tp.smaller],
        }
    return out


def _polygon_pair(payload: dict[str, Any]) -> tuple[RegularPolygonSpec, RegularPolygonSpec]:
    return (
        _parse_polygon(payload.get("polygon_a"), "polygon_a"),
        _parse_polygon(payload.get("polygon_b"), "polygon_b"),
    )


def _cmd_two_points(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    from .two_points import two_points

    sol = two_points(*_polygon_pair(payload), tol)
    return {
        "m1": _point_json(sol.m1),
        "m2": None if sol.m2 is None else _point_json(sol.m2),
        "collinear_degenerate": sol.m2 is None,
        "matches": [
            {
                "ok": m.ok,
                "permutation": list(m.permutation),
                "residual": m.residual,
            }
            for m in sol.matches
        ],
    }


def _cmd_verify(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    """Ignores ``tol``: the oracle judges its finds at its own fixed tolerance."""
    from . import oracle

    def integer(key: str, default: int) -> int:
        return _parse_number(payload.get(key, default), key, int)

    fields = {"grid": "grid_resolution", "refine": "refine_iterations"}
    cfg = oracle.OracleConfig(**{fields[k]: integer(k, 0) for k in fields if k in payload})
    return oracle.agreement(
        integer("seed", 0),
        integer("instances", 20),
        (integer("n_min", 3), integer("n_max", 8)),
        cfg,
    )


def _cmd_render(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    from . import svg

    scene_kind = payload.get("scene")
    if scene_kind == "dual":
        scene = svg.scene_from_dual_pair(
            _dual_pair(payload), include_mirror=bool(payload.get("mirror"))
        )
    elif scene_kind == "two-points":
        from .two_points import two_points

        pa, pb = _polygon_pair(payload)
        scene = svg.scene_from_two_points(pa, pb, two_points(pa, pb, tol))
    elif scene_kind == "pompeiu":
        from . import pompeiu

        scene = svg.scene_from_triangles(
            *pompeiu.triangles(pompeiu.pompeiu_from_distances(*_parse_triangle(payload), tol))
        )
    else:
        raise SchemaError("'scene' must be one of dual, two-points, pompeiu")
    return {"svg": svg.render_svg(scene)}


def run(request: JobRequest) -> tuple[dict[str, Any], int]:
    """Dispatch a request; returns the JSON-ready result and an exit status."""
    if not isinstance(request.command, str) or request.command not in _SUBCOMMANDS:
        raise SchemaError(f"unknown command {request.command!r}")
    if not isinstance(request.payload, dict):
        raise SchemaError("payload must be an object")
    tol = _parse_number(request.payload.get("tol", 1e-9), "tol")
    if not 0.0 <= tol < math.inf:
        raise SchemaError("'tol' must be a finite number >= 0")
    try:
        return _SUBCOMMANDS[request.command][0](request.payload, tol), 0
    except DomainError as exc:
        context = {
            k: (v if isinstance(v, (int, float, str, bool, type(None))) else str(v))
            for k, v in exc.context.items()
        }
        return {"code": exc.code, "message": exc.message, "context": context}, 1


# ---------------------------------------------------------------------------
# argument parsing


def _polygon_payload(text: str, name: str) -> dict[str, Any]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) not in (4, 5):
        raise SchemaError(f"'{name}' must be 'n,cx,cy,r[,phase]'")
    return {
        "n": parts[0],
        "center": {"x": parts[1], "y": parts[2]},
        "r": parts[3],
        "phase": parts[4] if len(parts) == 5 else 0.0,
    }


def _point_payload(text: str) -> dict[str, Any]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError("'--point' must be 'x,y'")
    return {"x": parts[0], "y": parts[1]}


def _opt(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, kwargs


_TOL_OUT = (_opt("--tol", type=float), _opt("--out"))
_POLYGON_HELP = "n,cx,cy,r[,phase]"

#: Each command's handler, help line and options (none with a default), in the
#: order ``polydual --help`` lists them.
_SUBCOMMANDS = {
    "averages": (
        _cmd_averages,
        "even-power distance means and closure checks",
        (_opt("--distances", required=True), *_TOL_OUT),
    ),
    "dual": (
        _cmd_dual,
        "both size-parameter pairs from distances",
        (_opt("--distances", required=True), *_TOL_OUT),
    ),
    "reconstruct": (
        _cmd_reconstruct,
        "coordinates of the companion polygon",
        (
            _opt("--polygon", required=True, help=_POLYGON_HELP),
            _opt("--point", required=True, help="x,y"),
            _opt("--direction"),
            _opt("--anchor-index", type=int),
            *_TOL_OUT,
        ),
    ),
    "pompeiu": (
        _cmd_pompeiu,
        "equilateral-triangle closed forms",
        (_opt("--distances", required=True), _opt("--construct", action="store_true"), *_TOL_OUT),
    ),
    "two-points": (
        _cmd_two_points,
        "equal-multiset points for a shared-vertex pair",
        (
            _opt("--polygon-a", required=True, help=_POLYGON_HELP),
            _opt("--polygon-b", required=True, help=_POLYGON_HELP),
            *_TOL_OUT,
        ),
    ),
    "verify": (
        _cmd_verify,
        "closed-form-free search vs solver agreement",
        (
            _opt("--instances", type=int),
            _opt("--n-min", type=int),
            _opt("--n-max", type=int),
            _opt("--grid", type=int),
            _opt("--refine", type=int, help="caps the descent at 20 * REFINE iterations"),
            _opt("--seed", type=int),
            # no --tol: the oracle judges its finds at its own fixed tolerance
            _opt("--out"),
        ),
    ),
    "render": (
        _cmd_render,
        "emit an SVG figure",
        (
            _opt("--scene", required=True, choices=("dual", "two-points", "pompeiu")),
            _opt("--polygon"),
            _opt("--point"),
            _opt("--direction"),
            _opt("--anchor-index", type=int),
            _opt("--distances"),
            _opt("--polygon-a"),
            _opt("--polygon-b"),
            _opt("--mirror", action="store_true"),
            *_TOL_OUT,
        ),
    ),
}

#: The command argument's usage text, as argparse writes it for all the commands.
_COMMAND_METAVAR = "{" + ",".join(_SUBCOMMANDS) + "}"


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser; for a known ``command``, with that command's subparser only.

    A one-command parser shows the full command list as its metavar, so
    its usage line is the full parser's.  The full parser keeps argparse's
    own metavar, which names the argument ``command`` in the errors only
    it can raise: a missing or unknown command.
    """
    parser = argparse.ArgumentParser(
        prog="polydual",
        description="Both regular n-gons realizing a list of point-to-vertex distances",
    )
    only = command if command in _SUBCOMMANDS else None
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=None if only is None else _COMMAND_METAVAR
    )
    for name, (_, help_text, options) in _SUBCOMMANDS.items():
        if only in (None, name):
            sp = sub.add_parser(name, help=help_text)
            for flags, kwargs in options:
                sp.add_argument(*flags, **kwargs)
    return parser


def _payload_value(key: str, value: Any) -> Any:
    """An option's payload value: list-valued options split, the rest as given."""
    if key == "distances":
        return value.split(",")
    if key == "point":
        return _point_payload(value)
    if key in ("polygon", "polygon_a", "polygon_b"):
        return _polygon_payload(value, key)
    return value


def _request_from_args(args: argparse.Namespace) -> JobRequest:
    """Every option set but ``out`` goes into the payload by name."""
    payload = {
        key: _payload_value(key, value)
        for key, value in vars(args).items()
        if key not in ("command", "out") and value is not None
    }
    return JobRequest(args.command, payload)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        result, code = run(_request_from_args(args))
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    text = result["svg"] if args.command == "render" and code == 0 else dumps(result) + "\n"
    if args.out is not None:  # an empty path fails to open, as any bad path does
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # written before stdout, so nothing is printed yet
            sys.stderr.write(f"schema error: {exc}\n")
            return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
