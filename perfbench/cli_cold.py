"""cli-cold: one fresh ``python -m polydual.cli`` process per op, one at a time.

Interpreter start and imports are nearly all of an op's time here, so
import and CLI changes show and solver changes do not.  The corpus is
one block of 20 entries with fixed shares, in an order and with
geometry drawn from the seed: every command with valid input
(dual 3, averages 2, reconstruct 2, pompeiu 2, two-points 2, render 3),
a tiny ``verify`` 4 times, and one entry each that must end in exit 1
(domain error) and exit 2 (schema error).  ``verify`` is the only
command that needs numpy, so a lazy import shows both its gain (the
others) and its cost (``verify``, which holds the 90th percentile).

Each process runs ``sys.executable`` directly, not a launcher shim.  Its
stdout bytes and exit code must equal those of ``cli.main`` run in this
process on the same arguments.  Each answer must also hold against the
generated ground truth: the recovered radii and center distances, the
power means, the swapped-radius points, a whole SVG, a ``verify`` that
found and agreed on its instance, and the expected error code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time

import proc
from inputs import PARAM_TOL, Config, draw, n_bucket, param_error, rng_for, well_formed_svg
from ops import OpResult, Reference
from polydual import cli
from polydual.errors import SchemaError

NAME = "cli-cold"

#: Instance seeds of the ``verify`` entries.  A search's cost depends on
#: its instance, and these entries hold the 90th percentile, so they are
#: the same for every --seed (the acceptance suite's first instances).
VERIFY_SEEDS = (70_000, 70_001, 70_002, 70_003)


def _interpreter_start() -> float:
    return proc.run(["-c", "pass"]).seconds


#: Ops are child processes, whose start the in-process Python job does not
#: track, so their speed comes from a bare interpreter start, which runs
#: nothing of the package (median 0.07 s, taken every other op or so).
REFERENCE = Reference(_interpreter_start, 0.07, 0.5)

BLOCK = (
    ["dual"] * 3 + ["averages"] * 2 + ["reconstruct"] * 2 + ["pompeiu", "pompeiu-construct"]
    + ["two-points"] * 2 + ["render-dual", "render-two-points", "render-pompeiu"]
    + ["verify"] * 4 + ["domain-error", "schema-error"]
)


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _polygon(n: int, cx: float, cy: float, r: float, phase: float) -> str:
    return f"{n},{cx!r},{cy!r},{r!r},{phase!r}"


def _pair(cfg: Config) -> list[str]:
    partner = _polygon(cfg.n, cfg.partner_cx, cfg.partner_cy, cfg.partner_r, cfg.partner_phase)
    return [f"--polygon-a={_polygon(cfg.n, cfg.cx, cfg.cy, cfg.r, cfg.phase)}",
            f"--polygon-b={partner}"]


def _dual_geometry(cfg: Config) -> list[str]:
    return [f"--polygon={_polygon(cfg.n, cfg.cx, cfg.cy, cfg.r, cfg.phase)}",
            f"--point={cfg.px!r},{cfg.py!r}", f"--direction={cfg.direction!r}"]


def _entry(kind: str, rng, n: int, verify_index: int) -> dict:
    """argv, input properties and ground truth of one entry."""
    cfg = draw(rng, 3 if "pompeiu" in kind else n)
    props = (n_bucket(cfg.n),)
    error_code = None
    if kind == "dual":
        argv = ["dual", f"--distances={_csv(cfg.distances())}"]
    elif kind == "averages":
        argv = ["averages", f"--distances={_csv(cfg.distances())}"]
    elif kind == "reconstruct":
        argv = ["reconstruct", *_dual_geometry(cfg)]
    elif kind in ("pompeiu", "pompeiu-construct"):
        argv = ["pompeiu", f"--distances={_csv(cfg.distances())}"]
        if kind == "pompeiu-construct":
            argv.append("--construct")
    elif kind == "two-points":
        argv = ["two-points", *_pair(cfg)]
    elif kind == "render-dual":
        argv = ["render", "--scene=dual", *_dual_geometry(cfg)]
    elif kind == "render-two-points":
        argv = ["render", "--scene=two-points", *_pair(cfg)]
    elif kind == "render-pompeiu":
        argv = ["render", "--scene=pompeiu", f"--distances={_csv(cfg.distances())}"]
    elif kind == "verify":
        argv = ["verify", "--instances=1", "--grid=8", "--refine=1", "--n-min=3", "--n-max=8",
                f"--seed={VERIFY_SEEDS[verify_index % len(VERIFY_SEEDS)]}"]
        props = ()
    elif kind == "domain-error":
        props = ("error_path",)
        choice = rng.randrange(3)
        error_code = ("TRIANGLE_INEQUALITY", "SHARED_VERTEX", "DEGENERATE")[choice]
        if choice == 0:
            a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            argv = ["dual", f"--distances={_csv([a, b, (a + b) * rng.uniform(1.5, 3.0)])}"]
        elif choice == 1:  # partner moved off the shared vertex
            far = Config(**{**cfg.__dict__, "partner_cx": cfg.partner_cx + 3.0 * cfg.r})
            argv = ["two-points", *_pair(far)]
        else:  # the point at the center has no companion
            at_center = Config(**{**cfg.__dict__, "px": cfg.cx, "py": cfg.cy})
            argv = ["reconstruct", *_dual_geometry(at_center)]
    elif kind == "schema-error":
        props = ("error_path",)
        argv = [
            ["dual", f"--distances={_csv(cfg.distances()[:2])}"],
            ["reconstruct", f"--polygon={cfg.n},0,0", f"--point={cfg.px!r},{cfg.py!r}"],
            ["pompeiu", f"--distances={_csv(cfg.distances() + [1.0])}"],
        ][rng.randrange(3)]
    else:
        raise ValueError(kind)
    return {"kind": kind, "argv": argv, "props": props, "cfg": cfg, "error_code": error_code}


def entries(seed: int) -> list[dict]:
    rng = rng_for(NAME, seed)
    kinds = list(BLOCK)
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        out.append(_entry(kind, rng, 3 + len(out) % 10,
                          sum(e["kind"] == "verify" for e in out)))
    return out


def in_process(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of ``cli.main`` run here."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def setup(seed: int) -> dict:
    corpus = entries(seed)
    for e in corpus:
        try:
            e["expected"] = in_process(e["argv"])
        except Exception as exc:  # checked against every cold run of the entry
            e["expected"] = (None, f"in-process run raised {type(exc).__name__}: {exc}")
    # one cold process first, so byte-compiled modules exist before timing
    proc.run(["-m", "polydual.cli", *corpus[0]["argv"]])
    return {"corpus": corpus}


def op(state: dict, i: int) -> OpResult:
    e = state["corpus"][i % len(state["corpus"])]
    done = proc.run(["-m", "polydual.cli", *e["argv"]])
    return OpResult(done.seconds, e["props"], value=done, rss_kb=done.maxrss_kb)


def warm_op(state: dict, i: int) -> OpResult:
    """The same entry through ``cli.main`` in this process: the traced view of an op."""
    e = state["corpus"][i % len(state["corpus"])]
    t0 = time.perf_counter()
    try:
        value = in_process(e["argv"])
    except Exception as exc:
        return OpResult(time.perf_counter() - t0, e["props"],
                        failure=f"exception {type(exc).__name__}: {exc}")
    return OpResult(time.perf_counter() - t0, e["props"], value=value)


def _dist(p: dict, x: float, y: float) -> float:
    return math.hypot(p["x"] - x, p["y"] - y)


def _truth_error(kind: str, out: bytes, cfg: Config) -> tuple[str | None, float | None]:
    """First ground-truth failure of a valid-input answer (or None), and its worst error."""
    if kind.startswith("render"):
        return (None if well_formed_svg(out.decode()) else "malformed SVG"), None
    doc = json.loads(out)
    if kind == "verify":
        if not doc["instances"] == doc["found"] == doc["agreed"] == 1:
            return f"found {doc['found']}, agreed {doc['agreed']} of {doc['instances']}", None
        return None, None
    r, l = cfg.r, cfg.l
    big, small = max(r, l), min(r, l)
    if kind == "dual":
        got = doc["larger"]
        errors = [param_error(big, small, got["circumradius"], got["center_distance"])]
    elif kind == "averages":
        m2, m4 = r * r + l * l, (r * r + l * l) ** 2 + 2 * r * r * l * l
        errors = [abs(doc["values"][0] - m2) / big ** 2, abs(doc["values"][1] - m4) / big ** 4]
    elif kind == "reconstruct":
        b = doc["b_polygon"]
        errors = [param_error(l, r, b["r"], _dist(b["center"], cfg.px, cfg.py))]
    elif kind.startswith("pompeiu"):
        got = doc["solution"]["larger"]
        errors = [param_error(big, small, got["circumradius"], got["center_distance"]),
                  abs(doc["side_larger"] - math.sqrt(3.0) * big) / big]
        if kind == "pompeiu-construct":
            for name, want in (("larger", big), ("smaller", small)):
                verts = doc["construction"][name]
                errors += [abs(_dist(verts[k], verts[(k + 1) % 3]["x"], verts[(k + 1) % 3]["y"])
                               - math.sqrt(3.0) * want) / big for k in range(3)]
    elif kind == "two-points":
        if doc["m2"] is None or not all(m["ok"] for m in doc["matches"]):
            return "missing point or unmatched multiset", None
        scale = max(r, cfg.partner_r)
        errors = [max(abs(_dist(m, cfg.partner_cx, cfg.partner_cy) - r),
                      abs(_dist(m, cfg.cx, cfg.cy) - cfg.partner_r)) / scale
                  for m in (doc["m1"], doc["m2"])]
    else:
        raise ValueError(kind)
    if any(e is None or not e <= PARAM_TOL for e in errors):  # also catches NaN
        return f"parameter error {errors!r}", None
    return None, max(errors)


def _verdict(e: dict, code: int, stdout: bytes) -> tuple[str | None, float | None]:
    """Check one run's exit code and stdout against what the entry must give."""
    kind = e["kind"]
    if kind == "schema-error":
        ok = code == 2 and not stdout
        return (None if ok else f"{kind}: expected exit 2 and empty stdout, got exit {code}"), None
    if kind == "domain-error":
        doc = json.loads(stdout) if code == 1 else {}
        if set(doc) != {"code", "message", "context"} or doc["code"] != e["error_code"]:
            return f"{kind}: expected exit 1 with {e['error_code']}, got exit {code}", None
        return None, None
    if code != 0:
        return f"{kind}: exit {code}", None
    failure, err = _truth_error(kind, stdout, e["cfg"])
    return (None if failure is None else f"{kind}: {failure}"), err


def warm_check(state: dict, i: int, value: tuple[int, bytes]) -> tuple[str | None, float | None]:
    e = state["corpus"][i % len(state["corpus"])]
    if value != e["expected"]:
        return f"{e['kind']}: warm run differs", None
    return _verdict(e, *value)


def check(state: dict, i: int, done: proc.Completed) -> tuple[str | None, float | None]:
    e = state["corpus"][i % len(state["corpus"])]
    code, stdout = e["expected"]
    if code is None:
        return f"{e['kind']}: {stdout}", None
    if b"Traceback" in done.stderr:
        return f"{e['kind']}: traceback: {done.stderr.decode()[-200:]!r}", None
    if done.exit_code != code or done.stdout != stdout:
        return f"{e['kind']}: exit {done.exit_code} / stdout differ from in-process run", None
    return _verdict(e, done.exit_code, done.stdout)


def _contract_break(done: proc.Completed) -> str | None:
    """How a run on bad input breaks the exit-1/exit-2 contract, or None."""
    if b"Traceback" in done.stderr:
        return f"exit {done.exit_code}, traceback on stderr"
    if done.exit_code == 2:
        return None
    if done.exit_code == 1:
        try:
            doc = json.loads(done.stdout)
        except ValueError:
            doc = None
        if isinstance(doc, dict) and set(doc) == {"code", "message", "context"}:
            return None
        return "exit 1 without an error object"
    return f"exit {done.exit_code}"


def probe(seed: int) -> list[tuple[str, str | None]]:
    """Known contract breaks: extreme-scale answers and tracebacks for bad input.

    ``dual`` at 1e-170 and 1e200 must answer like at scale 1; the other
    inputs must end in exit 1 with an error object or exit 2, never a
    traceback.  The CLI fails these today, so they stay out of the timed
    entries; each returns (label, failure or None).
    """
    rng = rng_for(NAME + ":probe", seed)
    results = []
    for scale in (1e-170, 1e200):
        cfg = draw(rng, 3)
        d = [v * scale for v in cfg.distances()]
        done = proc.run(["-m", "polydual.cli", "dual", f"--distances={_csv(d)}"])
        label = f"dual at scale {scale:g}"
        if done.exit_code != 0:
            tb = ", traceback on stderr" if b"Traceback" in done.stderr else ""
            results.append((label, f"exit {done.exit_code}{tb}"))
            continue
        scaled = dataclasses.replace(
            cfg, r=cfg.r * scale, cx=cfg.cx * scale, cy=cfg.cy * scale,
            px=cfg.px * scale, py=cfg.py * scale)
        try:
            failure, _ = _truth_error("dual", done.stdout, scaled)
        except TypeError:  # the CLI prints non-finite numbers as null
            failure = "non-finite answer"
        results.append((label, failure))
    cfg = draw(rng, 4)
    bad_inputs = {
        "dual with n=65": ["dual", f"--distances={_csv([1.0 + k / 65 for k in range(65)])}"],
        "two-points with mismatched n": [
            "two-points", f"--polygon-a={_polygon(4, 0.0, 0.0, 1.0, 0.0)}",
            f"--polygon-b={_polygon(5, 2.0, 0.0, 1.0, math.pi)}"],
        "reconstruct --anchor-index 9": ["reconstruct", *_dual_geometry(cfg), "--anchor-index=9"],
        "verify --grid 4": ["verify", "--instances=1", "--grid=4"],
    }
    for label, argv in bad_inputs.items():
        results.append((label, _contract_break(proc.run(["-m", "polydual.cli", *argv]))))
    try:
        cli.run(cli.JobRequest("verify", {"instances": "x"}))
        results.append(("run(verify, instances='x')", None))
    except SchemaError:
        results.append(("run(verify, instances='x')", None))
    except Exception as exc:
        results.append(("run(verify, instances='x')", f"raised {type(exc).__name__}"))
    return results
