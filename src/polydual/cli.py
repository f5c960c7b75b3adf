"""Command-line front end: JSON in/out, SVG figures, stable formatting.

Every command builds a ``JobRequest(command, payload)``, dispatches
through ``run`` and prints one JSON document (or an SVG for ``render``).
Every option but ``--out`` is a payload key, its flag with underscores;
an unset option stays out, and the code that reads the key supplies its
default.  ``dumps`` is the one writer: every number has 17 significant
digits and dictionary order is fixed, so identical requests produce
byte-identical output.  Records print by their own fields (``_asdict``)
unless a key is renamed or reordered, and strings are quoted by ``_quote``
as ``json.dumps`` quotes them.  Exit codes: 0 on success, 1 on a
domain error (an error object whose ``context`` prints as raised, a
tuple of sides as an array of numbers), 2 on usage or schema violations.
Each command is answered by ``command(payload, tol)`` in the module its
``_SUBCOMMANDS`` entry names, and ``run`` imports that module alone, so a
process compiles and loads only its own command's code.  No such module
imports this one: under ``-m`` this runs as ``__main__``, and an import
would compile and run it a second time.  Errors are mapped in one place:
``run`` rejects a ``tol`` (default 1e-9) that is not a finite number >= 0
and turns domain errors into an error object; ``main`` maps a
``SchemaError``, raised wherever a precondition is checked, and a failure
to write ``--out``, to exit 2.  Any other exception is a bug and escapes
as itself.  No argv value is converted here: argv text goes into the
payload as split strings, which the commands read with
``errors.parse_number`` as they read JSON values.  ``_read_argv`` is the
one argv reader: it reads every argv that gets an answer from the option
table itself, a unique flag prefix for its flag and a repeated flag's
last value, so a process that answers imports neither ``argparse`` nor
``json``.  argparse only writes the help and the usage errors, for the
argv the reader declines.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from .errors import DomainError, SchemaError, parse_number

if TYPE_CHECKING:
    import argparse


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
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(_quote(str(k)))
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


#: ``json``'s escapes of the ASCII characters outside space to ``~``, and of
#: the quote and the backslash.
_ESCAPES = {
    **{c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)},
    ord('"'): '\\"', ord("\\"): "\\\\", ord("\b"): "\\b", ord("\t"): "\\t",
    ord("\n"): "\\n", ord("\f"): "\\f", ord("\r"): "\\r",
}


def _quote(s: str) -> str:
    """``json.dumps(s)``: a quoted ASCII string, non-ASCII as UTF-16 ``\\uXXXX`` escapes."""
    text = s.translate(_ESCAPES)
    if not text.isascii():
        text = "".join(c if c.isascii() else _utf16_escape(ord(c)) for c in text)
    return f'"{text}"'


def _utf16_escape(code: int) -> str:
    if code <= 0xFFFF:  # a lone surrogate included, as json writes it
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


# ---------------------------------------------------------------------------
# dispatch


def run(request: JobRequest) -> tuple[dict[str, Any], int]:
    """Dispatch a request; returns the JSON-ready result and an exit status."""
    if not isinstance(request.command, str) or request.command not in _SUBCOMMANDS:
        raise SchemaError(f"unknown command {request.command!r}")
    if not isinstance(request.payload, dict):
        raise SchemaError("payload must be an object")
    tol = parse_number(request.payload.get("tol", 1e-9), "tol")
    if not 0.0 <= tol < math.inf:
        raise SchemaError("'tol' must be a finite number >= 0")
    # -X importtime reports an import made this way, not one by importlib.import_module
    module = __import__(f"polydual.{_SUBCOMMANDS[request.command][0]}", fromlist=("command",))
    try:
        return module.command(request.payload, tol), 0
    except DomainError as exc:
        return {"code": exc.code, "message": exc.message, "context": exc.context}, 1


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


_TOL_OUT = (_opt("--tol"), _opt("--out"))
_POLYGON_HELP = "n,cx,cy,r[,phase]"

#: Each command's module, whose ``command(payload, tol)`` answers it, help line
#: and options (none with a default), in the order ``polydual --help`` lists them.
_SUBCOMMANDS = {
    "averages": (
        "cyclic",
        "even-power distance means and closure checks",
        (_opt("--distances", required=True), *_TOL_OUT),
    ),
    "dual": (
        "dual",
        "both size-parameter pairs from distances",
        (_opt("--distances", required=True), *_TOL_OUT),
    ),
    "reconstruct": (
        "reconstruct",
        "coordinates of the companion polygon",
        (
            _opt("--polygon", required=True, help=_POLYGON_HELP),
            _opt("--point", required=True, help="x,y"),
            _opt("--direction"),
            *_TOL_OUT,
        ),
    ),
    "pompeiu": (
        "pompeiu",
        "equilateral-triangle closed forms",
        (_opt("--distances", required=True), _opt("--construct", action="store_true"), *_TOL_OUT),
    ),
    "two-points": (
        "two_points",
        "equal-multiset points for a shared-vertex pair",
        (
            _opt("--polygon-a", required=True, help=_POLYGON_HELP),
            _opt("--polygon-b", required=True, help=_POLYGON_HELP),
            *_TOL_OUT,
        ),
    ),
    "verify": (
        "oracle",
        "brute-force search vs each instance's swapped sizes",
        (
            _opt("--instances"),
            _opt("--n-min"),
            _opt("--n-max"),
            _opt("--grid"),
            _opt("--refine", help="caps the descent at 20 * REFINE iterations"),
            _opt("--seed"),
            # no --tol: the oracle judges its finds at its own fixed tolerance
            _opt("--out"),
        ),
    ),
    "render": (
        "svg",
        "emit an SVG figure",
        (
            _opt("--scene", required=True, choices=("dual", "two-points", "pompeiu")),
            _opt("--polygon"),
            _opt("--point", help="x,y"),
            _opt("--direction"),
            _opt("--distances"),
            _opt("--polygon-a"),
            _opt("--polygon-b"),
            _opt("--mirror", action="store_true"),
            *_TOL_OUT,
        ),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser, which writes the help and every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="polydual",
        description="Both regular n-gons realizing a list of point-to-vertex distances",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _SUBCOMMANDS.items():
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


def _read_argv(argv: list[str]) -> Optional[tuple[str, dict[str, Any]]]:
    """The command and the option values an argv sets, keyed by dest; None for argparse.

    After a known command, each token is a declared flag or a unique
    prefix of one, as ``--flag=value`` (the value as written) or ``--flag
    value`` (the next token, unless it starts with ``--`` or is ``-h``);
    a ``store_true`` flag stands bare and reads True.  A repeated flag
    replaces the earlier value.  Help, a positional, an ambiguous prefix,
    a missing value or required flag, or a value outside ``choices`` is
    declined: argparse writes the help or the usage error.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    options = {flags[0]: kwargs for flags, kwargs in _SUBCOMMANDS[argv[0]][2]}
    values: dict[str, Any] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        prefix, eq, value = token.partition("=")
        flags = [prefix] if prefix in options else [f for f in options if f.startswith(prefix)]
        if len(flags) != 1:  # -h, --help and its prefixes match no declared flag
            return None
        kwargs = options[flags[0]]
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "--")  # a missing value declines as a flag does
                if value.startswith("--") or value == "-h":
                    return None
            if value not in kwargs.get("choices", (value,)):
                return None
        values[flags[0]] = value
    if any(kwargs.get("required") and flag not in values for flag, kwargs in options.items()):
        return None
    return argv[0], {flag[2:].replace("-", "_"): value for flag, value in values.items()}


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    read = _read_argv(argv)
    if read is None:  # help or a usage error, which argparse writes and exits on
        parser = _build_parser()
        parser.parse_args(argv)
        parser.error("'--' is not an argument; a value that starts with '--' takes the '=' form")
    command, values = read
    out = values.pop("out", None)
    try:
        payload = {key: _payload_value(key, value) for key, value in values.items()}
        result, code = run(JobRequest(command, payload))
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    text = result["svg"] if command == "render" and code == 0 else dumps(result) + "\n"
    if out is not None:  # an empty path fails to open, as any bad path does
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # written before stdout, so nothing is printed yet
            sys.stderr.write(f"schema error: {exc}\n")
            return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
