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
would compile and run it a second time.  ``run`` rejects a ``tol``
(default 1e-9) that is not a finite number >= 0 and turns domain errors
into an error object; ``main`` maps a ``SchemaError``, raised wherever a
precondition is checked, and a failure to write ``--out``, to exit 2.
Any other exception is a bug.  argv text goes into the payload as split
strings, read by ``errors.parse_number`` as JSON values are.
``_SUBCOMMANDS`` is the one argv grammar: ``_read_argv`` reads argv by
it, and ``main`` writes the help and the usage errors from it, so no
process imports ``argparse``, and one that answers imports no ``json``.
"""

from __future__ import annotations

import math
import sys
from typing import Any, NamedTuple, Optional

from .errors import DomainError, SchemaError, parse_number


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


#: Each command's module, whose ``command(payload, tol)`` answers it, help line
#: and options as its usage line shows them, in brackets when optional: ``--flag
#: VALUE``, or a bare ``--flag`` that reads True.  None has a default.
_SUBCOMMANDS = {
    "averages": ("cyclic", "even-power distance means and closure checks",
                 ("--distances D1,D2,...", "[--tol TOL]", "[--out PATH]")),
    "dual": ("dual", "both size-parameter pairs from distances",
             ("--distances D1,D2,...", "[--tol TOL]", "[--out PATH]")),
    "reconstruct": ("reconstruct", "coordinates of the companion polygon",
                    ("--polygon N,CX,CY,R[,PHASE]", "--point X,Y", "[--direction ANGLE]",
                     "[--tol TOL]", "[--out PATH]")),
    "pompeiu": ("pompeiu", "equilateral-triangle closed forms",
                ("--distances D1,D2,D3", "[--construct]", "[--tol TOL]", "[--out PATH]")),
    "two-points": ("two_points", "equal-multiset points for a shared-vertex pair",
                   ("--polygon-a N,CX,CY,R[,PHASE]", "--polygon-b N,CX,CY,R[,PHASE]",
                    "[--tol TOL]", "[--out PATH]")),
    # no --tol: the oracle judges its finds at its own fixed tolerance, and
    # --refine caps its descent at 20 * REFINE iterations
    "verify": ("oracle", "brute-force search vs each instance's swapped sizes",
               ("[--instances COUNT]", "[--n-min N]", "[--n-max N]", "[--grid G]",
                "[--refine REFINE]", "[--seed SEED]", "[--out PATH]")),
    "render": ("svg", "emit an SVG figure",
               ("--scene {dual,two-points,pompeiu}", "[--polygon N,CX,CY,R[,PHASE]]",
                "[--point X,Y]", "[--direction ANGLE]", "[--distances D1,D2,...]",
                "[--polygon-a N,CX,CY,R[,PHASE]]", "[--polygon-b N,CX,CY,R[,PHASE]]",
                "[--mirror]", "[--tol TOL]", "[--out PATH]")),
}


def _options(command: str) -> dict[str, tuple[bool, bool]]:
    """``command``'s flags, each with whether it is required and whether it takes a value."""
    return {flag: (spec[0] != "[", bool(value)) for spec in _SUBCOMMANDS[command][2]
            for flag, _, value in [spec.strip("[]").partition(" ")]}


def _payload_value(key: str, value: Any) -> Any:
    """An option's payload value: list-valued options split, the rest as given."""
    if key not in ("distances", "point", "polygon", "polygon_a", "polygon_b"):
        return value
    parts = value.split(",")
    if key == "distances":
        return parts
    if key == "point":
        if len(parts) != 2:
            raise SchemaError("'--point' must be 'x,y'")
        return {"x": parts[0], "y": parts[1]}
    parts = [part.strip() for part in parts]
    if len(parts) not in (4, 5):
        raise SchemaError(f"'{key}' must be 'n,cx,cy,r[,phase]'")
    return {"n": parts[0], "center": {"x": parts[1], "y": parts[2]}, "r": parts[3],
            "phase": parts[4] if len(parts) == 5 else 0.0}


class _Usage(Exception):
    """An argv that gets no answer: ``(command or None, error or None for help)``."""


#: ``-h`` and every prefix of ``--help`` longer than ``--``.
_HELP = ("-h", "--h", "--he", "--hel", "--help")


def _read_argv(argv: list[str]) -> tuple[str, dict[str, Any]]:
    """The command and the option values an argv sets, keyed by payload key.

    After a known command, each token is a declared flag or a unique prefix
    of one, as ``--flag=value`` (the value as written) or ``--flag value``
    (the next token, unless it starts with ``--`` or is ``-h``); a bare flag
    stands alone and reads True.  The last of a repeated flag wins.  Any
    other argv raises ``_Usage``: help at a ``_HELP`` token, else its fault.
    """
    if not argv or argv[0] in _HELP:
        raise _Usage(None, None if argv else "the following arguments are required: command")
    command = argv[0]
    if command not in _SUBCOMMANDS:
        raise _Usage(None, f"argument command: invalid choice: {command!r}")
    options = _options(command)
    values: dict[str, Any] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            raise _Usage(command, None)
        prefix, eq, value = token.partition("=")
        flags = [prefix] if prefix in options else [
            f for f in options if len(prefix) > 2 and f.startswith(prefix)]
        if len(flags) != 1:
            raise _Usage(command, f"ambiguous option: {prefix} could match {', '.join(flags)}"
                         if flags else f"unrecognized arguments: {token}")
        flag = flags[0]
        if not options[flag][1]:
            if eq:
                raise _Usage(command, f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        elif not eq:
            value = next(tokens, "--")  # a missing value is refused as a flag is
            if value.startswith("--") or value == "-h":
                raise _Usage(command, f"argument {flag}: expected one argument")
        values[flag] = value
    missing = [flag for flag, (required, _) in options.items() if required and flag not in values]
    if missing:
        raise _Usage(command, f"the following arguments are required: {', '.join(missing)}")
    return command, {flag[2:].replace("-", "_"): value for flag, value in values.items()}


def _usage(command: Optional[str]) -> str:
    """The usage line, each option on one line when they do not fit on one."""
    head = "usage: polydual" + (f" {command} [-h]" if command else " [-h]")
    words = _SUBCOMMANDS[command][2] if command else (f"{{{','.join(_SUBCOMMANDS)}}} ...",)
    sep = " " if len(head) + sum(len(w) + 1 for w in words) <= 79 else "\n" + " " * len(head) + " "
    return f"{head} {sep.join(words)}\n"


def _help(command: Optional[str]) -> str:
    if command:
        return f"{_usage(command)}\n{_SUBCOMMANDS[command][1]}\n"
    rows = "".join(f"  {name:<13}{entry[1]}\n" for name, entry in _SUBCOMMANDS.items())
    about = "Both regular n-gons realizing a list of point-to-vertex distances"
    return f"{_usage(None)}\n{about}\n\ncommands:\n{rows}"


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, values = _read_argv(argv)
    except _Usage as exc:
        command, error = exc.args
        if error is None:
            sys.stdout.write(_help(command))
            return 0
        sys.stderr.write(f"{_usage(command)}polydual: error: {error}\n")
        return 2
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
