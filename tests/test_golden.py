"""Replay the CLI golden corpus: every argv must give the recorded exit code, stdout and stderr.

The corpus (``golden/cli_corpus.json``) was written by ``golden/generate.py``
and freezes the CLI's output byte for byte, so refactors of the code
behind it are checked against the exact numbers, not approximations.
Stderr is pinned for every entry, the help and the usage errors included.
"""

import builtins
import json
import math
from pathlib import Path

import pytest

from golden.generate import entry_id, replay
from polydual.errors import DomainError

CORPUS = json.loads(
    (Path(__file__).parent / "golden" / "cli_corpus.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "entry",
    CORPUS,
    ids=[entry_id(i, e) for i, e in enumerate(CORPUS)],
)
def test_replay_is_byte_identical(entry):
    assert replay(entry["argv"]) == {k: v for k, v in entry.items() if k != "argv"}


_builtin_sum = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` as Python 3.12 runs it: float totals carry a Neumaier correction."""
    items = list(iterable)
    if not any(type(x) is float for x in items) or not all(type(x) in (int, float) for x in items):
        return _builtin_sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_replay_does_not_depend_on_how_sum_adds_floats(monkeypatch):
    # the same argv prints the same bytes on every Python the package supports
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    moved = [i for i, e in enumerate(CORPUS) if {"argv": e["argv"], **replay(e["argv"])} != e]
    assert moved == []


def test_corpus_coverage():
    answers = [e for e in CORPUS if e["exit"] == 0 and not e["stdout"].startswith("usage: ")]
    ok = [json.loads(e["stdout"]) for e in answers if e["argv"][0] != "render"]
    errors = {json.loads(e["stdout"])["code"] for e in CORPUS if e["exit"] == 1}
    assert [e["argv"] for e in CORPUS if e not in answers and e["exit"] == 0] == [
        ["--help"], ["dual", "--help"]]
    assert {e["argv"][0] for e in answers} == {
        "averages", "dual", "reconstruct", "pompeiu", "two-points", "verify", "render",
    }
    assert {e["exit"] for e in CORPUS} == {0, 1, 2}
    assert errors == {
        "REALIZABILITY", "DEGENERATE", "TRIANGLE_INEQUALITY", "SHARED_VERTEX", "CONGRUENT",
    }
    classes = {o.get("solution", o).get("degeneracy") for o in ok}
    assert {"none", "on_circumcircle", "at_center"} <= classes
    scenes = {e["argv"][2] for e in answers if e["argv"][0] == "render"}
    assert scenes == {"dual", "two-points", "pompeiu"}
    flags = {a for e in answers for a in e["argv"]}
    assert {"--mirror", "--construct"} <= flags
    assert any("verify --instances 2 --grid 8 --refine 1" in " ".join(e["argv"]) for e in CORPUS)


def test_stderr_is_pinned_for_every_entry_main_returns():
    # exit 2 writes a schema error or a usage error to stderr and nothing to stdout
    usage_errors = 0
    for e in CORPUS:
        assert (e["stderr"] != "") == (e["exit"] == 2)
        if e["exit"] == 2:
            assert e["stdout"] == ""
            assert e["stderr"].startswith(("schema error: ", "usage: polydual"))
            usage_errors += "\npolydual: error: " in e["stderr"]
    assert usage_errors == 8


def test_every_domain_error_code_is_reachable():
    # a code no CLI input can produce is a dead field
    errors = {json.loads(e["stdout"])["code"] for e in CORPUS if e["exit"] == 1}
    codes, pending = set(), DomainError.__subclasses__()
    while pending:  # every descendant, not only the direct subclasses
        cls = pending.pop()
        codes.add(cls.code)
        pending += cls.__subclasses__()
    assert codes == errors
