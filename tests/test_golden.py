"""Replay the CLI golden corpus: every argv must give the recorded exit code, stdout and stderr.

The corpus (``golden/cli_corpus.json``) was written by ``golden/generate.py``
and freezes the CLI's output byte for byte, so refactors of the code
behind it are checked against the exact numbers, not approximations.
Stderr is pinned for every entry but argparse's usage errors.
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
    ok = [json.loads(e["stdout"]) for e in CORPUS if e["exit"] == 0 and e["argv"][0] != "render"]
    errors = {json.loads(e["stdout"])["code"] for e in CORPUS if e["exit"] == 1}
    assert {e["argv"][0] for e in CORPUS if e["exit"] == 0} == {
        "averages", "dual", "reconstruct", "pompeiu", "two-points", "verify", "render",
    }
    assert {e["exit"] for e in CORPUS} == {0, 1, 2}
    assert errors == {
        "REALIZABILITY", "DEGENERATE", "TRIANGLE_INEQUALITY", "SHARED_VERTEX", "CONGRUENT",
    }
    classes = {o.get("solution", o).get("degeneracy") for o in ok}
    assert {"none", "on_circumcircle", "at_center"} <= classes
    scenes = {e["argv"][2] for e in CORPUS if e["exit"] == 0 and e["argv"][0] == "render"}
    assert scenes == {"dual", "two-points", "pompeiu"}
    flags = {a for e in CORPUS if e["exit"] == 0 for a in e["argv"]}
    assert {"--mirror", "--construct"} <= flags
    assert any("verify --instances 2 --grid 8 --refine 1" in " ".join(e["argv"]) for e in CORPUS)


def test_stderr_is_pinned_for_every_entry_main_returns():
    # only argparse's usage errors go unpinned, and they all exit 2 with empty stdout
    unpinned = [e for e in CORPUS if "stderr" not in e]
    assert {(e["exit"], e["stdout"]) for e in unpinned} == {(2, "")}
    for e in CORPUS:
        if "stderr" in e:
            assert (e["stderr"] != "") == (e["exit"] == 2)
            assert e["stderr"] == "" or e["stderr"].startswith("schema error: ")


def test_every_domain_error_code_is_reachable():
    # a code no CLI input can produce is a dead field
    errors = {json.loads(e["stdout"])["code"] for e in CORPUS if e["exit"] == 1}
    codes, pending = set(), DomainError.__subclasses__()
    while pending:  # every descendant, not only the direct subclasses
        cls = pending.pop()
        codes.add(cls.code)
        pending += cls.__subclasses__()
    assert codes == errors
