"""Replay the CLI golden corpus: every argv must give the recorded stdout and exit code.

The corpus (``golden/cli_corpus.json``) was written by ``golden/generate.py``
and freezes the CLI's output byte for byte, so refactors of the code
behind it are checked against the exact numbers, not approximations.
"""

import json
from pathlib import Path

import pytest

from golden.generate import replay
from polydual.errors import DomainError

CORPUS = json.loads(
    (Path(__file__).parent / "golden" / "cli_corpus.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "entry",
    CORPUS,
    ids=[f"{i:03d}-{e['argv'][0] if e['argv'] else 'none'}" for i, e in enumerate(CORPUS)],
)
def test_replay_is_byte_identical(entry):
    code, stdout = replay(entry["argv"])
    assert code == entry["exit"]
    assert stdout == entry["stdout"]


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


def test_every_domain_error_code_is_reachable():
    # a code no CLI input can produce is a dead field
    errors = {json.loads(e["stdout"])["code"] for e in CORPUS if e["exit"] == 1}
    assert {c.code for c in DomainError.__subclasses__()} == errors
