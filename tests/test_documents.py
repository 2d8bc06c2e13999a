"""The exact document and text of one problem per single operation and per dualcone kind and check.

A result document is the library's record written field by field, so the
schema alone accepts a document whose fields were reordered, and a renamed
field only once the schema follows.  ``cli_documents.json`` holds, per
case, the command, its problem document, the exit code, the ``--json``
document without ``elapsed_seconds`` and the text output, as the CLI
printed them; a case passes only when both are reproduced byte for byte.
A deliberate change to a record rewrites the case from the CLI's output.
"""

import json
from pathlib import Path

import pytest

from lpgeom.cli import main

CASES = json.loads(Path(__file__).with_name("cli_documents.json").read_text(encoding="utf-8"))


def test_every_single_operation_and_dualcone_pair_has_a_case():
    seen = {tuple(case["argv"]) for case in CASES}
    assert {argv[0] for argv in seen} == {"project", "gproject", "face", "vision", "classify", "dualcone"}
    pairs = {(argv[2], argv[4]) for argv in seen if argv[0] == "dualcone"}
    checks = ("member", "convexity", "double-dual", "identity")
    assert pairs == {(kind, check) for kind in ("metric", "generalized") for check in checks}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_the_document_and_text_are_the_recorded_ones(tmp_path, capsys, case):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(case["problem"]), encoding="utf-8")
    argv = case["argv"] + ["--input", str(path)]

    assert main(argv + ["--json"]) == case["code"]
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("elapsed_seconds") >= 0.0
    # dumped, not compared as dicts, so the order of the fields counts too
    assert json.dumps(doc, indent=2) == json.dumps(case["document"], indent=2)

    assert main(argv) == case["code"]
    assert capsys.readouterr().out == case["text"]
