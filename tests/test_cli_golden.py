"""Every problem document under every command, run in process through
``cli.main``, against a checked-in record of stdout, stderr and exit code
(``cli_golden.json``), plus ``classify problems``.

The record holds the outputs the engine gave when it was written, so a
change that alters any table, verdict, witness, message or exit code fails
here.  After a deliberate change of output, regenerate the record from the
repository root with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``tests/cli_golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from logacm import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")
COMMANDS = ("cohom", "classify", "search", "deficiency", "ledger")


def invocations() -> list[list[str]]:
    """argv lists, with paths relative to the repository root."""
    problems = sorted(p.name for p in (ROOT / "problems").glob("*.yaml"))
    return [[c, f"problems/{p}"] for p in problems for c in COMMANDS] + [["classify", "problems"]]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_cli_outputs_match_the_record(monkeypatch):
    monkeypatch.chdir(ROOT)
    record = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in record] == invocations()
    for want in record:
        assert run(want["argv"]) == want, want["argv"]


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps([run(argv) for argv in invocations()], indent=1, ensure_ascii=False) + "\n")
