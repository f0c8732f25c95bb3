"""Golden CLI reports: stdout, stderr and exit code, text and --json, byte for byte.

The goldens in data/cli_golden.json were written by the code they pin; after
an intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from twodist.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

COMMANDS = [
    ["identities"],
    ["solve"],
    ["classify"],
    ["classify", "--zmax", "12"],
    ["params", "27", "7", "3", "1"],
    ["params", "54", "15", "6", "3"],
    ["params", "5", "3", "2", "0"],
    ["regions", "--which", "g1", "--zmin=-20", "--zmax=12", "--xmax=40"],
    ["regions", "--which", "g2", "--zmin=-20", "--zmax=12", "--xmax=40"],
    ["regions", "--which", "g2", "--xmax=1"],
    ["verify", "lisonek"],
    ["embed", "tests/data/lisonek_design.json"],
    ["embed", "tests/data/witt_4_23_7_1.json"],
    ["embed", "tests/data/lisonek_complement.json", "--dump-gram"],
]
CASES = [argv + flag for argv in COMMANDS for flag in ([], ["--json"])]


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, _ = dispatch(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(ROOT)  # embed reports name the design path as given
    assert _run(argv) == _golden()[" ".join(argv)]


def test_golden_file_covers_exactly_the_cases():
    assert list(_golden()) == [" ".join(argv) for argv in CASES]


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n")
