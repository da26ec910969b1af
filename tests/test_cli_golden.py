"""The CLI's stdout and exit codes on the qubit fixture, pinned byte for byte.

``tests/data/cli_golden.json`` maps each run below (its arguments joined by
spaces, with ``{scenario}`` standing for the fixture file) to the stdout and
exit code the CLI gave when the file was recorded.  The fixture's reports
hold no rounding noise, so the bytes do not depend on the BLAS build.  A
refactor must leave every entry unchanged; only an intended change of the
report format may re-record the file.
"""

import json
from pathlib import Path

import pytest

from qlogic import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

RUNS = [
    "eval {scenario} zpos",
    "eval {scenario} compatible",
    "eval {scenario} same",
    "prob {scenario} zpos up",
    "prob {scenario} zpos plus",
    "prob {scenario} either mixed",
    "check {scenario} determinate Z Z2 up",
    "check {scenario} determinate Z X mixed",
    "check {scenario} determinate Z X up",
    "check {scenario} equal Z Z2 up",
    "check {scenario} equal Z X up",
    "check {scenario} equal Z X mixed",
    "jointdist {scenario} Z Z2 up",
    "jointdist {scenario} Z X mixed",
    "jointdist {scenario} Z plus",
    "measure {scenario} pointer Z plus",
    "measure {scenario} pointer X up",
    "measure {scenario} pointer Z mixed",
    "prob {scenario} zpos nowhere",
    "check {scenario} equal Z X Z2 up",
    "jointdist {scenario} up",
]


def _record(scenario_file, run, capsys):
    code = cli.main(run.format(scenario=scenario_file).split())
    return {"stdout": capsys.readouterr().out, "exit": code}


@pytest.mark.parametrize("run", [f"{r} {flag}".strip() for r in RUNS for flag in ("", "--json")])
def test_cli_output_matches_golden(scenario_file, run, capsys, monkeypatch):
    monkeypatch.delenv("QLOGIC_TOL", raising=False)
    golden = json.loads(GOLDEN.read_text())
    assert _record(scenario_file, run, capsys) == golden[run]
