"""Scenario documents and the command-line front end."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import pairs, vector_pairs
from qlogic import cli, scenario
from qlogic.errors import FactorizationError, ScenarioParseError, ScenarioValidationError
from qlogic.sampling import random_observable, rng_from_seed
from qlogic.scenario import load_scenario, scenario_from_document


def run_cli(arguments, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "QLOGIC_TOL"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "qlogic.cli", *arguments],
                          capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# document parsing


def test_scenario_from_document_valid(qubit_document):
    scenario = scenario_from_document(qubit_document)
    assert scenario.dimension == 2
    assert scenario.seed == 11
    assert sorted(scenario.observables) == ["X", "Z", "Z2"]
    assert sorted(scenario.states) == ["mixed", "plus", "up"]
    assert scenario.registry.dim == 2
    assert scenario.proposition_sources["zpos"] == "Z == 1"
    assert scenario.processes["pointer"].dim_k == 2


def test_scenario_document_error_paths(qubit_document):
    with pytest.raises(ScenarioParseError, match=r"\$: top level"):
        scenario_from_document([1, 2, 3])
    with pytest.raises(ScenarioParseError, match=r"\$: unknown keys"):
        scenario_from_document({**qubit_document, "extra": 1})
    with pytest.raises(ScenarioParseError, match=r"\$\.dimension"):
        scenario_from_document({"observables": {}})
    with pytest.raises(ScenarioParseError, match=r"\$\.dimension"):
        scenario_from_document({"dimension": True})
    with pytest.raises(ScenarioParseError, match=r"\$\.seed"):
        scenario_from_document({"dimension": 2, "seed": "seven"})


def test_scenario_observable_errors(qubit_document):
    doc = dict(qubit_document)
    doc["observables"] = {"Z": {"rows": []}}
    with pytest.raises(ScenarioParseError, match=r"\$\.observables\.Z"):
        scenario_from_document(doc)
    doc["observables"] = {"Z": {"matrix": pairs(np.eye(3))}}
    with pytest.raises(ScenarioValidationError, match=r"^\$\.observables\.Z: .*expected"):
        scenario_from_document(doc)
    doc["observables"] = {"Z": {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}}
    with pytest.raises(ScenarioValidationError, match=r"^\$\.observables\.Z: .*Hermitian"):
        scenario_from_document(doc)


def test_scenario_complex_entry_errors(qubit_document):
    doc = dict(qubit_document)
    doc["observables"] = {"Z": {"matrix": [[[0, 0], [1]], [[0, 0], [0, 0]]]}}
    with pytest.raises(ScenarioParseError, match=r"matrix\[0\]\[1\]"):
        scenario_from_document(doc)
    doc["observables"] = {"Z": {"matrix": [[[0, 0]], [[0, 0], [0, 0]]]}}
    with pytest.raises(ScenarioParseError, match="row has"):
        scenario_from_document(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "overflow"])
def test_scenario_rejects_non_finite_entries(qubit_document, bad):
    doc = json.loads(json.dumps(qubit_document))
    doc["observables"]["Z"]["matrix"][1][1][0] = bad
    with pytest.raises(ScenarioParseError, match=r"\$\.observables\.Z\.matrix\[1\]\[1\]\[0\]: "
                                                 "expected a finite number"):
        scenario_from_document(doc)
    doc = json.loads(json.dumps(qubit_document))
    doc["states"]["up"] = {"vector": [[1.0, 0.0], [0.0, bad]]}
    with pytest.raises(ScenarioParseError, match=r"\$\.states\.up\.vector\[1\]\[1\]"):
        scenario_from_document(doc)


def test_scenario_state_errors(qubit_document):
    doc = dict(qubit_document)
    doc["states"] = {"bad": {"vector": vector_pairs([1.0, 0.0]), "matrix": pairs(np.eye(2))}}
    with pytest.raises(ScenarioParseError, match="exactly one"):
        scenario_from_document(doc)
    doc["states"] = {"bad": {"vector": vector_pairs([1.0, 0.0, 0.0])}}
    with pytest.raises(ScenarioValidationError, match=r"^\$\.states\.bad: .*dimension 3"):
        scenario_from_document(doc)
    doc["states"] = {"bad": {"matrix": pairs(np.eye(2))}}
    with pytest.raises(ScenarioValidationError, match=r"^\$\.states\.bad: .*trace"):
        scenario_from_document(doc)


def test_scenario_proposition_errors(qubit_document):
    doc = dict(qubit_document)
    doc["propositions"] = {"broken": "Z <= "}
    with pytest.raises(ScenarioParseError, match=r"\$\.propositions\.broken"):
        scenario_from_document(doc)
    doc["propositions"] = {"broken": 7}
    with pytest.raises(ScenarioParseError, match="expected a string"):
        scenario_from_document(doc)


def test_scenario_process_errors(qubit_document):
    doc = dict(qubit_document)
    doc["processes"] = {"p": {"dimK": 2}}
    with pytest.raises(ScenarioParseError, match="exactly the keys"):
        scenario_from_document(doc)
    pointer = qubit_document["processes"]["pointer"]
    invalid = {
        "$.processes.p": {"U": pairs(2 * np.eye(4))},
        "$.processes.p.M": {"M": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
        "$.processes.p.sigma": {"sigma": {"matrix": pairs(np.eye(2))}},
    }
    for path, change in invalid.items():
        doc["processes"] = {"p": {**pointer, **change}}
        with pytest.raises(ScenarioValidationError) as caught:
            scenario_from_document(doc)
        assert caught.value.path == path
        assert str(caught.value).startswith(f"{path}: ")


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("no convergence")


@pytest.mark.parametrize("site", ["observable", "state", "sigma", "meter", "process"])
def test_scenario_factorization_failure_is_not_invalid_input(qubit_document, monkeypatch, site):
    # One section at a time, so that the named wrap site is the first to
    # meet the failed factorization.
    section = {"observable": "observables", "state": "states"}.get(site, "processes")
    doc = {"dimension": 2, section: qubit_document[section]}
    if site == "sigma":
        doc[section]["pointer"]["sigma"] = {"matrix": pairs(np.eye(2) / 2.0)}
    if site == "process":
        def failing(*args, **kwargs):
            raise FactorizationError("SVD of a (4, 4) array did not converge")
        monkeypatch.setattr(scenario, "MeasuringProcess", failing)
    else:
        monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
    with pytest.raises(FactorizationError, match="did not converge"):
        scenario_from_document(doc)


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioParseError, match="cannot read file"):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioParseError, match="invalid JSON at line 1"):
        load_scenario(str(bad))


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_eval_json(scenario_file):
    result = run_cli(["eval", scenario_file, "compatible", "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["command"] == "eval"
    assert report["rank"] == 0
    assert report["standard"] is False
    assert set(report["contextually_wellformed"]) == {"mixed", "plus", "up"}


def test_cli_eval_text(scenario_file):
    result = run_cli(["eval", scenario_file, "zpos"])
    assert result.returncode == 0
    assert "truth projector rank 1 of 2" in result.stdout
    assert "standard: True" in result.stdout


def test_cli_prob(scenario_file):
    result = run_cli(["prob", scenario_file, "zpos", "up", "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["probability"] == 1.0
    assert report["holds"] is True
    half = run_cli(["prob", scenario_file, "zpos", "plus", "--json"])
    assert json.loads(half.stdout)["probability"] == 0.5


def test_cli_prob_disjunction_is_certain(scenario_file):
    report = json.loads(run_cli(["prob", scenario_file, "either", "mixed",
                                 "--json"]).stdout)
    assert report["probability"] == 1.0


def test_cli_check_determinate(scenario_file):
    good = run_cli(["check", scenario_file, "determinate", "Z", "Z2", "up", "--json"])
    assert good.returncode == 0
    report = json.loads(good.stdout)
    assert report["determinate"] is True
    assert all(report["clauses"].values())
    assert "distribution" in report
    bad = run_cli(["check", scenario_file, "determinate", "Z", "X", "mixed"])
    assert bad.returncode == 1


def test_cli_check_equal(scenario_file):
    same = run_cli(["check", scenario_file, "equal", "Z", "Z2", "up", "--json"])
    assert same.returncode == 0
    assert json.loads(same.stdout)["equal"] is True
    different = run_cli(["check", scenario_file, "equal", "Z", "X", "up"])
    assert different.returncode == 1


def test_cli_check_needs_names(scenario_file):
    result = run_cli(["check", scenario_file, "determinate", "up"])
    assert result.returncode == 2
    result = run_cli(["check", scenario_file, "equal", "Z", "X", "Z2", "up"])
    assert result.returncode == 2


def test_cli_jointdist(scenario_file):
    good = run_cli(["jointdist", scenario_file, "Z", "Z2", "up", "--json"])
    assert good.returncode == 0
    report = json.loads(good.stdout)
    assert report["determinate"] is True
    masses = {tuple(atom["values"]): atom["mass"] for atom in report["atoms"]}
    assert masses[(1.0, 1.0)] == 1.0
    assert masses[(-1.0, 1.0)] == 0.0
    none = run_cli(["jointdist", scenario_file, "Z", "X", "mixed"])
    assert none.returncode == 1
    assert "no joint distribution" in none.stdout


def test_cli_measure(scenario_file):
    result = run_cli(["measure", scenario_file, "pointer", "Z", "plus", "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["measures"] is True
    assert all(report["clauses"].values())
    assert report["output_distribution"] == {"-1": 0.5, "1": 0.5}
    not_x = json.loads(run_cli(["measure", scenario_file, "pointer", "X", "up",
                                "--json"]).stdout)
    assert not_x["measures"] is False


def test_cli_input_errors(scenario_file, tmp_path):
    assert run_cli(["eval", scenario_file, "nonexistent"]).returncode == 2
    assert run_cli(["prob", scenario_file, "zpos", "nonexistent"]).returncode == 2
    assert run_cli(["eval", str(tmp_path / "gone.json"), "zpos"]).returncode == 2
    broken = tmp_path / "broken.json"
    broken.write_text("[1,")
    assert run_cli(["eval", str(broken), "zpos"]).returncode == 2


@pytest.mark.parametrize("eps", [3e-9, 5e-9, 2e-8, 1e-7, 1e-6])
def test_cli_com_of_a_near_degenerate_observable_ends_cleanly(write_scenario, eps):
    # X's eigenvalue split eps straddles the clustering and rank cutoffs, the
    # band where the two com routes can see different operators.  Any exit
    # code of the contract is allowed for now; a traceback is not.
    y = random_observable("Y", 4, rng_from_seed(0), n_values=4).matrix
    path = write_scenario({
        "dimension": 4,
        "observables": {"X": {"matrix": pairs(np.diag([1.0, 1.0 + eps, 1.0, 1.0 + eps]))},
                        "Y": {"matrix": pairs(y)}},
        "states": {"mixed": {"matrix": pairs(np.eye(4) / 4.0)}},
        "propositions": {"c": "com(X, Y)"},
    })
    result = run_cli(["eval", path, "c"])
    assert result.returncode in (0, 1, 2)
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_cli_non_finite_scenario_exits_2(qubit_document, tmp_path, bad):
    qubit_document["observables"]["Z"]["matrix"][1][1][0] = bad
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(qubit_document))
    result = run_cli(["prob", str(path), "zpos", "up"])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "$.observables.Z.matrix[1][1][0]" in result.stderr


@pytest.mark.parametrize("entries", [{(0, 0): 1e308}, {(0, 1): 1e308, (1, 0): -1e308}],
                         ids=["diagonal", "skew"])
def test_cli_overflowing_observable_exits_2(qubit_document, tmp_path, entries):
    for (i, j), value in entries.items():
        qubit_document["observables"]["Z"]["matrix"][i][j][0] = value
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(qubit_document))
    result = run_cli(["prob", str(path), "zpos", "up"])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: $.observables.Z: ")
    assert "overflow" in result.stderr


def test_cli_overflowing_process_unitary_exits_2(qubit_document, tmp_path):
    # U^dag U overflows; a NaN unitarity gap must not pass the check.
    qubit_document["processes"]["pointer"]["U"][0][0][0] = 1e200
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(qubit_document))
    result = run_cli(["measure", str(path), "pointer", "Z", "up"])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: $.processes.pointer: ")
    assert "coupling U has entries that overflow its unitarity check" in result.stderr


def test_cli_factorization_failure_while_loading_exits_1(monkeypatch, capsys, scenario_file):
    # A failed eigendecomposition is a numerical failure, not invalid input.
    monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
    assert cli.main(["eval", scenario_file, "zpos"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("assertion failure: eigendecomposition of a ")
    assert "Traceback" not in captured.err


def test_cli_argparse_exits(scenario_file):
    assert run_cli(["--help"]).returncode == 0
    assert run_cli(["eval"]).returncode == 2
    assert run_cli([]).returncode == 2


def test_cli_tolerance_env_and_flag(scenario_file):
    # A loose assertion tolerance turns probability one-half into "holds".
    loose = run_cli(["prob", scenario_file, "zpos", "plus", "--json"],
                    env_extra={"QLOGIC_TOL": "0.6"})
    assert json.loads(loose.stdout)["holds"] is True
    # The command-line flag wins over the environment.
    strict = run_cli(["prob", scenario_file, "zpos", "plus", "--json", "--tol", "1e-8"],
                     env_extra={"QLOGIC_TOL": "0.6"})
    assert json.loads(strict.stdout)["holds"] is False
    # A tolerance below the rank cutoff breaks the ladder and is rejected.
    invalid = run_cli(["prob", scenario_file, "zpos", "up"],
                      env_extra={"QLOGIC_TOL": "1e-12"})
    assert invalid.returncode == 2
    assert "invalid tolerance" in invalid.stderr


def test_cli_battery_suite(scenario_file):
    result = run_cli(["battery", "spectral-identities", "--seed", "3", "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["passed"] is True
    assert report["suites"][0]["suite"] == "spectral-identities"
    assert report["suites"][0]["seed"] == 3
    assert all(check["passed"] for check in report["suites"][0]["checks"])


def test_cli_battery_unknown_suite():
    result = run_cli(["battery", "no-such-suite"])
    assert result.returncode == 2
    assert "unknown suite" in result.stderr


def test_cli_battery_scenario_seed(scenario_file):
    # A scenario file target supplies the seed but still needs a suite name.
    missing = run_cli(["battery", scenario_file])
    assert missing.returncode == 2
    result = run_cli(["battery", scenario_file, "spectral-identities", "--json"])
    assert result.returncode == 0
    assert json.loads(result.stdout)["suites"][0]["seed"] == 11


def test_cli_byte_determinism(scenario_file):
    command = ["battery", "spectral-identities", "--seed", "5", "--json"]
    first = run_cli(command)
    second = run_cli(command)
    assert first.returncode == 0
    # Timing fields are canonicalized but still vary; strip them before
    # comparing and check the remainder byte for byte.
    def strip_elapsed(text):
        report = json.loads(text)
        for suite in report["suites"]:
            suite.pop("elapsed_s")
        return json.dumps(report, sort_keys=True)

    assert strip_elapsed(first.stdout) == strip_elapsed(second.stdout)


def test_cli_eval_byte_determinism(scenario_file):
    command = ["eval", scenario_file, "same", "--json"]
    first = run_cli(command)
    second = run_cli(command)
    assert first.returncode == 0
    assert first.stdout == second.stdout
