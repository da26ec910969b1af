"""The builtin property suites as a library: registry, results, summaries."""

import json

import pytest

from qlogic import batteries
from qlogic.batteries import (
    BUILTIN_SUITES,
    DEFAULT_SEED,
    CheckLine,
    SuiteResult,
    run_suite,
)
from qlogic.errors import CrossCheckFailure, UnknownNameError

EXPECTED_SUITES = {
    "lattice-laws",
    "commutator-routes",
    "spectral-identities",
    "com-expansion",
    "determinateness",
    "equality",
    "equivalence-relation",
    "common-eigenvectors",
    "tautology-transfer",
    "measurement",
    "cli-determinism",
}


def test_registry_names():
    assert set(BUILTIN_SUITES) == EXPECTED_SUITES
    assert DEFAULT_SEED == 7


def test_run_suite_unknown_name():
    with pytest.raises(UnknownNameError, match="unknown suite"):
        run_suite("no-such-suite")


def test_run_suite_records_seed_and_checks():
    result = run_suite("spectral-identities", seed=3)
    assert isinstance(result, SuiteResult)
    assert result.suite == "spectral-identities"
    assert result.seed == 3
    assert result.elapsed_s > 0.0
    assert result.checks
    assert result.passed
    for check in result.checks:
        assert isinstance(check, CheckLine)
        assert check.label


def test_run_suite_default_seed():
    result = run_suite("commutator-routes")
    assert result.seed == DEFAULT_SEED
    assert result.passed


def test_summary_is_json_serializable():
    result = run_suite("spectral-identities", seed=9)
    summary = result.summary()
    assert summary["suite"] == "spectral-identities"
    assert summary["seed"] == 9
    assert summary["passed"] is True
    assert len(summary["checks"]) == len(result.checks)
    round_trip = json.loads(json.dumps(summary))
    assert round_trip["checks"][0]["label"] == result.checks[0].label


def test_passed_reflects_check_lines():
    good = SuiteResult("demo", 0, 0.0, [CheckLine("a", True), CheckLine("b", True)])
    assert good.passed
    bad = SuiteResult("demo", 0, 0.0, [CheckLine("a", True), CheckLine("b", False, "gap")])
    assert not bad.passed
    assert bad.summary()["checks"][1]["detail"] == "gap"


def test_a_raised_instance_fails_its_line_and_is_named(monkeypatch):
    original = batteries.equality_projector
    calls = []

    def fails_on_the_fifth_call(x, y):
        calls.append(None)
        if len(calls) == 5:
            raise CrossCheckFailure("injected")
        return original(x, y)

    monkeypatch.setattr(batteries, "equality_projector", fails_on_the_fifth_call)
    routes = run_suite("equality").checks[0]
    assert routes.label == "threshold-kernel and cross-term routes agree on 200 pairs"
    assert not routes.passed
    assert routes.detail == ("1 disagreements; 1 raised, "
                             "first instance 4: CrossCheckFailure: injected")


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_equivalence_relation_suite_passes_beyond_the_recorded_seed(seed):
    result = run_suite("equivalence-relation", seed)
    assert result.passed, [c for c in result.checks if not c.passed]
