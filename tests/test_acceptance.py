"""Acceptance gate: every builtin suite must pass under the recorded seed.

Each criterion prints one machine-greppable verdict line.  Run with
``pytest tests/test_acceptance.py -s`` to stream the lines as they appear.
"""

import json
from pathlib import Path

import pytest

from qlogic.batteries import run_suite

# Labels and verdicts of every check line at the recorded seed.  Residual
# details vary with the BLAS build, so they are not pinned.
SEED7_VERDICTS = json.loads(
    (Path(__file__).parent / "data" / "battery_seed7_verdicts.json").read_text(encoding="utf-8"))

# (suite, what the criterion asserts, wall-clock budget in seconds or None)
CRITERIA = [
    ("lattice-laws",
     "lattice laws, orthomodularity, and the distributivity counterexample", 10.0),
    ("commutator-routes",
     "finite and kernel commutator routes agree; subfamilies are monotone", 30.0),
    ("spectral-identities",
     "spectral projector identities across Borel descriptors", None),
    ("com-expansion",
     "evaluated com(...) equals the explicit spectral expansion", None),
    ("determinateness",
     "determinateness clauses agree, with commuting and conflicting controls", 20.0),
    ("equality",
     "equality projector routes and clauses agree; the Bell witness is certain", None),
    ("equivalence-relation",
     "equality is reflexive, symmetric, and transitive", None),
    ("common-eigenvectors",
     "common eigenvector spans rebuild the commutator and equality projectors", None),
    ("tautology-transfer",
     "instantiated classical tautologies dominate the commutator", None),
    ("measurement",
     "measurement predicates cohere; dilations round-trip", 180.0),
    ("cli-determinism",
     "identical runs give identical reports and contractual exit codes", None),
]

_RESULTS: dict[str, object] = {}


def _suite(name):
    # One run per suite for the whole session; criteria only read the result.
    if name not in _RESULTS:
        _RESULTS[name] = run_suite(name)
    return _RESULTS[name]


@pytest.mark.parametrize(("name", "claim", "budget_s"), CRITERIA,
                         ids=[entry[0] for entry in CRITERIA])
def test_acceptance(name, claim, budget_s):
    result = _suite(name)
    in_budget = budget_s is None or result.elapsed_s < budget_s
    verdict = "PASS" if result.passed and in_budget else "FAIL"
    print(f"[PRIMARY] {name}: {verdict} "
          f"({claim}; seed {result.seed}, {result.elapsed_s:.2f}s)")
    failed = [c for c in result.checks if not c.passed]
    assert not failed, "; ".join(f"{c.label}: {c.detail}" for c in failed)
    assert in_budget, f"{name} took {result.elapsed_s:.2f}s, budget {budget_s:.0f}s"


@pytest.mark.parametrize("name", list(SEED7_VERDICTS))
def test_seed7_labels_and_verdicts(name):
    result = _suite(name)
    assert [[c.label, c.passed] for c in result.checks] == SEED7_VERDICTS[name]
