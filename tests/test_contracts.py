"""The two contracts the package states once: clause batteries raise
InconsistentBattery when their clauses disagree, and the CLI exits 2 for an
InputError and 1 for any other QLogicError."""

import numpy as np
import pytest

from conftest import SIGMA_X
from qlogic import cli, errors, measurement, states
from qlogic.errors import InconsistentBattery, InputError, QLogicError
from qlogic.measurement import (
    global_measurement_check,
    measurement_battery,
    spanning_state_sample,
)
from qlogic.observables import spectral_decompose
from qlogic.sampling import (
    cnot_process,
    random_commuting_observables,
    random_density,
    rng_from_seed,
)
from qlogic.states import ClauseReport, DensityState, determinateness_battery, equality_battery

# ---------------------------------------------------------------------------
# clause batteries: one clause flipped at its source must make the battery raise


def _z():
    return spectral_decompose("Z", np.diag([1.0, -1.0]).astype(complex))


def _up():
    return DensityState.from_vector(np.array([1.0, 0.0], dtype=complex))


def _raises_with_report(run, flipped):
    with pytest.raises(InconsistentBattery) as caught:
        run()
    report = caught.value.args[1]
    assert isinstance(report, ClauseReport)
    assert not report.coherent
    assert report.clauses[flipped] is False
    assert all(ok for name, ok in report.clauses.items() if name != flipped)


def test_determinateness_battery_raises_on_disagreement(monkeypatch):
    rng = rng_from_seed(3)
    xs = random_commuting_observables(4, 2, rng)
    state = random_density(4, rng)
    assert determinateness_battery(xs, state).holds
    original = states._grid_measure
    monkeypatch.setattr(states, "_grid_measure",
                        lambda *args: (*original(*args)[:2], False))
    _raises_with_report(lambda: determinateness_battery(xs, state), "product_measure")


def test_equality_battery_raises_on_disagreement(monkeypatch):
    z = _z()
    z2 = spectral_decompose("Z2", z.matrix)
    assert equality_battery(z, z2, _up()).holds
    monkeypatch.setattr(states, "simultaneously_determinate", lambda *args: False)
    _raises_with_report(lambda: equality_battery(z, z2, _up()), "diagonal_concentration")


def test_measurement_battery_raises_on_disagreement(monkeypatch):
    process = cnot_process()
    assert measurement_battery(process, _z(), _up()).holds
    monkeypatch.setattr(measurement, "satisfies_bsf", lambda *args: False)
    _raises_with_report(lambda: measurement_battery(process, _z(), _up()), "born_on_cyclic")


def test_global_measurement_check_raises_on_disagreement(monkeypatch):
    process = cnot_process()
    sample = spanning_state_sample(2)
    assert global_measurement_check(process, _z(), sample).holds
    monkeypatch.setattr(measurement, "measures_in_state", lambda *args: False)
    _raises_with_report(lambda: global_measurement_check(process, _z(), sample),
                        "all_states_measure")


def test_clause_report_verdicts():
    agreeing = ClauseReport.checked("demo", {"a": False, "b": False}, {"a": 0.5})
    assert agreeing.coherent and not agreeing.holds
    assert agreeing.residuals == {"a": 0.5}
    assert agreeing.projector is None and agreeing.distribution is None
    assert ClauseReport.checked("demo", {"a": True}).holds
    with pytest.raises(InconsistentBattery, match="demo clauses disagree"):
        ClauseReport.checked("demo", {"a": True, "b": False})


def test_clause_report_keeps_the_older_verdict_names():
    x = spectral_decompose("X", SIGMA_X)
    report = equality_battery(x, x, _up())
    assert report.holds is report.equal is report.determinate is report.measures is True


# ---------------------------------------------------------------------------
# errors and the CLI's exit codes


INPUT_ERRORS = {
    errors.ScenarioParseError,
    errors.ScenarioValidationError,
    errors.UnknownNameError,
    errors.UnknownObservableError,
    errors.PropositionSyntaxError,
    errors.DimensionMismatchError,
    errors.NonSquareError,
    errors.NotHermitianError,
    errors.NotUnitaryError,
    errors.NotAPOVMError,
    errors.FamilyTooLargeError,
    errors.UndefinedAtSpectralPointError,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


PACKAGE_ERRORS = sorted({QLogicError} | {c for c in _subclasses(QLogicError)
                                         if c.__module__ == "qlogic.errors"},
                        key=lambda c: c.__name__)


# Failed checks and kernel-bug signals: the CLI exits 1 for these.
OTHER_ERRORS = {
    errors.NonFiniteError,
    errors.FactorizationError,
    errors.NotCommutingError,
    errors.DegenerateRandomizationError,
    errors.NonGenericElementError,
    errors.CrossCheckFailure,
    errors.InconsistentBattery,
    errors.NotATautologyError,
}


def test_input_error_classes_are_exactly_the_input_errors():
    assert set(_subclasses(InputError)) == INPUT_ERRORS
    assert all(c.__bases__ == (InputError,) for c in INPUT_ERRORS)
    assert all(c.__bases__ == (QLogicError,) for c in OTHER_ERRORS)
    assert set(PACKAGE_ERRORS) == {QLogicError, InputError} | INPUT_ERRORS | OTHER_ERRORS


def _instance(cls):
    if cls is errors.PropositionSyntaxError:
        return cls("unexpected token", 1, 4)
    if cls in (errors.ScenarioParseError, errors.ScenarioValidationError):
        return cls("$.states.up", "bad entry")
    return cls("bad input")


@pytest.mark.parametrize("cls", PACKAGE_ERRORS, ids=lambda c: c.__name__)
def test_cli_exit_code_follows_the_error_class(cls, monkeypatch, capsys):
    def failing(args, tol):
        raise _instance(cls)

    monkeypatch.setattr(cli, "_cmd_prob", failing)
    code = cli.main(["prob", "scenario.json", "zpos", "up"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""
    if issubclass(cls, InputError):
        assert code == 2
        assert captured.err.startswith("error: ")
    else:
        assert code == 1
        assert captured.err.startswith("assertion failure: ")
