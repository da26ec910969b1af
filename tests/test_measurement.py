"""Measuring processes: induced statistics, measurement predicates, dilations."""

import numpy as np
import pytest

from conftest import CNOT, SIGMA_Z, diag_obs
from qlogic.errors import (
    DimensionMismatchError,
    NotAPOVMError,
    NotUnitaryError,
)
from qlogic.linalg import opnorm
from qlogic.measurement import (
    POVM,
    MeasuringProcess,
    apply_outcome_function,
    global_measurement_check,
    measurement_battery,
    measures_in_state,
    naimark_process,
    output_distribution,
    povm_of_process,
    satisfies_bsf,
    simultaneous_measurability,
    spanning_state_sample,
    weakly_measures,
)
from qlogic.sampling import (
    cnot_process,
    measuring_process_for,
    random_density,
    random_povm,
    random_vector_state,
)
from qlogic.states import DensityState


def up_state():
    return DensityState.from_vector(np.array([1.0, 0.0], dtype=complex))


# ---------------------------------------------------------------------------
# POVM construction


def test_povm_validation():
    half = np.eye(2, dtype=complex) / 2.0
    povm = POVM([0.0, 1.0], [half, half])
    assert povm.dim == 2
    with pytest.raises(NotAPOVMError):
        POVM([0.0], [half, half])
    with pytest.raises(NotAPOVMError):
        POVM([0.0, 0.0], [half, half])
    with pytest.raises(NotAPOVMError):
        POVM([0.0, 1.0], [2.0 * np.eye(2), -np.eye(2)])
    with pytest.raises(NotAPOVMError):
        POVM([0.0, 1.0], [half, half / 2.0])
    with pytest.raises(NotAPOVMError):
        POVM([0.0, 1.0], [np.array([[0.5, 0.5j], [0.5j, 0.5]]), half])


def test_povm_rejects_non_real_labels():
    half = np.eye(2, dtype=complex) / 2.0
    for labels in ([(0.0, 0.0), (1.0, 1.0)], [0.0, 1j], ["up", "down"]):
        with pytest.raises(NotAPOVMError, match="is not a real number"):
            POVM(labels, [half, half])


def test_povm_element_lookup():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    povm = POVM([2.0, -3.0], [e0, e1])
    assert np.allclose(povm.element(2.0), e0)
    assert np.allclose(povm.element(-3.0), e1)
    assert np.allclose(povm.element(7.0), np.zeros((2, 2)))
    assert np.allclose(povm.element(2.0 + 1e-12, width=1e-9), e0)
    assert povm.outcomes == (2.0, -3.0)


# ---------------------------------------------------------------------------
# process construction


def test_measuring_process_validation(pauli_z):
    probe = up_state()
    with pytest.raises(DimensionMismatchError):
        MeasuringProcess(2, DensityState.maximally_mixed(3), CNOT, pauli_z)
    with pytest.raises(DimensionMismatchError):
        MeasuringProcess(3, probe, CNOT, pauli_z)
    with pytest.raises(NotUnitaryError):
        MeasuringProcess(2, probe, np.diag([1.0, 1.0, 1.0, 2.0]), pauli_z)


def test_cnot_meter_after_is_correlated_pointer():
    process = cnot_process()
    assert process.dim_h == 2 and process.dim_k == 2
    after = process.meter_after
    assert np.allclose(after.matrix, np.kron(SIGMA_Z, SIGMA_Z), atol=1e-12)
    assert after.spectrum == (-1.0, 1.0)


def test_povm_of_cnot_is_sharp():
    povm = povm_of_process(cnot_process())
    assert np.allclose(povm.element(1.0), np.diag([1.0, 0.0]), atol=1e-10)
    assert np.allclose(povm.element(-1.0), np.diag([0.0, 1.0]), atol=1e-10)


def test_output_distribution_routes_agree():
    process = cnot_process()
    plus = DensityState.from_vector(np.array([1.0, 1.0]) / np.sqrt(2))
    dist = output_distribution(process, plus)
    assert dist[1.0] == pytest.approx(0.5)
    assert dist[-1.0] == pytest.approx(0.5)
    sharp = output_distribution(process, up_state())
    assert sharp[1.0] == pytest.approx(1.0)
    assert sharp[-1.0] == pytest.approx(0.0, abs=1e-12)


def test_output_distribution_checks_state_space():
    with pytest.raises(DimensionMismatchError):
        output_distribution(cnot_process(), DensityState.maximally_mixed(3))


# ---------------------------------------------------------------------------
# measurement predicates


def test_cnot_measures_z_everywhere(rng, pauli_z):
    process = cnot_process()
    for _ in range(5):
        state = random_density(2, rng)
        assert measures_in_state(process, pauli_z, state)
        assert weakly_measures(process, pauli_z, state)
        assert satisfies_bsf(process, pauli_z, state)
        report = measurement_battery(process, pauli_z, state)
        assert report.coherent and report.holds


def test_cnot_does_not_measure_x(pauli_x):
    report = measurement_battery(cnot_process(), pauli_x, up_state())
    assert report.coherent
    assert not report.holds
    assert not any(report.clauses.values())


def test_global_measurement_check(pauli_z, pauli_x):
    process = cnot_process()
    sample = spanning_state_sample(2)
    good = global_measurement_check(process, pauli_z, sample)
    assert good.holds
    assert good.residuals["povm_is_spectral"] < 1e-10
    bad = global_measurement_check(process, pauli_x, sample)
    assert bad.coherent
    assert not bad.holds
    assert bad.residuals["povm_is_spectral"] > 0.1


def test_spanning_state_sample_spans_hermitian_space():
    for dim in (2, 3):
        sample = spanning_state_sample(dim)
        stacked = np.array([s.matrix.reshape(-1) for s in sample])
        real_stack = np.hstack([stacked.real, stacked.imag])
        assert np.linalg.matrix_rank(real_stack, tol=1e-10) == dim * dim


# ---------------------------------------------------------------------------
# dilation


def test_naimark_round_trip_sharp(pauli_z):
    process = measuring_process_for(pauli_z)
    induced = povm_of_process(process)
    assert opnorm(induced.element(1.0) - np.diag([1.0, 0.0])) < 1e-8
    assert opnorm(induced.element(-1.0) - np.diag([0.0, 1.0])) < 1e-8
    assert global_measurement_check(process, pauli_z, spanning_state_sample(2)).holds


def test_naimark_round_trip_random_povm(rng):
    povm = random_povm(3, 4, rng)
    process = naimark_process(povm)
    assert process.dim_h == 3 and process.dim_k == 4
    induced = povm_of_process(process)
    for label, element in zip(povm.outcomes, povm.elements):
        assert opnorm(induced.element(float(label), width=1e-8) - element) < 1e-8


def test_naimark_distribution_matches_povm(rng):
    povm = random_povm(2, 3, rng)
    process = naimark_process(povm)
    state = random_vector_state(2, rng)
    dist = output_distribution(process, state)
    for label, element in zip(povm.outcomes, povm.elements):
        direct = float(np.real(np.trace(element @ state.matrix)))
        assert dist[float(label)] == pytest.approx(direct, abs=1e-10)


def test_naimark_rejects_indistinguishable_labels():
    half = np.eye(2, dtype=complex) / 2.0
    povm = POVM([0.0, 1e-12], [half, half])
    with pytest.raises(NotAPOVMError):
        naimark_process(povm)


# ---------------------------------------------------------------------------
# outcome post-processing and joint measurement


def test_apply_outcome_function_relabels_pointer(pauli_z):
    process = cnot_process()
    relabeled = apply_outcome_function(process, {1.0: 10.0, -1.0: 20.0}, name="relabeled")
    povm = povm_of_process(relabeled)
    assert np.allclose(povm.element(10.0), np.diag([1.0, 0.0]), atol=1e-10)
    assert np.allclose(povm.element(20.0), np.diag([0.0, 1.0]), atol=1e-10)
    # The coupling and probe are untouched.
    assert relabeled.unitary is process.unitary
    assert relabeled.probe is process.probe


def test_apply_outcome_function_can_coarsen():
    process = cnot_process()
    coarse = apply_outcome_function(process, lambda v: v * v, name="absorbed")
    povm = povm_of_process(coarse)
    assert povm.outcomes == (1.0,)
    assert np.allclose(povm.element(1.0), np.eye(2), atol=1e-10)


def test_simultaneous_measurability_commuting_pair(rng):
    first = diag_obs("A", 0.0, 1.0, 2.0)
    second = diag_obs("B", 0.0, 0.0, 5.0)
    state = random_density(3, rng)
    report = simultaneous_measurability(first, second, state)
    assert report.determinate
    assert report.passed
    assert report.witness is not None
    assert report.first_measures and report.second_measures
    assert report.joint_marginals_match and report.individual_marginals_match
    # The code books decode the product outcome grid back onto the spectra.
    assert sorted(set(report.first_codes.values())) == [0.0, 1.0, 2.0]
    assert sorted(set(report.second_codes.values())) == [0.0, 5.0]


def test_simultaneous_measurability_indeterminate_pair(pauli_z, pauli_x):
    report = simultaneous_measurability(pauli_z, pauli_x, DensityState.maximally_mixed(2))
    assert not report.determinate
    assert report.witness is None
    # Nothing is claimed for an indeterminate pair.
    assert report.passed
