"""Measuring processes, POVMs, and the measurement equivalences.

A measuring process couples the object space H to a probe space K: probe
state, coupling unitary, and a pointer observable on K.  The induced POVM,
the three measurement predicates (state-dependent measurement, weak
measurement, Born-rule reproduction on the cyclic subspace), their battery,
the state-independent check against the POVM, the probe dilation of an
arbitrary POVM, and the joint-measurability construction for simultaneously
determinate pairs all live here.  Both batteries return the package's one
``ClauseReport`` (from ``qlogic.states``), which raises InconsistentBattery
when the clauses disagree.  The measurement predicates judge at the process's
tolerance, the dilation at the POVM's, and the joint-measurability
construction at the state's.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .commutators import com_observables
from .errors import (
    CrossCheckFailure,
    DimensionMismatchError,
    NonFiniteError,
    NotAPOVMError,
    NotUnitaryError,
    QLogicError,
)
from .linalg import (
    _svd,
    dagger,
    eigh,
    kron,
    matrices_commute,
    opnorm,
    partial_trace_second,
    require_square,
)
from .observables import Observable, embed_first, embed_second, heisenberg, spectral_decompose
from .projectors import Projector
from .states import (
    ClauseReport,
    DensityState,
    cyclic_projector,
    equal_in_state,
    merged_values,
    projector_probability,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig


class POVM:
    """Positive effects labeled by real outcomes, resolving the identity."""

    __slots__ = ("outcomes", "elements", "dim", "tol")

    def __init__(self, outcomes: Sequence[float], elements: Sequence[np.ndarray],
                 tol: ToleranceConfig = DEFAULT_TOL):
        if len(outcomes) != len(elements):
            raise NotAPOVMError("one effect per outcome required")
        for label in outcomes:
            if not isinstance(label, numbers.Real):
                raise NotAPOVMError(f"outcome label {label!r} is not a real number")
        if len(set(outcomes)) != len(outcomes):
            raise NotAPOVMError("outcome labels must be distinct")
        mats = [require_square(e) for e in elements]
        dims = {m.shape[0] for m in mats}
        if len(dims) != 1:
            raise NotAPOVMError("effects live on different spaces")
        dim = dims.pop()
        total = np.zeros((dim, dim), dtype=complex)
        for m in mats:
            if opnorm(m - dagger(m)) > tol.assert_tol:
                raise NotAPOVMError("effect is not Hermitian within tolerance")
            smallest = float(np.min(eigh((m + dagger(m)) / 2.0)[0]))
            if smallest < -tol.assert_tol:
                raise NotAPOVMError(f"effect has negative eigenvalue {smallest:.3e}")
            total = total + m
        if opnorm(total - np.eye(dim)) > tol.assert_tol:
            raise NotAPOVMError("effects do not resolve the identity")
        self.outcomes = tuple(outcomes)
        self.elements = tuple(mats)
        self.dim = dim
        self.tol = tol

    def element(self, outcome: float, width: float = 0.0) -> np.ndarray:
        """Effect of an outcome; unknown labels give the zero effect."""
        for label, m in zip(self.outcomes, self.elements):
            if abs(label - outcome) <= width:
                return m
        return np.zeros((self.dim, self.dim), dtype=complex)

    def __repr__(self) -> str:
        return f"POVM(dim={self.dim}, outcomes={self.outcomes})"


class MeasuringProcess:
    """Probe model of a measurement: (K, sigma, U, M)."""

    __slots__ = ("dim_h", "probe", "unitary", "meter", "tol", "_meter_after", "_povm")

    def __init__(self, dim_h: int, probe: DensityState, unitary: np.ndarray,
                 meter: Observable, tol: ToleranceConfig = DEFAULT_TOL):
        u = require_square(unitary)
        if meter.dim != probe.dim:
            raise DimensionMismatchError("meter and probe state must share the probe space")
        if u.shape[0] != dim_h * probe.dim:
            raise DimensionMismatchError(
                f"coupling acts on dimension {u.shape[0]}, expected {dim_h * probe.dim}")
        # Entries too large for U^dag U give an infinite gram, which opnorm
        # rejects with NonFiniteError, reraised here to name the coupling; the
        # overflow itself needs no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = dagger(u) @ u
        try:
            deviation = opnorm(gram - np.eye(u.shape[0]))
        except NonFiniteError:
            raise NonFiniteError("the coupling U has entries that overflow its unitarity "
                                 "check (U^dag U is not finite)") from None
        if deviation > tol.assert_tol:
            raise NotUnitaryError("coupling matrix is not unitary within tolerance")
        self.dim_h = dim_h
        self.probe = probe
        self.unitary = u
        self.meter = meter
        self.tol = tol
        self._meter_after: Observable | None = None
        self._povm: POVM | None = None

    @property
    def dim_k(self) -> int:
        return self.probe.dim

    @property
    def meter_after(self) -> Observable:
        """The pointer in the Heisenberg picture: U^dag (1 (x) M) U."""
        if self._meter_after is None:
            self._meter_after = heisenberg(embed_second(self.meter, self.dim_h), self.unitary)
        return self._meter_after

    @property
    def povm(self) -> POVM:
        """The statistics the process induces on the object space
        (``povm_of_process``), built on first use and kept."""
        if self._povm is None:
            self._povm = povm_of_process(self)
        return self._povm

    def __repr__(self) -> str:
        return f"MeasuringProcess(dim_h={self.dim_h}, dim_k={self.dim_k})"


def povm_of_process(process: MeasuringProcess) -> POVM:
    """The statistics the process induces on the object space."""
    eye_h = np.eye(process.dim_h, dtype=complex)
    sigma = process.probe.matrix
    elements = []
    for p in process.meter_after.eigenprojectors:
        elements.append(partial_trace_second(
            p.matrix @ kron(eye_h, sigma), process.dim_h, process.dim_k))
    return POVM(process.meter_after.spectrum, elements, process.tol)


def _outcome_points(process: MeasuringProcess,
                    observable: Observable) -> tuple[POVM, float, list[float]]:
    """The process's POVM, the width that matches its outcomes with the
    observable's spectral points, and the merged points."""
    povm = process.povm
    width = max(observable.snap_width, process.meter_after.snap_width)
    return povm, width, merged_values(povm.outcomes, observable.spectrum, width)


def _joint_state(process: MeasuringProcess, state: DensityState) -> DensityState:
    """rho (x) sigma on the joint space, at the process's tolerance."""
    return DensityState.from_matrix(kron(state.matrix, process.probe.matrix), process.tol)


def output_distribution(process: MeasuringProcess, state: DensityState) -> dict[float, float]:
    """Outcome distribution, computed on the joint space and via the POVM.

    The two routes must agree to 1e-10; their disagreement would mean the
    partial trace and the joint-space expectation have diverged.
    """
    if state.dim != process.dim_h:
        raise DimensionMismatchError("state does not live on the object space")
    joint = _joint_state(process, state)
    povm = process.povm
    out: dict[float, float] = {}
    for value, projector in zip(process.meter_after.spectrum, process.meter_after.eigenprojectors):
        via_joint = projector_probability(projector, joint)
        via_povm = float(np.real(np.trace(povm.element(value) @ state.matrix)))
        if abs(via_joint - via_povm) > 1e-10:
            raise CrossCheckFailure(
                f"distribution routes disagree at outcome {value}: "
                f"{via_joint!r} vs {via_povm!r}")
        out[float(value)] = via_joint
    return out


def measures_in_state(process: MeasuringProcess, observable: Observable,
                      state: DensityState) -> bool:
    """The process measures the observable in the state: object value before
    coupling equals pointer value after, as quantum equality in rho (x) sigma."""
    embedded = embed_first(observable, process.dim_k)
    return equal_in_state(embedded, process.meter_after, _joint_state(process, state))


def weakly_measures(process: MeasuringProcess, observable: Observable,
                    state: DensityState) -> bool:
    """Weak joint distribution of pointer and object values is diagonal.

    Over all outcome/spectral atoms m, a: Tr[Pi({m}) E({a}) rho] equals
    Tr[E({m} cap {a}) rho].
    """
    povm, width, atoms = _outcome_points(process, observable)
    for m in atoms:
        effect = povm.element(m, width)
        for a in atoms:
            lhs = complex(np.trace(effect @ observable.eigenprojector_at(a).matrix
                                   @ state.matrix))
            if abs(m - a) <= width:
                rhs = complex(np.trace(observable.eigenprojector_at(a).matrix @ state.matrix))
            else:
                rhs = 0.0
            if abs(lhs - rhs) > process.tol.assert_tol:
                return False
    return True


def satisfies_bsf(process: MeasuringProcess, observable: Observable,
                  state: DensityState) -> bool:
    """Born statistics for every vector state of the cyclic subspace.

    Compressing Pi({v}) - E({v}) to the cyclic subspace of the observable in
    the state tests all its vector states at once (polarization).
    """
    cyclic = cyclic_projector([observable], state)
    povm, width, atoms = _outcome_points(process, observable)
    for v in atoms:
        gap = povm.element(v, width) - observable.eigenprojector_at(v).matrix
        if opnorm(cyclic.matrix @ gap @ cyclic.matrix) > process.tol.assert_tol:
            return False
    return True


def measurement_battery(process: MeasuringProcess, observable: Observable,
                        state: DensityState) -> ClauseReport:
    """Evaluate the three equivalent measurement predicates independently."""
    clauses = {
        "equality_on_joint_state": measures_in_state(process, observable, state),
        "weak_joint_distribution": weakly_measures(process, observable, state),
        "born_on_cyclic": satisfies_bsf(process, observable, state),
    }
    return ClauseReport.checked("measurement", clauses)


def global_measurement_check(process: MeasuringProcess, observable: Observable,
                             states: Sequence[DensityState]) -> ClauseReport:
    """The process measures in every state iff its POVM is the spectral measure.

    Clauses ``all_states_measure`` and ``povm_is_spectral``; the residual of
    the latter is the worst effect gap.  The state sample must span the
    Hermitian operators for the first clause to be a faithful stand-in for
    "every state"; `spanning_state_sample` provides such a sample.
    """
    all_measure = all(measures_in_state(process, observable, s) for s in states)
    povm, width, atoms = _outcome_points(process, observable)
    worst = 0.0
    for v in atoms:
        worst = max(worst, opnorm(povm.element(v, width)
                                  - observable.eigenprojector_at(v).matrix))
    clauses = {"all_states_measure": all_measure,
               "povm_is_spectral": worst <= process.tol.assert_tol}
    return ClauseReport.checked("global measurement", clauses, {"povm_is_spectral": worst})


def spanning_state_sample(dim: int, tol: ToleranceConfig = DEFAULT_TOL) -> list[DensityState]:
    """Pure and mixed states whose span is the full Hermitian operator space."""
    states: list[DensityState] = [DensityState.maximally_mixed(dim, tol)]
    for i in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        states.append(DensityState.from_vector(v, tol))
    for i in range(dim):
        for j in range(i + 1, dim):
            for phase in (1.0, 1.0j):
                v = np.zeros(dim, dtype=complex)
                v[i] = 1.0 / np.sqrt(2)
                v[j] = phase / np.sqrt(2)
                states.append(DensityState.from_vector(v, tol))
    return states


def _psd_sqrt(matrix: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    values, vectors = eigh((matrix + dagger(matrix)) / 2.0)
    # The square root turns eigenvalue noise of size eps into sqrt(eps)
    # contamination outside the true range, so the noise floor is zeroed
    # rather than merely clipped at zero.
    floor = tol.rank_rel_tol * max(float(values[-1]), 1.0) * values.size
    cleaned = np.where(values > floor, values, 0.0)
    return (vectors * np.sqrt(cleaned)) @ dagger(vectors)


def naimark_process(povm: POVM, meter_name: str = "M") -> MeasuringProcess:
    """Dilate a POVM to a measuring process on H (x) C^m with a sharp pointer.

    The probe starts in the first basis state, the coupling extends the
    isometry psi -> sum_k (sqrt(Pi_k) psi) (x) e_k by a deterministic
    orthonormal completion, and the pointer is diagonal with the outcome
    labels as eigenvalues.  The induced POVM of the result is verified to
    reproduce the input.
    """
    t = povm.tol
    labels = [float(v) for v in povm.outcomes]
    m = len(labels)
    n = povm.dim
    width = t.cluster_tol * max(1.0, max(abs(v) for v in labels))
    sorted_labels = sorted(labels)
    if any(b - a <= width for a, b in zip(sorted_labels, sorted_labels[1:])):
        raise NotAPOVMError("outcome labels too close to survive spectral clustering")

    isometry = np.zeros((n * m, n), dtype=complex)
    for k, element in enumerate(povm.elements):
        isometry[k::m, :] = _psd_sqrt(element, t)
    if opnorm(dagger(isometry) @ isometry - np.eye(n)) > t.assert_tol:
        raise NotAPOVMError("effect square roots do not assemble into an isometry")

    left, _, _ = _svd(isometry, full_matrices=True)
    completion = left[:, n:]
    unitary = np.zeros((n * m, n * m), dtype=complex)
    next_extra = 0
    for j in range(n):
        unitary[:, j * m] = isometry[:, j]
        for k in range(1, m):
            unitary[:, j * m + k] = completion[:, next_extra]
            next_extra += 1
    if opnorm(dagger(unitary) @ unitary - np.eye(n * m)) > t.assert_tol:
        raise QLogicError("unitary completion failed")

    probe_vector = np.zeros(m, dtype=complex)
    probe_vector[0] = 1.0
    meter = spectral_decompose(meter_name, np.diag(labels).astype(complex), t)
    process = MeasuringProcess(n, DensityState.from_vector(probe_vector, t),
                               unitary, meter, tol=t)
    induced = process.povm
    for label, element in zip(povm.outcomes, povm.elements):
        gap = opnorm(induced.element(float(label), width) - element)
        if gap > t.assert_tol:
            raise CrossCheckFailure(
                f"dilated process does not reproduce effect {label}: gap {gap:.3e}")
    return process


def apply_outcome_function(process: MeasuringProcess,
                           f: Callable[[float], float] | Mapping[float, float],
                           name: str | None = None) -> MeasuringProcess:
    """Post-process outcomes: same coupling and probe, pointer pushed through f."""
    meter = process.meter.apply_function(f, name)
    return MeasuringProcess(process.dim_h, process.probe, process.unitary, meter,
                            tol=process.tol)


@dataclass
class SimultaneousMeasurementReport:
    """Joint measurement of a determinate pair via the central compression."""

    determinate: bool
    witness: MeasuringProcess | None
    first_codes: dict[float, float]
    second_codes: dict[float, float]
    first_measures: bool
    second_measures: bool
    joint_marginals_match: bool
    individual_marginals_match: bool
    note: str

    @property
    def passed(self) -> bool:
        if not self.determinate:
            return True
        return (self.first_measures and self.second_measures
                and self.joint_marginals_match and self.individual_marginals_match)


def simultaneous_measurability(first: Observable, second: Observable,
                               state: DensityState) -> SimultaneousMeasurementReport:
    """Construct a joint measurement witness when the pair is determinate.

    Compressing both observables by their commutator projection makes them
    commute; the product of the compressed spectral measures is a POVM whose
    dilation measures both observables in the given state.  The construction
    is one-directional: nothing is concluded when the pair is not
    determinate.
    """
    t = state.tol
    g = com_observables([first, second])
    if projector_probability(g, state) < 1.0 - t.assert_tol:
        return SimultaneousMeasurementReport(
            determinate=False, witness=None, first_codes={}, second_codes={},
            first_measures=False, second_measures=False,
            joint_marginals_match=False, individual_marginals_match=False,
            note="pair not simultaneously determinate in the state; "
                 "the compression witness does not apply")

    for x in (first, second):
        if not matrices_commute(x.matrix, g.matrix, t):
            raise QLogicError(f"commutator projection fails to commute with {x.name}")
    compressed_first = spectral_decompose(f"{first.name}|c", first.matrix @ g.matrix, t)
    compressed_second = spectral_decompose(f"{second.name}|c", second.matrix @ g.matrix, t)
    if not matrices_commute(compressed_first.matrix, compressed_second.matrix, t):
        raise QLogicError("compressed pair fails to commute")

    stride = float(len(compressed_second.spectrum))
    outcomes: list[float] = []
    elements: list[np.ndarray] = []
    first_codes: dict[float, float] = {}
    second_codes: dict[float, float] = {}
    for i, a in enumerate(compressed_first.spectrum):
        for j, b in enumerate(compressed_second.spectrum):
            code = float(i) * stride + float(j)
            outcomes.append(code)
            elements.append(compressed_first.eigenprojector_at(a).matrix
                            @ compressed_second.eigenprojector_at(b).matrix)
            first_codes[code] = float(a)
            second_codes[code] = float(b)
    witness = naimark_process(POVM(outcomes, elements, t), meter_name="pair")

    first_process = apply_outcome_function(witness, first_codes, name=f"{first.name}-pointer")
    second_process = apply_outcome_function(witness, second_codes, name=f"{second.name}-pointer")
    first_measures = measurement_battery(first_process, first, state).holds
    second_measures = measurement_battery(second_process, second, state).holds

    joint_cyclic = cyclic_projector([first, second], state)
    joint_ok = _marginals_match(compressed_first, first, joint_cyclic, t) and \
        _marginals_match(compressed_second, second, joint_cyclic, t)
    individual_ok = _marginals_match(compressed_first, first,
                                     cyclic_projector([first], state), t) and \
        _marginals_match(compressed_second, second,
                         cyclic_projector([second], state), t)
    return SimultaneousMeasurementReport(
        determinate=True, witness=witness,
        first_codes=first_codes, second_codes=second_codes,
        first_measures=first_measures, second_measures=second_measures,
        joint_marginals_match=joint_ok, individual_marginals_match=individual_ok,
        note="compression witness constructed")


def _marginals_match(compressed: Observable, original: Observable,
                     cyclic: Projector, t: ToleranceConfig) -> bool:
    """Marginal effects agree with the original spectral measure on a subspace."""
    width = max(compressed.snap_width, original.snap_width)
    atoms = merged_values(compressed.spectrum, original.spectrum, width)
    for v in atoms:
        gap = (compressed.eigenprojector_at(v).matrix
               - original.eigenprojector_at(v).matrix) @ cyclic.matrix
        if opnorm(gap) > t.assert_tol:
            return False
    return True
