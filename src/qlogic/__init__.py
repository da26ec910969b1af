"""Projection-valued logic over finite-dimensional Hilbert spaces.

Projectors with the orthomodular lattice operations, von Neumann algebra
machinery (commutant, center, minimal central projections), finite spectral
calculus for observables, commutator projections by independent routes,
state-dependent determinateness and quantum equality with their equivalence
batteries, a small proposition language, measuring-process models with the
measurement equivalences, and seeded property suites over all of it.
"""

from .algebras import (
    MatrixAlgebra,
    abelian_part,
    algebra_from_generators,
    center,
    commutant,
    contains,
    minimal_central_projections,
)
from .batteries import BUILTIN_SUITES, CheckLine, SuiteResult, run_all, run_suite
from .commutators import (
    com_family,
    com_kernel,
    com_observables,
    com_pair,
    threshold_family,
)
from .errors import (
    CrossCheckFailure,
    DegenerateRandomizationError,
    DimensionMismatchError,
    FactorizationError,
    FamilyTooLargeError,
    InconsistentBattery,
    InputError,
    NonFiniteError,
    NonGenericElementError,
    NonSquareError,
    NotAPOVMError,
    NotATautologyError,
    NotCommutingError,
    NotHermitianError,
    NotUnitaryError,
    PropositionSyntaxError,
    QLogicError,
    ScenarioParseError,
    ScenarioValidationError,
    UndefinedAtSpectralPointError,
    UnknownNameError,
    UnknownObservableError,
)
from .measurement import (
    POVM,
    MeasuringProcess,
    SimultaneousMeasurementReport,
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
from .observables import (
    BorelSet,
    Interval,
    Observable,
    embed_first,
    embed_second,
    heisenberg,
    spectral_decompose,
)
from .projectors import (
    Projector,
    common_null_space_projector,
    commutes,
    join,
    join_all,
    leq,
    meet,
    meet_all,
    ortho,
    sasaki_implies,
)
from .propositions import (
    And,
    ComO,
    EqConst,
    EqObs,
    Leq,
    Not,
    ObservableRegistry,
    Or,
    TautologyTransferReport,
    Var,
    instantiate,
    is_classical_tautology,
    is_contextually_wellformed,
    is_standard,
    mentioned_observables,
    parse,
    parse_skeleton,
    skeleton_variables,
    tautology_transfer_check,
    truth_value,
)
from .scenario import Scenario, load_scenario, scenario_from_document
from .states import (
    ClauseReport,
    DensityState,
    EquivalenceReport,
    JointDistribution,
    common_eigenvector_projector,
    cyclic_projector,
    determinateness_battery,
    equal_in_state,
    equality_battery,
    equality_projector,
    equivalence_relation_check,
    holds,
    probability,
    projector_probability,
    simultaneously_determinate,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

__version__ = "0.1.0"

__all__ = [
    "MatrixAlgebra", "abelian_part", "algebra_from_generators", "center", "commutant",
    "contains", "minimal_central_projections",
    "BUILTIN_SUITES", "CheckLine", "SuiteResult", "run_all", "run_suite",
    "com_family", "com_kernel", "com_observables", "com_pair", "threshold_family",
    "CrossCheckFailure", "DegenerateRandomizationError", "DimensionMismatchError",
    "FactorizationError", "FamilyTooLargeError", "InconsistentBattery", "InputError",
    "NonFiniteError", "NonGenericElementError", "NonSquareError", "NotAPOVMError",
    "NotATautologyError", "NotCommutingError", "NotHermitianError", "NotUnitaryError",
    "PropositionSyntaxError", "QLogicError", "ScenarioParseError",
    "ScenarioValidationError", "UndefinedAtSpectralPointError", "UnknownNameError",
    "UnknownObservableError",
    "POVM", "MeasuringProcess", "SimultaneousMeasurementReport", "apply_outcome_function",
    "global_measurement_check", "measurement_battery", "measures_in_state",
    "naimark_process", "output_distribution", "povm_of_process", "satisfies_bsf",
    "simultaneous_measurability", "spanning_state_sample", "weakly_measures",
    "BorelSet", "Interval", "Observable", "embed_first", "embed_second", "heisenberg",
    "spectral_decompose",
    "Projector", "common_null_space_projector", "commutes", "join", "join_all", "leq",
    "meet", "meet_all", "ortho", "sasaki_implies",
    "And", "ComO", "EqConst", "EqObs", "Leq", "Not", "ObservableRegistry", "Or",
    "TautologyTransferReport", "Var", "instantiate", "is_classical_tautology",
    "is_contextually_wellformed", "is_standard", "mentioned_observables", "parse",
    "parse_skeleton", "skeleton_variables", "tautology_transfer_check", "truth_value",
    "Scenario", "load_scenario", "scenario_from_document",
    "ClauseReport", "DensityState", "EquivalenceReport", "JointDistribution",
    "common_eigenvector_projector", "cyclic_projector", "determinateness_battery",
    "equal_in_state", "equality_battery", "equality_projector",
    "equivalence_relation_check", "holds", "probability", "projector_probability",
    "simultaneously_determinate",
    "DEFAULT_TOL", "ToleranceConfig",
]
