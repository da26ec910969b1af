"""Numerical tolerance policy shared by every module.

The ladder is deliberate: rank decisions are the tightest, eigenvalue
clustering sits in the middle, and invariant assertions are the loosest,
so a quantity that survives a rank cut can never flip an assertion.

That promise needs one config to judge an object from construction to
verdict.  So a config is passed only where objects are built from raw data
(the ``Projector``, ``Observable``, ``DensityState``, ``POVM`` and
``MeasuringProcess`` constructors, ``spectral_decompose``, the samplers and
the scenario loader), to the raw-matrix kernels (``linalg``, ``commutant``,
``algebra_from_generators``, ``common_null_space_projector``), and to
``run_suite``.  Every built object stores its config as ``tol``, and every
operation on built objects judges at the config its operands carry: a state's
for the state predicates, a process's for the measurement predicates, and
otherwise that of the first projector, observable, family member or algebra.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerance ladder used by all numerical decisions.

    rank_rel_tol
        Relative cutoff for rank decisions, scaled by the largest singular
        value times the dimension.
    assert_tol
        Ceiling for invariant checks on normalized data (norm residuals,
        probability deficits).
    cluster_tol
        Relative width for grouping eigenvalues into spectral points and for
        snapping real literals onto the spectrum.
    """

    rank_rel_tol: float = 1e-9
    assert_tol: float = 1e-8
    cluster_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.rank_rel_tol < self.cluster_tol <= self.assert_tol < 1.0):
            raise ValueError(
                "tolerance ladder must satisfy 0 < rank_rel_tol < cluster_tol"
                f" <= assert_tol < 1, got {self}"
            )

    def with_assert_tol(self, value: float) -> "ToleranceConfig":
        return ToleranceConfig(self.rank_rel_tol, value, self.cluster_tol)


DEFAULT_TOL = ToleranceConfig()
