"""Commutator projections of projector families and observables.

Independent routes to the same object:

* ``com_family``: the lattice formula, a join of meets over sign
  assignments of the family members, with the complements solved in one
  batched kernel call and the 2^k meets in another;
* ``com_pair``: for two projectors, the kernel of [P, Q], which by Halmos'
  two-subspace theorem (Trans. AMS 144 (1969) 381-389) is the part of the
  space where P and Q commute; it builds no meet;
* ``com_kernel``: the joint kernel of the triple products [P_i, P_j] P_k,
  which is linear-algebraic rather than lattice-built.  It is solved in two
  stacked stages: K0 = the joint kernel of the pairwise [P_i, P_j], then the
  joint kernel of the (1 - Pi_K0) P_k, since [P_i, P_j] P_k psi = 0 for every
  i < j exactly when P_k psi lies in K0;
* ``com_observables``: for observables, the join of the nonzero joint
  spectral atoms E_1(v_1) ^ ... ^ E_n(v_n), each solved on its own basis
  (``observables.joint_atoms``), cross-checked by the raw matrices alone:
  com is the largest subspace of the joint kernel K0 of the pairwise
  [X_i, X_j] that every Hermitian X_i leaves invariant (Shemesh, Linear
  Algebra Appl. 62 (1984) 11-18), reached from K0 by Wonham's recursion
  K <- {v in K : (1 - Pi_K) X_i v = 0} (Linear Multivariable Control, 3rd
  ed. 1985); no algebra is built.  ``com_kernel`` of the observables'
  cumulative spectral projectors is a third route, which
  ``states.common_eigenvector_projector`` compares with the atoms.

The engine never collapses routes into each other: route agreement is the
load-bearing correctness signal.  Each function judges at the tolerance of its
first projector, observable or family member.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from .errors import CrossCheckFailure, DimensionMismatchError, FamilyTooLargeError
from .linalg import commutator, dagger, opnorm, solution_basis, unit_norm_stack
from .observables import Observable, joint_atoms
from .projectors import (
    Projector,
    common_null_space_projector,
    join_all,
    meet_each,
    ortho_each,
)
from .tolerances import ToleranceConfig

_MAX_FAMILY = 12


def com_pair(p: Projector, q: Projector) -> Projector:
    """Two-element commutator (P^Q) v (P^Q') v (P'^Q) v (P'^Q'), computed as
    the kernel of [P, Q] (Halmos' two-subspace theorem)."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"projectors on different spaces: dims {p.dim}, {q.dim}")
    return common_null_space_projector([commutator(p.matrix, q.matrix)], p.dim, p.tol)


def com_family(family: Sequence[Projector]) -> Projector:
    """Commutator of a finite family: join over all sign maps of the meets.

    The k complements are solved in one batched kernel call (``ortho_each``)
    and the 2^k meets in another (``meet_each``); each system is factored on
    its own, so the result has the bits of one ``ortho`` and one ``meet_all``
    per solve.  Exponential in the family size by construction; families
    larger than twelve are rejected rather than silently approximated.
    """
    members = _members(family)
    if len(members) > _MAX_FAMILY:
        raise FamilyTooLargeError(
            f"family of size {len(members)} exceeds the sign-map expansion cap {_MAX_FAMILY}")
    signed = list(zip(members, ortho_each(members)))
    dim = members[0].dim
    meets = meet_each([[pair[s] for pair, s in zip(signed, signs)]
                       for signs in itertools.product((0, 1), repeat=len(members))], dim)
    return join_all(meets, dim=dim)


def _members(family: Sequence) -> list:
    """The family as a list, refused when it is empty or spans two spaces."""
    members = list(family)
    if not members:
        raise FamilyTooLargeError("commutator of an empty family is not defined here")
    dims = sorted({m.dim for m in members})
    if len(dims) > 1:
        raise DimensionMismatchError(f"family members on different spaces: dims {dims}")
    return members


def com_kernel(family: Sequence[Projector]) -> Projector:
    """Commutator as the joint kernel of the triple products [P_i, P_j] P_k.

    Solved in two stages, each a stacked kernel solve (not a sum of squares,
    so every residual stays linear in psi):

    1. K0, the joint kernel of the pairwise [P_i, P_j] over i < j:
       N(N-1)/2 * d rows for N members on C^d;
    2. the joint kernel of the (1 - Pi_K0) P_k over k: N * d rows.

    Together they give the triple-product kernel, because [P_i, P_j] P_k psi
    = 0 for every i < j exactly when P_k psi lies in K0.  Stacking the triple
    products themselves takes ~N^3 d / 2 rows: for the 2d thresholds of two
    observables, 4 d^4 rows and O(d^6) flops, against O(d^5) here.
    """
    members = _members(family)
    dim, tol = members[0].dim, members[0].tol
    cube = np.stack([p.matrix for p in members])
    pairwise = common_null_space_projector(_pairwise_commutators(cube, dim), dim, tol).basis
    leak = (cube - pairwise @ (dagger(pairwise) @ cube)).reshape(-1, dim)
    return common_null_space_projector([leak], dim, tol)


def _pairwise_commutators(stack: np.ndarray, dim: int) -> list[np.ndarray]:
    """The blocks [A_i, A_j] over j > i, one stacked block of rows per i."""
    return [commutator(stack[i], stack[i + 1:]).reshape(-1, dim)
            for i in range(len(stack) - 1)]


def threshold_family(observables: Sequence[Observable]) -> list[Projector]:
    """All cumulative spectral projectors of the given observables."""
    return [x.threshold(v) for x in observables for v in x.spectrum]


def com_observables(observables: Sequence[Observable]) -> Projector:
    """Commutator of finitely many observables.

    Production route: the join of the nonzero joint spectral atoms, the span
    of the family's common eigenvectors.  Cross-check route:
    ``_invariant_route`` of the raw matrices, which reads no spectral
    projector.  Disagreement raises CrossCheckFailure since both characterize
    the same projection.
    """
    return _com_and_atoms(observables)[0]


def _com_and_atoms(observables: Sequence[Observable]
                   ) -> tuple[Projector, dict[tuple[int, ...], np.ndarray]]:
    """``com_observables`` together with the joint atoms its production route
    spans, for callers that read the atoms too."""
    xs = _members(observables)
    tol = xs[0].tol
    spectral_route, atoms = _atom_route(xs)
    invariant_route = _invariant_route([x.matrix for x in xs], xs[0].dim, tol)
    gap = opnorm(spectral_route.matrix - invariant_route.matrix)
    if gap > tol.assert_tol:
        raise CrossCheckFailure(
            f"commutator routes disagree by {gap:.3e} on {[x.name for x in xs]}")
    return spectral_route, atoms


def _atom_route(xs: Sequence[Observable]
                ) -> tuple[Projector, dict[tuple[int, ...], np.ndarray]]:
    """The span of the nonzero joint spectral atoms of a family of one
    dimension, and the atoms (``joint_atoms``)."""
    dim = xs[0].dim
    atoms = joint_atoms(xs, dim)
    span = Projector.from_basis(np.hstack([np.zeros((dim, 0)), *atoms.values()]),
                                dim=dim, tol=xs[0].tol)
    return span, atoms


def _invariant_route(matrices: Sequence[np.ndarray], dim: int, tol: ToleranceConfig) -> Projector:
    """Wonham's recursion of the module docstring over the unit-norm X_i: each
    step solves (1 - Q Q^dag) X_i Q c = 0 for K's orthonormal basis Q."""
    letters = unit_norm_stack(matrices, dim)
    basis = common_null_space_projector(_pairwise_commutators(letters, dim), dim, tol).basis
    while basis.shape[1]:
        moved = letters @ basis
        leak = (moved - basis @ (dagger(basis) @ moved)).reshape(-1, basis.shape[1])
        kept = solution_basis(leak, basis.shape[1], tol)
        if kept.shape[1] == basis.shape[1]:
            break
        basis = basis @ kept
    return Projector(basis, dim=dim, tol=tol)
