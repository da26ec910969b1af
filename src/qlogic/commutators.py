"""Commutator projections of projector families and observables.

Independent routes to the same object:

* ``com_family``: the lattice formula, a join of meets over sign
  assignments of the family members;
* ``com_pair``: for two projectors, the kernel of [P, Q], which by Halmos'
  two-subspace theorem (Trans. AMS 144 (1969) 381-389) is the part of the
  space where P and Q commute; it builds no meet;
* ``com_kernel``: the joint kernel of the triple products [P1, P2] P3,
  which is linear-algebraic rather than lattice-built;
* ``com_observables``: the spectral-family kernel route for observables,
  cross-checked against the joint kernel of [a, g] over a basis a of the
  generated *-algebra and its letters g.  That kernel equals the one of all
  basis pairs [a_i, a_j], since [a, gh] = [ag, h] + [ha, g] reaches every
  word from the letters, with |A| * 2k * d rows for k generators instead of
  |A| (|A| - 1) / 2 * d.  The same identity answers the centrality and
  abelian-below questions of the subcommutator and factorization checks.

The engine never collapses routes into each other: route agreement is the
load-bearing correctness signal.  Each function judges at the tolerance of its
first projector, observable or family member.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebras import (
    MatrixAlgebra,
    algebra_from_generators,
    contains,
    letter_commutator_norm,
    minimal_central_projections,
)
from .errors import CrossCheckFailure, DimensionMismatchError, FamilyTooLargeError
from .linalg import commutator, opnorm
from .observables import Observable
from .projectors import Projector, common_null_space_projector, join_all, leq, meet_all, ortho
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

    Exponential in the family size by construction; families larger than
    twelve are rejected rather than silently approximated.
    """
    members = list(family)
    if not members:
        raise FamilyTooLargeError("commutator of an empty family is not defined here")
    if len(members) > _MAX_FAMILY:
        raise FamilyTooLargeError(
            f"family of size {len(members)} exceeds the sign-map expansion cap {_MAX_FAMILY}")
    dim = members[0].dim
    signed = [(p, ortho(p)) for p in members]
    meets = []
    for signs in itertools.product((0, 1), repeat=len(members)):
        chosen = [pair[s] for pair, s in zip(signed, signs)]
        meets.append(meet_all(chosen, dim=dim))
    return join_all(meets, dim=dim)


def com_kernel(family: Sequence[Projector]) -> Projector:
    """Commutator as the joint kernel of the triple products [P1, P2] P3.

    One constraint block per unordered pair and trailing member; the blocks
    are stacked rather than summed as squares so the kernel pins every
    [P_i, P_j] P_k psi down at working precision.
    """
    members = list(family)
    if not members:
        raise FamilyTooLargeError("commutator of an empty family is not defined here")
    dim = members[0].dim
    cube = np.stack([p.matrix for p in members])
    # Row i stacks [P_i, P_j] P_k over j > i, then k: the pair-major order of
    # the constraint blocks.
    blocks = [(commutator(cube[i], cube[i + 1:])[:, None] @ cube).reshape(-1, dim)
              for i in range(len(cube) - 1)]
    return common_null_space_projector(blocks, dim, members[0].tol)


def threshold_family(observables: Sequence[Observable]) -> list[Projector]:
    """All cumulative spectral projectors of the given observables."""
    return [x.threshold(v) for x in observables for v in x.spectrum]


def com_observables(observables: Sequence[Observable]) -> Projector:
    """Commutator of finitely many observables.

    Production route: the triple-product kernel over the cumulative spectral
    projectors.  Cross-check route: the joint kernel of the stacked
    commutators [a, g] of a basis a of the generated *-algebra with its
    letters g.  It reads the algebra of the raw generator matrices, never the
    spectral projectors.  Disagreement raises CrossCheckFailure since both
    characterize the same projection.
    """
    xs = list(observables)
    tol = xs[0].tol
    spectral_route = com_kernel(threshold_family(xs))
    algebra_route = _algebra_route([x.matrix for x in xs], xs[0].dim, tol)
    gap = opnorm(spectral_route.matrix - algebra_route.matrix)
    if gap > tol.assert_tol:
        raise CrossCheckFailure(
            f"commutator routes disagree by {gap:.3e} on {[x.name for x in xs]}")
    return spectral_route


def _algebra_route(gens: Sequence[np.ndarray], dim: int, tol: ToleranceConfig) -> Projector:
    """Joint kernel of [a, g] over the generated algebra's basis a and its
    letters g."""
    algebra = algebra_from_generators(gens, dim, tol)
    basis = np.stack(algebra.basis)
    blocks = [commutator(basis, g).reshape(-1, dim) for g in algebra.letters]
    return common_null_space_projector(blocks, dim, tol)


@dataclass
class SubcommutatorReport:
    """Checks that com(F) is the largest central element making F compatible."""

    com: Projector
    central: bool
    compressions_commute: bool
    interval_ranks: list[int]
    interval_commute: list[bool]

    @property
    def passed(self) -> bool:
        return self.central and self.compressions_commute and all(self.interval_commute)


def verify_subcommutator(family: Sequence[Projector],
                         algebra: MatrixAlgebra) -> SubcommutatorReport:
    """Report on the subcommutator role of com(F) inside the given algebra.

    Checks that E = com(F) is central (it lies in the algebra and commutes
    with every letter), that the compressions P_i E commute pairwise, and that
    the same holds below every minimal central projection under E (the
    interval property of the compatible part).
    """
    members = list(family)
    e = com_family(members)
    limit = members[0].tol.assert_tol
    central = (all(opnorm(commutator(e.matrix, g)) <= limit for g in algebra.letters)
               and contains(algebra, e.matrix))
    compressions_commute = _compressed_family_commutes(members, e)
    interval_ranks: list[int] = []
    interval_commute: list[bool] = []
    for c in minimal_central_projections(algebra):
        if leq(c, e):
            interval_ranks.append(c.rank)
            interval_commute.append(_compressed_family_commutes(members, c))
    return SubcommutatorReport(com=e, central=central,
                               compressions_commute=compressions_commute,
                               interval_ranks=interval_ranks,
                               interval_commute=interval_commute)


def _compressed_family_commutes(members: Sequence[Projector], central: Projector) -> bool:
    compressed = [p.matrix @ central.matrix for p in members]
    return max((opnorm(commutator(a, b)) for a, b in itertools.combinations(compressed, 2)),
               default=0.0) <= members[0].tol.assert_tol


@dataclass
class FactorizationReport:
    """Boolean/non-Boolean splitting of an algebra along com(F)."""

    com: Projector
    abelian_below: bool
    abelian_residual: float
    residual_blocks: list[int]
    residual_nonabelian: list[bool]
    residual_norms: list[float]

    @property
    def passed(self) -> bool:
        return self.abelian_below and all(self.residual_nonabelian)


def boolean_factorization_check(family: Sequence[Projector],
                                algebra: MatrixAlgebra) -> FactorizationReport:
    """Check the two-sided factorization along c = com(F).

    Below c the compressed algebra must be abelian; below every minimal
    central projection orthogonal to c it must fail to be abelian, i.e. no
    Boolean factor survives on the incompatible side.  Both are asked over
    basis x letters (``letter_commutator_norm``).
    """
    members = list(family)
    c = com_family(members)
    tol = members[0].tol
    worst = letter_commutator_norm(algebra, c.matrix)
    abelian_below = worst <= tol.assert_tol
    c_perp = ortho(c)
    blocks: list[int] = []
    flags: list[bool] = []
    norms: list[float] = []
    for e in minimal_central_projections(algebra):
        if not leq(e, c_perp):
            continue
        peak = letter_commutator_norm(algebra, e.matrix)
        blocks.append(e.rank)
        norms.append(peak)
        flags.append(peak > tol.assert_tol)
    return FactorizationReport(com=c, abelian_below=abelian_below, abelian_residual=worst,
                               residual_blocks=blocks, residual_nonabelian=flags,
                               residual_norms=norms)
