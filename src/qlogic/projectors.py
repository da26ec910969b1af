"""Orthogonal projectors and their lattice operations.

Projectors are the truth values of everything downstream.  Meets go through
one kernel, ``meet_each`` (the joint kernel of the stacked 1 - P_i is the
intersection of the ranges), joins are the De Morgan dual, and every
projector is rebuilt as B B^dag from an orthonormal range basis so
idempotence never drifts.  A projector carries the tolerance it was built at,
and every operation judges at the tolerance of its first operand, which its
result carries too.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .linalg import (
    dagger,
    eigh,
    kernel_basis,
    opnorm,
    range_basis,
    require_square,
    solution_basis,
    solution_bases,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig


class Projector:
    """An orthogonal projection, stored as matrix plus orthonormal range basis.

    Instances are immutable by convention.  ``basis`` columns are trusted to
    be orthonormal; use :meth:`from_basis` to orthonormalize raw spans and
    :meth:`from_matrix` to validate an externally supplied matrix.
    """

    __slots__ = ("matrix", "basis", "dim", "tol", "_complement")

    def __init__(self, basis: np.ndarray, dim: int | None = None,
                 tol: ToleranceConfig = DEFAULT_TOL):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2:
            raise DimensionMismatchError("projector basis must be a column stack")
        self.basis = basis
        self.dim = basis.shape[0] if dim is None else dim
        if basis.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"basis lives in dimension {basis.shape[0]}, expected {self.dim}")
        self.matrix = basis @ dagger(basis)
        self.tol = tol
        self._complement: Projector | None = None

    @classmethod
    def from_basis(cls, columns, dim: int | None = None,
                   tol: ToleranceConfig = DEFAULT_TOL) -> "Projector":
        """Build from a (possibly redundant, non-orthonormal) spanning set."""
        c = np.asarray(columns, dtype=complex)
        if c.ndim == 1:
            c = c[:, None]
        return cls(range_basis(c, tol), dim=dim if dim is not None else c.shape[0], tol=tol)

    @classmethod
    def from_matrix(cls, matrix, tol: ToleranceConfig = DEFAULT_TOL) -> "Projector":
        """Validate a Hermitian idempotent matrix and rebuild it from its range."""
        m = require_square(matrix)
        if opnorm(m - dagger(m)) > tol.assert_tol:
            raise ValueError("projector matrix is not Hermitian within tolerance")
        if opnorm(m @ m - m) > tol.assert_tol:
            raise ValueError("projector matrix is not idempotent within tolerance")
        eigenvalues, eigenvectors = eigh((m + dagger(m)) / 2.0)
        return cls(eigenvectors[:, eigenvalues > 0.5], dim=m.shape[0], tol=tol)

    @classmethod
    def zero(cls, dim: int, tol: ToleranceConfig = DEFAULT_TOL) -> "Projector":
        return cls(np.zeros((dim, 0), dtype=complex), dim=dim, tol=tol)

    @classmethod
    def identity(cls, dim: int, tol: ToleranceConfig = DEFAULT_TOL) -> "Projector":
        return cls(np.eye(dim, dtype=complex), dim=dim, tol=tol)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def isclose(self, other: "Projector") -> bool:
        _require_same_dim(self, other)
        return opnorm(self.matrix - other.matrix) <= self.tol.assert_tol

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"

    # Operator sugar for formula-shaped code.
    def __and__(self, other: "Projector") -> "Projector":
        return meet(self, other)

    def __or__(self, other: "Projector") -> "Projector":
        return join(self, other)

    def __invert__(self) -> "Projector":
        return ortho(self)

    def __le__(self, other: "Projector") -> bool:
        return leq(self, other)


def _require_same_dim(*projectors: Projector) -> int:
    dims = {p.dim for p in projectors}
    if len(dims) > 1:
        raise DimensionMismatchError(f"projectors on different spaces: dims {sorted(dims)}")
    return projectors[0].dim


def common_null_space_projector(matrices: Sequence[np.ndarray],
                                dim: int | None = None,
                                tol: ToleranceConfig = DEFAULT_TOL) -> Projector:
    """Projector onto the joint null space of a family of constraint matrices.

    The constraints are stacked and factored together.  Summing M^dag M terms
    instead would square the small singular values, and a kernel read off the
    squared operator only pins the individual residuals down to the square
    root of working precision; the stacked form keeps them linear.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        if dim is None:
            raise DimensionMismatchError("joint kernel of an empty family needs a dimension")
        return Projector.identity(dim, tol)
    n = mats[0].shape[1]
    for m in mats:
        if m.ndim != 2 or m.shape[1] != n:
            raise DimensionMismatchError("constraint matrices act on different spaces")
    if dim is not None and dim != n:
        raise DimensionMismatchError(f"constraints act on dimension {n}, expected {dim}")
    return Projector(solution_basis(np.vstack(mats), n, tol), dim=n, tol=tol)


def meet(p: Projector, q: Projector) -> Projector:
    """Lattice meet: ``meet_all`` of the pair, the intersection of the ranges."""
    return meet_all([p, q])


def meet_all(projectors: Sequence[Projector], dim: int | None = None) -> Projector:
    """Meet of a finite family in one kernel computation: ``meet_each`` of the
    stack of one.  An empty family gives the ``DEFAULT_TOL`` identity, and a
    ``dim`` the members do not live in raises."""
    projectors = list(projectors)
    if dim is None:
        if not projectors:
            raise DimensionMismatchError("meet of an empty family needs an explicit dimension")
        dim = projectors[0].dim
    return meet_each([projectors], dim)[0]


# Entries per stacked solve in ``meet_each``: 16 MiB of systems at a time.
_MEET_CHUNK = 1 << 20


def meet_each(families: Sequence[Sequence[Projector]], dim: int) -> list[Projector]:
    """``meet_all`` of each family in a list of families of one size on C^dim.

    A family's meet is the joint kernel of its stacked 1 - P_i, judged at the
    tolerance of its first member; an empty family gives the ``DEFAULT_TOL``
    identity.  Each distinct member's 1 - P is formed once, and the systems of
    one tolerance are factored in one ``solution_bases`` call per
    ``_MEET_CHUNK`` entries.  That call solves each system on its own, so a
    meet has the same bits whether it is solved alone or in a batch.
    """
    families = [list(family) for family in families]
    size = len(families[0]) if families else 0
    if any(len(family) != size for family in families):
        raise DimensionMismatchError("batched meets need families of one size")
    dims = {p.dim for family in families for p in family}
    if dims - {dim}:
        raise DimensionMismatchError(f"projectors on dims {sorted(dims)}, expected {dim}")
    eye = np.eye(dim, dtype=complex)
    systems = np.empty((len(families), size, dim, dim), dtype=complex)
    gaps: dict[int, np.ndarray] = {}
    for system, family in zip(systems, families):
        for block, p in zip(system, family):
            if id(p) in gaps:
                block[...] = gaps[id(p)]
            else:
                gaps[id(p)] = np.subtract(eye, p.matrix, out=block)
    systems = systems.reshape(len(families), size * dim, dim)
    tols = [family[0].tol if family else DEFAULT_TOL for family in families]
    step = max(1, _MEET_CHUNK // max(1, size * dim * dim))
    meets: list[Projector] = [None] * len(families)
    for tol, picked in _by_tolerance(tols):
        for lo in range(0, len(picked), step):
            chunk = picked[lo:lo + step]
            stack = systems if len(chunk) == len(families) else systems[chunk]
            for i, basis in zip(chunk, solution_bases(stack, dim, tol)):
                meets[i] = Projector(basis, dim=dim, tol=tols[i])
    return meets


def _by_tolerance(tols: Sequence[ToleranceConfig]) -> list[tuple[ToleranceConfig, list[int]]]:
    """The indices of ``tols`` grouped by tolerance, in first-seen order."""
    groups: dict[ToleranceConfig, list[int]] = {}
    for i, tol in enumerate(tols):
        groups.setdefault(tol, []).append(i)
    return list(groups.items())


def ortho(p: Projector) -> Projector:
    """Orthocomplement, rebuilt from the complement basis and cached both ways.

    The cache makes ortho(ortho(P)) return the original object, so the double
    complement is exact rather than merely close.
    """
    if p._complement is None:
        _cache_complement(p, kernel_basis(p.matrix, p.tol))
    return p._complement


def ortho_each(projectors: Sequence[Projector]) -> list[Projector]:
    """``ortho`` of each projector in a list of one dimension.

    Cached complements are reused, a projector listed twice is solved once,
    and the kernels of the rest are factored together, one ``solution_bases``
    call per tolerance, each judged at its projector's own tolerance as
    ``ortho`` judges it.  Every new complement is cached both ways, with the
    bits ``ortho`` gives it.
    """
    projectors = list(projectors)
    fresh = list({id(p): p for p in projectors if p._complement is None}.values())
    if fresh:
        dim = _require_same_dim(*fresh)
        for tol, picked in _by_tolerance([p.tol for p in fresh]):
            stack = np.stack([fresh[i].matrix for i in picked])
            for i, basis in zip(picked, solution_bases(stack, dim, tol)):
                _cache_complement(fresh[i], basis)
    return [p._complement for p in projectors]


def _cache_complement(p: Projector, basis: np.ndarray) -> None:
    """Store the complement spanned by ``basis`` on ``p`` and ``p`` on it."""
    q = Projector(basis, dim=p.dim, tol=p.tol)
    q._complement = p
    p._complement = q


def join(p: Projector, q: Projector) -> Projector:
    """Lattice join via De Morgan: ortho(meet(ortho(P), ortho(Q)))."""
    return ortho(meet(ortho(p), ortho(q)))


def join_all(projectors: Sequence[Projector], dim: int | None = None) -> Projector:
    """Join of a finite family as the span of the concatenated range bases;
    empty family gives the ``DEFAULT_TOL`` zero."""
    projectors = list(projectors)
    if not projectors:
        if dim is None:
            raise DimensionMismatchError("join of an empty family needs an explicit dimension")
        return Projector.zero(dim)
    d = _require_same_dim(*projectors)
    if dim is not None and dim != d:
        raise DimensionMismatchError(f"projectors act on dimension {d}, expected {dim}")
    stacked = np.hstack([p.basis for p in projectors])
    return Projector.from_basis(stacked, dim=d, tol=projectors[0].tol)


def leq(p: Projector, q: Projector) -> bool:
    """Range inclusion: holds iff Q P = P within tolerance."""
    _require_same_dim(p, q)
    return opnorm(q.matrix @ p.matrix - p.matrix) <= p.tol.assert_tol


def commutes(p: Projector, q: Projector) -> bool:
    """Compatibility: ||[P, Q]|| within tolerance.

    Equivalent to the lattice form P = (P ^ Q) v (P ^ Q'), which the test
    suite cross-checks; the norm form is the production route.
    """
    _require_same_dim(p, q)
    return opnorm(p.matrix @ q.matrix - q.matrix @ p.matrix) <= p.tol.assert_tol


def sasaki_implies(p: Projector, q: Projector) -> Projector:
    """Sasaki arrow P -> Q = P' v (P ^ Q)."""
    return join(ortho(p), meet(p, q))
