"""Dense complex linear algebra kernel.

Everything downstream funnels through these few routines so the tolerance
policy is applied in exactly one place.  Matrices are plain complex ndarrays;
no sparsity, dimensions stay at desk scale.  Each batched kernel is the one
implementation: ``opnorms`` takes the operator norm of a stack of matrices and
``solution_bases`` solves a stack of equal-shape homogeneous systems, each in
one batched SVD call, and ``opnorm`` and ``solution_basis`` are each the
batched kernel on a stack of one; commutators inside a generated algebra are
taken over basis x letters in ``algebras``, not over pairs.
Every SVD or Hermitian eigendecomposition in the package goes through ``_svd``
or ``eigh`` here; one that fails to converge raises ``NonFiniteError`` when its
input holds a non-finite entry and ``FactorizationError`` otherwise, and a
norm that is not finite raises ``NonFiniteError``, so no ``opnorm(...) > tol``
guard can pass on NaN.
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import (
    DimensionMismatchError,
    FactorizationError,
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
    QLogicError,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig


def as_matrix(value) -> np.ndarray:
    """Coerce to a 2-D complex ndarray without copying when possible."""
    m = np.asarray(value, dtype=complex)
    if m.ndim != 2:
        raise NonSquareError(f"expected a matrix, got ndim={m.ndim}")
    return m


def require_square(value) -> np.ndarray:
    m = as_matrix(value)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def _factorization_failure(a: np.ndarray, exc: np.linalg.LinAlgError,
                           what: str) -> QLogicError:
    """The typed error for a factorization of ``a`` that did not converge."""
    if not np.isfinite(a).all():
        return NonFiniteError(f"a {a.shape} array has non-finite entries")
    return FactorizationError(f"{what} of a {a.shape} array did not converge: {exc}")


def _svd(a: np.ndarray, **options):
    """``np.linalg.svd``, with non-convergence raised as a typed error."""
    try:
        return np.linalg.svd(a, **options)
    except np.linalg.LinAlgError as exc:
        raise _factorization_failure(a, exc, "SVD") from exc


def eigh(hermitian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh``, with non-convergence raised as a typed error."""
    try:
        return np.linalg.eigh(hermitian)
    except np.linalg.LinAlgError as exc:
        raise _factorization_failure(hermitian, exc, "eigendecomposition") from exc


def _non_finite_norm(a: np.ndarray) -> NonFiniteError:
    """The error for an operator norm of ``a`` that came out NaN or infinite.

    Callers check the norm, not the entries: an infinite entry gives a NaN or
    infinite norm, and so do finite entries whose norm overflows.
    """
    if np.isfinite(a).all():
        return NonFiniteError(f"the operator norm of a {a.shape} array overflows")
    return NonFiniteError(f"a {a.shape} array has non-finite entries")


def opnorm(m) -> float:
    """Operator 2-norm (largest singular value): ``opnorms`` of the stack of one."""
    return float(opnorms(as_matrix(m)[None])[0])


def opnorms(stack) -> np.ndarray:
    """Operator 2-norm of each matrix in a stack, in one batched SVD call."""
    s = np.asarray(stack, dtype=complex)
    if s.size == 0:
        return np.zeros(len(s))
    norms = _svd(s, compute_uv=False)[:, 0]
    if not np.isfinite(norms).all():
        raise _non_finite_norm(s)
    return norms


def unit_norm_stack(matrices, dim: int) -> np.ndarray:
    """The nonzero matrices stacked, each over its operator norm; a matrix that
    is not dim x dim raises."""
    mats = [require_square(m) for m in matrices]
    for m in mats:
        if m.shape[0] != dim:
            raise DimensionMismatchError(f"matrix of dimension {m.shape[0]}, expected {dim}")
    cube = np.asarray(mats, dtype=complex).reshape(len(mats), dim, dim)
    scales = opnorms(cube)
    return cube[scales != 0.0] / scales[scales != 0.0, None, None]


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b]; either side may be a stack, which broadcasts."""
    return a @ b - b @ a


def matrices_commute(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    a = require_square(a)
    b = require_square(b)
    scale = max(1.0, opnorm(a) * opnorm(b))
    return opnorm(commutator(a, b)) <= tol.assert_tol * scale


def hermitian_eig(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix.

    Returns eigenvalues ascending and orthonormal eigenvector columns.  The
    input is symmetrized as (M + M^dag)/2 before factoring; inputs further
    than assert_tol * ||M|| from Hermitian are rejected, and so are inputs
    whose entries, norm or symmetrization are not finite.
    """
    m = require_square(matrix)
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        skew = m - dagger(m)
        sym = (m + dagger(m)) / 2.0
    if not (np.isfinite(skew).all() and np.isfinite(sym).all()):
        raise NonFiniteError(f"matrix entries of size {np.max(np.abs(m)):.3e} overflow"
                             " its symmetrization")
    scale = max(1.0, opnorm(m))
    skew_norm = opnorm(skew)
    if skew_norm > tol.assert_tol * scale:
        raise NotHermitianError(f"matrix is {skew_norm:.3e} from Hermitian")
    eigenvalues, eigenvectors = eigh(sym)
    n = m.shape[0]
    residual = opnorm(sym - eigenvectors @ np.diag(eigenvalues) @ dagger(eigenvectors))
    gram = opnorm(dagger(eigenvectors) @ eigenvectors - np.eye(n))
    if residual > tol.assert_tol * scale or gram > tol.assert_tol:
        raise QLogicError(
            f"eigendecomposition postcondition failed (residual {residual:.3e}, gram {gram:.3e})"
        )
    return eigenvalues, eigenvectors


def singular_cutoff(singular_values, dim: int, tol: ToleranceConfig,
                    scale_floor: float = 0.0) -> float:
    """Rank cutoff: rank_rel_tol relative to largest singular value times dimension.

    ``singular_values`` is one descending sequence, an array or a list.
    ``scale_floor`` raises the reference scale: the kernel solvers pass
    ``_KERNEL_SCALE``, and ``range_basis`` keeps the unfloored rule.
    """
    if len(singular_values) == 0:
        return 0.0
    return tol.rank_rel_tol * max(float(singular_values[0]), scale_floor) * dim


# Every kernel solve floors the reference scale of its rank cutoff at one.
# The systems solved here are normalized to scale one (projector differences,
# commutators of unit-norm letters, span complements), so a system that is
# pure numerical noise gets a full null space instead of having its noise
# ranked.
_KERNEL_SCALE = 1.0


def kernel_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the null space of a square matrix."""
    m = require_square(matrix)
    return solution_basis(m, m.shape[0], tol)


def solution_basis(system, unknowns: int, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the solution space of A x = 0 for rectangular A:
    ``solution_bases`` of the stack of one."""
    a = np.asarray(system, dtype=complex)
    if a.ndim != 2 or a.shape[1] != unknowns:
        raise DimensionMismatchError(f"system shape {a.shape} does not match {unknowns} unknowns")
    return solution_bases(a[None], unknowns, tol)[0]


def solution_bases(systems, unknowns: int,
                   tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the solution space of each system in a stack of
    equal-shape systems A x = 0, in one batched SVD call.

    Membership is judged by singular values at or below the floored
    rank_rel_tol cutoff, so non-Hermitian systems need no special casing.
    """
    a = np.asarray(systems, dtype=complex)
    if a.ndim != 3 or a.shape[2] != unknowns:
        raise DimensionMismatchError(f"system stack shape {a.shape} does not match "
                                     f"{unknowns} unknowns")
    if a.shape[1] == 0:
        return [np.eye(unknowns, dtype=complex) for _ in range(len(a))]
    if a.shape[1] < unknowns:
        # Pad to square so the economy factorization still carries every
        # right-singular direction; a full left factor of a tall stack
        # would be quadratic in the row count.
        padding = np.zeros((len(a), unknowns - a.shape[1], unknowns), dtype=complex)
        a = np.concatenate([a, padding], axis=1)
    _, s, vh = _svd(a, full_matrices=False)
    bases = []
    # Ranked on Python floats: a numpy call per system costs a microsecond or
    # two, which at desk scale is a tenth of the factorization.  LAPACK returns
    # each system's singular values in descending order.
    for i, values in enumerate(s.tolist()):
        cutoff = singular_cutoff(values, unknowns, tol, _KERNEL_SCALE)
        rank = len(values) - bisect.bisect_right(values[::-1], cutoff)
        bases.append(dagger(vh[i, rank:]))
    return bases


def range_basis(columns, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the column space of the given stack."""
    c = np.asarray(columns, dtype=complex)
    if c.ndim != 2:
        raise DimensionMismatchError(f"expected a column stack, got ndim={c.ndim}")
    if c.shape[1] == 0:
        return np.zeros((c.shape[0], 0), dtype=complex)
    u, s, _ = _svd(c, full_matrices=False)
    cutoff = singular_cutoff(s, max(c.shape), tol)
    return u[:, s > cutoff]


def kron(a, b) -> np.ndarray:
    """Kronecker product, first factor on the slow index."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace_second(matrix, dim_first: int, dim_second: int) -> np.ndarray:
    """Trace out the second tensor factor of an operator on C^d1 (x) C^d2."""
    m = require_square(matrix)
    if m.shape[0] != dim_first * dim_second:
        raise DimensionMismatchError(
            f"matrix of dimension {m.shape[0]} is not {dim_first} x {dim_second}"
        )
    blocks = m.reshape(dim_first, dim_second, dim_first, dim_second)
    return np.einsum("ikjk->ij", blocks)
