"""Finite-dimensional *-algebras of matrices via words and commutants.

The commutant is computed as the solution space of the linear system
[X, G] = 0, [X, G^dag] = 0 over all generators G, vectorized row-major.
Generated algebras are spans of words in the letters G u G^dag, and their
commutators are taken over basis x letters; centers are span intersections;
minimal central projections come from eigenspaces of a random Hermitian
central element, verified and retried if the randomization lands degenerate.

A build solves one commutant system, C(G); the fixpoint C(A) = C(G) of the
word span A is checked without a solve, by three checks at assert_tol.
(i) Every generator lies in A, which gives C(A) in C(G); it is checked first,
before any word, as [g, c] = 0 for c in C(G) (so g is in A given (ii), (iii)).
(ii) Every basis element commutes with every commutant element: C(G) in C(A).
(iii) For A = (+) M_n (x) I_m (rotated), the sums sum_k b_k b_k^dag and
sum_l c_l c_l^dag over HS-orthonormal bases of A and A' are sum (n/m) z and
sum (m/n) z over the minimal central projections z, so their product is the
identity; given (ii) it is the identity only when the commutant basis spans
all of A' (the Wedderburn dimension identity in operator form).  The word
span projects each new direction onto C(G)' (so (ii) checks rounding) by
X -> R^-1 sum_l c_l X c_l^dag with R = sum_l c_l c_l^dag: the sum maps each
block of A to m/n times its projection and the off-diagonal blocks to zero.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRandomizationError, DimensionMismatchError, QLogicError
from .linalg import (
    _KERNEL_SCALE,
    _svd,
    commutator,
    dagger,
    eigh,
    opnorm,
    opnorms,
    require_square,
    singular_cutoff,
    solution_basis,
    unit_norm_stack,
)
from .projectors import Projector
from .tolerances import DEFAULT_TOL, ToleranceConfig

# Random central combinations minimal_central_projections draws before it gives
# up; each one separates the central blocks with probability one.
_CENTRAL_ATTEMPTS = 5


def _vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex).reshape(-1)


def _commutation_system(mats: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """The stacked constraint rows of [X, G] = 0 and [X, G^dag] = 0 on vec(X).

    Row-major vec: vec(G X) = (G (x) I) vec(X) and vec(X G) = (I (x) G^T)
    vec(X).  Blocks come per generator, G then G^dag, each divided by the
    generator's operator norm.  Per-generator normalization keeps the system
    scale-free; a generator that is numerically a scalar would otherwise
    contribute a pure-noise block whose own norm sets the rank cutoff.  Zero
    generators contribute no rows.  The blocks are written into one array by
    broadcasting the same complex products np.kron forms, so the system is
    bit for bit the stack of per-generator kron blocks.
    """
    cube = np.asarray(mats, dtype=complex).reshape(len(mats), dim, dim)
    scales = opnorms(cube)
    keep = scales != 0.0
    cube, scales = cube[keep], scales[keep]
    pairs = np.stack([cube, np.conj(cube).swapaxes(-1, -2)], axis=1)
    eye = np.eye(dim, dtype=complex)
    # Axes (generator, G or G^dag, a, b, c, e) for row (a, b), column (c, e).
    system = np.empty((len(cube), 2, dim, dim, dim, dim), dtype=complex)
    np.multiply(pairs[:, :, :, None, :, None], eye[:, None, :], out=system)
    transposed = pairs.swapaxes(-1, -2)[:, :, :, None, :]
    # One row block a at a time keeps the temporary at 1/dim of the system.
    for a in range(dim):
        system[:, :, a] -= eye[a][:, None] * transposed
    system /= scales[:, None, None, None, None, None]
    return system.reshape(-1, dim * dim)


def commutant(generators: Sequence[np.ndarray], dim: int,
              tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of {X : [X, G] = [X, G^dag] = 0}.

    Adjoint constraints are always adjoined, so the result is a *-algebra
    whatever the generators are.  No generators means no constraints: the
    full matrix algebra comes back.
    """
    mats = [require_square(g) for g in generators]
    for g in mats:
        if g.shape[0] != dim:
            raise DimensionMismatchError(f"generator of dimension {g.shape[0]}, expected {dim}")
    system = _commutation_system(mats, dim)
    basis_vectors = solution_basis(system, dim * dim, tol)
    basis = [basis_vectors[:, k].reshape(dim, dim) for k in range(basis_vectors.shape[1])]
    if not _span_contains(basis_vectors, _vec(np.eye(dim, dtype=complex))[:, None], tol):
        raise QLogicError("commutant basis does not span the identity")
    return basis


def _stack(basis: Sequence[np.ndarray]) -> np.ndarray:
    if not basis:
        return np.zeros((0, 0), dtype=complex)
    return np.column_stack([_vec(b) for b in basis])


def _span_contains(stack: np.ndarray, vectors: np.ndarray,
                   tol: ToleranceConfig) -> bool:
    """Every column v of ``vectors`` lies in the span of the orthonormal
    ``stack``, up to assert_tol * max(1, |v|)."""
    residual = vectors - stack @ (dagger(stack) @ vectors)
    limit = tol.assert_tol * np.maximum(1.0, np.linalg.norm(vectors, axis=0))
    return bool(np.all(np.linalg.norm(residual, axis=0) <= limit))


@dataclass(frozen=True, eq=False)
class MatrixAlgebra:
    """A unital *-subalgebra of the dim x dim matrices.

    ``basis`` and ``commutant_basis`` are Hilbert-Schmidt orthonormal; the
    generating set is kept for reports, and the basis spans the words in the
    ``letters``: each nonzero generator, then each adjoint, over its operator
    norm.  All are tuples of read-only arrays, and the instance is frozen,
    so the invariants checked at construction keep holding.  Construct via
    :func:`algebra_from_generators`, which validates the invariants.
    """

    dim: int
    generators: tuple[np.ndarray, ...] = field(repr=False)
    letters: tuple[np.ndarray, ...] = field(repr=False)
    basis: tuple[np.ndarray, ...] = field(repr=False)
    commutant_basis: tuple[np.ndarray, ...] = field(repr=False)
    tol: ToleranceConfig = DEFAULT_TOL

    @property
    def size(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return f"MatrixAlgebra(dim={self.dim}, size={self.size})"


def _read_only(matrices) -> tuple[np.ndarray, ...]:
    for m in matrices:
        m.setflags(write=False)
    return tuple(matrices)


def algebra_from_generators(generators: Sequence[np.ndarray], dim: int,
                            tol: ToleranceConfig = DEFAULT_TOL) -> MatrixAlgebra:
    """The span of words in the generators, with construction-time invariants.

    The basis is ``_word_span`` of the letters and the commutant basis the
    one solve ``commutant(generators)``.  Checks: the span is closed under
    adjoint, and C(A) = C(G) by the three solve-free checks of the module
    docstring at assert_tol: each generator is in the algebra as ``contains``
    judges it, every basis element commutes with every commutant element, and
    (sum_k b_k b_k^dag)(sum_l c_l c_l^dag) is the identity.  A failed check
    raises QLogicError, so a near-degenerate family whose commutant solve
    admits near-commuting elements is refused rather than returned as an
    algebra that misses its generators.  The algebra keeps copies of the
    generators, so later changes to the inputs do not reach it.
    """
    gens = [require_square(g).copy() for g in generators]
    comm = commutant(gens, dim, tol)
    comm_cube = np.stack(comm)
    if not all(_commutes_with(g, comm_cube, tol) for g in gens):
        raise QLogicError("algebra does not contain its generators")
    cube = unit_norm_stack(gens, dim)
    letters = np.concatenate([cube, np.conj(cube).swapaxes(-1, -2)])
    basis = _word_span(letters, comm, dim, tol)
    if not _span_contains(_stack(basis), _stack([dagger(b) for b in basis]), tol):
        raise QLogicError("algebra span is not adjoint-closed")
    _check_fixpoint(basis, comm, tol)
    return MatrixAlgebra(dim=dim, generators=_read_only(gens), letters=_read_only(list(letters)),
                         basis=_read_only(basis), commutant_basis=_read_only(comm), tol=tol)


def _word_span(letters: np.ndarray, comm: Sequence[np.ndarray], dim: int,
               tol: ToleranceConfig) -> list[np.ndarray]:
    """HS-orthonormal basis of the span of words in the stacked letters.

    From 1/sqrt(d), each step multiplies the newest directions by every
    letter, orthogonalizes twice against the basis and keeps directions
    above the floored kernel cutoff (products have Frobenius norm <= 1).  A
    step that adds nothing leaves the span closed under products; so does M_d.
    Each kept direction is projected onto C(comm) and orthonormalized again:
    a direction kept at a small residual s carries the basis's rounding over
    s, and on near-degenerate generators chains of such steps would compound
    it until the span left the algebra.
    """
    basis = frontier = _vec(np.eye(dim) / np.sqrt(dim))[:, None]
    while frontier.shape[1] and basis.shape[1] < dim * dim:
        elements = frontier.T.reshape(-1, dim, dim)
        products = np.matmul(letters[:, None], elements).reshape(-1, dim * dim).T
        for _ in range(2):
            products -= basis @ (dagger(basis) @ products)
        u, s, _ = _svd(products, full_matrices=False)
        cutoff = singular_cutoff(s, dim * dim, tol, _KERNEL_SCALE)
        kept = _onto_commutant_of(comm, u[:, s > cutoff])
        frontier = np.linalg.qr(kept - basis @ (dagger(basis) @ kept))[0]
        basis = np.hstack([basis, frontier])
    return [basis[:, k].reshape(dim, dim) for k in range(basis.shape[1])]


def _onto_commutant_of(comm: Sequence[np.ndarray], vectors: np.ndarray) -> np.ndarray:
    """HS-orthogonal projection of the vec columns onto the commutant of the
    *-algebra spanned by the HS-orthonormal ``comm`` (module docstring)."""
    c = np.stack(comm)
    c_dag = np.conj(c).swapaxes(-1, -2)
    dim = c.shape[-1]
    averaged = np.sum(c @ vectors.T.reshape(-1, 1, dim, dim) @ c_dag, axis=1)
    return np.linalg.solve(np.sum(c @ c_dag, axis=0), averaged).reshape(-1, dim * dim).T


def _check_fixpoint(basis: Sequence[np.ndarray], comm: Sequence[np.ndarray],
                    tol: ToleranceConfig) -> None:
    """Raise unless span(comm) is the commutant of span(basis).

    Checks (ii) and (iii) of the module docstring; once they make span(comm)
    all of A', check (i), the test ``contains`` applies, puts each generator
    in A'' = A.  (A span-residual test scaled by the Frobenius norm is looser
    by up to sqrt(dim) and passes generators that ``contains`` rejects.)
    [b, c] = 0 is one stacked product per commutant element; both bases are
    HS-orthonormal, so their operator norms are at most one.
    """
    cube, comm_cube = np.stack(basis), np.stack(comm)
    for c in comm_cube:
        if not _opnorms_within(commutator(c, cube), tol.assert_tol):
            raise QLogicError("algebra basis does not commute with its commutant")
    left = np.einsum("kij,klj->il", cube, np.conj(cube))
    right = np.einsum("kij,klj->il", comm_cube, np.conj(comm_cube))
    if opnorm(left @ right - np.eye(len(left))) > tol.assert_tol:
        raise QLogicError("commutant basis does not span the algebra's commutant")


def _commutes_with(m: np.ndarray, cube: np.ndarray, tol: ToleranceConfig) -> bool:
    """opnorm([m, c]) <= assert_tol * max(1, opnorm(m)) for every c in cube."""
    return _opnorms_within(commutator(m, cube), tol.assert_tol * max(1.0, opnorm(m)))


def _opnorms_within(stack: np.ndarray, limit: float) -> bool:
    """Every matrix of the stack has operator norm <= limit.  The Frobenius
    norm bounds the operator norm from above, so the batched SVD runs only
    when that bound does not settle it."""
    return (bool(np.all(np.linalg.norm(stack, axis=(-2, -1)) <= limit))
            or bool(np.all(opnorms(stack) <= limit)))


def contains(algebra: MatrixAlgebra, matrix) -> bool:
    """Membership: M commutes with every commutant basis element."""
    m = require_square(matrix)
    if m.shape[0] != algebra.dim:
        raise DimensionMismatchError(f"matrix of dimension {m.shape[0]}, expected {algebra.dim}")
    return _commutes_with(m, np.stack(algebra.commutant_basis), algebra.tol)


def letter_commutator_norm(algebra: MatrixAlgebra, right: np.ndarray) -> float:
    """Largest opnorm([a, g] @ right) over basis elements a and letters g (0.0
    with none): zero exactly when every [a_i, a_j] @ right is, since [a, gh] =
    [ag, h] + [ha, g] reaches every word.  One norm call per letter keeps
    memory at |A| d^2."""
    basis = np.stack(algebra.basis)
    return max((float(np.max(opnorms(commutator(basis, g) @ right))) for g in algebra.letters),
               default=0.0)


def center(algebra: MatrixAlgebra) -> list[np.ndarray]:
    """HS-orthonormal basis of the center, as a span intersection.

    Intersection of span(basis) and span(commutant_basis) in vec space, via
    the same kernel-of-sum-of-complements route the projector meet uses.
    """
    n2 = algebra.dim * algebra.dim
    a, b = _stack(algebra.basis), _stack(algebra.commutant_basis)
    eye = np.eye(n2, dtype=complex)
    gap = (eye - a @ dagger(a)) + (eye - b @ dagger(b))
    vectors = solution_basis(gap, n2, algebra.tol)
    return [vectors[:, k].reshape(algebra.dim, algebra.dim) for k in range(vectors.shape[1])]


def _cluster_indices(values: np.ndarray, width: float) -> list[np.ndarray]:
    """Group indices of ascending values whose neighbors sit within width."""
    if values.size == 0:
        return []
    groups = [[0]]
    for k in range(1, values.size):
        if values[k] - values[k - 1] <= width:
            groups[-1].append(k)
        else:
            groups.append([k])
    return [np.asarray(g) for g in groups]


def minimal_central_projections(algebra: MatrixAlgebra) -> list[Projector]:
    """The minimal projections of the center, ordered by first eigenvalue.

    A random Hermitian combination of the center basis separates the central
    blocks with probability one; each candidate eigencluster projector is
    verified (central, minimal, mutually orthogonal, summing to one) and the
    randomization is retried when a check fails.
    """
    t = algebra.tol
    zbasis = center(algebra)
    hermitian_parts: list[np.ndarray] = []
    for z in zbasis:
        for h in ((z + dagger(z)) / 2.0, (z - dagger(z)) / 2.0j):
            if opnorm(h) > t.rank_rel_tol:
                hermitian_parts.append(h)
    if not hermitian_parts:
        raise QLogicError("center span contains no Hermitian part")
    rng = np.random.default_rng(0x5EED)
    failure = "no attempt made"
    for _ in range(_CENTRAL_ATTEMPTS):
        coeffs = rng.standard_normal(len(hermitian_parts))
        h = sum(c * part for c, part in zip(coeffs, hermitian_parts))
        eigenvalues, eigenvectors = eigh((h + dagger(h)) / 2.0)
        width = t.cluster_tol * max(1.0, float(np.max(np.abs(eigenvalues))))
        clusters = _cluster_indices(eigenvalues, width)
        candidates = [Projector(eigenvectors[:, idx], dim=algebra.dim, tol=t)
                      for idx in clusters]
        ok, failure = _verify_minimal_central(candidates, algebra, zbasis)
        if ok:
            return candidates
    raise DegenerateRandomizationError(
        f"minimal central projections not separated after {_CENTRAL_ATTEMPTS} attempts: "
        f"{failure}")


def _verify_minimal_central(candidates: list[Projector], algebra: MatrixAlgebra,
                            zbasis: list[np.ndarray]) -> tuple[bool, str]:
    t = algebra.tol
    total = sum(p.matrix for p in candidates)
    if opnorm(total - np.eye(algebra.dim)) > t.assert_tol:
        return False, "candidates do not sum to the identity"
    for p in candidates:
        if not contains(algebra, p.matrix):
            return False, "candidate not in the algebra"
        if any(opnorm(commutator(p.matrix, g)) > t.assert_tol for g in algebra.letters):
            return False, "candidate not central"
        # Minimality: the center compresses to scalars on the range.
        r = max(p.rank, 1)
        for z in zbasis:
            lam = np.trace(z @ p.matrix) / r
            if opnorm(p.matrix @ z @ p.matrix - lam * p.matrix) > t.assert_tol * max(1.0, opnorm(z)):
                return False, "candidate splits further inside the center"
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            if opnorm(candidates[i].matrix @ candidates[j].matrix) > t.assert_tol:
                return False, "candidates not mutually orthogonal"
    return True, ""
