"""Finite-dimensional *-algebras of matrices via words and commutants.

The commutant is computed as the solution space of the linear system
[X, G] = 0, [X, G^dag] = 0 over all generators G, vectorized row-major.
Generated algebras are spans of words in the letters G u G^dag; centers
are span intersections; minimal central projections come from eigenspaces of a random Hermitian
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

``abelian_part`` builds no algebra: it reads the abelian central part of the
algebra an observable family generates off the eigenspaces of one generic
element of it (its docstring).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .commutators import _members
from .errors import (
    DegenerateRandomizationError,
    DimensionMismatchError,
    NonGenericElementError,
    QLogicError,
)
from .linalg import (
    _KERNEL_SCALE,
    _svd,
    commutator,
    dagger,
    eigh,
    opnorm,
    opnorms,
    range_basis,
    require_square,
    singular_cutoff,
    solution_basis,
    unit_norm_stack,
)
from .observables import Observable
from .projectors import Projector
from .tolerances import DEFAULT_TOL, ToleranceConfig

# Random central combinations minimal_central_projections draws before it gives
# up; each one separates the central blocks with probability one.
_CENTRAL_ATTEMPTS = 5

# The ratio of the weights of successive generators in abelian_part's generic
# element.  It is transcendental, so it satisfies no integer relation: the
# label tuples of a commuting family give distinct values.  The golden ratio
# would not do, since 1 + phi - phi^2 = 0 cancels integer label differences.
_GENERIC_RATIO = 1.0 / np.pi


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


def abelian_part(observables: Sequence[Observable]) -> Projector:
    """The central projection N onto the blocks where the family's generated
    algebra A is abelian, built without a basis of A.

    With A = (+) M_{n_k} (x) 1_{m_k}, N is the sum of the blocks with n_k = 1:
    the joint kernel of A's commutators, so [a, b] rho = 0 for all a, b in A
    exactly when N rho = rho.  The route reads one element of A:

    1. each X_k is relabelled by its spectral indices, L_k = U_k diag(c) U_k^dag
       for its eigenbasis U_k and c = 0, 1, ... repeated by multiplicity, over
       the largest label.  An injective relabelling of the spectrum generates
       the same algebra, and labels keep their gaps as a split shrinks.
       Z = sum_k mu^k L_k with mu = ``_GENERIC_RATIO``.
    2. The eigenspaces V_j of Z, clustered at the cluster width.  A' commutes
       with Z, so it is block diagonal over them; merging clusters is safe.
    3. Each V_j must be a single Wedderburn slot, e H for a minimal projection
       e of A: then it lies in one block, and it is invariant under A exactly
       when that block has n_k = 1.  e is minimal exactly when the compression
       e A' e is all of M(V_j), of dimension dim V_j^2.  A one-dimensional V_j
       is a slot; the others are certified by ``_certify_slots``, and a V_j
       that is not a slot raises NonGenericElementError.
    4. N is the sum of the V_j with ||(1 - P_j) L_k P_j|| <= assert_tol for
       every k.

    The family judges at the tolerance of its first member.
    """
    xs = _members(observables)
    dim, tol = xs[0].dim, xs[0].tol
    letters = []
    for x in xs:
        top = len(x.spectrum) - 1
        if top:
            labels = np.repeat(np.arange(top + 1), [p.rank for p in x.eigenprojectors]) / top
            u = x.eigenbasis()
            letters.append((u * labels) @ dagger(u))
    if not letters:
        return Projector.identity(dim, tol)
    letters = np.stack(letters)
    z = np.tensordot(_GENERIC_RATIO ** np.arange(len(letters)), letters, axes=1)
    values, frame = eigh((z + dagger(z)) / 2.0)
    width = tol.cluster_tol * max(1.0, float(np.max(np.abs(values))))
    clusters = _cluster_indices(values, width)
    moved = dagger(frame) @ letters @ frame
    _certify_slots(moved, clusters, tol)
    # The letters in Z's eigenbasis with the clusters' diagonal blocks zeroed:
    # column block j is then (1 - P_j) L_k P_j.
    leaks = moved.copy()
    for idx in clusters:
        leaks[:, idx[:, None], idx] = 0.0
    abelian = [idx for idx in clusters
               if float(np.max(opnorms(leaks[:, :, idx]))) <= tol.assert_tol]
    return Projector(frame[:, np.concatenate([np.zeros(0, int), *abelian])], dim=dim, tol=tol)


def _certify_slots(moved: np.ndarray, clusters: list[np.ndarray], tol: ToleranceConfig) -> None:
    """Raise NonGenericElementError unless every cluster of two or more
    eigenvectors is a single Wedderburn slot (``abelian_part``, step 3).

    A' is solved once on the block-diagonal unknowns X_j of the wide clusters
    only, from [X, L_k] = 0 written in Z's eigenbasis (``moved``); rows that
    touch no wide cluster vanish and are dropped.  Leaving out the
    one-dimensional clusters loses nothing: a wide slot lies in a block with
    m_k >= 2, every eigenspace that meets that block is wide, so the element
    1 (x) Y of A' on that block is a solution.  Each wide cluster's rows of the
    solution basis must then have rank dim V_j^2.
    """
    wide = [idx for idx in clusters if idx.size > 1]
    if not wide:
        return
    dim = moved.shape[-1]
    inside = np.zeros(dim, dtype=bool)
    inside[np.concatenate(wide)] = True
    rows = inside[:, None] | inside[None, :]
    eye = np.eye(dim)
    columns = []
    for idx in wide:
        # [X_j, L]_{ab} has coefficient [a = p] L_{qb} - L_{ap} [b = q] at the
        # unknown (X_j)_{pq}, for p, q in the cluster.
        coefficients = (np.einsum("ap,kqb->kabpq", eye[:, idx], moved[:, idx, :])
                        - np.einsum("kap,bq->kabpq", moved[:, :, idx], eye[:, idx]))
        columns.append(coefficients[:, rows].reshape(-1, idx.size ** 2))
    system = np.hstack(columns)
    basis = solution_basis(system, system.shape[1], tol)
    start = 0
    for idx in wide:
        size = idx.size ** 2
        rank = range_basis(basis[start:start + size], tol).shape[1]
        if rank != size:
            raise NonGenericElementError(
                f"an eigenspace of dimension {idx.size} of the generic element spans more "
                f"than one Wedderburn slot: the commutant compresses to rank {rank} of {size}")
        start += size


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
