"""Density states, quantum equality, and the equivalence batteries.

The two batteries here each take one semantic predicate (simultaneous
determinateness of a family, equality of a pair in a state) and evaluate
every implemented characterization of it independently.  Each returns a
``ClauseReport``, the one report type of every clause battery in the
package (the measurement batteries use it too).  The clauses must agree;
disagreement beyond tolerance is a kernel bug, not a property of the input,
and ``ClauseReport.checked`` raises InconsistentBattery for it.  A function
of a state judges at the state's tolerance; one of observables alone judges at
the tolerance of its first observable.  Spectral atoms, the equality
projector's crossing route and the cross correlations are read on the
observables' own eigenbases (``observables.eigenspace_meets``), never as
products of full d x d projector matrices.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .algebras import abelian_part
from .commutators import com_kernel, com_observables, threshold_family
from .errors import (
    CrossCheckFailure,
    DimensionMismatchError,
    FamilyTooLargeError,
    InconsistentBattery,
    QLogicError,
)
from .linalg import (
    commutator,
    dagger,
    hermitian_eig,
    kron,
    opnorm,
    opnorms,
    range_basis,
    require_square,
    unit_norm_stack,
)
from .observables import Observable, eigenspace_meets, joint_atoms
from .projectors import Projector, common_null_space_projector, leq, meet
from .tolerances import DEFAULT_TOL, ToleranceConfig


class DensityState:
    """A density operator with its support resolved.

    Eigenvalues under the rank cutoff are truncated and the state is
    renormalized, so the support projector is trustworthy downstream.
    """

    __slots__ = ("matrix", "support", "eigenvalues", "eigenvectors", "tol")

    def __init__(self, matrix: np.ndarray, support: Projector, eigenvalues: np.ndarray,
                 eigenvectors: np.ndarray, tol: ToleranceConfig):
        self.matrix = matrix
        self.support = support
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.tol = tol

    @classmethod
    def from_matrix(cls, matrix, tol: ToleranceConfig = DEFAULT_TOL) -> "DensityState":
        m = require_square(matrix)
        eigenvalues, eigenvectors = hermitian_eig(m, tol)
        if float(eigenvalues[0]) < -tol.assert_tol:
            raise ValueError(f"state has negative eigenvalue {eigenvalues[0]:.3e}")
        trace = float(np.sum(eigenvalues))
        if abs(trace - 1.0) > tol.assert_tol:
            raise ValueError(f"state trace {trace} is not one within tolerance")
        cutoff = tol.rank_rel_tol * float(eigenvalues[-1]) * m.shape[0]
        keep = eigenvalues > cutoff
        kept_values = eigenvalues[keep]
        kept_vectors = eigenvectors[:, keep]
        kept_values = kept_values / float(np.sum(kept_values))
        rebuilt = (kept_vectors * kept_values) @ dagger(kept_vectors)
        support = Projector(kept_vectors, dim=m.shape[0], tol=tol)
        return cls(rebuilt, support, kept_values, kept_vectors, tol)

    @classmethod
    def from_vector(cls, vector, tol: ToleranceConfig = DEFAULT_TOL) -> "DensityState":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > tol.assert_tol:
            raise ValueError(f"state vector norm {norm} is not one within tolerance")
        v = v / norm
        column = v[:, None]
        support = Projector(column, dim=v.size, tol=tol)
        return cls(column @ dagger(column), support, np.array([1.0]), column, tol)

    @classmethod
    def maximally_mixed(cls, dim: int, tol: ToleranceConfig = DEFAULT_TOL) -> "DensityState":
        return cls.from_matrix(np.eye(dim, dtype=complex) / dim, tol)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def rank(self) -> int:
        return self.support.rank

    def tensor(self, other: "DensityState") -> "DensityState":
        return DensityState.from_matrix(kron(self.matrix, other.matrix), self.tol)

    def expectation(self, operator: np.ndarray) -> complex:
        return complex(np.trace(operator @ self.matrix))

    def __repr__(self) -> str:
        return f"DensityState(dim={self.dim}, rank={self.rank})"


@dataclass(frozen=True)
class JointDistribution:
    """A probability assignment on tuples of spectral values, checked at the
    tolerance it carries (the state's, when a battery builds it)."""

    axes: tuple[str, ...]
    atoms: dict[tuple[float, ...], float] = field(compare=False)
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        bad = [v for v in self.atoms.values() if v < -self.tol.assert_tol]
        if bad:
            raise QLogicError(f"negative joint mass {min(bad):.3e}")
        if abs(self.total_mass - 1.0) > self.tol.assert_tol:
            raise QLogicError(f"joint mass {self.total_mass} is not one")

    @property
    def total_mass(self) -> float:
        return float(sum(self.atoms.values()))

    def mass(self, rectangle: Sequence[Sequence[float]]) -> float:
        """Mass of a product set given per-axis value collections."""
        total = 0.0
        for values, p in sorted(self.atoms.items()):
            if all(any(abs(v - w) <= 1e-12 for w in axis) for v, axis in zip(values, rectangle)):
                total += p
        return total

    def marginal(self, axis: int) -> dict[float, float]:
        out: dict[float, float] = {}
        for values, p in sorted(self.atoms.items()):
            out[values[axis]] = out.get(values[axis], 0.0) + p
        return out

    def sorted_items(self) -> list[tuple[tuple[float, ...], float]]:
        return sorted(self.atoms.items())


def probability(proposition, state: DensityState, registry) -> float:
    """Born probability of a proposition: Tr of its truth projector against the state."""
    from .propositions import truth_value  # deferred: propositions builds on this module

    projector = truth_value(proposition, registry)
    return projector_probability(projector, state)


def projector_probability(projector: Projector, state: DensityState) -> float:
    if projector.dim != state.dim:
        raise DimensionMismatchError("proposition and state live on different spaces")
    value = complex(np.trace(projector.matrix @ state.matrix))
    if abs(value.imag) > state.tol.assert_tol:
        raise QLogicError(f"probability has imaginary part {value.imag:.3e}")
    return float(min(1.0, max(0.0, value.real)))


def holds(proposition, state: DensityState, registry) -> bool:
    """A proposition holds in a state when its probability is one."""
    return probability(proposition, state, registry) >= 1.0 - state.tol.assert_tol


def cyclic_projector(observables: Sequence[Observable], state: DensityState) -> Projector:
    """Projector onto the orbit of the state's support under the generated algebra.

    This is the smallest projection commuting with the family that leaves the
    state invariant; both properties are asserted before returning.  One
    observable generates the span of its eigenprojectors E_i, so its orbit is
    spanned by the vectors E_i psi.  A larger family grows the support V by
    V <- span(V, X_i V) over the unit-norm X_i until the rank stops growing,
    which leaves V closed under every word in the X_i.
    """
    t = state.tol
    xs = list(observables)
    letters = unit_norm_stack([x.matrix for x in xs], state.dim)
    support = state.support.basis
    if len(xs) == 1:
        span = range_basis(np.hstack([e.matrix @ support for e in xs[0].eigenprojectors]), t)
    else:
        span, rank = support, -1
        while span.shape[1] != rank:
            rank = span.shape[1]
            span = range_basis(np.hstack([span, *(letters @ span)]), t)
    projector = Projector(span, dim=state.dim, tol=t)
    for x in xs:
        scale = max(1.0, opnorm(x.matrix))
        if opnorm(commutator(projector.matrix, x.matrix)) > t.assert_tol * scale:
            raise QLogicError(f"cyclic projector fails to commute with {x.name}")
    if opnorm(projector.matrix @ state.matrix - state.matrix) > t.assert_tol:
        raise QLogicError("cyclic projector does not fix the state")
    return projector


def simultaneously_determinate(observables: Sequence[Observable], state: DensityState) -> bool:
    """The family has definite values together in the state: Tr[com rho] = 1."""
    com = com_observables(list(observables))
    return projector_probability(com, state) >= 1.0 - state.tol.assert_tol


# ---------------------------------------------------------------------------
# clause batteries


@dataclass(frozen=True)
class ClauseReport:
    """Verdicts of every implemented characterization of one predicate.

    ``residuals`` holds the measured quantity behind a clause where it has
    one; ``projector`` is the predicate's truth projector (the commutator
    projection, the equality projector) and ``distribution`` the joint
    distribution a determinate family carries.
    """

    clauses: dict[str, bool]
    residuals: dict[str, float] = field(default_factory=dict)
    projector: Projector | None = None
    distribution: JointDistribution | None = None

    @property
    def coherent(self) -> bool:
        return len(set(self.clauses.values())) == 1

    @property
    def holds(self) -> bool:
        return all(self.clauses.values())

    # The benchmark harness reads the verdict under the names the battery
    # reports had before they were merged into this one type.
    determinate = equal = measures = holds

    @classmethod
    def checked(cls, predicate: str, clauses: dict[str, bool],
                residuals: dict[str, float] | None = None, projector: Projector | None = None,
                distribution: JointDistribution | None = None) -> "ClauseReport":
        """The report, or InconsistentBattery when its clauses disagree."""
        report = cls(clauses, residuals or {}, projector, distribution)
        if not report.coherent:
            raise InconsistentBattery(f"{predicate} clauses disagree: {clauses}", report)
        return report


def determinateness_battery(observables: Sequence[Observable],
                            state: DensityState) -> ClauseReport:
    """Evaluate all determinateness characterizations and enforce agreement.

    Clauses: the commutator carries full probability; it fixes the state; the
    cyclic subspace sits below it; the generated algebra's commutators kill
    the state, that is the state lies in the algebra's abelian central part
    (``algebras.abelian_part``, read off one generic element of the algebra,
    its residual ||rho - N rho||); the family compressed to the cyclic
    subspace commutes; and the spectral-atom product masses form an additive
    probability measure.  When all pass, the joint distribution is attached.
    """
    t = state.tol
    xs = list(observables)
    com = com_observables(xs)
    cyclic = cyclic_projector(xs, state)
    abelian = abelian_part(xs)

    clauses: dict[str, bool] = {}
    residuals: dict[str, float] = {}

    deficit = 1.0 - projector_probability(com, state)
    clauses["full_probability"] = deficit <= t.assert_tol
    residuals["full_probability"] = deficit

    invariance = opnorm(com.matrix @ state.matrix - state.matrix)
    clauses["state_invariance"] = invariance <= t.assert_tol
    residuals["state_invariance"] = invariance

    domination = opnorm(com.matrix @ cyclic.matrix - cyclic.matrix)
    clauses["cyclic_dominated"] = domination <= t.assert_tol
    residuals["cyclic_dominated"] = domination

    outside = opnorm(state.matrix - abelian.matrix @ state.matrix)
    clauses["algebra_kills_state"] = outside <= t.assert_tol
    residuals["algebra_kills_state"] = outside

    worst = 0.0
    compressed = [x.matrix @ cyclic.matrix for x in xs]
    for i in range(len(compressed)):
        for j in range(i + 1, len(compressed)):
            scale = max(1.0, opnorm(xs[i].matrix) * opnorm(xs[j].matrix))
            worst = max(worst, opnorm(commutator(compressed[i], compressed[j])) / scale)
    clauses["compressions_commute"] = worst <= t.assert_tol
    residuals["compressions_commute"] = worst

    masses, measure_residual, measure_ok = _grid_measure(xs, state, t)
    clauses["product_measure"] = measure_ok
    residuals["product_measure"] = measure_residual

    distribution = None
    if all(clauses.values()):
        distribution = JointDistribution(tuple(x.name for x in xs),
                                         {k: max(0.0, v) for k, v in masses.items()}, t)
    return ClauseReport.checked("determinateness", clauses, residuals, com, distribution)


def _mass(basis: np.ndarray, state: DensityState) -> float:
    """Tr[B^dag rho B]: the state's mass on the range of orthonormal columns B."""
    return float(np.real(np.vdot(basis, state.matrix @ basis)))


def _grid_measure(xs: list[Observable], state: DensityState,
                  t: ToleranceConfig) -> tuple[dict[tuple[float, ...], float], float, bool]:
    """Spectral-atom product masses plus their worst additivity violation.

    Summing one axis out of the grid must give the mass of the meet over the
    remaining atoms.  Each grid (the full one, then one per summed-out axis)
    is one ``joint_atoms`` call; a zero atom has mass zero.
    """
    shape = tuple(len(x.spectrum) for x in xs)

    def grid_masses(family: list[Observable]) -> np.ndarray:
        atoms = joint_atoms(family, state.dim)
        grid = itertools.product(*(range(len(x.spectrum)) for x in family))
        return np.array([_mass(atoms[k], state) if k in atoms else 0.0 for k in grid])

    grid = grid_masses(xs)
    masses = {tuple(x.spectrum[k] for x, k in zip(xs, combo)): float(value)
              for combo, value in zip(itertools.product(*map(range, shape)), grid)}
    worst = max(0.0, -float(np.min(grid)), abs(float(sum(masses.values())) - 1.0))
    grid = grid.reshape(shape)
    for j in range(len(xs)):
        # Added one atom at a time, in spectral order, not by np.sum: its
        # pairwise order would move the residual's last bits.
        summed = np.zeros(shape[:j] + shape[j + 1:])
        for k in range(shape[j]):
            summed = summed + np.take(grid, k, axis=j)
        direct = grid_masses(xs[:j] + xs[j + 1:])
        worst = max(worst, float(np.max(np.abs(summed.ravel() - direct))))
    return masses, worst, worst <= t.assert_tol


# ---------------------------------------------------------------------------
# quantum equality


def merged_values(first: Iterable[float], second: Iterable[float],
                  width: float) -> list[float]:
    """Sorted union of two value lists; a value within ``width`` of the last
    kept one is identified with it."""
    merged: list[float] = []
    for v in sorted(float(v) for v in itertools.chain(first, second)):
        if merged and v - merged[-1] <= width:
            continue
        merged.append(v)
    return merged


def equality_projector(x: Observable, y: Observable) -> Projector:
    """Truth projector of "X = Y": largest subspace where the spectral families agree.

    Production route: joint kernel of E_X(lambda) - E_Y(lambda) over the
    merged spectrum.  Independent route: joint kernel of the disjoint-atom
    cross terms E_X({a}) E_Y({b}), a != b, solved on Y's eigenbasis
    (``_crossing_route``); the two must agree.

    The result is bitwise symmetric in X and Y: the operands are put in a
    canonical order first, because the swapped call would solve the negated
    threshold system, whose singular vectors LAPACK does not return
    bit-identically.
    """
    t = x.tol
    x, y = _canonical_pair(x, y)
    dim = x.dim
    cuts = merged_values(x.spectrum, y.spectrum, max(x.snap_width, y.snap_width))
    differences = [x.threshold(cut).matrix - y.threshold(cut).matrix for cut in cuts]
    by_thresholds = common_null_space_projector(differences, dim, t)
    by_atoms = _crossing_route(x, y, t)
    gap = opnorm(by_thresholds.matrix - by_atoms.matrix)
    if gap > t.assert_tol:
        raise CrossCheckFailure(
            f"equality projector routes disagree by {gap:.3e} on ({x.name}, {y.name})")
    return by_thresholds


def _canonical_pair(x: Observable, y: Observable) -> tuple[Observable, Observable]:
    """The pair in a canonical order, which ``equality_projector`` solves in;
    mismatched dimensions raise."""
    if x.dim != y.dim:
        raise DimensionMismatchError(f"{x.name} and {y.name} live on different spaces")
    if (y.matrix.tobytes(), y.spectrum) < (x.matrix.tobytes(), x.spectrum):
        return y, x
    return x, y


def _crossing_route(x: Observable, y: Observable, t: ToleranceConfig) -> Projector:
    """The joint kernel of the cross terms E_X(a) E_Y(b) over mismatched a, b.

    E_X(a) E_Y(b) psi = 0 for every a mismatched with b exactly when
    E_Y(b) psi lies in E_X(S_b), S_b the points of X matched with b; so the
    kernel is the sum over b of range(E_Y(b)) ^ E_X(S_b), each solved on
    E_Y(b)'s basis.  The kernels of the stacked cross terms and of these
    systems have the same singular values, since the bases are isometries.
    """
    width = max(x.snap_width, y.snap_width)
    matched = [[a for a, va in enumerate(x.spectrum) if abs(va - vb) <= width]
               for vb in y.spectrum]
    parts = eigenspace_meets([p.basis for p in y.eigenprojectors], x,
                             list(enumerate(matched)), t)
    return Projector(np.hstack([np.zeros((x.dim, 0)), *parts]), dim=x.dim, tol=t)


def _cross_correlations(x: Observable, y: Observable, state: DensityState) -> np.ndarray:
    """Tr[E_X(a) E_Y(b) rho] for every pair of spectral indices (a, b).

    Each is Tr[(U_a^dag V_b)(V_b^dag rho U_a)] for the eigenbases U of X and
    V of Y, so all of them are block sums of the entrywise product of U^dag V
    with the transpose of V^dag rho U.
    """
    u, v = x.eigenbasis(), y.eigenbasis()
    entries = (dagger(u) @ v) * (dagger(v) @ state.matrix @ u).T
    return _block_indicator(x) @ entries @ _block_indicator(y).T


def _block_indicator(x: Observable) -> np.ndarray:
    """Rows a, columns the eigencoordinates: 1 where the coordinate is in block a."""
    block_of = np.repeat(np.arange(len(x.spectrum)), [p.rank for p in x.eigenprojectors])
    return (np.arange(len(x.spectrum))[:, None] == block_of[None, :]).astype(float)


def equal_in_state(x: Observable, y: Observable, state: DensityState) -> bool:
    """X and Y are equal in the state: the equality projector has probability one."""
    q = equality_projector(x, y)
    return projector_probability(q, state) >= 1.0 - state.tol.assert_tol


def equality_battery(x: Observable, y: Observable, state: DensityState) -> ClauseReport:
    """Evaluate all equality-in-a-state characterizations and enforce agreement.

    Clauses: probability one of the equality projector; vanishing cross
    correlations on disjoint atoms; the operators and their spectral data
    agree on the cyclic subspace; spectral projections act identically on the
    state; the two cyclic subspaces coincide with matching compressions; and
    the joint distribution concentrates on the diagonal.
    """
    t = state.tol
    if x.dim != y.dim or x.dim != state.dim:
        raise DimensionMismatchError("observables and state live on different spaces")
    q = equality_projector(x, y)
    cyclic_x = cyclic_projector([x], state)
    cyclic_y = cyclic_projector([y], state)
    width = max(x.snap_width, y.snap_width)
    merged = merged_values(x.spectrum, y.spectrum, width)
    op_scale = max(1.0, opnorm(x.matrix) + opnorm(y.matrix))

    clauses: dict[str, bool] = {}
    residuals: dict[str, float] = {}

    deficit = 1.0 - projector_probability(q, state)
    clauses["full_probability"] = deficit <= t.assert_tol
    residuals["full_probability"] = deficit

    mismatched = np.abs(np.subtract.outer(x.spectrum, y.spectrum)) > width
    worst = float(np.max(np.abs(_cross_correlations(x, y, state)[mismatched]), initial=0.0))
    clauses["no_cross_correlation"] = worst <= t.assert_tol
    residuals["no_cross_correlation"] = worst

    gap = opnorm((x.matrix - y.matrix) @ cyclic_x.matrix) / op_scale
    clauses["operators_agree_on_cyclic"] = gap <= t.assert_tol
    residuals["operators_agree_on_cyclic"] = gap

    differences = np.stack([x.eigenprojector_at(v).matrix - y.eigenprojector_at(v).matrix
                            for v in merged])
    worst = float(np.max(opnorms(cyclic_x.matrix @ differences @ cyclic_x.matrix)))
    clauses["expectations_agree_on_cyclic"] = worst <= t.assert_tol
    residuals["expectations_agree_on_cyclic"] = worst

    worst = float(np.max(opnorms(differences @ state.matrix)))
    clauses["spectral_action_on_state"] = worst <= t.assert_tol
    residuals["spectral_action_on_state"] = worst

    cyclic_gap = opnorm(cyclic_x.matrix - cyclic_y.matrix)
    compression_gap = opnorm(x.matrix @ cyclic_x.matrix - y.matrix @ cyclic_x.matrix) / op_scale
    clauses["cyclic_subspaces_match"] = cyclic_gap <= t.assert_tol and \
        compression_gap <= t.assert_tol
    residuals["cyclic_subspaces_match"] = max(cyclic_gap, compression_gap)

    diagonal_mass = 0.0
    determinate = simultaneously_determinate([x, y], state)
    if determinate:
        for basis in _matched_meets(x, y, [(x.spectral_index(v), y.spectral_index(v))
                                           for v in merged]):
            diagonal_mass += _mass(basis, state)
    clauses["diagonal_concentration"] = determinate and diagonal_mass >= 1.0 - t.assert_tol
    residuals["diagonal_concentration"] = 1.0 - diagonal_mass

    return ClauseReport.checked("equality", clauses, residuals, q)


@dataclass
class EquivalenceReport:
    """Reflexivity, symmetry, transitivity of the equality connective."""

    reflexive_residual: float
    symmetric_exact: bool
    transitive: bool

    @property
    def passed(self) -> bool:
        return self.reflexive_residual <= 1e-10 and self.symmetric_exact and self.transitive


def equivalence_relation_check(x: Observable, y: Observable,
                               z: Observable) -> EquivalenceReport:
    """Check that quantum equality behaves as an equivalence relation.

    Reflexivity must be numerically exact (identity to 1e-10), symmetry must
    be bitwise (``equality_projector`` orders its operands canonically), and
    transitivity holds as the lattice inequality (X=Y) ^ (Y=Z) <= (X=Z).
    """
    reflexive = opnorm(equality_projector(x, x).matrix - np.eye(x.dim))
    xy = equality_projector(x, y)
    yx = equality_projector(y, x)
    symmetric = bool(np.array_equal(xy.matrix, yx.matrix))
    yz = equality_projector(y, z)
    xz = equality_projector(x, z)
    transitive = leq(meet(xy, yz), xz)
    return EquivalenceReport(reflexive, symmetric, transitive)


def _matched_meets(x: Observable, y: Observable,
                   pairs: Sequence[tuple[int | None, int | None]]) -> list[np.ndarray]:
    """Bases of E_X(a) ^ E_Y(b) for spectral index pairs (a, b), each solved on
    E_X(a)'s basis; a pair with a missing index is skipped."""
    pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
    return eigenspace_meets([x.eigenprojectors[a].basis for a, _ in pairs], y,
                            [(i, (b,)) for i, (_, b) in enumerate(pairs)], x.tol)


def common_eigenvector_projector(observables: Sequence[Observable],
                                 mode: str = "determinate") -> Projector:
    """Span of the relevant common eigenvectors, cross-checked structurally.

    ``determinate`` mode spans every joint eigenspace of the family and must
    reproduce the spectral ``com_kernel`` route of the commutator projection
    (not ``com_observables``, which spans the same atoms).  ``equal`` mode
    spans the common eigenspaces with matching eigenvalues of a pair, each
    solved on the first operand's eigenbasis in the canonical order, and must
    reproduce the equality projector, whose crossing route solves on the
    second operand's.
    """
    xs = list(observables)
    if not xs:
        raise FamilyTooLargeError("common eigenvectors of an empty family are not defined here")
    t = xs[0].tol
    dim = xs[0].dim
    if mode == "determinate":
        target = com_kernel(threshold_family(xs))
        atoms = list(joint_atoms(xs, dim).values())
        label = "commutator projection"
    elif mode == "equal":
        if len(xs) != 2:
            raise DimensionMismatchError("equal mode compares exactly two observables")
        target = equality_projector(*xs)
        x, y = _canonical_pair(*xs)
        width = max(x.snap_width, y.snap_width)
        atoms = _matched_meets(x, y, [(a, b) for a, va in enumerate(x.spectrum)
                                      for b, vb in enumerate(y.spectrum)
                                      if abs(va - vb) <= width])
        label = "equality projector"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    span = Projector.from_basis(np.hstack([np.zeros((dim, 0)), *atoms]), dim=dim, tol=t)
    gap = opnorm(span.matrix - target.matrix)
    if gap > t.assert_tol:
        raise CrossCheckFailure(
            f"common eigenvector span disagrees with the {label} by {gap:.3e}")
    return span
