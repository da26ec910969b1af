"""Finite-spectrum observables and their spectral calculus.

An observable is a Hermitian matrix together with its resolved spectral data:
strictly ascending distinct eigenvalues and one projector per spectral point.
Interval descriptors give the Borel-set face of the spectral measure; all
real-literal comparisons snap onto the spectrum at the clustering tolerance.
Meets of a subspace with an observable's spectral projections are solved on
the subspace's own orthonormal basis (``eigenspace_meets``), and the joint
spectral atoms of a family are built from them (``joint_atoms``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotUnitaryError,
    QLogicError,
    UndefinedAtSpectralPointError,
)
from .linalg import dagger, hermitian_eig, kron, matrices_commute, opnorm, solution_bases
from .projectors import Projector
from .tolerances import DEFAULT_TOL, ToleranceConfig

_INF = math.inf


def _cmp(x: float, bound: float, atol: float) -> int:
    """Three-way compare with absolute snap width; infinities compare exactly."""
    if math.isinf(bound) or math.isinf(x):
        return (x > bound) - (x < bound)
    if abs(x - bound) <= atol:
        return 0
    return 1 if x > bound else -1


@dataclass(frozen=True)
class Interval:
    """One real interval component; infinities mark unbounded ends."""

    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"empty or reversed interval [{self.lower}, {self.upper}]")

    def contains(self, x: float, atol: float = 0.0) -> bool:
        lo = _cmp(x, self.lower, atol)
        hi = _cmp(x, self.upper, atol)
        if lo < 0 or hi > 0:
            return False
        if lo == 0 and not self.lower_closed:
            return False
        if hi == 0 and not self.upper_closed:
            return False
        return True


@dataclass(frozen=True)
class BorelSet:
    """Finite union of disjoint sorted intervals and isolated points.

    The ``complemented`` flag complements membership without touching the
    stored components, so the canonical component form survives.
    """

    intervals: tuple[Interval, ...] = ()
    points: tuple[float, ...] = ()
    complemented: bool = False

    def __post_init__(self):
        ivs = sorted(self.intervals, key=lambda iv: (iv.lower, iv.upper))
        merged: list[Interval] = []
        for iv in ivs:
            if merged and _overlaps(merged[-1], iv):
                merged[-1] = _merge(merged[-1], iv)
            else:
                merged.append(iv)
        pts = tuple(sorted({p for p in self.points
                            if not any(iv.contains(p) for iv in merged)}))
        object.__setattr__(self, "intervals", tuple(merged))
        object.__setattr__(self, "points", pts)

    # Constructors for the shapes the semantics needs.
    @classmethod
    def point(cls, x: float) -> "BorelSet":
        return cls(points=(float(x),))

    @classmethod
    def up_to(cls, x: float) -> "BorelSet":
        """(-inf, x]"""
        return cls(intervals=(Interval(-_INF, float(x), False, True),))

    @classmethod
    def below(cls, x: float) -> "BorelSet":
        """(-inf, x)"""
        return cls(intervals=(Interval(-_INF, float(x), False, False),))

    @classmethod
    def above(cls, x: float) -> "BorelSet":
        """(x, inf)"""
        return cls(intervals=(Interval(float(x), _INF, False, False),))

    @classmethod
    def left_open(cls, lower: float, upper: float) -> "BorelSet":
        """(lower, upper]"""
        return cls(intervals=(Interval(float(lower), float(upper), False, True),))

    @classmethod
    def whole_line(cls) -> "BorelSet":
        return cls(intervals=(Interval(-_INF, _INF, False, False),))

    @classmethod
    def empty(cls) -> "BorelSet":
        return cls()

    def union(self, other: "BorelSet") -> "BorelSet":
        if self.complemented or other.complemented:
            raise ValueError("unions of complemented descriptors are not supported; complement last")
        return BorelSet(intervals=self.intervals + other.intervals,
                        points=self.points + other.points)

    def complement(self) -> "BorelSet":
        return BorelSet(self.intervals, self.points, not self.complemented)

    def contains(self, x: float, atol: float = 0.0) -> bool:
        inside = any(iv.contains(x, atol) for iv in self.intervals) or \
            any(abs(x - p) <= atol for p in self.points)
        return inside != self.complemented


def _overlaps(a: Interval, b: Interval) -> bool:
    if b.lower > a.upper:
        return False
    if b.lower == a.upper:
        return a.upper_closed or b.lower_closed
    return True


def _merge(a: Interval, b: Interval) -> Interval:
    upper, upper_closed = max((a.upper, a.upper_closed), (b.upper, b.upper_closed))
    return Interval(a.lower, upper, a.lower_closed, upper_closed)


class Observable:
    """A named Hermitian matrix with resolved finite spectral data."""

    __slots__ = ("name", "matrix", "spectrum", "eigenprojectors", "tol")

    def __init__(self, name: str, matrix: np.ndarray, spectrum: Sequence[float],
                 eigenprojectors: Sequence[Projector], tol: ToleranceConfig = DEFAULT_TOL):
        self.name = name
        self.matrix = np.asarray(matrix, dtype=complex)
        self.spectrum = tuple(float(v) for v in spectrum)
        self.eigenprojectors = tuple(eigenprojectors)
        self.tol = tol
        self._check_invariants()

    def _check_invariants(self) -> None:
        n = self.matrix.shape[0]
        if len(self.spectrum) != len(self.eigenprojectors):
            raise QLogicError("spectrum and projector lists disagree")
        if any(b >= a for a, b in zip(self.spectrum[1:], self.spectrum)):
            raise QLogicError("spectrum must be strictly ascending")
        total = np.zeros((n, n), dtype=complex)
        rebuilt = np.zeros((n, n), dtype=complex)
        for value, proj in zip(self.spectrum, self.eigenprojectors):
            if proj.dim != n:
                raise DimensionMismatchError("eigenprojector on the wrong space")
            total = total + proj.matrix
            rebuilt = rebuilt + value * proj.matrix
        scale = max(1.0, opnorm(self.matrix))
        if opnorm(total - np.eye(n)) > self.tol.assert_tol:
            raise QLogicError(f"eigenprojectors of {self.name} do not resolve the identity")
        if opnorm(rebuilt - self.matrix) > self.tol.assert_tol * scale:
            raise QLogicError(f"spectral data does not rebuild {self.name}")

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def snap_width(self) -> float:
        """Absolute width for literal-to-spectrum snapping."""
        top = max((abs(v) for v in self.spectrum), default=0.0)
        return self.tol.cluster_tol * max(1.0, top)

    def __repr__(self) -> str:
        return f"Observable({self.name!r}, dim={self.dim}, spectrum={self.spectrum})"

    def spectral_projector(self, subset: BorelSet) -> Projector:
        """Spectral measure of a Borel descriptor, with literal snapping."""
        atol = self.snap_width
        members = [p for v, p in zip(self.spectrum, self.eigenprojectors)
                   if subset.contains(v, atol)]
        if not members:
            return Projector.zero(self.dim, self.tol)
        return Projector(np.hstack([p.basis for p in members]), dim=self.dim, tol=self.tol)

    def threshold(self, x: float) -> Projector:
        """Cumulative projector for (-inf, x], built directly from the resolution."""
        atol = self.snap_width
        members = [p for v, p in zip(self.spectrum, self.eigenprojectors)
                   if v < x or abs(v - x) <= atol]
        if not members:
            return Projector.zero(self.dim, self.tol)
        return Projector(np.hstack([p.basis for p in members]), dim=self.dim, tol=self.tol)

    def spectral_index(self, value: float) -> int | None:
        """Index of the first spectral point within snap width of ``value``."""
        atol = self.snap_width
        for k, v in enumerate(self.spectrum):
            if abs(v - value) <= atol:
                return k
        return None

    def eigenprojector_at(self, value: float) -> Projector:
        """Projector of the spectral point nearest ``value`` within snap width."""
        k = self.spectral_index(value)
        return Projector.zero(self.dim, self.tol) if k is None else self.eigenprojectors[k]

    def eigenbasis(self) -> np.ndarray:
        """The eigenprojectors' range bases side by side, in spectral order."""
        return np.hstack([p.basis for p in self.eigenprojectors])

    def delta(self) -> float:
        """Half the smallest spectral gap, capped at one; one for singletons."""
        if len(self.spectrum) < 2:
            return 1.0
        gaps = [b - a for a, b in zip(self.spectrum, self.spectrum[1:])]
        return min(min(gaps) / 2.0, 1.0)

    def apply_function(self, f: Callable[[float], float] | Mapping[float, float],
                       name: str | None = None) -> "Observable":
        """Push the observable through a real function defined on its spectrum."""
        values = []
        for v in self.spectrum:
            try:
                if isinstance(f, Mapping):
                    values.append(float(_lookup(f, v, self.snap_width)))
                else:
                    values.append(float(f(v)))
            except (KeyError, ArithmeticError, ValueError) as exc:
                raise UndefinedAtSpectralPointError(
                    f"function undefined at spectral point {v} of {self.name}") from exc
        matrix = sum(fv * p.matrix for fv, p in zip(values, self.eigenprojectors))
        return spectral_decompose(name or f"f({self.name})", matrix, self.tol)

    def commutes_with(self, other: "Observable") -> bool:
        return matrices_commute(self.matrix, other.matrix, self.tol)


def _lookup(mapping: Mapping[float, float], value: float, atol: float) -> float:
    if value in mapping:
        return mapping[value]
    for k, fv in mapping.items():
        if abs(k - value) <= atol:
            return fv
    raise KeyError(value)


# Entries per stacked solve in ``eigenspace_meets``.  The screen keeps at most
# 2 width(B_i) systems of d x width(B_i) per basis, so a simple pair keeps at
# most 2d systems of d x 1 per step and splits into chunks only beyond
# d = 724; wider bases and many-block targets are split the same way.
_MEET_CHUNK = 1 << 20


def eigenspace_meets(bases: Sequence[np.ndarray], x: Observable,
                     targets: Sequence[tuple[int, Sequence[int]]],
                     tol: ToleranceConfig) -> list[np.ndarray]:
    """Orthonormal basis of range(B_i) ^ E_X(S) for each (i, S) in ``targets``,
    where B_i = ``bases[i]`` has orthonormal columns and S holds indices into
    X's spectrum; an index out of range raises DimensionMismatchError.

    Each meet is solved on B_i's own basis: B_i c lies in E_X(S) exactly when
    (1 - E_X(S)) B_i c = 0, which in X's eigencoordinates U^dag is the rows of
    U^dag B_i outside the blocks of S.  Those rows are zeroed rather than
    deleted, so every system with the same column count has one shape and the
    systems are solved in one ``solution_bases`` call per column count; the
    singular values of a system are the sines of the principal angles between
    range(B_i) and E_X(S) (Bjorck & Golub, Math. Comp. 27 (1973) 579-594).
    One product U^dag [B_1 ... B_k] gives every system.

    The same product screens the targets.  With w_a = ||U_a^dag B_i||_F^2 the
    weight of B_i in X's block a, every unit c has ||(1 - E_X(S)) B_i c||^2 =
    1 - ||E_X(S) B_i c||^2 >= 1 - sum_{a in S} w_a, which needs B_i's columns
    and U orthonormal.  A target whose blocks hold less than half the weight
    therefore has every singular value above 1/sqrt(2), above the floored
    rank cutoff rank_rel_tol * width(B_i) whenever that cutoff is below 1/2
    (nine orders of magnitude below at the default tolerance): its kernel is
    empty, and it is not solved.  A cutoff of 1/2 or more solves every target.  The kept systems are factored one by one in the same batched
    call, so every basis has the bits of the unscreened solve.  The weights of
    B_i sum to width(B_i), so at most 2 width(B_i) single blocks pass: one
    ``joint_atoms`` step solves at most 2d systems, not (atoms x eigenvalues).
    """
    dim = x.dim
    for b in bases:
        if b.shape[0] != dim:
            raise DimensionMismatchError(f"basis in dimension {b.shape[0]}, expected {dim}")
    rows = list(itertools.accumulate((p.rank for p in x.eigenprojectors), initial=0))
    columns = list(itertools.accumulate((b.shape[1] for b in bases), initial=0))
    coords = dagger(x.eigenbasis()) @ np.hstack([*bases, np.zeros((dim, 0))])
    weights = _row_block_sums(_row_block_sums(np.abs(coords) ** 2, rows).T, columns).tolist()
    points = set(range(len(x.spectrum)))
    groups: dict[int, list[int]] = {}
    for k, (i, blocks) in enumerate(targets):
        unique = set(blocks)
        if not 0 <= i < len(bases) or not unique <= points:
            raise DimensionMismatchError(
                f"target {(i, tuple(blocks))} names a basis or block out of range: "
                f"{len(bases)} bases, {len(points)} spectral points of {x.name}")
        width = columns[i + 1] - columns[i]
        # Screened only while the cutoff stays below 1/2, a factor sqrt(2)
        # under a skipped system's smallest singular value; a loose
        # rank_rel_tol or a very wide basis would reach it.
        if width and (sum(map(weights[i].__getitem__, unique)) >= 0.5
                      or tol.rank_rel_tol * width >= 0.5):
            groups.setdefault(width, []).append(k)
    meets = [np.zeros((dim, 0), dtype=complex)] * len(targets)
    for width, members in groups.items():
        step = max(1, _MEET_CHUNK // (dim * width))
        for lo in range(0, len(members), step):
            chunk = members[lo:lo + step]
            systems = np.empty((len(chunk), dim, width), dtype=complex)
            for system, k in zip(systems, chunk):
                i, blocks = targets[k]
                system[:] = coords[:, columns[i]:columns[i + 1]]
                for a in blocks:
                    system[rows[a]:rows[a + 1]] = 0.0
            for k, kept in zip(chunk, solution_bases(systems, width, tol)):
                if kept.shape[1]:
                    meets[k] = bases[targets[k][0]] @ kept
    return meets


def _row_block_sums(values: np.ndarray, edges: Sequence[int]) -> np.ndarray:
    """Sums of the rows of ``values`` over each range edges[k]:edges[k + 1],
    as differences of one prefix sum: an empty range (a rank-zero block, a
    basis of no columns) sums to zero, where ``np.add.reduceat`` would give it
    a lone row or refuse it."""
    prefix = np.zeros((len(values) + 1, *values.shape[1:]))
    np.cumsum(values, axis=0, out=prefix[1:])
    return prefix[edges[1:]] - prefix[edges[:-1]]


def joint_atoms(observables: Sequence[Observable], dim: int) -> dict[tuple[int, ...], np.ndarray]:
    """The nonzero joint spectral atoms E_1(v_1) ^ ... ^ E_n(v_n) of a family,
    as orthonormal bases keyed by spectral index tuples in ``itertools.product``
    order; the empty family has the one atom 1.

    The atoms of the first k members are met with the next member's
    eigenprojectors by ``eigenspace_meets``.  Nonzero atoms are orthogonal, so
    each step meets at most d of them, and the family judges at the tolerance
    of its first member.  The atoms' bases are orthonormal, so the kernel's
    weight screen holds: of the (atoms x eigenvalues) pairs of a step, only
    those where the eigenspace holds at least half an atom's weight are
    solved, at most 2 rank(atom) per atom and 2d per step.
    """
    xs = list(observables)
    for x in xs:
        if x.dim != dim:
            raise DimensionMismatchError(f"{x.name} lives in dimension {x.dim}, expected {dim}")
    if not xs:
        return {(): np.eye(dim, dtype=complex)}
    atoms = {(a,): p.basis for a, p in enumerate(xs[0].eigenprojectors) if p.rank}
    for x in xs[1:]:
        keys = list(atoms)
        targets = [(i, (b,)) for i in range(len(keys)) for b in range(len(x.spectrum))]
        meets = eigenspace_meets(list(atoms.values()), x, targets, xs[0].tol)
        atoms = {keys[i] + blocks: basis for (i, blocks), basis in zip(targets, meets)
                 if basis.shape[1]}
    return atoms


def spectral_decompose(name: str, matrix, tol: ToleranceConfig = DEFAULT_TOL) -> Observable:
    """Resolve a Hermitian matrix into an Observable, clustering eigenvalues.

    Eigenvalues closer than cluster_tol (relative, floored at cluster_tol
    absolute) are treated as one spectral point whose value is their mean.
    """
    eigenvalues, eigenvectors = hermitian_eig(matrix, tol)
    width = tol.cluster_tol * max(1.0, float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0)
    spectrum: list[float] = []
    projectors: list[Projector] = []
    start = 0
    n = eigenvalues.size
    for k in range(1, n + 1):
        if k == n or eigenvalues[k] - eigenvalues[k - 1] > width:
            group = slice(start, k)
            spectrum.append(float(np.mean(eigenvalues[group])))
            projectors.append(Projector(eigenvectors[:, group], dim=n, tol=tol))
            start = k
    return Observable(name, np.asarray(matrix, dtype=complex), spectrum, projectors, tol)


def embed_first(x: Observable, dim_second: int) -> Observable:
    """X (x) 1 on the product space, reusing the exact spectral data."""
    eye = np.eye(dim_second, dtype=complex)
    projectors = [Projector(np.kron(p.basis, eye), dim=x.dim * dim_second, tol=x.tol)
                  for p in x.eigenprojectors]
    return Observable(x.name, kron(x.matrix, eye), x.spectrum, projectors, x.tol)


def embed_second(m: Observable, dim_first: int) -> Observable:
    """1 (x) M on the product space, reusing the exact spectral data."""
    eye = np.eye(dim_first, dtype=complex)
    projectors = [Projector(np.kron(eye, p.basis), dim=dim_first * m.dim, tol=m.tol)
                  for p in m.eigenprojectors]
    return Observable(m.name, kron(eye, m.matrix), m.spectrum, projectors, m.tol)


def heisenberg(x: Observable, unitary) -> Observable:
    """Conjugate into the Heisenberg picture: U^dag X U with the same spectrum."""
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (x.dim, x.dim):
        raise DimensionMismatchError(f"unitary shape {u.shape} does not match dim {x.dim}")
    if opnorm(dagger(u) @ u - np.eye(x.dim)) > x.tol.assert_tol:
        raise NotUnitaryError("conjugation matrix is not unitary within tolerance")
    projectors = [Projector(dagger(u) @ p.basis, dim=x.dim, tol=x.tol)
                  for p in x.eigenprojectors]
    return Observable(x.name, dagger(u) @ x.matrix @ u, x.spectrum, projectors, x.tol)
