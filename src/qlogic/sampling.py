"""Seeded random generators for projectors, observables, states, and models.

Everything here is reproducible from an integer seed and is used by the
check batteries and the test suite.  Observables are built from exact
integer spectra conjugated by Haar unitaries, so spectral gaps are honest
and clustering never has to guess.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import QLogicError
from .linalg import commutator, eigh, opnorm
from .measurement import POVM, MeasuringProcess, naimark_process
from .observables import Observable, spectral_decompose
from .projectors import Projector
from .states import DensityState
from .tolerances import DEFAULT_TOL, ToleranceConfig

_VALUE_POOL = tuple(float(v) for v in range(-5, 6))


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def random_projector(dim: int, rng: np.random.Generator, rank: int | None = None,
                     tol: ToleranceConfig = DEFAULT_TOL) -> Projector:
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    if rank == 0:
        return Projector.zero(dim, tol)
    u = haar_unitary(dim, rng)
    return Projector(u[:, :rank], dim=dim, tol=tol)


def random_subprojector(parent: Projector, rng: np.random.Generator,
                        rank: int | None = None) -> Projector:
    """A projector below ``parent``: random rotation inside its range."""
    if parent.rank == 0:
        return parent
    if rank is None:
        rank = int(rng.integers(0, parent.rank + 1))
    if rank == 0:
        return Projector.zero(parent.dim, parent.tol)
    u = haar_unitary(parent.rank, rng)
    return Projector(parent.basis @ u[:, :rank], dim=parent.dim, tol=parent.tol)


def _random_spectrum(rng: np.random.Generator, size: int) -> list[float]:
    values = rng.choice(len(_VALUE_POOL), size=size, replace=False)
    return sorted(_VALUE_POOL[i] for i in values)


def _random_multiplicities(rng: np.random.Generator, dim: int, parts: int) -> list[int]:
    # random composition of dim into `parts` positive integers
    cuts = sorted(rng.choice(dim - 1, size=parts - 1, replace=False) + 1) if parts > 1 else []
    edges = [0, *cuts, dim]
    return [b - a for a, b in zip(edges, edges[1:])]


def observable_from_eigenbasis(name: str, basis: np.ndarray, values: Sequence[float],
                               multiplicities: Sequence[int],
                               tol: ToleranceConfig = DEFAULT_TOL) -> Observable:
    """Assemble exact spectral data from unitary columns and eigenvalues."""
    dim = basis.shape[0]
    projectors = []
    matrix = np.zeros((dim, dim), dtype=complex)
    start = 0
    for value, mult in zip(values, multiplicities):
        block = basis[:, start:start + mult]
        p = Projector(block, dim=dim, tol=tol)
        projectors.append(p)
        matrix = matrix + value * p.matrix
        start += mult
    return Observable(name, matrix, values, projectors, tol)


def random_observable(name: str, dim: int, rng: np.random.Generator,
                      n_values: int | None = None,
                      tol: ToleranceConfig = DEFAULT_TOL) -> Observable:
    if n_values is None:
        n_values = int(rng.integers(2, min(dim, 4) + 1)) if dim > 1 else 1
    values = _random_spectrum(rng, n_values)
    mults = _random_multiplicities(rng, dim, n_values)
    return observable_from_eigenbasis(name, haar_unitary(dim, rng), values, mults, tol)


def random_commuting_observables(dim: int, count: int, rng: np.random.Generator,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> list[Observable]:
    """A mutually commuting family: one Haar eigenbasis, many integer diagonals."""
    basis = haar_unitary(dim, rng)
    out = []
    for i in range(count):
        n_values = int(rng.integers(2, min(dim, 4) + 1)) if dim > 1 else 1
        values = _random_spectrum(rng, n_values)
        mults = _random_multiplicities(rng, dim, n_values)
        out.append(observable_from_eigenbasis(f"X{i + 1}", basis, values, mults, tol))
    return out


def random_block_observables(block_dims: Sequence[int], commuting_blocks: Sequence[bool],
                             count: int, rng: np.random.Generator,
                             tol: ToleranceConfig = DEFAULT_TOL) -> list[Observable]:
    """Block-diagonal family: per block either a shared or a fresh eigenbasis.

    Blocks flagged commuting share one basis across the family, so the family
    commutes exactly there; other blocks get independent bases, which for
    block dimension >= 2 makes commutation fail generically.
    """
    dim = sum(block_dims)
    offsets = np.cumsum([0, *block_dims])
    shared = [haar_unitary(d, rng) if flag else None
              for d, flag in zip(block_dims, commuting_blocks)]
    out = []
    for i in range(count):
        matrix = np.zeros((dim, dim), dtype=complex)
        for b, d in enumerate(block_dims):
            basis = shared[b] if shared[b] is not None else haar_unitary(d, rng)
            values = rng.choice(_VALUE_POOL, size=d, replace=True)
            block = (basis * values) @ basis.conj().T
            matrix[offsets[b]:offsets[b + 1], offsets[b]:offsets[b + 1]] = block
        out.append(spectral_decompose(f"X{i + 1}", matrix, tol))
    return out


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None,
                   tol: ToleranceConfig = DEFAULT_TOL) -> DensityState:
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return DensityState.from_matrix(rho / np.trace(rho), tol)


def random_vector_state(dim: int, rng: np.random.Generator,
                        tol: ToleranceConfig = DEFAULT_TOL) -> DensityState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityState.from_vector(v / np.linalg.norm(v), tol)


def state_supported_in(projector: Projector, rng: np.random.Generator) -> DensityState:
    """A random state whose support sits inside the given projector's range, at
    the projector's tolerance."""
    r = projector.rank
    if r == 0:
        raise ValueError("cannot support a state in the zero projector")
    g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    small = g @ g.conj().T
    rho = projector.basis @ (small / np.trace(small)) @ projector.basis.conj().T
    return DensityState.from_matrix(rho, projector.tol)


def random_determinate_family(dim: int, count: int, rng: np.random.Generator,
                              tol: ToleranceConfig = DEFAULT_TOL
                              ) -> tuple[list[Observable], DensityState]:
    """A partially non-commuting family plus a state inside the commuting sector."""
    if dim < 4:
        raise ValueError("need dimension >= 4 for a non-trivial commuting sector")
    d1 = int(rng.integers(2, dim - 1))
    for _ in range(32):
        family = random_block_observables([d1, dim - d1], [True, False], count, rng, tol)
        # A scalar free block would make the whole family commute; insist on a
        # genuinely non-commuting pair so callers can rely on com < identity.
        worst = max(opnorm(commutator(x.matrix, y.matrix))
                    / max(1.0, opnorm(x.matrix) * opnorm(y.matrix))
                    for i, x in enumerate(family) for y in family[i + 1:])
        if worst > 1e-3:
            break
    else:
        raise QLogicError("could not sample a non-commuting block family")
    sector = Projector(np.eye(dim, dtype=complex)[:, :d1], dim=dim, tol=tol)
    return family, state_supported_in(sector, rng)


def random_agreeing_pair(dim: int, rng: np.random.Generator,
                         tol: ToleranceConfig = DEFAULT_TOL
                         ) -> tuple[Observable, Observable, DensityState]:
    """Two observables equal on a sector, different elsewhere, plus a state
    supported in the agreement sector."""
    if dim < 4:
        raise ValueError("need dimension >= 4 for a non-trivial agreement sector")
    d1 = int(rng.integers(2, dim - 1))
    d2 = dim - d1
    basis = haar_unitary(d1, rng)
    shared_values = rng.choice(_VALUE_POOL, size=d1, replace=True)
    shared = (basis * shared_values) @ basis.conj().T
    pair = []
    for name in ("X", "Y"):
        tail_basis = haar_unitary(d2, rng)
        tail_values = rng.choice(_VALUE_POOL, size=d2, replace=True)
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[:d1, :d1] = shared
        matrix[d1:, d1:] = (tail_basis * tail_values) @ tail_basis.conj().T
        pair.append(spectral_decompose(name, matrix, tol))
    sector = Projector(np.eye(dim, dtype=complex)[:, :d1], dim=dim, tol=tol)
    return pair[0], pair[1], state_supported_in(sector, rng)


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator,
                tol: ToleranceConfig = DEFAULT_TOL) -> POVM:
    """Random full-rank effects normalized to resolve the identity."""
    raws = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raws.append(g @ g.conj().T + 0.05 * np.eye(dim))
    total = sum(raws)
    values, vectors = eigh(total)
    inv_sqrt = (vectors / np.sqrt(values)) @ vectors.conj().T
    elements = [inv_sqrt @ s @ inv_sqrt for s in raws]
    return POVM([float(k) for k in range(n_outcomes)], elements, tol)


def random_measuring_process(dim_h: int, dim_k: int, rng: np.random.Generator,
                             tol: ToleranceConfig = DEFAULT_TOL) -> MeasuringProcess:
    """Haar coupling, random pure probe, integer meter: generically measures
    nothing in particular, which exercises the all-false battery branch."""
    probe = random_vector_state(dim_k, rng, tol)
    unitary = haar_unitary(dim_h * dim_k, rng)
    meter = random_observable("M", dim_k, rng, n_values=dim_k, tol=tol)
    return MeasuringProcess(dim_h, probe, unitary, meter, tol=tol)


def measuring_process_for(observable: Observable) -> MeasuringProcess:
    """A process that measures the observable sharply: dilated spectral POVM."""
    povm = POVM(observable.spectrum, [p.matrix for p in observable.eigenprojectors],
                observable.tol)
    return naimark_process(povm, meter_name=f"{observable.name}-meter")


def cnot_process(tol: ToleranceConfig = DEFAULT_TOL) -> MeasuringProcess:
    """The textbook qubit model: CNOT coupling, probe |0>, pointer sigma_z."""
    cnot = np.array([[1, 0, 0, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, 1, 0]], dtype=complex)
    probe = DensityState.from_vector(np.array([1.0, 0.0], dtype=complex), tol)
    meter = spectral_decompose("Mz", np.diag([1.0, -1.0]).astype(complex), tol)
    return MeasuringProcess(2, probe, cnot, meter, tol=tol)
