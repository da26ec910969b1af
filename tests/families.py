"""Every input family the route tests draw from, each kind built in one place.

Observables:

* ``observable_family(kind, dim, count, rng)``: the seven ``FAMILY_KINDS``,
  plus ``scalar`` and ``zero``, a generic family with one member replaced;
* ``family_and_state(kind, dim, count, rng)``: a family and a state, the
  sector state the sampler builds for determinate-block and agreeing.

Raw matrices:

* ``split_matrix`` and ``split_pair(dim, split, rng)``: two eigenvalues 1 and
  1 + split in a Haar frame, alone or against a generic partner;
* ``noisy_pair(dim, rng)``: X and X plus a Hermitian perturbation;
* ``matrix_family(kind, dim, rng)``: generators for ``algebra_from_generators``;
* ``generator_matrix(kind, dim, rng)``: one generator, Hermitian or not;
* ``rotated_block_generators(blocks, rng)``: generators of a rotated block
  algebra of known shape;
* ``kernel_input(kind, dim, rng)``: square matrices for the kernel solvers.

Projectors:

* ``projector_pair(kind, dim, rng)``: pairs for the two-projector routes;
* ``sector_family(dim, count, rng)``: coordinate rays plus Haar subspaces;
* ``projector_family(kind, dim, count, rng)``: the thresholds of an
  observable family, or a sector family.

A test keeps its own list of kinds.  A kind that two levels share is built
at one level and read off at the other.
"""

import numpy as np

from qlogic.commutators import threshold_family
from qlogic.linalg import dagger
from qlogic.observables import spectral_decompose
from qlogic.projectors import Projector
from qlogic.sampling import (
    haar_unitary,
    observable_from_eigenbasis,
    random_agreeing_pair,
    random_block_observables,
    random_commuting_observables,
    random_density,
    random_determinate_family,
    random_observable,
    random_projector,
)

FAMILY_KINDS = ["generic", "simple", "commuting", "block", "determinate-block", "agreeing",
                "split"]


# ---------------------------------------------------------------------------
# observables


def observable_family(kind, dim, count, rng):
    """``count`` observables on C^dim of one kind.  The determinate-block and
    agreeing kinds need d >= 4 and raise d to 4 below it.  Determinate-block,
    agreeing and split have at least two members; agreeing and split pad
    their pair with generic ones.

    * generic: Haar frames with 2-4 integer eigenvalues;
    * simple: Haar frames with simple spectra 0, ..., d - 1;
    * commuting: one Haar frame, integer diagonals;
    * block: a commuting block and a non-commuting block;
    * determinate-block: ``random_determinate_family``;
    * agreeing: ``random_agreeing_pair``, equal on a sector;
    * split: ``split_matrix`` at a split of 1e-3 to 1e-8, against generic
      observables;
    * scalar, zero: a generic family with one member replaced by a real
      multiple of the identity or by zero.
    """
    if kind in ("determinate-block", "agreeing"):
        return family_and_state(kind, dim, count, rng)[0]
    if kind == "simple":
        return [observable_from_eigenbasis(f"X{k}", haar_unitary(dim, rng), range(dim),
                                           [1] * dim) for k in range(count)]
    if kind == "commuting":
        return random_commuting_observables(dim, count, rng)
    if kind == "block" and dim >= 2:
        return random_block_observables([dim // 2, dim - dim // 2], [True, False], count, rng)
    if kind == "split" and dim >= 2:
        x = split_matrix(dim, 10.0 ** -int(rng.integers(3, 9)), rng)
        return [spectral_decompose("X", x), *_generic(dim, 1, max(count, 2), rng)]
    family = _generic(dim, 0, count, rng)
    if kind in ("scalar", "zero"):
        member = (rng.normal() * np.eye(dim, dtype=complex) if kind == "scalar"
                  else np.zeros((dim, dim), complex))
        family[int(rng.integers(count))] = spectral_decompose("S", member)
    return family


def family_and_state(kind, dim, count, rng):
    """An ``observable_family`` and a state on its space: for determinate-block
    and agreeing the state the sampler supports in the commuting or agreement
    sector, otherwise a ``random_density`` drawn after the family."""
    if kind == "determinate-block":
        return random_determinate_family(max(dim, 4), max(count, 2), rng)
    if kind == "agreeing":
        dim = max(dim, 4)
        x, y, state = random_agreeing_pair(dim, rng)
        return [x, y, *_generic(dim, 2, count, rng)], state
    family = observable_family(kind, dim, count, rng)
    return family, random_density(family[0].dim, rng)


def _generic(dim, first, stop, rng):
    """Generic observables named X{first}, ..., X{stop - 1}."""
    return [random_observable(f"X{k}", dim, rng) for k in range(first, stop)]


# ---------------------------------------------------------------------------
# raw matrices


def split_matrix(dim, split, rng):
    """A Haar frame with eigenvalue 1 on its first dim // 2 columns and
    1 + split on the rest."""
    u = haar_unitary(dim, rng)
    low = dim // 2
    return u @ np.diag([1.0] * low + [1.0 + split] * (dim - low)) @ dagger(u)


def split_pair(dim, split, rng):
    """``split_matrix`` and a generic Y, drawn from ``rng`` or, given a seed,
    from ``default_rng(seed)``."""
    rng = np.random.default_rng(rng)
    return [split_matrix(dim, split, rng), random_observable("Y", dim, rng).matrix]


def noisy_pair(dim, rng):
    """A generic X and X + delta (N + N^dag) for a Ginibre N, delta = 1e-3 to
    1e-7: a pair that nearly commutes."""
    x = random_observable("X", dim, rng).matrix
    noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return [x, x + 10.0 ** -int(rng.integers(3, 8)) * (noise + dagger(noise))]


def matrix_family(kind, dim, rng):
    """Generator matrices for ``algebra_from_generators``.

    * generic: one or two generic observables;
    * commuting, block: two members of that ``observable_family`` kind;
    * split: ``split_pair`` at a split of 1e-3 to 1e-5;
    * fine-split: ``split_pair`` at a split of 1e-6 to 1e-8;
    * non-normal: a rotated nilpotent shift, whose words alone span no
      *-algebra.
    """
    if kind == "split":
        return split_pair(dim, 10.0 ** -int(rng.integers(3, 6)), rng)
    if kind == "fine-split":
        return split_pair(dim, 10.0 ** -int(rng.integers(6, 9)), rng)
    if kind == "non-normal":
        u = haar_unitary(dim, rng)
        return [u @ np.eye(dim, k=1) @ dagger(u)]
    count = int(rng.integers(1, 3)) if kind == "generic" else 2
    return [x.matrix for x in observable_family(kind, dim, count, rng)]


def generator_matrix(kind, dim, rng):
    """One generator: zero, a complex multiple of the identity, the identity
    plus 1e-15 noise, an integer diagonal, a generic Hermitian matrix, or a
    Ginibre (non-Hermitian) matrix."""
    if kind == "zero":
        return np.zeros((dim, dim), dtype=complex)
    if kind == "scalar":
        return complex(rng.normal(), rng.normal()) * np.eye(dim)
    if kind == "noisy-identity":
        return np.eye(dim) + 1e-15 * rng.normal(size=(dim, dim))
    if kind == "integer-diagonal":
        return np.diag(rng.integers(-2, 3, size=dim)).astype(complex)
    if kind == "hermitian":
        return observable_family("generic", dim, 1, rng)[0].matrix
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def rotated_block_generators(blocks, rng):
    """Two generators of U ((+) M_n (x) I_m) U^dag for the (n, m) blocks.

    Each block carries a random Hermitian pair, simple in spectrum, tensored
    with I_m and shifted by a block-dependent scalar so that blocks of equal
    n stay inequivalent.
    """
    def hermitian(n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return a + dagger(a)

    dim = sum(n * m for n, m in blocks)
    first = np.zeros((dim, dim), dtype=complex)
    second = np.zeros((dim, dim), dtype=complex)
    at = 0
    for k, (n, m) in enumerate(blocks):
        size = n * m
        h = hermitian(n) + 20.0 * k * np.eye(n)
        g = hermitian(n)
        first[at:at + size, at:at + size] = np.kron(h, np.eye(m))
        second[at:at + size, at:at + size] = np.kron(g, np.eye(m))
        at += size
    u = haar_unitary(dim, rng)
    return [u @ first @ dagger(u), u @ second @ dagger(u)]


def kernel_input(kind, dim, rng):
    """A square matrix: a random projector, zero, a full-rank Ginibre product
    (random) or one of random rank below dim (rank-deficient)."""
    if kind == "projector":
        return random_projector(dim, rng).matrix
    if kind == "zero":
        return np.zeros((dim, dim), dtype=complex)
    rank = dim if kind == "random" else int(rng.integers(0, dim))
    left = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    right = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    return left @ right


# ---------------------------------------------------------------------------
# projectors


def projector_pair(kind, dim, rng):
    """Two projectors on C^dim.

    * commuting: diagonal in one Haar frame;
    * block: a shared frame on a first block, independent ranges on the
      second, the whole rotated by a Haar unitary (d >= 3);
    * zero, identity: a random projector with the zero or the identity;
    * anything else: two random projectors.
    """
    if kind == "commuting":
        frame = haar_unitary(dim, rng)
        return tuple(Projector.from_matrix((frame * rng.integers(0, 2, size=dim))
                                           @ dagger(frame)) for _ in range(2))
    if kind == "block" and dim >= 3:
        split = int(rng.integers(1, dim - 1))
        shared, frame = haar_unitary(split, rng), haar_unitary(dim, rng)
        pair = []
        for _ in range(2):
            block = np.zeros((dim, dim), dtype=complex)
            block[:split, :split] = (shared * rng.integers(0, 2, size=split)) @ dagger(shared)
            block[split:, split:] = random_projector(dim - split, rng).matrix
            pair.append(Projector.from_matrix(frame @ block @ dagger(frame)))
        return tuple(pair)
    p = random_projector(dim, rng)
    if kind == "zero":
        return p, Projector.zero(dim)
    if kind == "identity":
        return Projector.identity(dim), p
    return p, random_projector(dim, rng)


def sector_family(dim, count, rng):
    """Coordinate projectors on a sector of dim // 3 coordinates plus Haar
    subspaces of its complement, as in lattice-eval's ``_com_family_op``
    (perfbench/workloads.py)."""
    sector = dim // 3
    frame = haar_unitary(dim, rng)
    family = []
    for _ in range(count):
        rank = int(rng.integers(1, dim - sector))
        chosen = frame[:, :sector][:, rng.random(sector) < 0.5]
        generic = frame[:, sector:] @ haar_unitary(dim - sector, rng)[:, :rank]
        family.append(Projector(np.hstack([chosen, generic]), dim=dim))
    return family


def projector_family(kind, dim, count, rng):
    """The cumulative spectral projectors of an ``observable_family``, or for
    ``sector`` a ``sector_family`` of at least two members."""
    if kind == "sector":
        return sector_family(dim, max(count, 2), rng)
    return threshold_family(observable_family(kind, dim, count, rng))
