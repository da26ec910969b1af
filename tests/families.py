"""Observable families of every kind the spectral-atom route tests draw from."""

import numpy as np

from qlogic.observables import spectral_decompose
from qlogic.sampling import (
    haar_unitary,
    observable_from_eigenbasis,
    random_agreeing_pair,
    random_block_observables,
    random_commuting_observables,
    random_determinate_family,
    random_observable,
)

FAMILY_KINDS = ["generic", "simple", "commuting", "block", "determinate-block", "agreeing",
                "split"]


def observable_family(kind, dim, count, rng):
    """``count`` observables on C^dim of one kind.  The determinate-block and
    agreeing kinds need d >= 4 and raise d to 4 below it; determinate-block
    has at least two members, and agreeing pads its pair with generic ones.

    * generic: Haar frames with 2-4 integer eigenvalues;
    * simple: Haar frames with simple spectra 0, ..., d - 1;
    * commuting: one Haar frame, integer diagonals;
    * block: a commuting block and a non-commuting block;
    * determinate-block: ``random_determinate_family``;
    * agreeing: ``random_agreeing_pair``, equal on a sector;
    * split: X with two eigenvalues 1 and 1 + eps, eps = 1e-3 to 1e-8, against
      generic observables.
    """
    if kind == "simple":
        return [observable_from_eigenbasis(f"X{k}", haar_unitary(dim, rng), range(dim),
                                           [1] * dim) for k in range(count)]
    if kind == "commuting":
        return random_commuting_observables(dim, count, rng)
    if kind == "block" and dim >= 2:
        return random_block_observables([dim // 2, dim - dim // 2], [True, False], count, rng)
    if kind == "determinate-block":
        return random_determinate_family(max(dim, 4), max(count, 2), rng)[0]
    generic = [random_observable(f"X{k}", max(dim, 4) if kind == "agreeing" else dim, rng)
               for k in range(count)]
    if kind == "agreeing":
        x, y, _ = random_agreeing_pair(max(dim, 4), rng)
        return ([x, y] + generic)[:count]
    if kind == "split" and dim >= 2:
        eps = 10.0 ** -int(rng.integers(3, 9))
        low = dim // 2
        u = haar_unitary(dim, rng)
        x = u @ np.diag([1.0] * low + [1.0 + eps] * (dim - low)) @ u.conj().T
        generic[0] = spectral_decompose("X", x)
    return generic
