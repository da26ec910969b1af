"""The stacked routes the spectral-atom kernel replaced, kept as its oracles.

Each solves its object on full d x d projector matrices, as the package did
before it read spectral atoms on their own bases, so at small d it checks
``observables.eigenspace_meets`` and everything built on it.
"""

import itertools

import numpy as np

from qlogic.errors import DimensionMismatchError
from qlogic.linalg import solution_bases
from qlogic.projectors import Projector, common_null_space_projector
from qlogic.tolerances import DEFAULT_TOL


def meet_each(families, dim):
    """``meet_all`` of each family in a list of families of one size.

    The families' kernel systems are stacked and factored in one
    ``solution_bases`` call.  ``meet_all`` solves through ``solution_basis``,
    the same kernel on a stack of one, so each meet has the bits ``meet_all``
    gives it by construction.
    """
    families = [list(family) for family in families]
    sizes = {len(family) for family in families}
    if len(sizes) > 1:
        raise DimensionMismatchError("batched meets need families of one size")
    dims = {p.dim for family in families for p in family}
    if dims - {dim}:
        raise DimensionMismatchError(f"projectors on dims {sorted(dims)}, expected {dim}")
    eye = np.eye(dim, dtype=complex)
    rows = sizes.pop() * dim if sizes else 0
    systems = np.array([[eye - p.matrix for p in family] for family in families],
                       dtype=complex).reshape(len(families), rows, dim)
    tol = families[0][0].tol if rows else DEFAULT_TOL
    return [Projector(basis, dim=dim, tol=tol)
            for basis in solution_bases(systems, dim, tol)]


def stacked_joint_atoms(xs, dim):
    """Every joint spectral atom of a family over its grid, in
    ``itertools.product`` order, each the stacked 2d x d (n d x d) meet."""
    return meet_each(list(itertools.product(*(x.eigenprojectors for x in xs))), dim)


def stacked_crossings(x, y):
    """The joint kernel of the stacked E_X(a) E_Y(b) over mismatched a, b."""
    width = max(x.snap_width, y.snap_width)
    crossings = [x.eigenprojector_at(a).matrix @ y.eigenprojector_at(b).matrix
                 for a in x.spectrum for b in y.spectrum if abs(a - b) > width]
    return common_null_space_projector(crossings, x.dim, x.tol)


def triple_products(x, y, state):
    """Tr[E_X(a) E_Y(b) rho] for every pair of spectral points, one trace each."""
    return np.array([[np.trace(p.matrix @ q.matrix @ state.matrix) for q in y.eigenprojectors]
                     for p in x.eigenprojectors])
