"""The slow routes the route tests compare with, each written once.

Each computes its object the slow, direct way on full d x d matrices; most
are routes the package ran before a faster one replaced them.  At small d
they check the routes that replaced them.

Meets and spectral atoms (``observables.eigenspace_meets`` and what is built
on it):

* ``unscreened_meets``: ``eigenspace_meets`` without its weight screen, every
  target solved;
* ``meet_weak_limit``: the meet as the limit of (P Q)^n;
* ``logical_equiv``: the biconditional of two Sasaki arrows;
* ``stacked_joint_atoms``: every joint spectral atom, a stacked meet each;
* ``stacked_crossings``: the joint kernel of the mismatched E_X(a) E_Y(b);
* ``triple_products``: Tr[E_X(a) E_Y(b) rho], one trace each;
* ``grid_measure_by_meet_all``: the product measure, one meet per atom;
* ``common_eigenvector_span_by_meets``: the common eigenvector spans, one
  meet per atom or per matched pair.

Commutator projections (``commutators``):

* ``com_family_by_meet_all``: the sign-map join with one ``ortho`` per member
  and one ``meet_all`` per sign map;
* ``stacked_com_kernel``: the triple products [P_i, P_j] P_k in one stack;
* ``algebra_route``: the joint kernel of [a, g] over the generated algebra's
  basis and letters;
* ``all_pairs_route``: the joint kernel of all basis pairs [a_i, a_j].

Generated algebras and cyclic subspaces (``algebras``, ``states``):

* ``span_equal``: mutual containment of two spans of matrices;
* ``closed_by_pairs``: product closure of a span, pair by pair;
* ``build_by_fixpoint_solve``: the double-commutant build C(C(G));
* ``commutation_rows`` and ``system_by_kron``: the commutant system by
  ``np.kron``;
* ``letter_commutator_norm``: the largest ||[a, g] R|| over the basis a and
  the letters g, the oracle for ``abelian_part`` and the clause it serves;
* ``max_pair_by_loop``: the largest ||[a_i, a_j] R|| over basis pairs;
* ``cyclic_by_algebra``: the span of b psi over the generated algebra.

States (``states``):

* ``born_joint``: the joint distribution function of commuting observables
  at given cuts, as Tr[E_1 ... E_n rho].

Kernels (``linalg``):

* ``unfloored_kernel_basis``: the square kernel solve with an unfloored
  cutoff.
"""

import itertools

import numpy as np

from qlogic import algebras, observables
from qlogic.algebras import algebra_from_generators, commutant
from qlogic.errors import DimensionMismatchError, NotCommutingError, QLogicError
from qlogic.linalg import (
    commutator,
    dagger,
    matrices_commute,
    opnorm,
    opnorms,
    range_basis,
    require_square,
    singular_cutoff,
    solution_bases,
)
from qlogic.projectors import (
    Projector,
    common_null_space_projector,
    join_all,
    meet,
    meet_all,
    meet_each,
    ortho,
    sasaki_implies,
)
from qlogic.tolerances import DEFAULT_TOL


# ---------------------------------------------------------------------------
# meets and spectral atoms


def unscreened_meets(bases, x, targets, tol):
    """``observables.eigenspace_meets`` as it was before the weight screen:
    one zeroed-row system per target, every system with one column count in
    one ``solution_bases`` call, chunked at ``observables._MEET_CHUNK``."""
    dim = x.dim
    for b in bases:
        if b.shape[0] != dim:
            raise DimensionMismatchError(f"basis in dimension {b.shape[0]}, expected {dim}")
    rows = list(itertools.accumulate((p.rank for p in x.eigenprojectors), initial=0))
    columns = list(itertools.accumulate((b.shape[1] for b in bases), initial=0))
    coords = dagger(x.eigenbasis()) @ np.hstack([*bases, np.zeros((dim, 0))])
    groups = {}
    for k, (i, _) in enumerate(targets):
        if columns[i + 1] > columns[i]:
            groups.setdefault(columns[i + 1] - columns[i], []).append(k)
    meets = [np.zeros((dim, 0), dtype=complex)] * len(targets)
    for width, members in groups.items():
        step = max(1, observables._MEET_CHUNK // (dim * width))
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


def meet_weak_limit(p, q, iterations=200):
    """The meet as the limit of (P Q)^n, returned as a matrix.

    Convergence is geometric in the principal angles, so a couple hundred
    iterations is far more than desk scale needs.  Each iterate is not
    Hermitian, though the limit is, so the last one is symmetrized.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError(f"projectors on different spaces: dims {p.dim}, {q.dim}")
    product = p.matrix @ q.matrix
    power = np.eye(p.dim, dtype=complex)
    for _ in range(iterations):
        power = power @ product
    return (power + dagger(power)) / 2.0


def logical_equiv(p, q):
    """Biconditional (P -> Q) ^ (Q -> P) with the Sasaki arrow."""
    return meet(sasaki_implies(p, q), sasaki_implies(q, p))


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


def grid_measure_by_meet_all(xs, state, t):
    """The per-combination loop that ``states._grid_measure`` batches: the
    masses Tr[(E_1(v_1) ^ ... ^ E_n(v_n)) rho], the worst marginal or
    normalization gap, and whether it is within ``t.assert_tol``."""
    dim = state.dim
    atom_projectors = [[x.eigenprojector_at(v) for v in x.spectrum] for x in xs]
    grids = [range(len(x.spectrum)) for x in xs]
    masses = {}
    worst = 0.0
    for combo in itertools.product(*grids):
        parts = [atom_projectors[j][k] for j, k in enumerate(combo)]
        p = meet_all(parts, dim=dim)
        value = float(np.real(np.trace(p.matrix @ state.matrix)))
        masses[tuple(xs[j].spectrum[k] for j, k in enumerate(combo))] = value
        worst = max(worst, max(0.0, -value))
    total = float(sum(masses.values()))
    worst = max(worst, abs(total - 1.0))
    for j in range(len(xs)):
        other_grids = [range(len(x.spectrum)) for i, x in enumerate(xs) if i != j]
        for rest in itertools.product(*other_grids):
            parts = []
            rest_iter = iter(rest)
            summed = 0.0
            for i, x in enumerate(xs):
                if i != j:
                    parts.append(atom_projectors[i][next(rest_iter)])
            direct = meet_all(parts, dim=dim)
            direct_mass = float(np.real(np.trace(direct.matrix @ state.matrix)))
            for k in range(len(xs[j].spectrum)):
                combo_values = []
                rest_iter2 = iter(rest)
                for i, x in enumerate(xs):
                    if i == j:
                        combo_values.append(x.spectrum[k])
                    else:
                        combo_values.append(x.spectrum[next(rest_iter2)])
                summed += masses[tuple(combo_values)]
            worst = max(worst, abs(summed - direct_mass))
    return masses, worst, worst <= t.assert_tol


def common_eigenvector_span_by_meets(xs, mode):
    """The per-atom ``meet_all`` and ``meet`` loops on full projector
    matrices, kept as the oracle of ``common_eigenvector_projector``."""
    dim = xs[0].dim
    if mode == "determinate":
        grid = itertools.product(*([x.eigenprojector_at(v) for v in x.spectrum] for x in xs))
        meets = [meet_all(list(parts), dim=dim) for parts in grid]
    else:
        x, y = xs
        width = max(x.snap_width, y.snap_width)
        meets = [meet(x.eigenprojector_at(a), y.eigenprojector_at(b))
                 for a in x.spectrum for b in y.spectrum if abs(a - b) <= width]
    bases = [p.basis for p in meets if p.rank]
    return Projector.from_basis(np.hstack(bases) if bases else np.zeros((dim, 0)),
                                dim=dim, tol=xs[0].tol)


# ---------------------------------------------------------------------------
# commutator projections


def com_family_by_meet_all(family):
    """Oracle for ``com_family``: the loop it ran before it batched its
    solves, one ``ortho`` per member and one ``meet_all`` per sign map."""
    dim = family[0].dim
    signed = [(p, ortho(p)) for p in family]
    meets = [meet_all([pair[s] for pair, s in zip(signed, signs)], dim=dim)
             for signs in itertools.product((0, 1), repeat=len(family))]
    return join_all(meets, dim=dim)


def stacked_com_kernel(family):
    """Oracle for ``com_kernel``: the joint kernel of every [P_i, P_j] P_k,
    i < j, stacked in one system of N^2 (N-1) d / 2 rows."""
    cube = np.stack([p.matrix for p in family])
    dim = cube.shape[1]
    blocks = [(commutator(cube[i], cube[i + 1:])[:, None] @ cube).reshape(-1, dim)
              for i in range(len(cube) - 1)]
    return common_null_space_projector(blocks, dim, family[0].tol)


def algebra_route(gens, dim, tol=DEFAULT_TOL):
    """Oracle for the invariant route: the joint kernel of [a, g] over a basis
    a of the generated algebra and its letters g."""
    algebra = algebra_from_generators(gens, dim, tol)
    basis = np.stack(algebra.basis)
    blocks = [commutator(basis, g).reshape(-1, dim) for g in algebra.letters]
    return common_null_space_projector(blocks, dim, tol)


def all_pairs_route(gens, dim, tol=DEFAULT_TOL):
    """The joint kernel of all basis pairs [a_i, a_j] of the generated
    algebra: the oracle for the invariant route's raw-matrix answer."""
    basis = np.stack(algebra_from_generators(gens, dim, tol).basis)
    blocks = [commutator(basis[i], basis[i + 1:]).reshape(-1, dim)
              for i in range(len(basis) - 1)]
    return common_null_space_projector(blocks, dim, tol)


# ---------------------------------------------------------------------------
# generated algebras and cyclic subspaces


def span_equal(first, second, tol=DEFAULT_TOL):
    """Mutual containment of two Hilbert-Schmidt spans of matrices.

    The inputs need not be orthonormal or even independent; each stack is
    reduced to an orthonormal range first, since the containment test
    projects with the stack directly.
    """
    a = range_basis(algebras._stack(first), tol)
    b = range_basis(algebras._stack(second), tol)
    if a.shape[1] != b.shape[1]:
        return False
    return algebras._span_contains(a, b, tol) and algebras._span_contains(b, a, tol)


def closed_by_pairs(basis, tol=DEFAULT_TOL):
    """Every product basis[i] @ basis[j] lies in the span of the orthonormal
    basis, checked pair by pair with no cap: the oracle for the word span's
    stop rule."""
    stack = algebras._stack(basis)
    for left in basis:
        for right in basis:
            v = (left @ right).reshape(-1)
            residual = v - stack @ (dagger(stack) @ v)
            if np.linalg.norm(residual) > tol.assert_tol * max(1.0, np.linalg.norm(v)):
                return False
    return True


def build_by_fixpoint_solve(gens, dim, tol=DEFAULT_TOL):
    """The double-commutant build A = C(C(G)), closed under every product
    pair and with C(A) = C(G) checked by a third solve: the oracle for the
    word span and the solve-free checks.  Its second solve has
    2 dim C(G) d^2 rows, so it is kept for d <= 8."""
    assert dim <= 8
    comm = commutant(gens, dim, tol)
    basis = commutant(comm, dim, tol)
    stack = algebras._stack(basis)
    if not algebras._span_contains(stack, algebras._stack([dagger(b) for b in basis]), tol):
        raise QLogicError("algebra span is not adjoint-closed")
    if not closed_by_pairs(basis, tol):
        raise QLogicError("algebra span is not closed under products")
    if not span_equal(commutant(basis, dim, tol), comm, tol):
        raise QLogicError("double commutant fixpoint failed")
    return basis, comm


def commutation_rows(g, n):
    """One generator's constraint block by np.kron, the reference for the
    batched system.  Row-major vec: vec(G X) = (G (x) I) vec(X), vec(X G) = (I (x) G^T) vec(X)."""
    eye = np.eye(n, dtype=complex)
    return np.kron(g, eye) - np.kron(eye, g.T)


def system_by_kron(mats, dim):
    """The commutant system of ``algebras._commutation_system``, one
    ``commutation_rows`` block per nonzero generator and its adjoint."""
    rows = []
    for g in mats:
        scale = opnorm(g)
        if scale == 0.0:
            continue
        rows.append(commutation_rows(g, dim) / scale)
        rows.append(commutation_rows(dagger(g), dim) / scale)
    return np.vstack(rows) if rows else np.zeros((0, dim * dim), dtype=complex)


def letter_commutator_norm(algebra, right):
    """Largest opnorm([a, g] @ right) over basis elements a and letters g (0.0
    with none): zero exactly when every [a_i, a_j] @ right is, since [a, gh] =
    [ag, h] + [ha, g] reaches every word.  One norm call per letter keeps
    memory at |A| d^2."""
    basis = np.stack(algebra.basis)
    return max((float(np.max(opnorms(commutator(basis, g) @ right))) for g in algebra.letters),
               default=0.0)


def max_pair_by_loop(matrices, right):
    """Largest opnorm([a_i, a_j] @ right) over basis pairs: the oracle for
    questions asked over basis x letters."""
    worst = 0.0
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            worst = max(worst, opnorm(commutator(matrices[i], matrices[j]) @ right))
    return worst


def cyclic_by_algebra(xs, state):
    """The algebra route: span of b psi over a basis b of the generated algebra."""
    alg = algebra_from_generators([x.matrix for x in xs], state.dim)
    return Projector.from_basis(np.hstack([b @ state.support.basis for b in alg.basis]),
                                dim=state.dim)


# ---------------------------------------------------------------------------
# states


def born_joint(observables, thresholds, state):
    """Joint distribution function of commuting observables at the given cuts."""
    xs = list(observables)
    if len(xs) != len(thresholds):
        raise DimensionMismatchError("one threshold per observable required")
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if not matrices_commute(xs[i].matrix, xs[j].matrix, state.tol):
                raise NotCommutingError(
                    f"{xs[i].name} and {xs[j].name} do not commute; no joint distribution function")
    product = np.eye(state.dim, dtype=complex)
    for x, cut in zip(xs, thresholds):
        product = product @ x.threshold(cut).matrix
    value = complex(np.trace(product @ state.matrix))
    return float(min(1.0, max(0.0, value.real)))


# ---------------------------------------------------------------------------
# kernels


def unfloored_kernel_basis(matrix, tol=DEFAULT_TOL):
    """Oracle: the square-only kernel solve with its own unfloored cutoff,
    which ``kernel_basis`` used before it became ``solution_basis``."""
    m = require_square(matrix)
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(m)
    cutoff = singular_cutoff(s, n, tol)
    return dagger(vh)[:, s <= cutoff]
