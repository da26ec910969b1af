"""Commutants, generated algebras, centers, minimal central projections."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z
from families import (
    FAMILY_KINDS,
    family_and_state,
    generator_matrix,
    matrix_family,
    noisy_pair,
    rotated_block_generators,
    split_pair,
)
from oracles import (
    build_by_fixpoint_solve,
    closed_by_pairs,
    letter_commutator_norm,
    max_pair_by_loop,
    span_equal,
    system_by_kron,
)
from qlogic import algebras
from qlogic.algebras import (
    MatrixAlgebra,
    abelian_part,
    algebra_from_generators,
    center,
    commutant,
    contains,
    minimal_central_projections,
)
from qlogic.commutators import com_observables
from qlogic.errors import (
    CrossCheckFailure,
    DimensionMismatchError,
    FamilyTooLargeError,
    NonGenericElementError,
    QLogicError,
)
from qlogic.linalg import commutator, dagger, opnorm
from qlogic.observables import spectral_decompose
from qlogic.projectors import Projector
from qlogic.sampling import (
    haar_unitary,
    random_density,
    random_vector_state,
    rng_from_seed,
    state_supported_in,
)
from qlogic.tolerances import DEFAULT_TOL, ToleranceConfig


def test_commutant_of_nothing_is_everything():
    basis = commutant([], 3)
    assert len(basis) == 9


def test_commutant_of_irreducible_pair_is_scalars():
    basis = commutant([SIGMA_X, SIGMA_Z], 2)
    assert len(basis) == 1
    b = basis[0]
    assert opnorm(b - np.trace(b) / 2.0 * np.eye(2)) < 1e-10


def test_commutant_of_diagonal_matrix_is_diagonal():
    basis = commutant([np.diag([1.0, 2.0, 3.0]).astype(complex)], 3)
    assert len(basis) == 3
    for b in basis:
        assert opnorm(b - np.diag(np.diag(b))) < 1e-10


def test_commutant_members_commute_with_generators(rng):
    u = haar_unitary(4, rng)
    g = u @ np.diag([1.0, 1.0, 2.0, 3.0]) @ dagger(u)
    for b in commutant([g], 4):
        assert opnorm(g @ b - b @ g) < 1e-8


def test_commutant_ignores_scalar_noise_generator(rng):
    # A generator that is the identity up to rounding must not shrink the
    # commutant below the full matrix algebra.
    noisy_identity = np.eye(4, dtype=complex) + 1e-15 * rng.normal(size=(4, 4))
    basis = commutant([noisy_identity], 4)
    assert len(basis) == 16


def test_algebra_from_generators_full():
    alg = algebra_from_generators([SIGMA_X, SIGMA_Z], 2)
    assert isinstance(alg, MatrixAlgebra)
    assert alg.size == 4
    assert len(alg.commutant_basis) == 1


def test_algebra_from_generators_abelian():
    alg = algebra_from_generators([np.diag([1.0, 2.0, 2.0]).astype(complex)], 3)
    # Two spectral projections span a two-dimensional unital algebra.
    assert alg.size == 2
    assert contains(alg, np.eye(3))
    assert contains(alg, np.diag([5.0, -1.0, -1.0]))
    assert not contains(alg, np.diag([0.0, 1.0, 2.0]))
    embedded = np.zeros((3, 3), dtype=complex)
    embedded[:2, :2] = SIGMA_X
    assert not contains(alg, embedded)


def test_center_of_full_algebra_is_scalars():
    alg = algebra_from_generators([SIGMA_X, SIGMA_Z], 2)
    central = center(alg)
    assert len(central) == 1
    c = central[0]
    assert opnorm(c - np.trace(c) / 2.0 * np.eye(2)) < 1e-10


def test_center_of_block_algebra():
    g1 = np.zeros((4, 4), dtype=complex)
    g1[:2, :2] = SIGMA_X
    g2 = np.zeros((4, 4), dtype=complex)
    g2[:2, :2] = SIGMA_Z
    alg = algebra_from_generators([g1, g2], 4)
    assert len(center(alg)) == 2


def test_minimal_central_projections_resolve_blocks():
    g = np.diag([1.0, 1.0, 4.0, 4.0]).astype(complex)
    coupling = np.zeros((4, 4), dtype=complex)
    coupling[0, 1] = coupling[1, 0] = 1.0
    alg = algebra_from_generators([g, coupling], 4)
    centrals = minimal_central_projections(alg)
    total = sum(p.matrix for p in centrals)
    assert np.allclose(total, np.eye(4), atol=1e-10)
    for p in centrals:
        for b in alg.basis:
            assert opnorm(p.matrix @ b - b @ p.matrix) < 1e-8
    # The diagonal blocks {0,1} and {2,3} are the two factors.
    assert sorted(p.rank for p in centrals) == [1, 1, 2]


def test_minimal_central_projection_of_factor_is_identity():
    alg = algebra_from_generators([SIGMA_X, SIGMA_Y], 2)
    centrals = minimal_central_projections(alg)
    assert len(centrals) == 1
    assert centrals[0].rank == 2


def test_minimal_central_check_rejects_a_candidate_that_is_not_central():
    # Both diagonal rays lie in M_2 and pass the minimality test against its
    # scalar center, but neither commutes with the letter sigma_x.
    alg = algebra_from_generators([SIGMA_X, SIGMA_Z], 2)
    rays = [Projector.from_matrix(np.diag(d).astype(complex)) for d in ([1.0, 0.0], [0.0, 1.0])]
    assert algebras._verify_minimal_central(rays, alg, center(alg)) == (
        False, "candidate not central")


def test_span_equal():
    first = [np.eye(2, dtype=complex), SIGMA_Z]
    second = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    assert span_equal(first, second)
    assert not span_equal(first, [np.eye(2, dtype=complex)])
    assert not span_equal(first, [np.eye(2, dtype=complex), SIGMA_X])


def test_double_commutant_is_idempotent(rng):
    u = haar_unitary(4, rng)
    g = u @ np.diag([0.0, 1.0, 1.0, 3.0]) @ dagger(u)
    alg = algebra_from_generators([g], 4)
    again = algebra_from_generators(alg.basis, 4)
    assert again.size == alg.size
    assert span_equal(alg.basis, again.basis)


# ---------------------------------------------------------------------------
# built algebras


def test_algebra_from_generators_checks_dimension_and_keeps_tolerance():
    assert algebra_from_generators([], 2).dim == 2
    assert algebra_from_generators([], 3).dim == 3
    with pytest.raises(DimensionMismatchError):
        algebra_from_generators([SIGMA_X], 3)
    looser = ToleranceConfig(assert_tol=1e-7)
    assert algebra_from_generators([SIGMA_X, SIGMA_Z], 2, looser).tol == looser


def test_algebra_is_not_changed_by_mutating_the_input():
    g = np.diag([1.0, 2.0, 2.0]).astype(complex)
    alg = algebra_from_generators([g], 3)
    basis = [b.copy() for b in alg.basis]
    g[0, 1] = g[1, 0] = 1.0
    assert np.array_equal(alg.generators[0], np.diag([1.0, 2.0, 2.0]))
    assert all(np.array_equal(b, c) for b, c in zip(alg.basis, basis))
    assert algebra_from_generators([g], 3).size != alg.size


def test_algebras_are_read_only():
    alg = algebra_from_generators([SIGMA_X, SIGMA_Z], 2)
    assert isinstance(alg.basis, tuple)
    for field in (alg.generators, alg.letters, alg.basis, alg.commutant_basis):
        with pytest.raises(ValueError):
            field[0][0, 0] = 7.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        alg.dim = 3


# ---------------------------------------------------------------------------
# product closure, pair by pair


# Kinds of matrix_family; "split" is an eigenvalue split of 1e-3 to 1e-5,
# "fine-split" one of 1e-6 to 1e-8.
_KINDS = ["generic", "commuting", "block", "split", "fine-split", "non-normal"]


def test_pair_loop_rejects_a_span_not_closed_under_products():
    # sigma_x sigma_z = -i sigma_y leaves span{1, sigma_x, sigma_z}.
    basis = [np.eye(2, dtype=complex) / np.sqrt(2), SIGMA_X / np.sqrt(2), SIGMA_Z / np.sqrt(2)]
    assert not closed_by_pairs(basis)
    assert closed_by_pairs(algebra_from_generators([SIGMA_X, SIGMA_Z], 2).basis)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=5),
       kind=st.sampled_from(_KINDS))
def test_built_algebras_are_closed_under_every_basis_product(seed, dim, kind):
    gens = matrix_family(kind, dim, rng_from_seed(seed))
    try:
        alg = algebra_from_generators(gens, dim)
    except QLogicError:
        # Only a near-degenerate family may be refused, and at a split of
        # 1e-5 or more only one the oracle refuses too.
        assert kind == "fine-split" or (kind == "split" and _oracle_refuses(gens, dim))
        return
    assert closed_by_pairs(alg.basis)


# ---------------------------------------------------------------------------
# batched commutant system and pairwise commutator norms


_GENERATOR_KINDS = ["zero", "scalar", "noisy-identity", "integer-diagonal", "hermitian",
                    "non-hermitian"]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=1, max_value=5),
       kinds=st.lists(st.sampled_from(_GENERATOR_KINDS), max_size=4))
def test_batched_commutation_system_matches_kron_stack(seed, dim, kinds):
    rng = rng_from_seed(seed)
    # commutant hands the system complex generators (require_square).
    mats = [np.asarray(generator_matrix(kind, dim, rng), dtype=complex) for kind in kinds]
    batched = algebras._commutation_system(mats, dim)
    looped = system_by_kron(mats, dim)
    assert np.array_equal(batched, looped)
    # Bit for bit, signed zeros included: the blocks are the same products.
    assert batched.shape == looped.shape and batched.tobytes() == looped.tobytes()


def test_commutant_rejects_a_generator_of_another_size():
    with pytest.raises(DimensionMismatchError):
        commutant([SIGMA_X, np.eye(3)], 2)


_LETTER_KINDS = ["commuting", "determinate-block", "generic", "split", "noisy"]


def _letter_case(kind, dim, rng):
    """A generating family and its right factors R: a random density, a
    vector state, the identity, the sector state of a determinate-block
    family and every minimal central projection of the built algebra."""
    sector = []
    if kind == "determinate-block":
        family, state = family_and_state(kind, dim, 2, rng)
        gens, sector = [x.matrix for x in family], [state.matrix]
    elif kind == "split":
        gens = split_pair(dim, 10.0 ** -int(rng.integers(3, 7)), rng)
    elif kind == "noisy":
        gens = noisy_pair(dim, rng)
    else:
        gens = matrix_family(kind, dim, rng)
    dim = len(gens[0])
    alg = algebra_from_generators(gens, dim)
    rights = [random_density(dim, rng).matrix, random_vector_state(dim, rng).matrix,
              np.eye(dim, dtype=complex), *sector,
              *(c.matrix for c in minimal_central_projections(alg))]
    return alg, rights


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=6),
       kind=st.sampled_from(_LETTER_KINDS))
def test_letter_commutator_norm_judges_as_the_pair_loop(seed, dim, kind):
    try:
        alg, rights = _letter_case(kind, dim, rng_from_seed(seed))
    except QLogicError:
        # Only a near-degenerate family may be refused by the build.
        assert kind in ("split", "noisy")
        return
    tol = DEFAULT_TOL.assert_tol
    for right in rights:
        letters = letter_commutator_norm(alg, right)
        assert (letters <= tol) == (max_pair_by_loop(alg.basis, right) <= tol)


def test_letter_commutator_norm_of_the_scalar_algebra_is_zero():
    alg = algebra_from_generators([np.zeros((3, 3), dtype=complex)], 3)
    assert alg.letters == () and letter_commutator_norm(alg, np.eye(3)) == 0.0


# ---------------------------------------------------------------------------
# the word span and the solve-free checks against the double commutant


def _wedderburn_residual(basis, comm):
    left = sum(b @ dagger(b) for b in basis)
    right = sum(c @ dagger(c) for c in comm)
    return opnorm(left @ right - np.eye(len(left)))


def _fixpoint_ok(basis, comm):
    try:
        algebras._check_fixpoint(basis, comm, DEFAULT_TOL)
    except QLogicError:
        return False
    return True


def _oracle_refuses(gens, dim):
    try:
        build_by_fixpoint_solve(gens, dim)
    except QLogicError:
        return True
    return False


def _assert_solve_free_checks_match_the_oracle(gens, dim, oracle=None):
    basis, comm = oracle or build_by_fixpoint_solve(gens, dim)
    alg = algebra_from_generators(gens, dim)
    # The word span is built apart from the oracle's second solve (it uses
    # the one commutant solve only to project its new directions); the
    # commutant is the same one solve on both sides.
    assert len(alg.basis) == len(basis)
    assert span_equal(alg.basis, basis)
    stack = algebras._stack(alg.basis)
    assert np.allclose(dagger(stack) @ stack, np.eye(len(alg.basis)), rtol=0.0, atol=1e-12)
    assert len(alg.commutant_basis) == len(comm)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(alg.commutant_basis, comm))
    assert all(contains(alg, g) for g in gens)
    assert _wedderburn_residual(alg.basis, alg.commutant_basis) <= DEFAULT_TOL.assert_tol
    return alg


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=8),
       kind=st.sampled_from(_KINDS))
def test_solve_free_fixpoint_checks_accept_what_the_solve_accepts(seed, dim, kind):
    gens = matrix_family(kind, dim, rng_from_seed(seed))
    try:
        oracle = build_by_fixpoint_solve(gens, dim)
    except QLogicError:
        # The oracle refuses only near-degenerate families.
        assert kind in ("split", "fine-split")
        return
    try:
        _assert_solve_free_checks_match_the_oracle(gens, dim, oracle)
    except QLogicError:
        # Below a split of 1e-5 the commutant solve and the word span judge
        # residuals near the cutoff apart, so the build may refuse a family
        # the oracle builds; where both succeed, their spans agree.
        assert kind == "fine-split"


# split_pair(dim, split, seed) families the oracle builds and a word span
# that does not project its new directions onto C(G)' refused: its error
# grew by about 1 / split a step, until the adjoint-closure check failed.
_DRIFTING_SPLITS = [(7, 1e-4, 1084), (7, 1e-4, 1095), (8, 1e-4, 1010),
                    (7, 1e-5, 1007), (7, 1e-5, 1050), (8, 1e-5, 1003)]


@pytest.mark.parametrize("dim, split, seed", _DRIFTING_SPLITS)
def test_the_word_span_builds_split_families_the_oracle_builds(dim, split, seed):
    alg = _assert_solve_free_checks_match_the_oracle(split_pair(dim, split, seed), dim)
    # A proper subalgebra: inside M_d no direction can drift out.
    assert alg.size < dim * dim


_BLOCK_SHAPES = [[(1, 1), (1, 1), (1, 1)], [(2, 1)], [(2, 2)], [(1, 2), (2, 1)],
                 [(3, 1), (1, 3)], [(2, 1), (2, 1), (1, 2)], [(1, 1), (2, 2)],
                 [(3, 2)], [(2, 3)], [(1, 4), (2, 1)]]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       blocks=st.sampled_from(_BLOCK_SHAPES))
def test_solve_free_checks_on_rotated_block_algebras_of_known_shape(seed, blocks):
    rng = rng_from_seed(seed)
    dim = sum(n * m for n, m in blocks)
    alg = _assert_solve_free_checks_match_the_oracle(rotated_block_generators(blocks, rng), dim)
    assert alg.size == sum(n * n for n, _ in blocks)
    assert len(alg.commutant_basis) == sum(m * m for _, m in blocks)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       blocks=st.sampled_from(_BLOCK_SHAPES))
def test_the_word_span_projection_is_the_orthogonal_projection_onto_the_algebra(seed, blocks):
    rng = rng_from_seed(seed)
    dim = sum(n * m for n, m in blocks)
    basis, comm = build_by_fixpoint_solve(rotated_block_generators(blocks, rng), dim)
    stack = algebras._stack(basis)
    vectors = rng.normal(size=(dim * dim, 3)) + 1j * rng.normal(size=(dim * dim, 3))
    projected = algebras._onto_commutant_of(comm, np.hstack([stack, vectors]))
    expected = np.hstack([stack, stack @ (dagger(stack) @ vectors)])
    assert np.allclose(projected, expected, rtol=0.0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=6),
       kind=st.sampled_from(["generic", "commuting", "block"]),
       mutation=st.sampled_from(["drop-basis", "extra-commutant"]))
def test_fixpoint_checks_reject_a_mutated_basis_or_commutant(seed, dim, kind, mutation):
    rng = rng_from_seed(seed)
    gens = matrix_family(kind, dim, rng)
    alg = algebra_from_generators(gens, dim)
    # On the scalar algebra C*1 neither mutation is defined: dropping its one
    # element leaves no basis, and the commutant M_d leaves no room for another.
    assume(alg.size > 1)
    basis, comm = list(alg.basis), list(alg.commutant_basis)
    if mutation == "drop-basis":
        del basis[int(rng.integers(len(basis)))]
    else:
        stack = algebras._stack(comm)
        extra = (rng.normal(size=dim * dim) + 1j * rng.normal(size=dim * dim))
        extra -= stack @ (dagger(stack) @ extra)
        comm.append((extra / np.linalg.norm(extra)).reshape(dim, dim))
    # The membership check (which reads only the commutant) runs before the
    # span, so the basis-commutant and Wedderburn checks must catch it.
    assert _fixpoint_ok(alg.basis, alg.commutant_basis)
    with pytest.raises(QLogicError, match="commute with its commutant|span the algebra's"):
        algebras._check_fixpoint(basis, comm, DEFAULT_TOL)


def _builds_over_commutant(gens, comm, monkeypatch):
    """Whether ``algebra_from_generators`` accepts gens when the commutant solve
    returns ``comm``."""
    monkeypatch.setattr(algebras, "commutant", lambda *args: list(comm))
    try:
        algebra_from_generators(gens, 3)
    except QLogicError as error:
        assert str(error) == "algebra does not contain its generators"
        return False
    return True


def test_fixpoint_checks_reject_a_missing_generator(monkeypatch):
    # The diagonal algebra does not hold sigma_x on its first two coordinates.
    alg = algebra_from_generators([np.diag([1.0, 2.0, 3.0]).astype(complex)], 3)
    embedded = np.zeros((3, 3), dtype=complex)
    embedded[:2, :2] = SIGMA_X
    assert not _builds_over_commutant([embedded], alg.commutant_basis, monkeypatch)
    assert _builds_over_commutant([np.diag([1.0, 2.0, 3.0])], alg.commutant_basis, monkeypatch)


@pytest.mark.parametrize("dim, seed", [(7, 1000), (8, 1002), (8, 1003)])
def test_a_family_missing_its_generators_is_refused_before_any_word(monkeypatch, dim, seed):
    # At a 1e-7 split the commutant solve of these families keeps a spurious
    # element; checked first, membership refuses them after the one solve.
    calls = []
    original = algebras._word_span

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(algebras, "_word_span", counted)
    with pytest.raises(QLogicError):
        algebra_from_generators(split_pair(dim, 1e-7, seed), dim)
    assert calls == []


def test_a_build_solves_one_commutant_system(monkeypatch):
    calls = []
    original = algebras.commutant

    def counted(generators, dim, tol=DEFAULT_TOL):
        calls.append(len(generators))
        return original(generators, dim, tol)

    monkeypatch.setattr(algebras, "commutant", counted)
    assert algebra_from_generators([SIGMA_X, SIGMA_Z], 2).size == 4
    assert calls == [2]


@pytest.mark.parametrize("split", [1e-3, 1e-5, 1e-6])
def test_a_split_well_above_the_cutoff_is_a_new_word(split):
    # X / |X| is the identity plus a part of about split / 2; at d = 3 the
    # cutoff is 9e-9, so the part is kept and the words span both spectral
    # projections of X.
    p = np.diag([0.0, 0.0, 1.0]).astype(complex)
    alg = algebra_from_generators([np.eye(3) + split * p], 3)
    assert alg.size == 2 and span_equal(alg.basis, [np.eye(3), p])


def test_words_of_a_nilpotent_generator_take_its_adjoint():
    # E_01 alone spans {1, E_01}; with E_10 its words span M_2.  The letters
    # are the generator over its norm, then its adjoint.
    unit = np.zeros((2, 2), dtype=complex)
    unit[0, 1] = 1.0
    alg = algebra_from_generators([2.0 * unit], 2)
    assert alg.size == 4
    assert np.array_equal(np.stack(alg.letters), [unit, unit.T])


# ---------------------------------------------------------------------------
# near-degenerate generators: refused or whole, never silently short


def _refused_or_whole(gens, dim):
    try:
        alg = algebra_from_generators(gens, dim)
    except QLogicError:
        return "refused"
    assert all(contains(alg, g) for g in gens)
    cube = np.stack(alg.basis)
    worst = max(float(np.max([opnorm(commutator(c, b)) for b in cube]))
                for c in alg.commutant_basis)
    assert worst <= DEFAULT_TOL.assert_tol
    assert _wedderburn_residual(alg.basis, alg.commutant_basis) <= DEFAULT_TOL.assert_tol
    return "whole"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=8),
       exponent=st.integers(min_value=3, max_value=8))
def test_near_degenerate_builds_are_refused_or_contain_their_generators(seed, dim, exponent):
    _refused_or_whole(split_pair(dim, 10.0 ** -exponent, seed), dim)


def test_split_pairs_at_d8_that_lost_a_generator_are_refused():
    # At d = 8 and a 1e-7 split, the build checked by the commutant(basis)
    # solve returned, for these seeds, an algebra of size 2-4 with a
    # commutant of 16-50 elements that does not contain X.
    seeds = (0, 1, 4, 5, 9, 10, 11, 12, 13, 15)
    outcomes = [_refused_or_whole(split_pair(8, 1e-7, seed), 8) for seed in seeds]
    assert outcomes == ["refused"] * len(seeds)


# ---------------------------------------------------------------------------
# the abelian central part from one generic element


def _block_diagonal(*blocks):
    """The block-diagonal matrix of the given square blocks."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in blocks]
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def test_abelian_part_of_m2_tensor_identity_is_zero():
    # The eigenspaces of Z are two-dimensional, v (x) C^2: single slots of
    # the one block M_2 (x) 1_2, which the commutant solve certifies.
    xs = [spectral_decompose(name, np.kron(g, np.eye(2)))
          for name, g in (("X", SIGMA_Z), ("Y", SIGMA_X))]
    assert abelian_part(xs).rank == 0


def test_abelian_part_keeps_the_abelian_blocks_of_a_block_family():
    # Blocks: a scalar pair on two coordinates, M_2 on the next two, and one
    # more coordinate.
    x = spectral_decompose("X", _block_diagonal(3.0 * np.eye(2), SIGMA_Z, -2.0))
    y = spectral_decompose("Y", _block_diagonal(5.0 * np.eye(2), SIGMA_X, 1.0))
    n = abelian_part([x, y])
    expected = np.diag([1.0, 1.0, 0.0, 0.0, 1.0])
    assert n.rank == 3 and opnorm(n.matrix - expected) <= DEFAULT_TOL.assert_tol


def test_a_non_generic_element_is_refused_not_misread(monkeypatch):
    # X = diag(0, 1, 2) and Y = |+><+| (+) 0 generate M_2 (+) C.  With the
    # labels 0, 1/2, 1 of X and a weight ratio of 2/3, Z takes the value 1 on
    # the third coordinate and as an eigenvalue on the M_2 block, so one
    # eigenspace of Z spans two slots; at the default ratio the two split.
    xs = [spectral_decompose("X", np.diag([0.0, 1.0, 2.0])),
          spectral_decompose("Y", _block_diagonal(np.full((2, 2), 0.5), 0.0))]
    n = abelian_part(xs)
    assert n.rank == 1 and opnorm(n.matrix - np.diag([0.0, 0.0, 1.0])) <= 1e-12
    monkeypatch.setattr(algebras, "_GENERIC_RATIO", 2.0 / 3.0)
    with pytest.raises(NonGenericElementError, match="more than one Wedderburn slot"):
        abelian_part(xs)


def test_abelian_part_of_scalars_is_the_identity_and_needs_a_family():
    assert abelian_part([spectral_decompose("S", 2.0 * np.eye(3))]).rank == 3
    with pytest.raises(FamilyTooLargeError):
        abelian_part([])
    with pytest.raises(DimensionMismatchError):
        abelian_part([spectral_decompose("X", SIGMA_X), spectral_decompose("S", np.eye(3))])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       dim=st.integers(min_value=2, max_value=8),
       count=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(FAMILY_KINDS))
@example(seed=3128, dim=2, count=1, kind="split")
def test_abelian_part_judges_as_the_word_span_and_equals_com(seed, dim, count, kind):
    # The clause N rho = rho has the word span's verdict on the family's own
    # state and on a state inside N, and N is com wherever com returns.
    rng = rng_from_seed(seed)
    xs, state = family_and_state(kind, dim, count, rng)
    dim = xs[0].dim
    n = abelian_part(xs)
    limit = DEFAULT_TOL.assert_tol
    try:
        com = com_observables(xs)
    except CrossCheckFailure:
        # Only a near-degenerate family may be refused by com's routes.
        assert kind == "split"
    else:
        assert opnorm(n.matrix - com.matrix) <= limit
    rights = [state.matrix]
    if n.rank:
        rights.append(state_supported_in(n, rng).matrix)
    # The word span of the eigenprojectors: the algebra the spectral data
    # generate.  The raw matrices would not do: a split near the cluster
    # width is two points to the spectral data and one to the word span's
    # rank cut, or the other way round.
    try:
        alg = algebra_from_generators([p.matrix for x in xs for p in x.eigenprojectors], dim)
    except QLogicError:
        # Only a near-degenerate family may be refused by the build.
        assert kind == "split"
        return
    for right in rights:
        assert ((opnorm(right - n.matrix @ right) <= limit)
                == (letter_commutator_norm(alg, right) <= limit))
